//! Figure 10: effect of the graph-normalization coefficient `ρ` on the
//! degree-wise accuracy gap.
//!
//! Reproduced observation: larger `ρ` shifts accuracy toward high-degree
//! nodes on graphs where connections are informative.

use sgnn_analysis::degree_gap;

use crate::exp_fig9::train_with_logits;
use crate::harness::{save_json, Opts};
use crate::runner::CellRunner;
use crate::table::{Cell, Column, Layout, Table};

/// Sweeps `ρ ∈ {0, 0.25, 0.5, 0.75, 1}` for fixed and variable filters.
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["citeseer", "roman-empire"]);
    let filters = opts.filter_names(&["PPR", "VarMonomial"]);
    let rhos = [0.0f32, 0.25, 0.5, 0.75, 1.0];
    let mut columns = vec![Column::hidden("dataset"), Column::left("filter", 12)];
    columns.extend(rhos.map(|rho| Column::right(format!("ρ={rho:.2}"), 0)));
    columns.extend(rhos.map(|rho| Column::hidden(format!("overall ρ={rho:.2}"))));
    let title = "Figure 10: normalization ρ vs degree gap";
    let mut table = Table::new("fig10", title, Layout::Lines, columns);
    let mut runner = CellRunner::for_opts(opts);
    for dname in &datasets {
        let data = opts.load_dataset(dname, 0);
        table.section(dname);
        for fname in &filters {
            let mut gaps = Vec::new();
            let mut overall = Vec::new();
            for &rho in &rhos {
                let label = format!("fig10/{fname}/{dname}/rho={rho}");
                let trained = runner.run_value(&label, 0, |ctx| {
                    let mut cfg = opts.train_config(0);
                    cfg.rho = rho;
                    ctx.apply(&mut cfg);
                    train_with_logits(opts, fname, &data, &cfg)
                });
                match trained {
                    Ok((report, logits)) => {
                        gaps.push(Cell::signed(degree_gap(&logits, &data).gap, 3));
                        overall.push(Cell::f(report.test_metric, 4));
                    }
                    Err(reason) => {
                        gaps.push(Cell::Dnf(reason.clone()));
                        overall.push(Cell::Dnf(reason));
                    }
                }
            }
            table.push([vec![dname.into(), fname.into()], gaps, overall].concat());
        }
    }
    save_json(opts, &table);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_sweep_emits_gap_per_rho() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["PPR".into()];
        opts.epochs = 8;
        let out = run(&opts);
        assert!(out.contains("ρ=0.00"));
        assert!(out.contains("ρ=1.00"));
    }
}
