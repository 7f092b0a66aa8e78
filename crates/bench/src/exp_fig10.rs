//! Figure 10: effect of the graph-normalization coefficient `ρ` on the
//! degree-wise accuracy gap.
//!
//! Reproduced observation: larger `ρ` shifts accuracy toward high-degree
//! nodes on graphs where connections are informative.

use std::sync::Arc;

use sgnn_analysis::degree_gap;
use sgnn_sparse::PropMatrix;

use crate::harness::{save_json, Opts};
use crate::runner::{CellRunner, Setting};
use crate::store::CellKey;
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
        let mut at = Setting::load(opts, dname, 0, opts.train_config(0));
        table.section(dname);
        for fname in &filters {
            let mut gaps = Vec::new();
            let mut overall = Vec::new();
            for rho in rhos {
                if at.cfg.rho != rho {
                    at.cfg.rho = rho;
                    at.op = Arc::new(PropMatrix::new(&at.data.graph, rho));
                }
                let key = CellKey::new("fig10", fname, dname, "FB", &format!("rho={rho}"), 0);
                let filter = || opts.build_filter(fname);
                let data = &at.data;
                match runner.train_value(key, &at, filter, |t| (t.logits(data), t.report)) {
                    Ok((logits, report)) => {
                        gaps.push(Cell::signed(degree_gap(&logits, data).gap, 3));
                        overall.push(Cell::f(report.test_metric, 4));
                    }
                    Err(marker) => {
                        gaps.push(marker.clone());
                        overall.push(marker);
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
