//! Figure 7: effect of the propagation-hop count `K` on effectiveness.
//!
//! The reproduced observations: low-pass fixed filters over-smooth as `K`
//! grows (accuracy decays), decaying (PPR) and orthogonal-basis variable
//! filters stay stable.

use sgnn_train::Scheme;

use crate::harness::{save_json, Opts};
use crate::runner::CellRunner;
use crate::store::{CellKey, CellOutcome};
use crate::table::{Cell, Column, Layout, Table};

/// Runs the hop sweep on one homophilous + one heterophilous dataset.
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["cora", "roman-empire"]);
    let filters = opts.filter_names(&[
        "Linear",
        "Impulse",
        "PPR",
        "Gaussian",
        "Monomial",
        "Chebyshev",
        "Jacobi",
    ]);
    let hop_grid: Vec<usize> = if opts.hops <= 4 {
        vec![2, 4]
    } else {
        vec![2, 6, 10, 14, 20]
    };
    let mut columns = vec![Column::hidden("dataset"), Column::left("filter", 12)];
    columns.extend(hop_grid.iter().map(|k| Column::right(format!("K={k}"), 0)));
    let title = "Figure 7: effect of propagation hops K";
    let mut table = Table::new("fig7", title, Layout::Lines, columns);
    let mut runner = CellRunner::for_opts(opts);
    for dname in &datasets {
        let data = opts.load_dataset(dname, 0);
        table.section(dname);
        for fname in &filters {
            let mut row = vec![dname.into(), fname.into()];
            for &k in &hop_grid {
                let key = CellKey::new("fig7", fname, dname, "FB", &format!("K={k}"), 0);
                let outcome = runner.run_report(key, 0, |ctx| {
                    // Linear's order is fixed at 1; sweeping K means repeated
                    // application, i.e. the Impulse filter — skip duplicates.
                    let filter = if fname == "Linear" {
                        sgnn_core::make_filter("Impulse", k).unwrap()
                    } else {
                        sgnn_core::make_filter(fname, k).unwrap()
                    };
                    let mut cfg = opts.train_config(0);
                    cfg.hops = k;
                    ctx.apply(&mut cfg);
                    Scheme::FullBatch
                        .try_train(filter, &data, None, &cfg)
                        .map(|t| t.report)
                });
                row.push(match outcome {
                    CellOutcome::Done(r) => Cell::f(r.test_metric, 4),
                    CellOutcome::Dnf { reason } => Cell::Dnf(reason),
                });
            }
            table.push(row);
        }
    }
    save_json(opts, &table);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_sweep_covers_grid() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["PPR".into()];
        opts.epochs = 8;
        let out = run(&opts);
        assert!(out.contains("K=2:"));
        assert!(out.contains("K=4:"));
    }
}
