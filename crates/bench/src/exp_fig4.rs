//! Figure 4: statistical significance of filter effectiveness — per-seed
//! spread (min / mean / max) with shared seeds across filters.

use sgnn_train::Scheme;

use crate::harness::{save_json, Opts, REPRESENTATIVES};
use crate::runner::{CellRunner, Setting};
use crate::store::CellKey;
use crate::table::{Cell, Column, Layout, Table};

/// Runs the seed-variance study (cora-like random splits vs arxiv-like
/// larger graph, as in the paper).
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["cora", "ogbn-arxiv"]);
    let filters = opts.filter_names(REPRESENTATIVES);
    let seeds = opts.seeds.max(5);
    let mut table = Table::new(
        "fig4",
        format!("Figure 4: accuracy spread over {seeds} shared seeds"),
        Layout::Lines,
        vec![
            Column::hidden("dataset"),
            Column::left("filter", 12),
            Column::right("mean", 0),
            Column::right("std", 0),
            Column::right("min", 0),
            Column::right("max", 0),
            Column::hidden("per_seed"),
        ],
    );
    let mut runner = CellRunner::for_opts(opts);
    for dname in &datasets {
        table.section(dname);
        // One dataset generation per seed, shared by every filter: variance
        // includes the split/topology difference, as the paper emphasizes.
        let per_seed: Vec<_> = (0..seeds as u64)
            .map(|s| Setting::load(opts, dname, s, opts.train_config(s)))
            .collect();
        for fname in &filters {
            // Every seed or none: a spread over fewer seeds than the other
            // filters' is not over shared seeds.
            let metrics: Result<Vec<f64>, Cell> = (per_seed.iter().enumerate())
                .map(|(s, at)| {
                    let key = CellKey::new("fig4", fname, dname, "FB", "", s as u64);
                    let filter = || opts.build_filter(fname);
                    let report = runner.train_report(key, Scheme::FullBatch, at, filter);
                    report.map(|r| r.test_metric)
                })
                .collect();
            let mut row = vec![dname.into(), fname.into()];
            match metrics {
                Ok(per_seed) => row.extend([
                    Cell::f(sgnn_dense::stats::mean(&per_seed), 4),
                    Cell::f(sgnn_dense::stats::stddev(&per_seed), 4),
                    Cell::f(per_seed.iter().copied().fold(f64::MAX, f64::min), 4),
                    Cell::f(per_seed.iter().copied().fold(f64::MIN, f64::max), 4),
                    Cell::List(per_seed),
                ]),
                Err(marker) => row.push(marker),
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
    fn variance_study_reports_spread() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["PPR".into()];
        opts.seeds = 2;
        opts.epochs = 10;
        let out = run(&opts);
        assert!(out.contains("std="));
        assert!(out.contains("min="));
    }
}
