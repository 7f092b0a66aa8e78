//! Figure 4: statistical significance of filter effectiveness — per-seed
//! spread (min / mean / max) with shared seeds across filters.

use sgnn_train::try_train_full_batch;

use crate::harness::{filter_sets, save_json, Opts};
use crate::runner::CellRunner;
use crate::store::{CellKey, CellOutcome};
use crate::table::{Cell, Column, Layout, Table};

/// Runs the seed-variance study (cora-like random splits vs arxiv-like
/// larger graph, as in the paper).
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["cora", "ogbn-arxiv"]);
    let filters = opts.filter_names(&filter_sets::representatives());
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
        let data_per_seed: Vec<_> = (0..seeds)
            .map(|s| opts.load_dataset(dname, s as u64))
            .collect();
        for fname in &filters {
            let mut per_seed: Vec<f64> = Vec::new();
            let mut first_dnf: Option<String> = None;
            for (s, data) in data_per_seed.iter().enumerate() {
                let key = CellKey::new("fig4", fname, dname, "FB", "", s as u64);
                let outcome = runner.run_report(key, s as u64, |ctx| {
                    let mut cfg = opts.train_config(s as u64);
                    ctx.apply(&mut cfg);
                    try_train_full_batch(opts.build_filter(fname), data, &cfg)
                });
                match outcome {
                    CellOutcome::Done(r) => per_seed.push(r.test_metric),
                    CellOutcome::Dnf { reason } => {
                        if first_dnf.is_none() {
                            first_dnf = Some(reason);
                        }
                    }
                }
            }
            let mut row = vec![dname.into(), fname.into()];
            if per_seed.is_empty() {
                row.push(Cell::Dnf(first_dnf.unwrap_or_default()));
            } else {
                row.extend([
                    Cell::f(sgnn_dense::stats::mean(&per_seed), 4),
                    Cell::f(sgnn_dense::stats::stddev(&per_seed), 4),
                    Cell::f(per_seed.iter().copied().fold(f64::MAX, f64::min), 4),
                    Cell::f(per_seed.iter().copied().fold(f64::MIN, f64::max), 4),
                    Cell::List(per_seed),
                ]);
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
