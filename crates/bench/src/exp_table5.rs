//! Tables 5 and 10: filter effectiveness under full-batch and mini-batch
//! training across the dataset suite.

use sgnn_train::{Scheme, TrainConfig};

use crate::harness::{aggregate, aggregate_columns, save_json, Opts};
use crate::runner::{CellRunner, Setting};
use crate::store::CellKey;
use crate::table::{Cell, Layout, Table};

/// Default dataset lineup for the effectiveness tables (every size class and
/// both homophily regimes; pokec represents the large tier at bench scale).
pub(crate) fn default_datasets() -> Vec<&'static str> {
    vec![
        "cora",
        "citeseer",
        "pubmed",
        "minesweeper",
        "tolokers",
        "chameleon",
        "squirrel",
        "actor",
        "roman-empire",
        "amazon-ratings",
        "ogbn-arxiv",
        "penn94",
        "genius",
        "pokec",
    ]
}

/// Runs the effectiveness sweep for one scheme (full-batch → Table 5,
/// mini-batch → Table 10).
pub fn run_scheme(opts: &Opts, scheme: Scheme) -> String {
    if opts.full_scale {
        let bench_out = std::env::var_os("SGNN_BENCH_OUT").map(Into::into);
        let record = crate::exp_oocsr::record_path(opts, bench_out);
        return crate::exp_oocsr::run_full_scale(opts, record.as_deref());
    }
    let (name, title) = match scheme {
        Scheme::FullBatch => ("table5", "Table 5: full-batch effectiveness"),
        Scheme::MiniBatch => ("table10", "Table 10: mini-batch effectiveness"),
    };
    let table = Table::new(name, title, Layout::Grid, aggregate_columns(false));
    let datasets = opts.dataset_names(&default_datasets());
    sweep(opts, scheme, table, &datasets, opts.seeds, |_| {})
}

/// Trains every selected filter on every dataset for `seeds` seeds and
/// adds one [`aggregate`] row per pair to `table`; `tune` adjusts each
/// cell's config before the runner applies its own settings. A pair with an
/// `(OOM)` seed is an `(OOM)` row, and its later seeds are not tried; a
/// pair with no finished seed shows its first `DNF`.
pub(crate) fn sweep(
    opts: &Opts,
    scheme: Scheme,
    mut table: Table,
    datasets: &[String],
    seeds: usize,
    tune: impl Fn(&mut TrainConfig),
) -> String {
    let tag = scheme.tag();
    let filters = opts.filter_names(&scheme.filter_names());
    let mut runner = CellRunner::for_opts(opts);
    for dname in datasets {
        let mut per_filter: Vec<Vec<sgnn_train::TrainReport>> = vec![Vec::new(); filters.len()];
        let mut marker: Vec<Option<Cell>> = vec![None; filters.len()];
        for seed in 0..seeds {
            let mut cfg = opts.train_config(seed as u64);
            tune(&mut cfg);
            let at = Setting::load(opts, dname, seed as u64, cfg);
            for (fi, fname) in filters.iter().enumerate() {
                if marker[fi] == Some(Cell::Oom) {
                    continue;
                }
                let key = CellKey::new(&table.name, fname, dname, tag, "", seed as u64);
                let outcome = runner.train_report(key, scheme, &at, || opts.build_filter(fname));
                match outcome {
                    Ok(r) => per_filter[fi].push(r),
                    Err(m) if m == Cell::Oom || marker[fi].is_none() => marker[fi] = Some(m),
                    Err(_) => {}
                }
            }
        }
        for (fi, fname) in filters.iter().enumerate() {
            match marker[fi].take() {
                Some(m) if m == Cell::Oom || per_filter[fi].is_empty() => {
                    table.push(vec![fname.into(), dname.into(), tag.into(), m])
                }
                _ => table.push(aggregate(&per_filter[fi])),
            }
        }
    }
    save_json(opts, &table);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fb_and_mb_sweeps_produce_rows_for_each_pair() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["PPR".into(), "Chebyshev".into()];
        let fb = run_scheme(&opts, Scheme::FullBatch);
        assert!(fb.contains("PPR") && fb.contains("Chebyshev"));
        let mb = run_scheme(&opts, Scheme::MiniBatch);
        assert!(mb.contains("PPR") && mb.contains("MB"));
    }

    #[test]
    fn tiny_device_budget_triggers_oom_rows() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["OptBasis".into()];
        opts.device_budget = 1; // everything OOMs
        let fb = run_scheme(&opts, Scheme::FullBatch);
        assert!(fb.contains("(OOM)"), "{fb}");
    }
}
