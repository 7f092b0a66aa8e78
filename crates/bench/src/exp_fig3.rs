//! Figure 3: shift of *relative* filter effectiveness across graph scales.
//!
//! For a series of homophilous datasets of growing `n`, each filter's
//! accuracy is reported relative to the best filter on that dataset; the
//! paper's observation is that the spread widens as `n` grows.

use sgnn_train::Scheme;

use crate::harness::{save_json, Opts, REPRESENTATIVES};
use crate::runner::{CellRunner, Setting};
use crate::store::CellKey;
use crate::table::{Cell, Column, Layout, Table};

/// Runs the scale series.
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["cora", "pubmed", "flickr", "ogbn-arxiv", "ogbn-mag"]);
    let filters = opts.filter_names(REPRESENTATIVES);
    let mut table = Table::new(
        "fig3",
        "Figure 3: effectiveness across scales (relative to best)",
        Layout::Lines,
        vec![
            Column::hidden("dataset"),
            Column::hidden("nodes"),
            Column::left("filter", 12),
            Column::right("metric", 0),
            Column::right("relative", 0),
        ],
    );
    let mut runner = CellRunner::for_opts(opts);
    for dname in &datasets {
        let at = Setting::load(opts, dname, 0, opts.train_config(0));
        let mut reports = Vec::new();
        let mut markers: Vec<(String, Cell)> = Vec::new();
        for f in &filters {
            let key = CellKey::new("fig3", f, dname, "FB", "", 0);
            match runner.train_report(key, Scheme::FullBatch, &at, || opts.build_filter(f)) {
                Ok(r) => reports.push(r),
                Err(marker) => markers.push((f.clone(), marker)),
            }
        }
        let data = &at.data;
        let best = reports
            .iter()
            .map(|r| r.test_metric)
            .fold(f64::MIN, f64::max);
        table.section(format!("{dname} (n = {})", data.nodes()));
        let key = |filter: &String| vec![dname.into(), data.nodes().into(), filter.into()];
        for r in &reports {
            let rel = if best > 0.0 {
                r.test_metric / best
            } else {
                0.0
            };
            let mut row = key(&r.filter);
            row.extend([Cell::f(r.test_metric, 4), Cell::f(rel, 3)]);
            table.push(row);
        }
        for (fname, marker) in markers {
            let mut row = key(&fname);
            row.push(marker);
            table.push(row);
        }
        if !reports.is_empty() {
            let spread = reports
                .iter()
                .map(|r| r.test_metric / best.max(1e-9))
                .fold(f64::MAX, f64::min);
            table.note(format!("  spread: worst/best = {spread:.3}"));
        }
    }
    save_json(opts, &table);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_series_reports_relative_values() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["PPR".into(), "Identity".into()];
        let out = run(&opts);
        assert!(out.contains("relative="));
        assert!(out.contains("spread"));
    }
}
