//! Figure 9: accuracy gap between high- and low-degree nodes under
//! homophily and heterophily.

use sgnn_analysis::degree_gap;

use crate::harness::{save_json, Opts, REPRESENTATIVES};
use crate::runner::{CellRunner, Setting};
use crate::store::CellKey;
use crate::table::{Cell, Column, Layout, Table};

/// Runs the degree-gap analysis across homophilous + heterophilous datasets.
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["cora", "citeseer", "chameleon", "roman-empire"]);
    let filters = opts.filter_names(REPRESENTATIVES);
    let mut table = Table::new(
        "fig9",
        "Figure 9: degree-wise accuracy gap (high − low)",
        Layout::Lines,
        vec![
            Column::hidden("dataset"),
            Column::left("filter", 12),
            Column::right("overall", 0),
            Column::right("low_metric", 0).head("low"),
            Column::right("high_metric", 0).head("high"),
            Column::right("gap", 0),
        ],
    );
    let mut runner = CellRunner::for_opts(opts);
    for dname in &datasets {
        let at = Setting::load(opts, dname, 0, opts.train_config(0));
        let data = &at.data;
        table.section(format!("{dname} (H = {:.2})", data.node_homophily()));
        for fname in &filters {
            let key = CellKey::new("fig9", fname, dname, "FB", "", 0);
            let filter = || opts.build_filter(fname);
            let mut row = vec![dname.into(), fname.into()];
            match runner.train_value(key, &at, filter, |t| (t.logits(data), t.report)) {
                Ok((logits, report)) => {
                    let gap = degree_gap(&logits, data);
                    row.extend([
                        Cell::f(report.test_metric, 4),
                        Cell::f(gap.low_metric, 4),
                        Cell::f(gap.high_metric, 4),
                        Cell::signed(gap.gap, 4),
                    ]);
                }
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
    fn degree_gap_rows_emitted() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["PPR".into()];
        opts.epochs = 8;
        let out = run(&opts);
        assert!(out.contains("gap="));
    }
}
