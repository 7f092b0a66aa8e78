//! Figure 9: accuracy gap between high- and low-degree nodes under
//! homophily and heterophily.

use sgnn_analysis::degree_gap;
use sgnn_train::{Scheme, TrainConfig, TrainError};

use crate::harness::{filter_sets, save_json, Opts};
use crate::runner::CellRunner;
use crate::table::{Cell, Column, Layout, Table};

/// Runs the degree-gap analysis across homophilous + heterophilous datasets.
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["cora", "citeseer", "chameleon", "roman-empire"]);
    let filters = opts.filter_names(&filter_sets::representatives());
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
        let data = opts.load_dataset(dname, 0);
        table.section(format!("{dname} (H = {:.2})", data.node_homophily()));
        for fname in &filters {
            let label = format!("fig9/{fname}/{dname}");
            let trained = runner.run_value(&label, 0, |ctx| {
                let mut cfg: TrainConfig = opts.train_config(0);
                ctx.apply(&mut cfg);
                train_with_logits(opts, fname, &data, &cfg)
            });
            let mut row = vec![dname.into(), fname.into()];
            match trained {
                Ok((report, logits)) => {
                    let gap = degree_gap(&logits, &data);
                    row.extend([
                        Cell::f(report.test_metric, 4),
                        Cell::f(gap.low_metric, 4),
                        Cell::f(gap.high_metric, 4),
                        Cell::signed(gap.gap, 4),
                    ]);
                }
                Err(reason) => row.push(Cell::Dnf(reason)),
            }
            table.push(row);
        }
    }
    save_json(opts, &table);
    table.render()
}

/// Trains a filter and also returns the final full-graph logits.
pub(crate) fn train_with_logits(
    opts: &Opts,
    fname: &str,
    data: &sgnn_data::Dataset,
    cfg: &TrainConfig,
) -> Result<(sgnn_train::TrainReport, sgnn_dense::DMat), TrainError> {
    let trained = Scheme::FullBatch.try_train(opts.build_filter(fname), data, None, cfg)?;
    let logits = trained.logits(data);
    Ok((trained.report, logits))
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
