//! Table 3: dataset statistics — target (paper) values next to the measured
//! statistics of the generated graphs.

use sgnn_data::registry::all_datasets;
use sgnn_sparse::stats;

use crate::harness::{save_json, Opts};
use crate::table::{Cell, Column, Layout, Table};

/// Generates every dataset at the selected scale and reports its statistics.
pub fn run(opts: &Opts) -> String {
    let mut table = Table::new(
        "table3",
        format!("Table 3: dataset statistics (scale {:?})", opts.scale),
        Layout::Grid,
        vec![
            Column::left("name", 16).head("dataset"),
            Column::right("nodes", 9),
            Column::right("edges", 11),
            Column::right("target_h", 7).head("H*"),
            Column::right("measured_h", 7).head("H"),
            Column::right("feature_dim", 6).head("F_i"),
            Column::right("classes", 5).head("F_o"),
            Column::right("metric", 9),
            Column::right("size", 6),
        ],
    );
    for spec in all_datasets() {
        if !opts.datasets.is_empty() && !opts.datasets.iter().any(|d| d == spec.name) {
            continue;
        }
        let data = spec.generate(opts.scale, 0);
        let h = stats::node_homophily(&data.graph, &data.labels);
        table.push(vec![
            spec.name.into(),
            data.nodes().into(),
            data.edges().into(),
            Cell::f(spec.homophily, 2),
            Cell::f(h, 2),
            spec.feature_dim.into(),
            spec.classes.into(),
            format!("{:?}", spec.metric).into(),
            format!("{:?}", spec.size).into(),
        ]);
    }
    save_json(opts, &table);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_reports_requested_subset() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into(), "roman-empire".into()];
        let out = run(&opts);
        assert!(out.contains("cora"));
        assert!(out.contains("roman-empire"));
        assert!(!out.contains("pokec"));
    }
}
