//! Tables 9 and 11: time and memory efficiency of full-batch and mini-batch
//! training on medium/large datasets.

use sgnn_train::Scheme;

use crate::exp_table5::sweep;
use crate::harness::{aggregate_columns, Opts};
use crate::table::{Layout, Table};

/// Medium and large datasets used by the efficiency tables.
pub(crate) fn default_datasets() -> Vec<&'static str> {
    vec![
        "flickr",
        "penn94",
        "ogbn-arxiv",
        "genius",
        "pokec",
        "snap-patents",
    ]
}

/// Runs the efficiency sweep for one scheme (full-batch → Table 9,
/// mini-batch → Table 11).
pub fn run_scheme(opts: &Opts, scheme: Scheme) -> String {
    let (name, title) = match scheme {
        Scheme::FullBatch => ("table9", "Table 9: full-batch efficiency"),
        Scheme::MiniBatch => (
            "table11",
            "Table 11: mini-batch efficiency (precompute separated)",
        ),
    };
    let table = Table::new(name, title, Layout::Grid, aggregate_columns(true));
    let datasets = opts.dataset_names(&default_datasets());
    // One seed and the full epoch budget: these tables time the runs.
    sweep(opts, scheme, table, &datasets, 1, |cfg| {
        cfg.patience = 0;
        cfg.epochs = opts.epochs.min(20);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_rows_carry_timings() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["PPR".into()];
        opts.epochs = 5;
        let fb = run_scheme(&opts, Scheme::FullBatch);
        assert!(fb.contains("PPR"));
        let mb = run_scheme(&opts, Scheme::MiniBatch);
        assert!(mb.contains("pre(s)"));
    }
}
