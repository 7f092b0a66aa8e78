//! Tables 9 and 11: time and memory efficiency of full-batch and mini-batch
//! training on medium/large datasets.

use sgnn_obs as obs;
use sgnn_train::Scheme;

use crate::harness::{aggregate, dnf_row, oom_row, render_table, save_json, AggregateRow, Opts};
use crate::runner::CellRunner;
use crate::store::{CellKey, CellOutcome};

/// Medium and large datasets used by the efficiency tables.
pub fn default_datasets() -> Vec<&'static str> {
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
    let tag = scheme.tag();
    let datasets = opts.dataset_names(&default_datasets());
    let filters = opts.filter_names(&scheme.filter_names());
    let mut runner = CellRunner::for_opts(opts);
    let mut rows: Vec<AggregateRow> = Vec::new();
    for dname in &datasets {
        let data = opts.load_dataset(dname, 0);
        for fname in &filters {
            let _sp = obs::span!(
                "cell",
                filter = fname.as_str(),
                dataset = dname.as_str(),
                scheme = tag,
            );
            let est = scheme.device_estimate(opts.build_filter(fname).as_ref(), &data, opts.hidden);
            if est.is_some_and(|bytes| bytes > opts.device_budget) {
                rows.push(oom_row(fname, dname, tag));
                continue;
            }
            let key = CellKey::new(name, fname, dname, tag, "", 0);
            let outcome = runner.run_report(key, 0, |ctx| {
                let mut cfg = opts.train_config(0);
                cfg.patience = 0; // efficiency runs use the full epoch budget
                cfg.epochs = opts.epochs.min(20);
                ctx.apply(&mut cfg);
                scheme.try_train(opts.build_filter(fname), &data, &cfg)
            });
            match outcome {
                CellOutcome::Done(r) => rows.push(aggregate(&[r])),
                CellOutcome::Dnf { reason } => rows.push(dnf_row(fname, dname, tag, &reason)),
            }
        }
    }
    save_json(opts, name, &rows);
    render_table(title, &rows, true)
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
