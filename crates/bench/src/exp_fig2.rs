//! Figure 2: stage-level time and memory breakdown of full-batch vs
//! mini-batch training on medium-to-large datasets.

use std::fmt::Write as _;

use serde::Serialize;
use sgnn_train::Scheme;

use crate::harness::{filter_sets, save_json, Opts};
use crate::runner::CellRunner;
use crate::store::{CellKey, CellOutcome};

#[derive(Serialize)]
struct Row {
    dataset: String,
    filter: String,
    scheme: String,
    precompute_s: f64,
    train_total_s: f64,
    infer_s: f64,
    device_bytes: usize,
    ram_bytes: usize,
}

/// Runs the breakdown on the Figure-2 dataset lineup.
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["flickr", "penn94", "pokec", "snap-patents"]);
    let filters = opts.filter_names(&filter_sets::representatives());
    let mut rows = Vec::new();
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 2: FB vs MB stage breakdown ==");
    let _ = writeln!(
        out,
        "{:<16} {:<12} {:<3} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "dataset", "filter", "sch", "pre(s)", "train(s)", "infer(s)", "device", "ram"
    );
    let mut runner = CellRunner::for_opts(opts);
    for dname in &datasets {
        let data = opts.load_dataset(dname, 0);
        for fname in &filters {
            let filter = opts.build_filter(fname);
            for scheme in Scheme::ALL {
                if !scheme.supports(filter.as_ref()) {
                    continue;
                }
                let tag = scheme.tag();
                let key = CellKey::new("fig2", fname, dname, tag, "", 0);
                let outcome = runner.run_report(key, 0, |ctx| {
                    let mut cfg = opts.train_config(0);
                    cfg.patience = 0;
                    cfg.epochs = opts.epochs.min(15);
                    ctx.apply(&mut cfg);
                    scheme.try_train(opts.build_filter(fname), &data, &cfg)
                });
                let r = match outcome {
                    CellOutcome::Done(r) => r,
                    CellOutcome::Dnf { reason } => {
                        let _ = writeln!(out, "{dname:<16} {fname:<12} {tag:<3}     DNF({reason})");
                        continue;
                    }
                };
                let _ = writeln!(
                    out,
                    "{:<16} {:<12} {:<3} {:>10.4} {:>10.3} {:>9.4} {:>12} {:>12}",
                    dname,
                    fname,
                    r.scheme,
                    r.precompute_s,
                    r.train_total_s,
                    r.infer_s,
                    sgnn_train::memory::fmt_bytes(r.device_bytes),
                    sgnn_train::memory::fmt_bytes(r.ram_bytes),
                );
                rows.push(Row {
                    dataset: dname.clone(),
                    filter: fname.clone(),
                    scheme: r.scheme.clone(),
                    precompute_s: r.precompute_s,
                    train_total_s: r.train_total_s,
                    infer_s: r.infer_s,
                    device_bytes: r.device_bytes,
                    ram_bytes: r.ram_bytes,
                });
            }
        }
    }
    save_json(opts, "fig2", &rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_reports_both_schemes() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["Monomial".into()];
        opts.epochs = 5;
        let out = run(&opts);
        assert!(out.contains(" FB "));
        assert!(out.contains(" MB "));
    }
}
