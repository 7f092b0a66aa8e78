//! Figure 5: efficiency on different hardware.
//!
//! Two mechanisms: (1) genuinely re-running with a pinned worker-thread
//! count (slower CPU-side propagation), and (2) rescaling the measured
//! stage split under the S2 profile (slower CPU / faster device). The
//! reproduced observation: MB fixed filters (transformation-bound) benefit
//! from the faster device, while propagation-bound runs slow down.

use std::fmt::Write as _;

use serde::Serialize;
use sgnn_train::hardware::{with_threads, HardwareProfile};
use sgnn_train::Scheme;

use crate::harness::{save_json, Opts};

#[derive(Serialize)]
struct Row {
    filter: String,
    scheme: String,
    host: String,
    precompute_s: f64,
    train_epoch_s: f64,
}

/// Runs the hardware study on penn94 (the paper's Figure-5 dataset).
pub fn run(opts: &Opts) -> String {
    let dname = opts.dataset_names(&["penn94"])[0].clone();
    let data = opts.load_dataset(&dname, 0);
    let filters = opts.filter_names(&["PPR", "Monomial", "Chebyshev", "Jacobi"]);
    let mut cfg = opts.train_config(0);
    cfg.patience = 0;
    cfg.epochs = opts.epochs.min(10);

    let mut out = String::new();
    let _ = writeln!(out, "== Figure 5: hardware sensitivity on {dname} ==");
    let _ = writeln!(
        out,
        "{:<12} {:<3} {:<12} {:>10} {:>10}",
        "filter", "sch", "host", "pre(s)", "epoch(s)"
    );
    let mut rows = Vec::new();
    let threads = sgnn_dense::runtime::num_threads();
    for fname in &filters {
        for scheme in Scheme::ALL {
            if !scheme.supports(opts.build_filter(fname).as_ref()) {
                continue;
            }
            let train =
                |cfg: &sgnn_train::TrainConfig| scheme.train(opts.build_filter(fname), &data, cfg);
            // Host A: all threads. Host B: single-threaded CPU (slow
            // propagation). Host S2: analytic profile over host A.
            let full = train(&cfg);
            let slow_cpu = with_threads(1, || train(&cfg));
            // Propagation share estimated from the measured stage split.
            let cpu_fraction = match scheme {
                Scheme::MiniBatch => {
                    full.precompute_s / (full.precompute_s + full.train_total_s).max(1e-12)
                }
                Scheme::FullBatch => 0.6,
            };
            let s2 = HardwareProfile::s2().rescale(&full, cpu_fraction);
            for (host, r) in [
                (format!("S1({threads}t)"), &full),
                ("S1(1t)".to_string(), &slow_cpu),
                ("S2(model)".to_string(), &s2),
            ] {
                let _ = writeln!(
                    out,
                    "{:<12} {:<3} {:<12} {:>10.4} {:>10.4}",
                    fname,
                    scheme.tag(),
                    host,
                    r.precompute_s,
                    r.train_epoch_s
                );
                rows.push(Row {
                    filter: fname.clone(),
                    scheme: scheme.tag().into(),
                    host,
                    precompute_s: r.precompute_s,
                    train_epoch_s: r.train_epoch_s,
                });
            }
        }
    }
    save_json(opts, "fig5", &rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_rows_cover_hosts() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["PPR".into()];
        opts.epochs = 4;
        let out = run(&opts);
        assert!(out.contains("S1(1t)"));
        assert!(out.contains("S2(model)"));
    }
}
