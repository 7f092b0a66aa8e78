//! Figure 5: efficiency on different hardware.
//!
//! Two mechanisms: (1) genuinely re-running with a pinned worker-thread
//! count (slower CPU-side propagation), and (2) rescaling the measured
//! stage split under the S2 profile (slower CPU / faster device). The
//! reproduced observation: MB fixed filters (transformation-bound) benefit
//! from the faster device, while propagation-bound runs slow down.

use sgnn_train::hardware::HardwareProfile;
use sgnn_train::Scheme;

use crate::harness::{save_json, Opts};
use crate::runner::{CellRunner, Setting};
use crate::store::CellKey;
use crate::table::{Cell, Column, Layout, Table};

/// Runs the hardware study on penn94 (the paper's Figure-5 dataset).
pub fn run(opts: &Opts) -> String {
    let dname = opts.dataset_names(&["penn94"])[0].clone();
    let filters = opts.filter_names(&["PPR", "Monomial", "Chebyshev", "Jacobi"]);
    let mut cfg = opts.train_config(0);
    cfg.patience = 0;
    cfg.epochs = opts.epochs.min(10);
    let at = Setting::load(opts, &dname, 0, cfg);

    let mut table = Table::new(
        "fig5",
        format!("Figure 5: hardware sensitivity on {dname}"),
        Layout::Grid,
        vec![
            Column::left("filter", 12),
            Column::left("scheme", 3).head("sch"),
            Column::left("host", 12),
            Column::right("precompute_s", 10).head("pre(s)"),
            Column::right("train_epoch_s", 10).head("epoch(s)"),
        ],
    );
    let threads = sgnn_dense::runtime::num_threads();
    let mut runner = CellRunner::for_opts(opts);
    for fname in &filters {
        let filter = || opts.build_filter(fname);
        for scheme in Scheme::ALL {
            if !scheme.supports(filter().as_ref()) {
                continue;
            }
            let mut train = |variant: &str, one_lane: bool| {
                let _pin = one_lane.then(|| sgnn_dense::pin::threads(1));
                let key = CellKey::new("fig5", fname, &dname, scheme.tag(), variant, 0);
                runner.train_report(key, scheme, &at, filter)
            };
            // Host A: all threads. Host B: single-threaded CPU (slow
            // propagation) — on a one-lane pool that is host A's report.
            // Host S2: analytic profile over host A.
            let full = train("all-lanes", false);
            let slow_cpu = if threads == 1 {
                full.clone()
            } else {
                train("one-lane", true)
            };
            let s2 = full.clone().map(|full| {
                // Propagation share estimated from the measured stage split.
                let cpu_fraction = match scheme {
                    Scheme::MiniBatch => {
                        full.precompute_s / (full.precompute_s + full.train_total_s).max(1e-12)
                    }
                    Scheme::FullBatch => 0.6,
                };
                HardwareProfile::s2().rescale(&full, cpu_fraction)
            });
            for (host, r) in [
                (format!("S1({threads}t)"), full),
                ("S1(1t)".to_string(), slow_cpu),
                ("S2(model)".to_string(), s2),
            ] {
                let mut row = vec![fname.into(), scheme.tag().into(), host.into()];
                match r {
                    Ok(r) => row.extend([Cell::f(r.precompute_s, 4), Cell::f(r.train_epoch_s, 4)]),
                    Err(marker) => row.push(marker),
                }
                table.push(row);
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
