//! Out-of-core full-scale run (`experiments table5 --full-scale`).
//!
//! The paper's large graphs (ogbn-papers100M at 1.6B edges, pokec at 44.6M)
//! never fit the bench host's RAM as in-memory CSR + feature tensors. This
//! driver proves the sharded substrate end to end at paper scale: generate
//! one CSBM graph **straight to a shard file** (no in-memory edge list),
//! run the decoupled mini-batch pipeline — precompute streams the shards
//! through the pinned decode ring, training touches only `O(batch)` rows —
//! and verify with the tracking allocator that peak heap stayed under the
//! bound. This driver is the only writer of `BENCH_oocsr.json`; what
//! streaming costs against the in-memory CSR is `perfbench`'s `ooc_stream`
//! workload (`sparse.shard.overhead_x`), not a figure taken here.
//!
//! `--scale` selects the graph dimensions and the RAM bound;
//! `SGNN_OOC_DIR` says where the shard file lives (default: temp dir).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sgnn_data::{generate_sharded, CsbmParams, Metric};
use sgnn_obs as obs;
use sgnn_obs::json::{self, Value};
use sgnn_sparse::PropMatrix;
use sgnn_train::memory::{fmt_bytes, ram_peak, ram_reset_peak};
use sgnn_train::Scheme;

use crate::harness::{progress, Opts};
use crate::table::{Layout, Table};

/// Where a CLI run records its figures: `bench_out` (the `SGNN_BENCH_OUT`
/// override) when given, the committed `BENCH_oocsr.json` only at
/// `--scale full` (the paper-scale record a smoke run must not overwrite),
/// nowhere otherwise.
pub(crate) fn record_path(opts: &Opts, bench_out: Option<PathBuf>) -> Option<PathBuf> {
    bench_out.or_else(|| {
        (opts.scale == sgnn_data::GenScale::Full).then(|| {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_oocsr.json"
            ))
        })
    })
}

/// PPR with a short horizon: mini-batch compatible, one resident term, and
/// every hop is a full pass over the shard file — the streaming cost is
/// exercised without making the proof run take hours on one core.
const FULL_SCALE_HOPS: usize = 2;

/// Graph dimensions (nodes, undirected-edge target) and RAM bound in MiB
/// per `--scale`. The `full` row is the paper-scale acceptance target:
/// ≥ 100M directed edges.
fn dimensions(opts: &Opts) -> (usize, usize, usize) {
    match opts.scale {
        sgnn_data::GenScale::Tiny => (2_000, 8_000, 256),
        sgnn_data::GenScale::Bench => (50_000, 400_000, 512),
        sgnn_data::GenScale::Full => (1_200_000, 55_000_000, 1536),
    }
}

/// Runs the full-scale out-of-core experiment; returns the rendered report.
/// The measured figures are written to `record` when one is given — before
/// the bound is asserted, so a failed proof is on disk.
///
/// # Panics
/// Panics when the tracking-allocator peak exceeds the configured bound —
/// the entire point of the run is the bound, so exceeding it is a failure,
/// not a footnote.
pub(crate) fn run_full_scale(opts: &Opts, record: Option<&Path>) -> String {
    let (nodes, edges, bound_mb) = dimensions(opts);
    let bound = bound_mb << 20;
    let params = CsbmParams {
        nodes,
        edges,
        ..CsbmParams::default()
    };
    let dir = std::env::var("SGNN_OOC_DIR")
        .unwrap_or_else(|_| std::env::temp_dir().to_str().unwrap_or("/tmp").to_string());
    let shard_path =
        std::path::PathBuf::from(&dir).join(format!("sgnn-oocsr-{nodes}-{edges}.shrd"));

    ram_reset_peak();
    progress(&format!(
        "[oocsr] generating n={nodes} undirected-edge target {edges} -> {}",
        shard_path.display()
    ));
    let t = Instant::now();
    let sd = {
        let _sp = obs::span!("oocsr.generate");
        generate_sharded("oocsr", &params, Metric::Accuracy, 0, &shard_path, 0)
            .unwrap_or_else(|e| panic!("sharded generation: {e}"))
    };
    let generate_s = t.elapsed().as_secs_f64();
    let directed = sd.summary.nnz;
    let raw_index_bytes = directed.saturating_mul(4);
    let compression = raw_index_bytes as f64 / sd.summary.file_bytes.max(1) as f64;
    progress(&format!(
        "[oocsr] {} directed edges in {} shards, file {} ({compression:.2}x vs raw u32 cols), {generate_s:.1}s",
        directed,
        sd.summary.shards,
        fmt_bytes(sd.summary.file_bytes as usize),
    ));

    let cfg = {
        let mut cfg = opts.train_config(0);
        cfg.epochs = 1;
        cfg.patience = 0;
        cfg
    };
    let pm = Arc::new(PropMatrix::from_sharded(sd.csr.clone(), cfg.rho));

    // One timed streaming pass over the whole operator (the unit every
    // precompute hop repeats) before training.
    let t = Instant::now();
    let propagated = {
        let _sp = obs::span!("oocsr.prop");
        pm.prop(1.0, 0.0, &sd.data.features)
    };
    let prop_s = t.elapsed().as_secs_f64();
    let edges_per_s = pm.nnz() as f64 / prop_s.max(1e-9);
    assert_eq!(propagated.rows(), nodes);
    drop(propagated);
    progress(&format!(
        "[oocsr] streamed propagation: {prop_s:.2}s ({:.1}M edges/s), operator resident {}",
        edges_per_s / 1e6,
        fmt_bytes(pm.nbytes()),
    ));

    let filter = sgnn_core::make_filter("PPR", FULL_SCALE_HOPS).expect("PPR exists");
    let report = {
        let _sp = obs::span!("oocsr.train");
        Scheme::MiniBatch
            .try_train(filter, &sd.data, Some(Arc::clone(&pm)), &cfg)
            .unwrap_or_else(|e| panic!("full-scale training: {e}"))
            .report
    };
    let peak = ram_peak();
    let within_bound = peak <= bound;

    let mut table = Table::new("oocsr", "out-of-core full scale", Layout::Lines, Vec::new());
    table.note(format!(
        "graph: n={nodes}, directed edges {directed}, {} shards, file {}",
        sd.summary.shards,
        fmt_bytes(sd.summary.file_bytes as usize)
    ));
    table.note(format!(
        "compression: {compression:.2}x vs 4-byte column indices"
    ));
    table.note(format!(
        "generate {generate_s:.1}s | propagate {prop_s:.2}s ({:.1}M edges/s) | precompute {:.1}s | epoch {:.1}s",
        edges_per_s / 1e6,
        report.precompute_s,
        report.train_epoch_s
    ));
    table.note(format!(
        "peak RAM {} vs bound {} -> {}",
        fmt_bytes(peak),
        fmt_bytes(bound),
        if within_bound {
            "WITHIN BOUND"
        } else {
            "EXCEEDED"
        }
    ));

    if let Some(path) = record {
        let full_scale = [
            ("nodes", Value::Int(nodes as u64)),
            ("directed_edges", Value::Int(directed)),
            ("shards", Value::Int(sd.summary.shards as u64)),
            ("file_bytes", Value::Int(sd.summary.file_bytes)),
            ("compression_vs_u32", Value::Num(compression)),
            ("generate_s", Value::Num(generate_s)),
            ("propagate_s", Value::Num(prop_s)),
            ("edges_per_s", Value::Num(edges_per_s)),
            ("precompute_s", Value::Num(report.precompute_s)),
            ("train_epoch_s", Value::Num(report.train_epoch_s)),
            ("test_metric", Value::Num(report.test_metric)),
            ("peak_ram_bytes", Value::Int(peak as u64)),
            ("ram_bound_bytes", Value::Int(bound as u64)),
            ("within_bound", Value::Bool(within_bound)),
        ];
        let bench = Value::Obj(vec![
            ("bench".into(), Value::Str("oocsr".into())),
            (
                "full_scale".into(),
                Value::Obj(full_scale.map(|(k, v)| (k.into(), v)).into()),
            ),
        ]);
        if let Err(e) = std::fs::write(path, json::write_pretty(&bench) + "\n") {
            progress(&format!("warning: cannot write {}: {e}", path.display()));
        }
    }

    drop(pm);
    drop(sd);
    let _ = std::fs::remove_file(&shard_path);
    assert!(
        within_bound,
        "full-scale RAM bound exceeded: peak {} > bound {}",
        fmt_bytes(peak),
        fmt_bytes(bound)
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke at tiny scale: generates, streams, trains one
    /// epoch, and proves the (tiny) RAM bound, all through the public
    /// driver, recording to a scratch path.
    #[test]
    fn full_scale_driver_runs_at_tiny_scale() {
        let scratch = std::env::temp_dir().join(format!(
            "sgnn-oocsr-driver-test-{}.json",
            std::process::id()
        ));
        let out = run_full_scale(&Opts::tiny(), Some(&scratch));
        assert!(out.contains("WITHIN BOUND"), "{out}");
        assert!(out.contains("compression"), "{out}");
        let text = std::fs::read_to_string(&scratch).expect("record written");
        let _ = std::fs::remove_file(&scratch);
        let written = sgnn_obs::json::parse(&text).expect("record is JSON");
        let fs = written.get("full_scale").expect("full_scale section");
        let int = |key: &str| fs.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
        assert_eq!(int("nodes"), 2000);
        assert!(int("directed_edges") > 10_000);
        assert_eq!(
            fs.get("within_bound"),
            Some(&sgnn_obs::json::Value::Bool(true))
        );
    }

    /// The smoke command (`--full-scale --scale tiny`) must not reach the
    /// committed paper-scale record.
    #[test]
    fn only_a_full_scale_run_defaults_to_the_committed_record() {
        let tiny = Opts::tiny();
        assert_eq!(record_path(&tiny, None), None);
        assert_eq!(
            record_path(&tiny, Some("/tmp/x.json".into())),
            Some("/tmp/x.json".into())
        );
        let full = Opts {
            scale: sgnn_data::GenScale::Full,
            ..Opts::tiny()
        };
        let path = record_path(&full, None).expect("paper-scale runs are recorded");
        assert!(path.ends_with("BENCH_oocsr.json"), "{path:?}");
    }
}
