//! Out-of-core full-scale run (`experiments table5 --full-scale`).
//!
//! The paper's large graphs (ogbn-papers100M at 1.6B edges, pokec at 44.6M)
//! never fit the bench host's RAM as in-memory CSR + feature tensors. This
//! driver proves the sharded substrate end to end at paper scale: generate
//! one CSBM graph **straight to a shard file** (no in-memory edge list),
//! run the decoupled mini-batch pipeline — precompute streams the shards
//! through the pinned decode ring, training touches only `O(batch)` rows —
//! and verify with the tracking allocator that peak heap stayed under a
//! configured bound. The measured numbers land in the `full_scale` section
//! of `BENCH_oocsr.json` (the headline sections are written by the `oocsr`
//! bench).
//!
//! Environment overrides (defaults scale with `--scale`):
//! * `SGNN_OOC_NODES` / `SGNN_OOC_EDGES` — graph dimensions (edges =
//!   undirected target; the graph reports ≈ 2× directed).
//! * `SGNN_OOC_RAM_BOUND_MB` — the RAM bound the run must prove.
//! * `SGNN_OOC_DIR` — where the shard file lives (default: temp dir).
//! * `SGNN_OOC_KEEP=1` — keep the shard file after the run.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;
use sgnn_data::{generate_sharded, CsbmParams, Metric};
use sgnn_obs as obs;
use sgnn_obs::json::Value;
use sgnn_sparse::PropMatrix;
use sgnn_train::memory::{fmt_bytes, ram_peak, ram_reset_peak};
use sgnn_train::try_train_mini_batch_with;

use crate::harness::{progress, Opts};

/// `BENCH_oocsr.json` schema. Two writers share the file — the `oocsr`
/// bench owns `headline`, this driver owns `full_scale` — so each loads
/// the committed file first and rewrites the whole document with its own
/// section replaced (the vendored `serde_json` has no DOM, hence the
/// typed round-trip through [`sgnn_obs::json`]).
#[derive(Clone, Debug, Default, Serialize)]
pub struct OocsrBench {
    pub bench: String,
    pub headline: Headline,
    pub full_scale: FullScale,
}

/// Fits-in-RAM comparison written by `cargo bench -p sgnn-bench --bench
/// oocsr`: sharded streaming vs the in-memory CSR it must match.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Headline {
    pub nodes: u64,
    pub directed_edges: u64,
    pub shards: u64,
    pub compression_vs_u32: f64,
    pub decode_mb_s: f64,
    pub in_memory_ms: f64,
    pub sharded_ms: f64,
    /// sharded / in-memory propagation time; the target is ≤ 1.3.
    pub overhead: f64,
    pub bit_identical: bool,
}

/// Paper-scale proof run written by `experiments table5 --full-scale`.
#[derive(Clone, Debug, Default, Serialize)]
pub struct FullScale {
    pub nodes: u64,
    pub directed_edges: u64,
    pub shards: u64,
    pub file_bytes: u64,
    pub compression_vs_u32: f64,
    pub generate_s: f64,
    pub propagate_s: f64,
    pub edges_per_s: f64,
    pub precompute_s: f64,
    pub train_epoch_s: f64,
    pub test_metric: f64,
    pub peak_ram_bytes: u64,
    pub ram_bound_bytes: u64,
    pub within_bound: bool,
}

/// Where `BENCH_oocsr.json` lives: `SGNN_BENCH_OUT` override, else the
/// repo root next to the other `BENCH_*.json` artifacts.
pub fn bench_out_path() -> PathBuf {
    std::env::var("SGNN_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_oocsr.json"
            ))
        })
}

fn num(v: Option<&Value>, key: &str) -> f64 {
    v.and_then(|o| o.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn int(v: Option<&Value>, key: &str) -> u64 {
    v.and_then(|o| o.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn boolean(v: Option<&Value>, key: &str) -> bool {
    matches!(v.and_then(|o| o.get(key)), Some(Value::Bool(true)))
}

/// Loads the existing artifact (defaults when absent/corrupt) so one
/// writer can update its section without clobbering the other's.
pub fn load_bench(path: &std::path::Path) -> OocsrBench {
    let root = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| sgnn_obs::json::parse(&s).ok());
    let h = root.as_ref().and_then(|r| r.get("headline"));
    let fs = root.as_ref().and_then(|r| r.get("full_scale"));
    OocsrBench {
        bench: "oocsr".into(),
        headline: Headline {
            nodes: int(h, "nodes"),
            directed_edges: int(h, "directed_edges"),
            shards: int(h, "shards"),
            compression_vs_u32: num(h, "compression_vs_u32"),
            decode_mb_s: num(h, "decode_mb_s"),
            in_memory_ms: num(h, "in_memory_ms"),
            sharded_ms: num(h, "sharded_ms"),
            overhead: num(h, "overhead"),
            bit_identical: boolean(h, "bit_identical"),
        },
        full_scale: FullScale {
            nodes: int(fs, "nodes"),
            directed_edges: int(fs, "directed_edges"),
            shards: int(fs, "shards"),
            file_bytes: int(fs, "file_bytes"),
            compression_vs_u32: num(fs, "compression_vs_u32"),
            generate_s: num(fs, "generate_s"),
            propagate_s: num(fs, "propagate_s"),
            edges_per_s: num(fs, "edges_per_s"),
            precompute_s: num(fs, "precompute_s"),
            train_epoch_s: num(fs, "train_epoch_s"),
            test_metric: num(fs, "test_metric"),
            peak_ram_bytes: int(fs, "peak_ram_bytes"),
            ram_bound_bytes: int(fs, "ram_bound_bytes"),
            within_bound: boolean(fs, "within_bound"),
        },
    }
}

/// Serializes and writes the whole artifact.
pub fn save_bench(path: &std::path::Path, bench: &OocsrBench) {
    match serde_json::to_string_pretty(bench) {
        Ok(s) => {
            if let Err(e) = std::fs::write(path, s + "\n") {
                progress(&format!("warning: cannot write {}: {e}", path.display()));
            }
        }
        Err(_) => progress("warning: cannot serialize oocsr bench"),
    }
}

/// PPR with a short horizon: mini-batch compatible, one resident term, and
/// every hop is a full pass over the shard file — the streaming cost is
/// exercised without making the proof run take hours on one core.
const FULL_SCALE_HOPS: usize = 2;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Graph dimensions and RAM bound per `--scale` (env-overridable). The
/// `full` row is the paper-scale acceptance target: ≥ 100M directed edges.
fn dimensions(opts: &Opts) -> (usize, usize, usize) {
    let (nodes, edges, bound_mb) = match opts.scale {
        sgnn_data::GenScale::Tiny => (2_000, 8_000, 256),
        sgnn_data::GenScale::Bench => (50_000, 400_000, 512),
        sgnn_data::GenScale::Full => (1_200_000, 55_000_000, 1536),
    };
    (
        env_usize("SGNN_OOC_NODES", nodes),
        env_usize("SGNN_OOC_EDGES", edges),
        env_usize("SGNN_OOC_RAM_BOUND_MB", bound_mb),
    )
}

/// Runs the full-scale out-of-core experiment; returns the rendered report.
///
/// # Panics
/// Panics when the tracking-allocator peak exceeds the configured bound —
/// the entire point of the run is the bound, so exceeding it is a failure,
/// not a footnote.
pub fn run_full_scale(opts: &Opts) -> String {
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
    let pm = PropMatrix::from_sharded(sd.csr.clone(), cfg.rho);

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
        try_train_mini_batch_with(filter, &pm, &sd.data, &cfg)
            .unwrap_or_else(|e| panic!("full-scale training: {e}"))
            .report
    };
    let peak = ram_peak();
    let within_bound = peak <= bound;

    let mut out = String::new();
    let _ = writeln!(out, "== out-of-core full scale ==");
    let _ = writeln!(
        out,
        "graph: n={nodes}, directed edges {directed}, {} shards, file {}",
        sd.summary.shards,
        fmt_bytes(sd.summary.file_bytes as usize)
    );
    let _ = writeln!(
        out,
        "compression: {compression:.2}x vs 4-byte column indices"
    );
    let _ = writeln!(
        out,
        "generate {generate_s:.1}s | propagate {prop_s:.2}s ({:.1}M edges/s) | precompute {:.1}s | epoch {:.1}s",
        edges_per_s / 1e6,
        report.precompute_s,
        report.train_epoch_s
    );
    let _ = writeln!(
        out,
        "peak RAM {} vs bound {} -> {}",
        fmt_bytes(peak),
        fmt_bytes(bound),
        if within_bound {
            "WITHIN BOUND"
        } else {
            "EXCEEDED"
        }
    );

    let out_path = bench_out_path();
    let mut bench = load_bench(&out_path);
    bench.full_scale = FullScale {
        nodes: nodes as u64,
        directed_edges: directed,
        shards: sd.summary.shards as u64,
        file_bytes: sd.summary.file_bytes,
        compression_vs_u32: compression,
        generate_s,
        propagate_s: prop_s,
        edges_per_s,
        precompute_s: report.precompute_s,
        train_epoch_s: report.train_epoch_s,
        test_metric: report.test_metric,
        peak_ram_bytes: peak as u64,
        ram_bound_bytes: bound as u64,
        within_bound,
    };
    save_bench(&out_path, &bench);

    if std::env::var("SGNN_OOC_KEEP").is_err() {
        drop(pm);
        drop(sd);
        let _ = std::fs::remove_file(&shard_path);
    }
    assert!(
        within_bound,
        "full-scale RAM bound exceeded: peak {} > bound {}",
        fmt_bytes(peak),
        fmt_bytes(bound)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke at tiny scale: generates, streams, trains one
    /// epoch, and proves the (tiny) RAM bound, all through the public
    /// driver. Uses a scratch BENCH output so the committed artifact is
    /// untouched.
    #[test]
    fn full_scale_driver_runs_at_tiny_scale() {
        let scratch = std::env::temp_dir().join(format!(
            "sgnn-oocsr-driver-test-{}.json",
            std::process::id()
        ));
        // Not perfectly hermetic (env vars are process-global), but the
        // test suite never runs another full-scale driver concurrently.
        std::env::set_var("SGNN_BENCH_OUT", &scratch);
        let opts = Opts {
            scale: sgnn_data::GenScale::Tiny,
            ..Opts::tiny()
        };
        // Pre-seed a headline section to prove the driver preserves it.
        let mut seeded = OocsrBench {
            bench: "oocsr".into(),
            ..OocsrBench::default()
        };
        seeded.headline.overhead = 1.25;
        seeded.headline.bit_identical = true;
        save_bench(&scratch, &seeded);
        let out = run_full_scale(&opts);
        std::env::remove_var("SGNN_BENCH_OUT");
        assert!(out.contains("WITHIN BOUND"), "{out}");
        assert!(out.contains("compression"), "{out}");
        let written = load_bench(&scratch);
        assert_eq!(written.full_scale.nodes, 2000);
        assert!(written.full_scale.within_bound);
        assert!(written.full_scale.directed_edges > 10_000);
        assert_eq!(written.headline.overhead, 1.25, "headline clobbered");
        assert!(written.headline.bit_identical, "headline clobbered");
        let _ = std::fs::remove_file(&scratch);
    }
}
