//! Out-of-core sharded CSR headline bench (writes `BENCH_oocsr.json`).
//!
//! Builds one CSBM graph that fits in RAM so both substrates can run on
//! identical structure, then measures what the shard format costs and
//! proves what it must preserve:
//!
//! * **bit identity** — sharded propagation (`prop` and the adjoint
//!   `prop_t`) must equal the in-memory CSR result bit for bit; this is
//!   asserted, not sampled, and the bench aborts on any mismatch.
//! * **propagation overhead** — best-of-reps sharded vs in-memory wall
//!   time at the paper's feature width (target ≤ 1.3×).
//! * **decode throughput** — a 1-wide feature pass is decode-dominated
//!   (one FMA per edge vs a varint decode per edge), so bytes/time on it
//!   approximates the codec's streaming rate.
//! * **compression** — stored varint blob bytes vs 4-byte column indices.
//!
//! The `full_scale` section of the artifact is owned by `experiments
//! table5 --full-scale` and preserved here via read-modify-write.
//!
//! Environment:
//! * `SGNN_BENCH_FAST=1` — smaller graph for CI smoke runs.
//! * `SGNN_BENCH_OUT` — artifact path override (default repo root).
//! * `SGNN_TRACE=<path>` — emit `shard.*` counters via `sgnn-obs`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sgnn_bench::exp_oocsr::{bench_out_path, load_bench, save_bench, Headline};
use sgnn_data::{CsbmParams, Metric};
use sgnn_dense::rng as drng;
use sgnn_dense::DMat;
use sgnn_sparse::shard::write_shards_from_csr;
use sgnn_sparse::{PropMatrix, ShardedCsr};

fn graph(n: usize, deg: usize) -> sgnn_data::Dataset {
    let params = CsbmParams {
        nodes: n,
        edges: n * deg / 2,
        homophily: 0.6,
        classes: 4,
        feature_dim: 8,
        signal: 1.0,
        degree_exponent: 2.5,
    };
    sgnn_data::csbm::generate("bench", &params, Metric::Accuracy, 0)
}

/// Best-of-`reps` wall-clock seconds, after one warmup call.
fn time_best(reps: usize, mut body: impl FnMut() -> DMat) -> f64 {
    black_box(body());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(body());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn run() {
    let fast = std::env::var("SGNN_BENCH_FAST").is_ok();
    let (n, deg, f, reps) = if fast {
        (4_000usize, 12usize, 32usize, 3usize)
    } else {
        (30_000, 16, 64, 7)
    };
    let rho = 0.5;

    let data = graph(n, deg);
    let pm = PropMatrix::new(&data.graph, rho);
    let nnz = data.graph.directed_edges();

    // Shard the same structure: ~8 shards so the decode ring actually
    // cycles (buffers default to 2).
    let shard_path =
        std::env::temp_dir().join(format!("sgnn-bench-oocsr-{}-{n}.shrd", std::process::id()));
    let target = ((nnz + n) / 8).max(1024);
    let summary = write_shards_from_csr(data.graph.adjacency(), &shard_path, target, true)
        .expect("write shard file");
    let csr = Arc::new(ShardedCsr::open(&shard_path, true).expect("open shard file"));
    let spm = PropMatrix::from_sharded(csr.clone(), rho);

    let mut rng = drng::seeded(3);
    let x = drng::randn_mat(n, f, 1.0, &mut rng);

    // Bit identity is the contract, not a statistic: any mismatch aborts.
    let reference = pm.prop(1.0, 0.0, &x);
    let streamed = spm.prop(1.0, 0.0, &x);
    let bit_identical = reference.data() == streamed.data()
        && pm.prop_t(0.5, -0.25, &x).data() == spm.prop_t(0.5, -0.25, &x).data();
    assert!(
        bit_identical,
        "sharded propagation diverged from in-memory CSR"
    );
    drop((reference, streamed));

    // Interleave the two substrates rep by rep: the host's clock drifts
    // over seconds, and back-to-back blocks would hand one side the slow
    // thermal phase. Paired reps see the same conditions.
    let mut in_memory_s = f64::INFINITY;
    let mut sharded_s = f64::INFINITY;
    black_box(pm.prop(1.0, 0.0, &x));
    black_box(spm.prop(1.0, 0.0, &x));
    for _ in 0..(2 * reps) {
        let t = Instant::now();
        black_box(pm.prop(1.0, 0.0, &x));
        in_memory_s = in_memory_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(spm.prop(1.0, 0.0, &x));
        sharded_s = sharded_s.min(t.elapsed().as_secs_f64());
    }
    let overhead = sharded_s / in_memory_s.max(1e-12);

    // Decode throughput: with a single feature column the SpMM work per
    // edge is one FMA, so the pass is dominated by varint decode.
    let x1 = drng::randn_mat(n, 1, 1.0, &mut rng);
    let decode_s = time_best(reps, || spm.prop(1.0, 0.0, &x1));
    let decode_mb_s = summary.file_bytes as f64 / 1e6 / decode_s.max(1e-12);

    let compression = (summary.nnz.saturating_mul(4)) as f64 / summary.file_bytes.max(1) as f64;

    let out_path = bench_out_path();
    let mut bench = load_bench(&out_path);
    bench.headline = Headline {
        nodes: n as u64,
        directed_edges: summary.nnz,
        shards: summary.shards as u64,
        compression_vs_u32: compression,
        decode_mb_s,
        in_memory_ms: in_memory_s * 1e3,
        sharded_ms: sharded_s * 1e3,
        overhead,
        bit_identical,
    };
    save_bench(&out_path, &bench);

    println!(
        "oocsr: n={n} edges={} shards={} | bit-identical: {bit_identical} | \
         in-memory {:.2}ms vs sharded {:.2}ms ({overhead:.3}x overhead) | \
         decode {decode_mb_s:.1} MB/s | compression {compression:.2}x vs u32 cols",
        summary.nnz,
        summary.shards,
        in_memory_s * 1e3,
        sharded_s * 1e3,
    );
    println!("BENCH_oocsr.json written");
    let _ = std::fs::remove_file(&shard_path);
}

fn main() {
    sgnn_obs::init_from_env();
    run();
    sgnn_obs::flush();
}
