//! The per-layer ledger of the traced run: the metric list, and the replays
//! that time one layer's calls in isolation at a workload's shapes.
//!
//! A layer is `crate.module`. Every traced run prints every metric; a layer
//! the workload never reaches reads 0.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sgnn_autograd::optim::GroupHyper;
use sgnn_autograd::{Adam, Optimizer, ParamStore, Tape};
use sgnn_core::make_filter;
use sgnn_data::Dataset;
use sgnn_dense::{matmul, rng as drng, runtime, DMat};
use sgnn_models::decoupled::{gather_terms, DecoupledConfig, DecoupledModel};
use sgnn_sparse::{Graph, PropMatrix, SpmmPlan};
use sgnn_train::TrainReport;

use crate::stats;
use crate::workloads::{CellSpec, MIB};

/// Name, unit and better direction of every per-layer metric, in the order
/// of `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // The whole-unit timings that carry no bound (see README, *Noise*).
    ("unit_p50_ms", "ms", "lower"),
    ("unit_p90_ms", "ms", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("cpu_ms_per_unit", "ms", "lower"),
    ("data.csbm.generate_s", "s", "lower"),
    ("sparse.normalize.build_ms", "ms", "lower"),
    ("sparse.plan.build_ms", "ms", "lower"),
    ("sparse.plan.chunks", "count", "lower"),
    ("sparse.csr.prop_ms", "ms", "lower"),
    ("sparse.csr.prop_axpy_ms", "ms", "lower"),
    ("sparse.csr.prop_t_ms", "ms", "lower"),
    ("sparse.csr.medges_per_s", "1/s", "higher"),
    ("sparse.csr.bytes_per_edge", "B", "lower"),
    ("sparse.csr.share_of_unit", "ratio", "lower"),
    ("sparse.shard.write_s", "s", "lower"),
    ("sparse.shard.open_ms", "ms", "lower"),
    ("sparse.shard.file_mib", "MiB", "lower"),
    ("sparse.shard.compression_x", "ratio", "higher"),
    ("sparse.shard.cycle_ms", "ms", "lower"),
    ("sparse.shard.overhead_x", "ratio", "lower"),
    ("sparse.shard.resident_mib", "MiB", "lower"),
    ("shard.decoded", "count", "lower"),
    ("shard.bytes_read", "B", "lower"),
    ("shard.prefetch_hit", "count", "higher"),
    ("dense.matmul_ms", "ms", "lower"),
    ("dense.matmul.gflops", "1/s", "higher"),
    ("dense.matmul_at_b_ms", "ms", "lower"),
    ("dense.gather_rows_ms", "ms", "lower"),
    ("dense.gather.mib_per_s", "MiB/s", "higher"),
    ("dense.runtime.dispatch_us", "us", "lower"),
    ("models.decoupled.precompute_s", "s", "lower"),
    ("models.decoupled.step_ms", "ms", "lower"),
    ("autograd.adam.step_ms", "ms", "lower"),
    ("train.fb.epoch_ms", "ms", "lower"),
    ("train.fb.infer_ms", "ms", "lower"),
    ("train.fb.device_peak_mib", "MiB", "lower"),
    ("train.mb.precompute_s", "s", "lower"),
    ("train.mb.epoch_ms", "ms", "lower"),
    ("train.mb.infer_ms", "ms", "lower"),
    ("train.mb.device_peak_mib", "MiB", "lower"),
    ("train.mb.ram_model_mib", "MiB", "lower"),
    ("train.test_metric", "ratio", "higher"),
    ("train.unaccounted_share", "ratio", "lower"),
    ("train.checkpoint.encode_ms", "ms", "lower"),
    ("train.checkpoint.decode_ms", "ms", "lower"),
    ("serve.artifact.save_s", "s", "lower"),
    ("serve.artifact.load_s", "s", "lower"),
    ("serve.artifact.mib_per_s", "MiB/s", "higher"),
    ("serve.server.boot_ms", "ms", "lower"),
    ("serve.server.shutdown_ms", "ms", "lower"),
    ("serve.engine.logits_ms", "ms", "lower"),
    ("serve.engine.rows_per_s", "1/s", "higher"),
    ("serve.engine.share_of_unit", "ratio", "lower"),
    ("serve.lru.get_ns", "ns", "lower"),
    ("serve.lru.put_ns", "ns", "lower"),
    ("serve.lru.heap_b_per_hit", "B", "lower"),
    ("serve.wire.encode_reply_us", "us", "lower"),
    ("serve.wire.decode_reply_us", "us", "lower"),
    ("serve.wire.encode_request_us", "us", "lower"),
    ("serve.conn.ping_us", "us", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("loadgen.lat_p99_ms", "ms", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.failed", "count", "lower"),
    ("loadgen.slo_miss", "count", "lower"),
    ("proc.heap_growth_mib", "MiB", "lower"),
    ("proc.sys_cpu_share", "ratio", "lower"),
    ("obs.trace_overhead_x", "ratio", "lower"),
];

/// Values of the per-layer metrics; unset ones read 0.
#[derive(Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Records `value` under a name of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Median wall time in milliseconds of `reps` calls of `f`.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Mean time per call in nanoseconds of `calls` back-to-back calls — for
/// layers too fast to time one call at a time.
pub fn mean_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / calls.max(1) as f64
}

/// Replays the in-memory propagation layers on `graph` at feature width
/// `width`, and returns the mean isolated time of one hop in milliseconds.
pub fn replay_sparse(l: &mut Ledger, graph: &Graph, rho: f32, width: usize, seed: u64) -> f64 {
    l.set(
        "sparse.normalize.build_ms",
        median_ms(3, || {
            drop(std::hint::black_box(PropMatrix::new(graph, rho)))
        }),
    );
    let pm = PropMatrix::new(graph, rho);
    let indptr = pm.adj().indptr();
    let threads = runtime::num_threads();
    l.set(
        "sparse.plan.build_ms",
        median_ms(9, || {
            drop(std::hint::black_box(SpmmPlan::build(indptr, threads)))
        }),
    );
    l.set(
        "sparse.plan.chunks",
        SpmmPlan::build(indptr, threads).chunks() as f64,
    );

    let n = pm.n();
    let x = drng::randn_mat(n, width, 1.0, &mut drng::seeded(seed));
    let z = x.scaled(0.5);
    let mut out = DMat::zeros(n, width);
    let prop = median_ms(9, || pm.prop_into(1.0, 0.0, &x, &mut out));
    let axpy = median_ms(9, || {
        drop(std::hint::black_box(pm.prop_axpy(-2.0, 0.0, -1.0, &x, &z)))
    });
    let prop_t = median_ms(9, || pm.prop_t_into(1.0, 0.0, &x, &mut out));
    std::hint::black_box(&out);
    l.set("sparse.csr.prop_ms", prop);
    l.set("sparse.csr.prop_axpy_ms", axpy);
    l.set("sparse.csr.prop_t_ms", prop_t);
    let nnz = pm.nnz() as f64;
    l.set("sparse.csr.medges_per_s", nnz / (prop / 1e3) / 1e6);
    // Computed, not measured: per stored edge one u32 index, one f32 weight
    // and one gathered row of x; per row one indptr entry and one written
    // row. Cache hits on x make the true traffic lower.
    let row_bytes = 4.0 * width as f64;
    l.set(
        "sparse.csr.bytes_per_edge",
        (nnz * (8.0 + row_bytes) + n as f64 * (8.0 + row_bytes)) / nnz,
    );
    (prop + axpy + prop_t) / 3.0
}

/// Median of one report field over the cells of a run.
fn report_median(reports: &[TrainReport], f: impl Fn(&TrainReport) -> f64) -> f64 {
    stats::median(&reports.iter().map(f).collect::<Vec<_>>())
}

/// Fills the `train.*` metrics from the public reports of the timed cells
/// and compares each cell's stage sum with its measured unit.
pub fn train_reports(l: &mut Ledger, reports: &[TrainReport], unit_ms: &[f64], full_batch: bool) {
    let epoch_ms = report_median(reports, |r| r.train_epoch_s * 1e3);
    let infer_ms = report_median(reports, |r| r.infer_s * 1e3);
    let device_mib = report_median(reports, |r| r.device_bytes as f64 / MIB);
    if full_batch {
        l.set("train.fb.epoch_ms", epoch_ms);
        l.set("train.fb.infer_ms", infer_ms);
        l.set("train.fb.device_peak_mib", device_mib);
    } else {
        l.set(
            "train.mb.precompute_s",
            report_median(reports, |r| r.precompute_s),
        );
        l.set("train.mb.epoch_ms", epoch_ms);
        l.set("train.mb.infer_ms", infer_ms);
        l.set("train.mb.device_peak_mib", device_mib);
        l.set(
            "train.mb.ram_model_mib",
            report_median(reports, |r| r.ram_bytes as f64 / MIB),
        );
    }
    l.set(
        "train.test_metric",
        report_median(reports, |r| r.test_metric),
    );
    let gaps: Vec<f64> = reports
        .iter()
        .zip(unit_ms)
        .map(|(r, unit)| {
            let staged = (r.precompute_s + r.train_total_s + r.infer_s) * 1e3;
            (unit - staged) / unit
        })
        .collect();
    l.set("train.unaccounted_share", stats::median(&gaps));
}

/// Replays the dense, model and optimiser layers at a mini-batch cell's
/// shapes: one batch of `spec.batch` rows through the two-layer head.
pub fn replay_mini_batch(l: &mut Ledger, spec: &CellSpec, data: &Dataset, rho: f32, seed: u64) {
    let (batch, attrs, hidden) = (spec.batch, spec.graph.attrs, spec.hidden);
    let mut rng = drng::seeded(seed);
    let a = drng::randn_mat(batch, attrs, 1.0, &mut rng);
    let w = drng::randn_mat(attrs, hidden, 0.1, &mut rng);
    let dy = drng::randn_mat(batch, hidden, 1.0, &mut rng);
    let mm = median_ms(21, || drop(std::hint::black_box(matmul::matmul(&a, &w))));
    l.set("dense.matmul_ms", mm);
    l.set(
        "dense.matmul.gflops",
        2.0 * (batch * attrs * hidden) as f64 / (mm / 1e3) / 1e9,
    );
    l.set(
        "dense.matmul_at_b_ms",
        median_ms(21, || {
            drop(std::hint::black_box(matmul::matmul_at_b(&a, &dy)))
        }),
    );
    let idx: Vec<u32> =
        drng::permutation(data.nodes(), &mut rng)[..batch.min(data.nodes())].to_vec();
    let mut gathered = DMat::zeros(idx.len(), attrs);
    let gather = median_ms(21, || data.features.gather_rows_into(&idx, &mut gathered));
    std::hint::black_box(&gathered);
    l.set("dense.gather_rows_ms", gather);
    l.set(
        "dense.gather.mib_per_s",
        gathered.nbytes() as f64 / MIB / (gather / 1e3),
    );
    let lanes = runtime::num_threads();
    l.set(
        "dense.runtime.dispatch_us",
        mean_ns(2_000, |_| {
            runtime::run_indexed(lanes, |i| {
                std::hint::black_box(i);
            })
        }) / 1e3,
    );

    // The model exactly as `try_train_mini_batch` builds it.
    let mut store = ParamStore::new();
    let model = DecoupledModel::new(
        make_filter(spec.filter, spec.hops).expect("known filter"),
        attrs,
        spec.graph.classes,
        DecoupledConfig::mini_batch(hidden),
        &mut store,
        &mut rng,
    );
    let pm = PropMatrix::new(&data.graph, rho);
    let t0 = Instant::now();
    let terms = model.precompute_mb(&pm, &data.features);
    l.set("models.decoupled.precompute_s", t0.elapsed().as_secs_f64());
    let hyper = GroupHyper {
        lr: 0.01,
        weight_decay: 5e-4,
    };
    let mut opt = Adam::with_groups(hyper, hyper);
    let labels = Arc::new(data.targets_of(&idx));
    let mut step = Vec::new();
    let mut adam = Vec::new();
    for rep in 0..9 {
        store.zero_grads();
        let t0 = Instant::now();
        let batch_terms = gather_terms(&terms, &idx);
        let mut tape = Tape::new(true, seed.wrapping_add(rep));
        let logits = model.forward_mb(&mut tape, &batch_terms, &store);
        let loss = tape.softmax_cross_entropy(logits, Arc::clone(&labels));
        tape.backward(loss, &mut store);
        step.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        opt.step(&mut store);
        adam.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    l.set("models.decoupled.step_ms", stats::median(&step));
    l.set("autograd.adam.step_ms", stats::median(&adam));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_defaults_to_zero_and_rejects_unknown_names() {
        let mut l = Ledger::default();
        assert_eq!(l.get("dense.matmul_ms"), 0.0);
        l.set("dense.matmul_ms", 1.5);
        assert_eq!(l.get("dense.matmul_ms"), 1.5);
        assert!(std::panic::catch_unwind(move || l.set("dense.nope", 1.0)).is_err());
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let mut names: Vec<_> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (name, unit, better) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(*better == "lower" || *better == "higher");
        }
    }
}
