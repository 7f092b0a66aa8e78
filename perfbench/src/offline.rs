//! The three offline workloads: full-batch cells, mini-batch cells, and
//! streamed propagation over a shard file.

use std::path::Path;
use std::sync::Arc;

use sgnn_core::make_filter;
use sgnn_data::{csbm, CsbmParams, Dataset, Metric};
use sgnn_dense::DMat;
use sgnn_obs as obs;
use sgnn_sparse::shard::{write_shards_from_csr, ShardSummary};
use sgnn_sparse::{PropMatrix, ShardedCsr};
use sgnn_train::{try_train_full_batch, try_train_mini_batch, TrainConfig, TrainReport};

use crate::ledger::{self, Ledger};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{
    process_layers, repeat_setup, timed_units, CellSpec, EndToEnd, GraphSpec, OocSpec, Opts,
    Outcome, Phase, MIB,
};

/// Generates the workload's graph; the seed feeds edges, attributes and splits.
pub fn generate(name: &str, g: &GraphSpec, seed: u64, tr: &mut Tracer) -> Dataset {
    let params = CsbmParams {
        nodes: g.nodes,
        edges: g.edges,
        homophily: 0.8,
        classes: g.classes,
        feature_dim: g.attrs,
        signal: 1.0,
        degree_exponent: 2.5,
    };
    tr.span("data.csbm.generate", |_| {
        csbm::generate(name, &params, Metric::Accuracy, seed)
    })
}

/// Runs the untraced timed phase and, in a traced run, a second one with the
/// benchmark's spans and the program's own aggregation switched on.
fn phases(o: &Opts, tr: &mut Tracer, mut unit: impl FnMut(&mut Tracer)) -> (Phase, Option<Phase>) {
    let untraced = timed_units(o.phase_seconds(), tr, &mut unit);
    if !o.trace {
        return (untraced, None);
    }
    obs::enable_aggregation();
    obs::reset();
    tr.set_enabled(true);
    let traced = timed_units(o.phase_seconds(), tr, &mut unit);
    tr.set_enabled(false);
    (untraced, Some(traced))
}

/// `fb_cheb` and `mb_wide`: the unit is one whole training cell.
pub fn cells(
    name: &'static str,
    spec: &CellSpec,
    full_batch: bool,
    o: &Opts,
    tr: &mut Tracer,
) -> Outcome {
    let cfg = TrainConfig {
        hops: spec.hops,
        hidden: spec.hidden,
        epochs: spec.epochs,
        patience: 0,
        batch_size: spec.batch,
        seed: o.seed,
        ..TrainConfig::default()
    };
    let train = |data: &Dataset, cfg: &TrainConfig| {
        let filter = make_filter(spec.filter, spec.hops).expect("known filter");
        if full_batch {
            try_train_full_batch(filter, data, cfg)
        } else {
            try_train_mini_batch(filter, data, cfg)
        }
    };
    let warm_cfg = TrainConfig {
        epochs: 1,
        ..cfg.clone()
    };
    tr.set_enabled(o.trace);
    let (setup_s, data) = repeat_setup(spec.setup_repeats, tr, |tr| {
        let data = generate(name, &spec.graph, o.seed, tr);
        tr.span("warmup", |_| train(&data, &warm_cfg))
            .expect("warm-up cell trains");
        data
    });
    tr.set_enabled(false);

    let mut reports: Vec<TrainReport> = Vec::new();
    let mut failed = 0u64;
    let (untraced, traced) = phases(o, tr, |tr| {
        match tr.span("train.cell", |_| train(&data, &cfg)) {
            Ok(r) => reports.push(r),
            Err(_) => failed += 1,
        }
    });

    let mut errors = Vec::new();
    if failed > 0 {
        errors.push(format!("{failed} cells returned an error"));
    }
    if let Some(first) = reports.first() {
        if reports
            .iter()
            .any(|r| r.test_metric.to_bits() != first.test_metric.to_bits())
        {
            errors.push("test metric differs between repeats of the same cell".into());
        }
        if first.test_metric < spec.min_metric {
            errors.push(format!(
                "test metric {:.4} below {:.2}",
                first.test_metric, spec.min_metric
            ));
        }
    }

    let mut ledger = Ledger::default();
    if let Some(traced) = &traced {
        ledger.set("data.csbm.generate_s", tr.median_s("data.csbm.generate"));
        process_layers(&mut ledger, &untraced, traced);
        // The first reports belong to the untraced phase.
        let untraced_reports = &reports[..untraced.samples_ms.len().min(reports.len())];
        ledger::train_reports(
            &mut ledger,
            untraced_reports,
            &untraced.samples_ms,
            full_batch,
        );
        // Full-batch propagates hidden-width activations, mini-batch the raw attributes.
        let width = if full_batch {
            spec.hidden
        } else {
            spec.graph.attrs
        };
        let hop_ms = ledger::replay_sparse(&mut ledger, &data.graph, cfg.rho, width, o.seed);
        let hops = reports.first().map_or(0, |r| r.prop_hops) as f64;
        ledger.set(
            "sparse.csr.share_of_unit",
            hops * hop_ms / stats::median(&untraced.samples_ms),
        );
        if !full_batch {
            ledger::replay_mini_batch(&mut ledger, spec, &data, cfg.rho, o.seed);
        }
    }
    let ops = (reports.len().min(untraced.samples_ms.len()) * spec.epochs) as f64;
    Outcome {
        e2e: EndToEnd::new(setup_s, &untraced, ops),
        work_unit: "epochs",
        failed,
        errors,
        ledger,
        worker_tracers: Vec::new(),
    }
}

/// The three outputs of one propagation cycle, kept across cycles.
struct Hops {
    a: DMat,
    b: DMat,
    c: DMat,
}

impl Hops {
    fn new(n: usize, width: usize) -> Self {
        let zeros = || DMat::zeros(n, width);
        Self {
            a: zeros(),
            b: zeros(),
            c: zeros(),
        }
    }

    /// One cycle: forward hop into `a`, fused three-term hop into `b`,
    /// adjoint hop into `c`.
    fn cycle(&mut self, pm: &PropMatrix, x: &DMat, tr: &mut Tracer) {
        tr.span("sparse.prop_into", |_| {
            pm.prop_into(1.0, 0.0, x, &mut self.a)
        });
        // `prop_axpy` allocates its result; the previous one is freed first,
        // as a caller that had consumed it would have.
        self.b = DMat::zeros(0, 0);
        self.b = tr.span("sparse.prop_axpy", |_| {
            pm.prop_axpy(-2.0, 0.0, -1.0, &self.a, x)
        });
        tr.span("sparse.prop_t_into", |_| {
            pm.prop_t_into(1.0, 0.0, &self.b, &mut self.c)
        });
    }

    /// FNV-1a over the bit patterns of the outputs: equal hashes stand for
    /// bit-identical cycles.
    fn bit_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [&self.a, &self.b, &self.c].into_iter().flat_map(DMat::data) {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

struct OocReady {
    pm: PropMatrix,
    x: DMat,
    /// Bit hash of one cycle through the in-memory operator.
    reference: u64,
    /// Kept by the traced run only, for the overhead replay.
    in_memory: Option<Dataset>,
    summary: ShardSummary,
}

/// `ooc_stream`: the unit is one propagation cycle over the streamed operator.
pub fn ooc_stream(spec: &OocSpec, o: &Opts, dir: &Path, tr: &mut Tracer) -> Outcome {
    let path = dir.join("graph.shrd");
    let width = spec.graph.attrs;
    let mut hops = Hops::new(spec.graph.nodes, width);
    let mut errors = Vec::new();
    tr.set_enabled(o.trace);
    let (setup_s, mut ready) = repeat_setup(spec.setup_repeats, tr, |tr| {
        let data = generate("ooc_stream", &spec.graph, o.seed, tr);
        let summary = tr
            .span("sparse.shard.write", |_| {
                write_shards_from_csr(data.graph.adjacency(), &path, spec.shard_nnz, true)
            })
            .expect("shard file written");
        let x = data.features.clone();
        let reference = tr.span("reference", |tr| {
            let mem = PropMatrix::new(&data.graph, spec.rho);
            hops.cycle(&mem, &x, tr);
            hops.bit_hash()
        });
        // The measured run drops the in-memory graph here, which is the
        // point of streaming.
        let in_memory = o.trace.then_some(data);
        let csr = tr
            .span("sparse.shard.open", |_| ShardedCsr::open(&path, true))
            .expect("shard file opens");
        let pm = PropMatrix::from_sharded(Arc::new(csr), spec.rho);
        tr.span("warmup", |tr| {
            for _ in 0..spec.warmup_cycles {
                hops.cycle(&pm, &x, tr);
            }
        });
        OocReady {
            pm,
            x,
            reference,
            in_memory,
            summary,
        }
    });
    tr.set_enabled(false);

    // The hash is taken after the timed phase, on the outputs of its last
    // cycle, so that hashing 9.6 M floats is not part of any unit.
    let (untraced, traced) = phases(o, tr, |tr| hops.cycle(&ready.pm, &ready.x, tr));
    let failed = u64::from(hops.bit_hash() != ready.reference);
    if failed > 0 {
        errors.push("streamed cycle differs bitwise from the in-memory reference".into());
    }

    let mut ledger = Ledger::default();
    if let Some(traced) = &traced {
        let counters = obs::snapshot();
        // The program's counters were reset when the traced phase began.
        let cycles = traced.samples_ms.len() as f64;
        let per_cycle = |name: &str| counters.counter(name).unwrap_or(0) as f64 / cycles;
        ledger.set("shard.decoded", per_cycle("shard.decoded"));
        ledger.set("shard.bytes_read", per_cycle("shard.bytes_read"));
        ledger.set("shard.prefetch_hit", per_cycle("shard.prefetch_hit"));
        ledger.set("data.csbm.generate_s", tr.median_s("data.csbm.generate"));
        ledger.set("sparse.shard.write_s", tr.median_s("sparse.shard.write"));
        ledger.set(
            "sparse.shard.open_ms",
            tr.median_s("sparse.shard.open") * 1e3,
        );
        ledger.set(
            "sparse.shard.file_mib",
            ready.summary.file_bytes as f64 / MIB,
        );
        // Base: the 4-byte column indices of the stored entries.
        ledger.set(
            "sparse.shard.compression_x",
            (ready.summary.nnz * 4) as f64 / ready.summary.file_bytes as f64,
        );
        ledger.set("sparse.shard.resident_mib", ready.pm.nbytes() as f64 / MIB);
        let cycle_ms = stats::median(&untraced.samples_ms);
        ledger.set("sparse.shard.cycle_ms", cycle_ms);
        process_layers(&mut ledger, &untraced, traced);
        let data = ready.in_memory.take().expect("traced run keeps the graph");
        let hop_ms = ledger::replay_sparse(&mut ledger, &data.graph, spec.rho, width, o.seed);
        // Base: the same cycle through the in-memory operator, median of 5.
        let mem = PropMatrix::new(&data.graph, spec.rho);
        let mem_ms = ledger::median_ms(5, || hops.cycle(&mem, &ready.x, tr));
        ledger.set("sparse.shard.overhead_x", cycle_ms / mem_ms);
        ledger.set("sparse.csr.share_of_unit", 3.0 * hop_ms / cycle_ms);
    }
    let _ = std::fs::remove_file(&path);
    // Work = million decoded edges propagated: three hops per cycle.
    let medges = ready.pm.nnz() as f64 * 3.0 / 1e6;
    Outcome {
        e2e: EndToEnd::new(
            setup_s,
            &untraced,
            medges * untraced.samples_ms.len() as f64,
        ),
        work_unit: "Medges",
        failed,
        errors,
        ledger,
        worker_tracers: Vec::new(),
    }
}
