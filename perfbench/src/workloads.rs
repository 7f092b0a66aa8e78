//! The five workloads: their sizes, why each exists, and the measurement
//! scaffolding they share. Every size is a constant here; nothing is read
//! from the environment.

use std::time::Instant;

use sgnn_train::memory;

use crate::host;
use crate::ledger::Ledger;
use crate::stats;
use crate::trace::Tracer;

/// `--seconds` value the fixed query counts below are sized for: they take
/// 10-14 s on the reference host (2 vCPU Xeon 2.1 GHz, AVX2, pool width 2).
pub const NOMINAL_SECONDS: f64 = 15.0;

/// Name and one-line reason of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "fb_cheb",
        "full-batch Chebyshev K=10 cells on a 20k-node graph: 90 in-memory CSR SpMM hops per cell are the largest single layer, dense GEMM is small",
    ),
    (
        "mb_wide",
        "mini-batch Monomial K=4 cells, 50k nodes, hidden 256: row gather, GEMM, tape and Adam do the work, propagation little",
    ),
    (
        "ooc_stream",
        "streamed propagation over a 15-shard file: the same SpMM inner loop reached through varint decode, CRC and the prefetch ring",
    ),
    (
        "serve_uniform",
        "1024-row queries over all 100k nodes: ~96% of rows miss the 4096-row LRU, so engine gather + transform dominate",
    ),
    (
        "serve_hot",
        "1024-row queries over 4096 hot nodes: every row hits the LRU, so lru, wire, conn and server code do everything",
    ),
];

/// A contextual SBM graph. Homophily 0.8 throughout: the cells must train to
/// a checked accuracy, and the timing does not depend on it.
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    pub nodes: usize,
    pub edges: usize,
    pub attrs: usize,
    pub classes: usize,
}

/// A workload whose unit is one training cell.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    pub graph: GraphSpec,
    pub filter: &'static str,
    pub hops: usize,
    pub hidden: usize,
    pub epochs: usize,
    pub batch: usize,
    pub setup_repeats: usize,
    /// Lowest test metric a cell may report.
    pub min_metric: f64,
}

#[derive(Clone, Copy, Debug)]
pub struct OocSpec {
    pub graph: GraphSpec,
    pub rho: f32,
    /// Stored entries per shard (0 = the library default).
    pub shard_nnz: usize,
    pub warmup_cycles: usize,
    pub setup_repeats: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub graph: GraphSpec,
    pub hops: usize,
    pub hidden: usize,
    pub clients: usize,
    pub rows_per_query: usize,
    /// Ids are drawn uniformly from `0..id_range`.
    pub id_range: u32,
    pub warmup_queries: usize,
    /// Timed queries per client per [`NOMINAL_SECONDS`].
    pub queries: usize,
    /// A reply slower than this counts as failed — the client would have
    /// given up on it — but not as incorrect.
    pub limit_ms: f64,
    /// The latency objective; replies over it are counted, not failed.
    pub slo_ms: f64,
    pub verify_nodes: usize,
    pub setup_repeats: usize,
}

pub const FB_CHEB: CellSpec = CellSpec {
    graph: GraphSpec {
        nodes: 20_000,
        edges: 300_000,
        attrs: 64,
        classes: 8,
    },
    filter: "Chebyshev",
    hops: 10,
    hidden: 64,
    epochs: 4,
    batch: 4096,
    setup_repeats: 5,
    // Four epochs reach 0.80-0.98 depending on the seed (60 seeds scanned);
    // a model that failed to train stays near chance, 0.125.
    min_metric: 0.60,
};

pub const MB_WIDE: CellSpec = CellSpec {
    graph: GraphSpec {
        nodes: 50_000,
        edges: 250_000,
        attrs: 128,
        classes: 16,
    },
    filter: "Monomial",
    hops: 4,
    hidden: 256,
    epochs: 3,
    batch: 4096,
    setup_repeats: 5,
    // 0.985-0.99 on 20 seeds scanned.
    min_metric: 0.90,
};

// Sized for a 0.15 s cycle: a run then holds some ninety of them, and the
// fast tail a run reports is found more reliably among many short units.
pub const OOC_STREAM: OocSpec = OocSpec {
    graph: GraphSpec {
        nodes: 100_000,
        edges: 2_000_000,
        attrs: 32,
        classes: 8,
    },
    rho: 0.5,
    shard_nnz: 0,
    warmup_cycles: 3,
    setup_repeats: 3,
};

const SERVE_GRAPH: GraphSpec = GraphSpec {
    nodes: 100_000,
    edges: 500_000,
    attrs: 64,
    classes: 16,
};

pub const SERVE_UNIFORM: ServeSpec = ServeSpec {
    graph: SERVE_GRAPH,
    hops: 4,
    hidden: 256,
    clients: 2,
    rows_per_query: 1024,
    id_range: SERVE_GRAPH.nodes as u32,
    warmup_queries: 500,
    queries: 3000,
    limit_ms: 1_000.0,
    slo_ms: 40.0,
    verify_nodes: 64,
    setup_repeats: 1,
};

pub const SERVE_HOT: ServeSpec = ServeSpec {
    id_range: 4096,
    queries: 14_000,
    slo_ms: 10.0,
    ..SERVE_UNIFORM
};

/// `--smoke` sizes: the same code paths in well under a second each. Cells
/// this small promise no accuracy, so only the full sizes assert one.
pub mod smoke {
    use super::*;

    const GRAPH: GraphSpec = GraphSpec {
        nodes: 2_000,
        edges: 12_000,
        attrs: 16,
        classes: 4,
    };

    pub const FB_CHEB: CellSpec = CellSpec {
        graph: GRAPH,
        hops: 4,
        hidden: 16,
        epochs: 4,
        setup_repeats: 2,
        min_metric: 0.0,
        ..super::FB_CHEB
    };

    pub const MB_WIDE: CellSpec = CellSpec {
        graph: GRAPH,
        hidden: 32,
        batch: 512,
        setup_repeats: 2,
        min_metric: 0.0,
        ..super::MB_WIDE
    };

    pub const OOC_STREAM: OocSpec = OocSpec {
        graph: GRAPH,
        shard_nnz: 4_000,
        warmup_cycles: 1,
        ..super::OOC_STREAM
    };

    pub const SERVE_UNIFORM: ServeSpec = ServeSpec {
        graph: GRAPH,
        hidden: 32,
        rows_per_query: 64,
        id_range: GRAPH.nodes as u32,
        warmup_queries: 20,
        queries: 200,
        limit_ms: 1_000.0,
        slo_ms: 1_000.0,
        verify_nodes: 16,
        ..super::SERVE_UNIFORM
    };

    pub const SERVE_HOT: ServeSpec = ServeSpec {
        id_range: 256,
        ..SERVE_UNIFORM
    };
}

/// The five specs of one size class.
pub struct Specs {
    pub fb_cheb: CellSpec,
    pub mb_wide: CellSpec,
    pub ooc_stream: OocSpec,
    pub serve_uniform: ServeSpec,
    pub serve_hot: ServeSpec,
}

pub const FULL: Specs = Specs {
    fb_cheb: FB_CHEB,
    mb_wide: MB_WIDE,
    ooc_stream: OOC_STREAM,
    serve_uniform: SERVE_UNIFORM,
    serve_hot: SERVE_HOT,
};

pub const SMOKE: Specs = Specs {
    fb_cheb: smoke::FB_CHEB,
    mb_wide: smoke::MB_WIDE,
    ooc_stream: smoke::OOC_STREAM,
    serve_uniform: smoke::SERVE_UNIFORM,
    serve_hot: smoke::SERVE_HOT,
};

/// Options of one run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Opts {
    /// Seconds one timed phase measures. The traced run splits `--seconds`
    /// between its untraced and its traced phase.
    pub fn phase_seconds(&self) -> f64 {
        let seconds = if self.smoke { 0.2 } else { self.seconds };
        if self.trace {
            seconds / 2.0
        } else {
            seconds
        }
    }

    /// Scales a query count sized for [`NOMINAL_SECONDS`] to `--seconds`. The
    /// serving workloads run a count fixed by the argument alone, never by
    /// measured speed: the server's memory grows with the queries it has
    /// answered, so only a fixed count makes `peak_ram_mib` repeat.
    pub fn queries(&self, nominal: usize) -> usize {
        let n = if self.smoke {
            nominal
        } else {
            (nominal as f64 * self.seconds / NOMINAL_SECONDS).round() as usize
        };
        (if self.trace { n / 2 } else { n }).max(MIN_UNITS)
    }
}

/// Fewest units a timed phase runs, however slow the host.
pub const MIN_UNITS: usize = 3;

/// What one timed phase cost.
pub struct Phase {
    /// Wall time of each unit, in milliseconds.
    pub samples_ms: Vec<f64>,
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub peak_ram: usize,
    /// Live heap bytes after the phase minus before it.
    pub heap_growth: i64,
}

/// Runs `body` as a timed phase; it returns the unit samples.
pub fn measure(body: impl FnOnce() -> Vec<f64>) -> Phase {
    memory::ram_reset_peak();
    let heap0 = memory::ram_current() as i64;
    let (user0, sys0) = host::cpu_times();
    let t0 = Instant::now();
    let samples_ms = body();
    let wall_s = t0.elapsed().as_secs_f64();
    let (user1, sys1) = host::cpu_times();
    Phase {
        samples_ms,
        wall_s,
        user_s: user1 - user0,
        sys_s: sys1 - sys0,
        peak_ram: memory::ram_peak(),
        heap_growth: memory::ram_current() as i64 - heap0,
    }
}

/// A timed phase of sequential whole units, each inside a `unit` span: units
/// start until `seconds` have passed (and at least [`MIN_UNITS`] have run), so
/// a slow host lengthens a run by at most one unit.
pub fn timed_units(seconds: f64, tr: &mut Tracer, mut unit: impl FnMut(&mut Tracer)) -> Phase {
    measure(|| {
        let started = Instant::now();
        let mut samples_ms = Vec::new();
        while samples_ms.len() < MIN_UNITS || started.elapsed().as_secs_f64() < seconds {
            tr.set_unit(samples_ms.len() as u64);
            let t0 = Instant::now();
            tr.span("unit", &mut unit);
            samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        samples_ms
    })
}

/// Runs the set-up `repeats` times, each inside a `setup` span, and returns
/// the median duration with the products of the last repetition. Earlier
/// products are dropped before the next repetition starts.
pub fn repeat_setup<T>(
    repeats: usize,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> T,
) -> (f64, T) {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(tr.span("setup", &mut setup));
        secs.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&secs), last.expect("at least one set-up"))
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// The three bounded end-to-end metrics, the four timings reported without a
/// bound, and the counts printed beside them.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    /// Nearest-rank p10 of the unit samples: the host's interference only
    /// ever adds time, so the fast tail is what the code costs.
    pub unit_p10_ms: f64,
    pub peak_ram_mib: f64,
    pub unit_p50_ms: f64,
    pub unit_p90_ms: f64,
    pub work_per_s: f64,
    pub cpu_ms_per_unit: f64,
    /// Unit samples behind the percentiles.
    pub units: usize,
    /// Work items completed (epochs, million edges, queries).
    pub ops: f64,
    /// The highest percentile with ten samples beyond it, and the slowest unit.
    pub tail_ms: (f64, f64),
}

impl EndToEnd {
    pub fn new(setup_s: f64, phase: &Phase, ops: f64) -> Self {
        let s = stats::sorted(&phase.samples_ms);
        Self {
            setup_s,
            unit_p10_ms: stats::nearest_rank(&s, 0.1),
            peak_ram_mib: phase.peak_ram as f64 / MIB,
            unit_p50_ms: stats::nearest_rank(&s, 0.5),
            unit_p90_ms: stats::nearest_rank(&s, 0.9),
            work_per_s: ops / phase.wall_s,
            cpu_ms_per_unit: (phase.user_s + phase.sys_s) * 1e3 / s.len() as f64,
            units: s.len(),
            ops,
            tail_ms: (
                stats::nearest_rank(&s, stats::highest_supported(s.len())),
                s[s.len() - 1],
            ),
        }
    }

    /// Name, value and unit of each bounded metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> [(&'static str, f64, &'static str); 3] {
        [
            ("setup_s", self.setup_s, "s"),
            ("unit_p10_ms", self.unit_p10_ms, "ms"),
            ("peak_ram_mib", self.peak_ram_mib, "MiB"),
        ]
    }

    /// The timings that follow the host's load too closely to carry a bound:
    /// every report prints them, and the traced run puts them in the ledger.
    pub fn unbounded(&self) -> [(&'static str, f64, &'static str); 4] {
        [
            ("unit_p50_ms", self.unit_p50_ms, "ms"),
            ("unit_p90_ms", self.unit_p90_ms, "ms"),
            ("work_per_s", self.work_per_s, "1/s"),
            ("cpu_ms_per_unit", self.cpu_ms_per_unit, "ms"),
        ]
    }
}

/// Everything one run of one workload reports.
pub struct Outcome {
    pub e2e: EndToEnd,
    /// What `work_per_s` counts.
    pub work_unit: &'static str,
    /// Units whose output was wrong, errored, or missed the latency limit.
    pub failed: u64,
    /// Failed correctness checks; empty means `correct`.
    pub errors: Vec<String>,
    /// Filled by the traced run only.
    pub ledger: Ledger,
    /// Spans of the load-generator threads (serving workloads, traced run).
    pub worker_tracers: Vec<Tracer>,
}

/// Per-workload process metrics every traced run fills.
pub fn process_layers(ledger: &mut Ledger, untraced: &Phase, traced: &Phase) {
    let cpu = untraced.user_s + untraced.sys_s;
    ledger.set("proc.heap_growth_mib", untraced.heap_growth as f64 / MIB);
    ledger.set(
        "proc.sys_cpu_share",
        if cpu > 0.0 { untraced.sys_s / cpu } else { 0.0 },
    );
    ledger.set(
        "obs.trace_overhead_x",
        stats::median(&traced.samples_ms) / stats::median(&untraced.samples_ms),
    );
}
