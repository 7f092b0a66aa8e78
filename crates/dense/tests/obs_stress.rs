//! Pool-lane tracing stress: every worker lane hammers spans, counters,
//! and histograms while a separate thread drains the per-thread rings
//! concurrently. Verifies the profiler's accounting under real pool
//! contention — span closes plus the `obs.dropped` counter must equal the
//! number of closes attempted, the dispatch-latency histogram must see
//! every dispatch, and no shared-lock serialization is reintroduced on the
//! hot path (the drain thread holding the collector lock must not stall
//! the lanes; the test would time out if it did).
//!
//! Dedicated test binary: obs state is process-global.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sgnn_dense::{pin, runtime};
use sgnn_obs as obs;

static TASKS_DONE: obs::Counter = obs::Counter::new("obs_stress.tasks");
static TASK_NS: obs::Histogram = obs::Histogram::new("obs_stress.task_ns");

#[test]
fn pool_lanes_trace_under_concurrent_drain() {
    obs::enable_aggregation();
    obs::reset();
    let _t = pin::threads(6);

    const DISPATCHES: usize = 40;
    const TASKS: usize = 128;

    let stop = Arc::new(AtomicBool::new(false));
    let drains = Arc::new(AtomicU64::new(0));
    let drainer = {
        let stop = stop.clone();
        let drains = drains.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                obs::collect();
                drains.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
        })
    };
    // On a loaded host all forty dispatches can finish before a freshly
    // spawned thread is first scheduled; "concurrent" needs the drainer live.
    while drains.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }

    for d in 0..DISPATCHES {
        runtime::run_indexed(TASKS, |i| {
            let _sp = obs::span!("obs_stress.task", dispatch = d, idx = i);
            let t = std::time::Instant::now();
            std::hint::black_box((i.wrapping_mul(i + d)) % 97);
            TASK_NS.record_duration(t.elapsed());
            TASKS_DONE.incr();
        });
    }
    stop.store(true, Ordering::Relaxed);
    drainer.join().unwrap();

    let snap = obs::snapshot();
    let attempted = (DISPATCHES * TASKS) as u64;

    // Every task ran (counters are not subject to ring capacity).
    assert_eq!(snap.counter("obs_stress.tasks"), Some(attempted));

    // Span closes are never lost silently: recorded + dropped == attempted.
    let recorded = snap.span("obs_stress.task").map_or(0, |s| s.count);
    assert_eq!(recorded + snap.dropped, attempted, "unaccounted span loss");
    // With the concurrent drain plus watermark drains, the rings should
    // essentially never fill on this volume.
    assert!(
        snap.dropped < attempted / 10,
        "excessive drops ({}) under concurrent drain",
        snap.dropped
    );
    assert!(drains.load(Ordering::Relaxed) > 0, "drainer never ran");

    // The per-task histogram saw every sample, and its quantiles are sane.
    let h = snap.hist("obs_stress.task_ns").expect("task histogram");
    assert_eq!(h.count, attempted);
    assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max);

    // Dispatch latency is histogrammed per dispatch (at least the explicit
    // parallel ones; small-n dispatches may inline serially and skip it).
    let d = snap.hist("pool.dispatch_ns").expect("dispatch histogram");
    assert!(
        d.count >= DISPATCHES as u64,
        "dispatch_ns saw {} < {DISPATCHES} dispatches",
        d.count
    );
    assert!(d.max >= d.p50);
}
