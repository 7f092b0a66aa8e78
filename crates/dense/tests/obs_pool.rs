//! Spans and counters recorded from inside pool workers must aggregate
//! deterministically (dedicated test binary: obs state is process-global).

use std::sync::MutexGuard;

use sgnn_dense::{pin, runtime};
use sgnn_obs as obs;

/// Every test mutates the process-global registries and pins the pool
/// width; serialize them.
fn lock() -> MutexGuard<'static, ()> {
    let guard = pin::lock();
    obs::enable_aggregation();
    obs::reset();
    guard
}

#[test]
fn pool_worker_spans_aggregate_deterministically() {
    let _g = lock();
    let _t = pin::threads(5);

    runtime::run_indexed(64, |i| {
        let _sp = obs::span!("obs_pool.task", idx = i);
        std::hint::black_box(i.wrapping_mul(i));
    });

    let snap = obs::snapshot();
    let stat = snap.span("obs_pool.task").expect("span recorded");
    assert_eq!(stat.count, 64, "every task closes exactly one span");
    assert!(stat.total_s >= 0.0 && stat.max_s <= stat.total_s + 1e-12);
    assert_eq!(snap.counter("pool.dispatches"), Some(1));
    assert_eq!(snap.counter("pool.tasks"), Some(64));
    // Lane time covers at least the busy time (lanes also park/steal-idle).
    let busy = snap.counter("pool.busy_ns").unwrap_or(0);
    let lane = snap.counter("pool.lane_ns").unwrap_or(0);
    assert!(lane >= busy, "lane {lane} must bound busy {busy}");
    assert!(lane > 0, "a real dispatch accumulates lane time");
}

#[test]
fn a_dispatch_books_all_its_busy_time_before_it_returns() {
    // Back-to-back dispatches with a reset in between: a lane that booked
    // its busy time after its dispatch returned would add it to the next
    // round's window, where nothing of that round's lane time covers it.
    let _g = lock();
    let _t = pin::threads(5);
    for round in 0..2000 {
        obs::reset();
        runtime::run_indexed(64, |i| {
            std::hint::black_box(i.wrapping_mul(i));
        });
        let snap = obs::snapshot();
        let busy = snap.counter("pool.busy_ns").unwrap_or(0);
        let lane = snap.counter("pool.lane_ns").unwrap_or(0);
        assert!(lane >= busy, "round {round}: lane {lane}, busy {busy}");
    }
}

#[test]
fn nested_and_serial_fallbacks_are_counted_separately() {
    let _g = lock();
    let _t = pin::threads(4);
    // Nested run_indexed inside a pool task runs inline and is counted as
    // such; the span from inside the nested task still aggregates.
    runtime::run_indexed(16, |_| {
        runtime::run_indexed(4, |j| {
            let _sp = obs::span!("obs_pool.nested", idx = j);
        });
    });
    runtime::set_threads(1);
    runtime::run_indexed(4, |_| {});

    let snap = obs::snapshot();
    assert_eq!(snap.span("obs_pool.nested").unwrap().count, 64);
    assert_eq!(snap.counter("pool.nested_inline"), Some(16));
    assert_eq!(snap.counter("pool.serial_inline"), Some(1));
}
