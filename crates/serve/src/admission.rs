//! Deadline-aware admission control: shed at enqueue, not at dequeue.
//!
//! PR 8's server already *detects* hopeless requests — but only at
//! dequeue, after they sat in the queue displacing requests that could
//! still have met their deadlines. Under overload that is the worst
//! possible policy: every queued-then-expired request wastes queue
//! capacity and batcher wakeups, which is exactly the 16→64-client p99
//! collapse in `BENCH_serve.json`.
//!
//! The admission gate predicts, at enqueue time, whether a request can
//! make its deadline:
//!
//! ```text
//! est_wait = (⌈(queued_rows + request_rows) / batch_rows⌉ + 1) × p90_batch_time
//! admit  ⇔  est_wait ≤ deadline_remaining
//! ```
//!
//! (the `+ 1` is the batch already in flight — dequeued rows are out of
//! `queued_rows` but a new arrival still waits behind them).
//!
//! The wait is estimated in **batches, not rows**: the batcher drains up
//! to `batch_rows` rows per service round, and a service round's cost is
//! dominated by fixed per-batch work (reply fan-out, lock handoff, tape
//! setup) with a comparatively small per-row increment. A naive
//! `queued_rows × per_row_time` model learns its per-row rate from
//! overhead-dominated small batches and then extrapolates linearly —
//! overestimating the drain time of a deep queue by an order of
//! magnitude, shedding traffic a healthy server could serve, and (since
//! shedding keeps queues short and batches small) locking itself into
//! the overestimate.
//!
//! `p90_batch_time` comes from an [`sgnn_obs::Buckets`] distribution of
//! observed whole-batch service times. It is this server's own, not a
//! registered histogram: several servers can share a process (the test
//! binaries run many), and one server's slow batches must not train
//! another's estimator. Shed requests get an `Overloaded` reply carrying a
//! `retry_after_ms` hint: the time the *current* queue needs to drain at
//! the p90 rate, so a well-behaved client retries exactly when capacity
//! is likely back.
//!
//! Only deadline-bearing requests are ever shed — a request without a
//! deadline has, by definition, no deadline to miss, and queue-full
//! backpressure already bounds how many can pile up. The estimator also
//! refuses to shed until it has seen [`WARMUP_SAMPLES`] rows, so a cold
//! server never rejects its first wave of traffic on a garbage estimate.
//!
//! The same queue-depth signal drives the **adaptive batch size**
//! ([`Admission::batch_rows`]): when rows are piling up, the batcher is
//! allowed to take bigger batches (amortizing per-batch overhead exactly
//! when amortization matters), falling back to the configured base size
//! the moment the queue drains.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sgnn_obs::Buckets;

/// Batches the estimator must observe before it is trusted to shed.
pub const WARMUP_SAMPLES: u64 = 32;

/// Recompute the cached p90 every this many recorded batches.
const REFRESH_EVERY: u64 = 16;

/// Adaptive batching may grow the batch to this multiple of the base.
pub const MAX_BATCH_GROWTH: usize = 4;

/// Shared overload-control state: queue depth in rows plus a batch
/// service-time estimator. One instance per server, shared by every reader
/// thread (admission) and the batcher (measurement).
pub struct Admission {
    /// Rows currently sitting in the batch queue.
    queued_rows: AtomicU64,
    /// Whole-batch service nanoseconds; recorded by the batcher only.
    batch_ns: Buckets,
    /// Cached p90 batch-service nanoseconds (refreshed every
    /// [`REFRESH_EVERY`] batches).
    p90_batch_ns: AtomicU64,
}

impl Default for Admission {
    fn default() -> Self {
        Self::new()
    }
}

impl Admission {
    pub fn new() -> Self {
        Self {
            queued_rows: AtomicU64::new(0),
            batch_ns: Buckets::default(),
            p90_batch_ns: AtomicU64::new(0),
        }
    }

    /// Rows currently queued (admitted but not yet dequeued).
    pub fn queued_rows(&self) -> u64 {
        self.queued_rows.load(Ordering::Relaxed)
    }

    /// Batches observed so far (estimator warm-up progress).
    pub fn samples(&self) -> u64 {
        self.batch_ns.count()
    }

    /// Current p90 batch-service-time estimate (0 until first refresh).
    pub fn p90_batch_ns(&self) -> u64 {
        self.p90_batch_ns.load(Ordering::Relaxed)
    }

    /// Called by the reader after a request is accepted into the queue.
    pub fn on_enqueue(&self, rows: usize) {
        self.queued_rows.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Called by the batcher for every request it pulls off the queue
    /// (including ones it then expires — they occupied queue space).
    pub fn on_dequeue(&self, rows: usize) {
        // Saturating: a restart-recovered batcher may drain rows whose
        // enqueue increment died with a poisoned predecessor.
        let rows = rows as u64;
        let mut cur = self.queued_rows.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(rows);
            match self.queued_rows.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Records one executed batch: `rows` rows served in `elapsed` of
    /// whole-batch service time (transform, cache fills, reply fan-out).
    pub fn record_batch(&self, rows: usize, elapsed: Duration) {
        if rows == 0 {
            return;
        }
        self.batch_ns.record(elapsed.as_nanos() as u64);
        let total = self.batch_ns.count();
        if total.is_multiple_of(REFRESH_EVERY) || total == WARMUP_SAMPLES {
            self.p90_batch_ns
                .store(self.batch_ns.quantile(0.90), Ordering::Relaxed);
        }
    }

    /// Estimated nanoseconds until `extra_rows` more rows would clear the
    /// queue, given the batcher drains up to `batch_rows` rows per round.
    /// The `+ 1` charges for the batch currently in flight: rows the
    /// batcher has already dequeued are invisible to `queued_rows`, but a
    /// newly enqueued request still waits behind them.
    fn est_drain_ns(&self, extra_rows: u64, batch_rows: usize) -> u64 {
        let p90 = self.p90_batch_ns.load(Ordering::Relaxed);
        let rows = self.queued_rows.load(Ordering::Relaxed) + extra_rows;
        let batches = rows.div_ceil(batch_rows.max(1) as u64) + 1;
        batches.saturating_mul(p90)
    }

    /// Admission decision for a deadline-bearing request of `rows` rows
    /// with `remaining` budget left, against a batcher draining up to
    /// `batch_rows` rows per service round. `Ok` admits;
    /// `Err(retry_after_ms)` sheds with a drain-time hint for the
    /// client's backoff.
    ///
    /// Requests without a deadline are always admitted — callers skip
    /// this entirely for them.
    pub fn admit(&self, rows: usize, remaining: Duration, batch_rows: usize) -> Result<(), u32> {
        if self.samples() < WARMUP_SAMPLES || self.p90_batch_ns.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        if self.est_drain_ns(rows as u64, batch_rows) <= remaining.as_nanos() as u64 {
            return Ok(());
        }
        // Hint: how long the *current* queue needs to drain. At least
        // 1ms (a zero hint would tell clients to hammer), at most 1s (an
        // estimate that far out is noise, and clients cap anyway).
        let drain_ms = self.est_drain_ns(0, batch_rows) / 1_000_000;
        Err(drain_ms.clamp(1, 1_000) as u32)
    }

    /// Adaptive batch size: the deeper the queue, the bigger the batch,
    /// between `base` and `MAX_BATCH_GROWTH × base`. Amortizes per-batch
    /// overhead (tape setup, scratch checks, reply fan-out) exactly when
    /// the queue says it matters.
    pub fn batch_rows(&self, base: usize) -> usize {
        let base = base.max(1);
        let queued = self.queued_rows.load(Ordering::Relaxed) as usize;
        queued.clamp(base, MAX_BATCH_GROWTH * base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_sheds_before_warmup() {
        let a = Admission::new();
        a.on_enqueue(1_000_000);
        assert_eq!(a.admit(64, Duration::from_nanos(1), 8), Ok(()));
        for _ in 0..WARMUP_SAMPLES - 1 {
            a.record_batch(1, Duration::from_millis(1));
        }
        assert_eq!(a.admit(64, Duration::from_nanos(1), 8), Ok(()));
        a.record_batch(1, Duration::from_millis(1));
        assert!(a.admit(64, Duration::from_nanos(1), 8).is_err());
    }

    #[test]
    fn sheds_only_when_deadline_cannot_be_met() {
        let a = Admission::new();
        // 1ms per batch, warmed up.
        for _ in 0..WARMUP_SAMPLES {
            a.record_batch(8, Duration::from_millis(1));
        }
        let p90 = a.p90_batch_ns();
        assert!((875_000..=1_000_000).contains(&p90), "p90 {p90}");
        a.on_enqueue(100);
        // 100 queued rows + 1 at 8 rows per 1ms batch ≈ 13ms of drain: a
        // 5ms deadline is hopeless, a 200ms one is fine.
        let hint = a.admit(1, Duration::from_millis(5), 8).unwrap_err();
        assert!((1..=1_000).contains(&hint), "hint {hint}ms");
        assert_eq!(a.admit(1, Duration::from_millis(200), 8), Ok(()));
        // A batcher allowed to take everything in one round drains the
        // same queue in ~1 batch, so the same deadline is meetable.
        assert_eq!(a.admit(1, Duration::from_millis(5), 256), Ok(()));
        // Draining the queue re-opens admission.
        a.on_dequeue(100);
        assert_eq!(a.admit(1, Duration::from_millis(5), 8), Ok(()));
    }

    #[test]
    fn dequeue_saturates_instead_of_underflowing() {
        let a = Admission::new();
        a.on_enqueue(3);
        a.on_dequeue(10);
        assert_eq!(a.queued_rows(), 0);
    }

    #[test]
    fn batch_rows_grows_with_queue_depth() {
        let a = Admission::new();
        assert_eq!(a.batch_rows(64), 64);
        a.on_enqueue(100);
        assert_eq!(a.batch_rows(64), 100);
        a.on_enqueue(10_000);
        assert_eq!(a.batch_rows(64), MAX_BATCH_GROWTH * 64);
        // A degenerate base of 0 still yields a servable batch size.
        assert_eq!(Admission::new().batch_rows(0), 1);
    }
}
