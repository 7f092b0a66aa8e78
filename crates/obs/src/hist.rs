//! Log-bucketed latency histograms (HDR-style).
//!
//! Values (normally nanoseconds) land in power-of-two "octaves", each split
//! into `2^SUB_BITS = 8` linear sub-buckets, so any recorded value is
//! represented by a bucket whose lower bound is within **12.5%** of it —
//! constant relative error across the full `u64` range with only
//! 496 cells and no per-value allocation.
//!
//! The scheme: values below 8 get exact buckets `0..8`; for `v >= 8` with
//! most-significant bit `m`, the bucket is `((m - 2) << 3) + sub` where
//! `sub` is the next 3 bits below the MSB. For small values this is the
//! identity (bucket 13 holds exactly 13), which keeps unit tests legible.
//!
//! [`Buckets`] holds the cells and records with relaxed atomics only: no
//! lock, safe from every pool lane concurrently, live whether or not anyone
//! traces. A [`Histogram`] is a named `Buckets` declared as a static at the
//! instrumentation site like a [`crate::Counter`]: it self-registers on
//! first record and allocates its cells lazily, so an unused one costs
//! nothing. A private distribution (one per server) is a bare `Buckets`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Linear sub-buckets per power-of-two octave (as a bit count).
const SUB_BITS: u32 = 3;

/// Total bucket count covering the full `u64` range.
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Maps a value to its bucket index (0-based, monotonic in `v`).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        ((((msb - SUB_BITS) as usize) + 1) << SUB_BITS) + sub
    }
}

/// Lower bound of bucket `i` (the value reported for quantiles).
#[inline]
fn bucket_lo(i: usize) -> u64 {
    if i < (1 << SUB_BITS) {
        i as u64
    } else {
        let block = (i >> SUB_BITS) as u32;
        let msb = block + SUB_BITS - 1;
        let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
        (1u64 << msb) | (sub << (msb - SUB_BITS))
    }
}

/// Quantile `q` (in `[0, 1]`) over raw bucket counts: the lower bound of
/// the first bucket at which the cumulative count reaches `q * total`.
/// Returns 0 for an empty distribution.
fn quantile_from_counts(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bucket_lo(i);
        }
    }
    bucket_lo(counts.len().saturating_sub(1))
}

/// One log-bucketed distribution (≈ 4 KB of cells), lock-free to record.
#[derive(Debug)]
pub struct Buckets {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Buckets {
    fn default() -> Self {
        Self {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Buckets {
    /// Records one value. Concurrent recorders only touch atomics.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Quantile `q` (in `[0, 1]`) as a bucket lower bound (≤ 12.5% below
    /// the true value); 0 while empty.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.counts(), q)
    }

    fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn stat(&self) -> HistStat {
        let counts = self.counts();
        HistStat {
            count: self.count(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: quantile_from_counts(&counts, 0.50),
            p90: quantile_from_counts(&counts, 0.90),
            p99: quantile_from_counts(&counts, 0.99),
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| (bucket_lo(i), *c))
                .collect(),
        }
    }

    fn reset(&self) {
        for b in self.counts.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A registered, lock-free latency histogram, declared as a `static`:
///
/// ```
/// static DISPATCH_NS: sgnn_obs::Histogram = sgnn_obs::Histogram::new("pool.dispatch_ns");
/// DISPATCH_NS.record(1250);
/// ```
///
/// Recorded values are conventionally **nanoseconds**; the `_ns` suffix on
/// the name signals the unit to `trace-summary`.
pub struct Histogram {
    name: &'static str,
    cells: OnceLock<Buckets>,
    registered: AtomicBool,
}

impl Histogram {
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cells: OnceLock::new(),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one value, whether or not a trace is being collected.
    #[inline]
    pub fn record(&'static self, v: u64) {
        self.cells.get_or_init(Buckets::default).record(v);
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            registry().lock().unwrap().push(self);
        }
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&'static self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Registered name.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Point-in-time statistics (zeroed stat when never recorded).
    pub(crate) fn stat(&self) -> HistStat {
        self.cells
            .get()
            .map_or_else(HistStat::default, Buckets::stat)
    }

    pub(crate) fn reset(&self) {
        if let Some(cells) = self.cells.get() {
            cells.reset();
        }
    }
}

/// Summary statistics of one histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistStat {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// Quantiles as bucket lower bounds (≤ 12.5% below the true value).
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistStat {}

fn registry() -> &'static Mutex<Vec<&'static Histogram>> {
    static HISTS: OnceLock<Mutex<Vec<&'static Histogram>>> = OnceLock::new();
    HISTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Snapshot of every histogram that has ever recorded, sorted by name.
pub(crate) fn snapshot_all() -> Vec<(String, HistStat)> {
    let mut out: Vec<(String, HistStat)> = registry()
        .lock()
        .unwrap()
        .iter()
        .map(|h| (h.name().to_string(), h.stat()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

pub(crate) fn reset_all() {
    for h in registry().lock().unwrap().iter() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_identity_below_16() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize, "v={v}");
            assert_eq!(bucket_lo(v as usize), v);
        }
    }

    #[test]
    fn bucket_round_trip_bounds_error() {
        for shift in 0..63u32 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift).saturating_add(off * (1 << shift) / 7);
                let i = bucket_index(v);
                let lo = bucket_lo(i);
                assert!(lo <= v, "lo({i})={lo} > v={v}");
                // Next bucket's lower bound is at most 12.5% above lo.
                if i + 1 < NUM_BUCKETS {
                    let hi = bucket_lo(i + 1);
                    assert!(v < hi, "v={v} >= hi({})={hi}", i + 1);
                    assert!(
                        (v - lo) as f64 <= 0.125 * v.max(1) as f64 + 1.0,
                        "error too large: v={v} lo={lo}"
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_index_is_monotonic_across_octave_edges() {
        let mut prev = bucket_index(0);
        for v in 1..4096u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "v={v}");
            prev = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        // `lib.rs`'s tests `reset()` every registered histogram; recording
        // tests share their lock.
        let _g = crate::tests::lock();
        static H: Histogram = Histogram::new("test.hist.known");
        H.reset();
        // 100 values: 1..=100. True p50 = 50, p99 = 99.
        for v in 1..=100u64 {
            H.record(v);
        }
        let s = H.stat();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        assert!(s.p50 >= 44 && s.p50 <= 50, "p50={}", s.p50);
        assert!(s.p99 >= 87 && s.p99 <= 99, "p99={}", s.p99);
        assert!((s.sum as f64 / s.count as f64 - 50.5).abs() < 1e-9);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let _g = crate::tests::lock();
        static H: Histogram = Histogram::new("test.hist.mt");
        H.reset();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        H.record(t * 17 + i % 1000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(H.stat().count, 40_000);
        assert_eq!(H.stat().buckets.iter().map(|(_, c)| c).sum::<u64>(), 40_000);
    }

    #[test]
    fn empty_histogram_stats_are_zero() {
        static H: Histogram = Histogram::new("test.hist.empty");
        let s = H.stat();
        assert_eq!(s, HistStat::default());
    }
}
