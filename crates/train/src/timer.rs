//! Per-stage wall-clock aggregation (precompute / train / inference).
//!
//! A [`StageTimer`] can be *named* (`StageTimer::named`), in which case
//! every recorded sample is also forwarded to the `sgnn-obs` span registry
//! (and JSONL sink, when tracing) under that name — with the **same**
//! measured duration, so per-stage totals in a trace agree exactly with the
//! numbers the rendered tables report.

use std::time::Instant;

use sgnn_obs as obs;

/// Accumulates durations of repeated executions of one stage.
#[derive(Clone, Debug, Default)]
pub struct StageTimer {
    /// Span name samples are mirrored to (None = local aggregation only).
    name: Option<&'static str>,
    samples: Vec<f64>,
}

impl StageTimer {
    pub fn new() -> Self {
        Self::default()
    }

    /// A timer that mirrors every sample to the obs span `name`.
    pub(crate) fn named(name: &'static str) -> Self {
        Self {
            name: Some(name),
            samples: Vec::new(),
        }
    }

    /// Times one closure execution and records it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_secs_f64());
        out
    }

    /// Records an externally measured duration (seconds).
    pub(crate) fn record(&mut self, seconds: f64) {
        self.samples.push(seconds);
        if let Some(name) = self.name {
            obs::record_span(name, seconds);
        }
    }

    /// Total seconds across executions.
    pub fn total(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Mean seconds per execution (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.total() / self.samples.len() as f64
        }
    }

    /// Sample standard deviation of the execution times (0 for fewer than
    /// two samples — never NaN).
    pub fn stddev(&self) -> f64 {
        sgnn_dense::stats::stddev(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut t = StageTimer::new();
        let v = t.time(|| 21 * 2);
        assert_eq!(v, 42);
        t.record(1.0);
        t.record(3.0);
        assert_eq!(t.samples.len(), 3);
        assert!(t.total() >= 4.0);
        assert!(t.mean() > 0.0);
    }

    #[test]
    fn empty_timer_is_zero() {
        let t = StageTimer::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.total(), 0.0);
        assert_eq!(t.stddev(), 0.0);
    }

    #[test]
    fn stddev_is_zero_not_nan_for_single_sample() {
        let mut t = StageTimer::new();
        t.record(0.5);
        assert_eq!(t.stddev(), 0.0);
    }

    #[test]
    fn named_timer_mirrors_samples_to_obs() {
        obs::enable_aggregation();
        let mut t = StageTimer::named("test.stage_timer");
        t.record(0.25);
        t.record(0.75);
        let snap = obs::snapshot();
        let stat = snap.span("test.stage_timer").expect("mirrored span");
        assert_eq!(stat.count, 2);
        assert!((stat.total_s - t.total()).abs() < 1e-12);
        assert_eq!(stat.max_s, 0.75);
    }
}
