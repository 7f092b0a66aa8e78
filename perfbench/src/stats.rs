//! Order statistics used by every report: nearest-rank percentiles, the
//! "ten samples beyond" rule for the highest percentile a sample supports,
//! and the quartile spread the A/A table is judged by.

/// Sorted copy (total order; the benchmark never produces NaN timings).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it. `q` in (0, 1].
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile rank must lie in (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of p50 / p90 / p99 / p99.9 that still has at least ten
/// samples beyond it — the percentile the choosing-metrics guide lets a
/// sample of size `n` report.
pub fn highest_supported(n: usize) -> f64 {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
        .unwrap_or(0.5)
}

/// Median as the mean of the two middle samples for even counts (what
/// Python's `statistics.median` reports, so A/A tables match the driver's).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    assert!(s.len() >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k as f64 * (s.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.9), 9.0);
        assert_eq!(nearest_rank(&s, 0.91), 10.0);
        assert_eq!(nearest_rank(&s, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.9), 7.0);
        // Eleven samples: p90 is the tenth, i.e. the second largest.
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.9), 10.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(11, 0.9), 1);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(highest_supported(11), 0.5);
        assert_eq!(highest_supported(99), 0.5);
        assert_eq!(highest_supported(100), 0.9);
        assert_eq!(highest_supported(1000), 0.99);
        assert_eq!(highest_supported(9000), 0.99);
        assert_eq!(highest_supported(10_000), 0.999);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&s), 5.5);
        assert!((spread(&s) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
