//! Small numeric helpers shared across the workspace.

/// Index of the maximum entry (first on ties).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut bv = f32::NEG_INFINITY;
    for (i, &x) in xs.iter().enumerate() {
        if x > bv {
            bv = x;
            best = i;
        }
    }
    best
}

/// Mean of a slice, `f64` accumulation.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (Bessel-corrected; 0 for fewer than 2 samples).
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::for_softmax;

    #[test]
    fn argmax_picks_first_max() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut xs = [1.0, 2.0, 3.0];
        for_softmax().softmax_row(&mut xs);
        let s: f32 = xs.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let mut a = [0.5f32, -1.0, 2.0, 0.0];
        let mut b = a;
        for_softmax().softmax_row(&mut a);
        for_softmax().log_softmax_row(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.ln() - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_survives_large_inputs() {
        let mut xs = [1000.0f32, 1001.0, 999.0];
        for_softmax().softmax_row(&mut xs);
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn moments() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((stddev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(stddev(&[5.0]), 0.0);
    }

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(100.0) <= 1.0);
    }
}
