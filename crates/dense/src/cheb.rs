//! Chebyshev approximation of scalar functions on an interval.
//!
//! The signal-regression task (Table 7) needs ground-truth responses
//! `z = g*(L̃)·x` for analytic filters such as `g*(λ) = e^{-10(λ-1)²}`.
//! Computing them by eigendecomposition is exactly what the paper rules out
//! at scale, so instead `g*` is expanded in Chebyshev polynomials on the
//! spectral interval `[0, 2]`; applying the expansion then costs only `K`
//! sparse propagations via the three-term recurrence (the same machinery the
//! ChebNet filter uses). For smooth `g*` the error decays geometrically in
//! the order, so order 64 is already at single-precision round-off.

/// A truncated Chebyshev expansion `f(x) ≈ Σ_k c_k T_k(s(x))` on `[a, b]`,
/// where `s` maps `[a, b]` to `[-1, 1]`.
#[derive(Clone, Debug)]
pub struct ChebApprox {
    coeffs: Vec<f64>,
}

impl ChebApprox {
    /// Fits an order-`order` expansion of `f` on `[a, b]` using the classic
    /// Chebyshev–Gauss quadrature at the Chebyshev nodes.
    pub fn fit(f: impl Fn(f64) -> f64, a: f64, b: f64, order: usize) -> Self {
        assert!(b > a, "invalid interval");
        let n = order + 1;
        // Samples at Chebyshev nodes x_j = cos(π (j + 1/2)/n), mapped to [a,b].
        let samples: Vec<f64> = (0..n)
            .map(|j| {
                let x = (std::f64::consts::PI * (j as f64 + 0.5) / n as f64).cos();
                f(0.5 * (b - a) * x + 0.5 * (b + a))
            })
            .collect();
        let mut coeffs = Vec::with_capacity(n);
        for k in 0..n {
            let mut s = 0.0;
            for (j, &fx) in samples.iter().enumerate() {
                s += fx * (std::f64::consts::PI * k as f64 * (j as f64 + 0.5) / n as f64).cos();
            }
            let norm = if k == 0 {
                1.0 / n as f64
            } else {
                2.0 / n as f64
            };
            coeffs.push(norm * s);
        }
        Self { coeffs }
    }

    /// The expansion coefficients `c_0..c_K`.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates the expansion fitted on `[a, b]` at `x` with Clenshaw's
    /// algorithm.
    fn eval(c: &ChebApprox, (a, b): (f64, f64), x: f64) -> f64 {
        let t = (2.0 * x - a - b) / (b - a);
        let (mut bk1, mut bk2) = (0.0f64, 0.0f64);
        for &ck in c.coeffs()[1..].iter().rev() {
            let next = 2.0 * t * bk1 - bk2 + ck;
            bk2 = bk1;
            bk1 = next;
        }
        t * bk1 - bk2 + c.coeffs()[0]
    }

    #[test]
    fn fits_polynomial_exactly() {
        // T-degree-3 polynomial should be captured exactly by order >= 3.
        let f = |x: f64| 2.0 * x * x * x - x + 0.5;
        let c = ChebApprox::fit(f, -1.0, 1.0, 5);
        for i in 0..21 {
            let x = -1.0 + 0.1 * i as f64;
            assert!((eval(&c, (-1.0, 1.0), x) - f(x)).abs() < 1e-10, "x={x}");
        }
    }

    #[test]
    fn fits_gaussian_band_filter_on_spectral_interval() {
        // The Table-7 BAND signal: e^{-10 (λ-1)^2} on [0, 2].
        let f = |l: f64| (-10.0 * (l - 1.0) * (l - 1.0)).exp();
        let c = ChebApprox::fit(f, 0.0, 2.0, 64);
        for i in 0..=200 {
            let x = 2.0 * i as f64 / 200.0;
            assert!((eval(&c, (0.0, 2.0), x) - f(x)).abs() < 1e-8, "x={x}");
        }
    }

    #[test]
    fn low_order_is_worse_than_high_order() {
        let f = |l: f64| (-10.0 * l * l).exp();
        let lo = ChebApprox::fit(f, 0.0, 2.0, 4);
        let hi = ChebApprox::fit(f, 0.0, 2.0, 40);
        let err = |c: &ChebApprox| {
            (0..=100)
                .map(|i| {
                    let x = 2.0 * i as f64 / 100.0;
                    (eval(c, (0.0, 2.0), x) - f(x)).abs()
                })
                .fold(0.0f64, f64::max)
        };
        assert!(err(&hi) < err(&lo) * 1e-2);
    }
}
