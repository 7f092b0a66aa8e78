//! The seven fixed filters (Table 1, top block).
//!
//! Fixed filters have constant basis *and* coefficients, so propagation
//! accumulates the combination on the fly (`O(nF)` working memory — the
//! paper's headline efficiency advantage for this type) and each channel
//! emits a single pre-combined matrix.

use crate::poly::{ppr_weights, uniform, Basis, Polynomial};
use crate::spec::ThetaSpec;

fn fixed(name: &'static str, hops: usize, basis: Basis) -> Polynomial {
    Polynomial::single(name, hops, basis, ThetaSpec::Fixed(vec![1.0]))
}

/// `g(λ) = 1` — the graph-free baseline (an MLP on raw attributes).
pub(crate) fn identity(name: &'static str) -> Polynomial {
    fixed(name, 0, Basis::Input)
}

/// `g(λ) = 2 − λ` — one hop of GCN propagation (`(I + Ã)x`).
pub(crate) fn linear(name: &'static str) -> Polynomial {
    let basis = Basis::Power {
        a: 1.0,
        b: 1.0,
        hops: 1,
    };
    fixed(name, 1, basis)
}

/// `g(λ) = (1 − λ)^K` — the SGC/gfNN impulse filter `Ã^K`.
pub(crate) fn impulse(name: &'static str, hops: usize) -> Polynomial {
    let basis = Basis::Power {
        a: 1.0,
        b: 0.0,
        hops,
    };
    fixed(name, hops, basis)
}

/// `g(λ) = 1/(K+1) Σ_k (1 − λ)^k` — uniform power averaging (S²GC).
pub(crate) fn monomial(name: &'static str, hops: usize) -> Polynomial {
    let basis = Basis::powers(1.0, 0.0, hops).folded(uniform(hops));
    fixed(name, hops, basis)
}

/// `g(λ) = Σ_k α(1−α)^k (1 − λ)^k` — truncated personalized PageRank
/// (APPNP). Larger `α ∈ [0, 1]` keeps more node identity, smaller reaches
/// further (the heterophily knob of RQ3).
pub(crate) fn ppr(name: &'static str, hops: usize, alpha: f32) -> Polynomial {
    let basis = Basis::powers(1.0, 0.0, hops).folded(ppr_weights(hops, alpha));
    fixed(name, hops, basis)
}

/// `g(λ) = Σ_k e^{−α} α^k / k! · (1 − λ)^k` — the heat-kernel filter
/// (GDC/DGC) at temperature `α > 0`.
pub(crate) fn heat_kernel(name: &'static str, hops: usize, alpha: f32) -> Polynomial {
    let mut coeffs = Vec::with_capacity(hops + 1);
    let mut term = (-alpha as f64).exp();
    for k in 0..=hops {
        coeffs.push(term as f32);
        term *= alpha as f64 / (k + 1) as f64;
    }
    fixed(name, hops, Basis::powers(1.0, 0.0, hops).folded(coeffs))
}

/// `g(λ) ≈ e^{−α(λ−μ)²}` — the G²CN concentrated Gaussian: concentration
/// `α > 0` (larger = narrower pass band) around `μ ∈ [0, 2]` (0 = low-pass,
/// 2 = high-pass).
pub(crate) fn gaussian(name: &'static str, hops: usize, alpha: f32, center: f32) -> Polynomial {
    let basis = Basis::Gaussian {
        alpha,
        center,
        hops,
    };
    fixed(name, hops, basis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::filter::SpectralFilter;
    use crate::spec::PropCtx;
    use crate::testutil::{check_filter_matches_spectral, small_graph_pm, Params};
    use sgnn_dense::rng as drng;

    /// The fixed filters at hyperparameters other than the registry's,
    /// against exact spectral filtering.
    #[test]
    fn fixed_filters_match_exact_spectral_filtering() {
        let filters: Vec<Arc<dyn SpectralFilter>> = vec![
            Arc::new(identity("Identity")),
            Arc::new(linear("Linear")),
            Arc::new(impulse("Impulse", 4)),
            Arc::new(monomial("Monomial", 5)),
            Arc::new(ppr("PPR", 8, 0.2)),
            Arc::new(heat_kernel("HK", 8, 1.0)),
            Arc::new(gaussian("Gaussian", 6, 1.0, 0.0)),
        ];
        for f in &filters {
            check_filter_matches_spectral(f, Params::Initial, 1e-4);
        }
    }

    #[test]
    fn ppr_coefficients_decay_geometrically() {
        let c = ppr_weights(4, 0.3);
        assert!((c[0] - 0.3).abs() < 1e-6);
        for w in c.windows(2) {
            assert!((w[1] / w[0] - 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn hk_coefficients_sum_below_one() {
        // At λ = 0 every power is 1, so the response is the coefficient sum.
        let s = heat_kernel("HK", 20, 2.0).initial_response(0.0, 1);
        assert!(s <= 1.0 + 1e-5);
        assert!(
            s > 0.99,
            "K=20 truncation should nearly exhaust e^-a a^k/k!"
        );
    }

    #[test]
    fn low_pass_filters_attenuate_high_frequencies() {
        for f in [
            ppr("PPR", 10, 0.2),
            heat_kernel("HK", 10, 1.0),
            gaussian("Gaussian", 10, 1.0, 0.0),
            monomial("Monomial", 10),
        ] {
            let low = f.initial_response(0.0, 1);
            let high = f.initial_response(1.8, 1);
            assert!(
                low > high.abs(),
                "{} must be low-pass: g(0)={low} g(1.8)={high}",
                f.name()
            );
        }
    }

    #[test]
    fn high_centered_gaussian_is_high_pass() {
        let g = gaussian("Gaussian", 10, 1.0, 2.0);
        assert!(g.initial_response(2.0, 1) > g.initial_response(0.2, 1).abs());
    }

    #[test]
    fn identity_ignores_graph() {
        let (pm, _) = small_graph_pm();
        let x = drng::randn_mat(pm.n(), 3, 1.0, &mut drng::seeded(0));
        let ctx = PropCtx::forward(&pm);
        let out = identity("Identity").propagate(&ctx, &x);
        assert_eq!(out[0][0], x);
        assert_eq!(ctx.hops_used(), 0);
    }

    #[test]
    fn hop_counts_match_complexity_claims() {
        let (pm, _) = small_graph_pm();
        let x = drng::randn_mat(pm.n(), 2, 1.0, &mut drng::seeded(1));
        let ctx = PropCtx::forward(&pm);
        let _ = ppr("PPR", 7, 0.1).propagate(&ctx, &x);
        assert_eq!(ctx.hops_used(), 7);
        let ctx2 = PropCtx::forward(&pm);
        let _ = gaussian("Gaussian", 6, 1.0, 0.0).propagate(&ctx2, &x);
        assert_eq!(ctx2.hops_used(), 6);
    }
}
