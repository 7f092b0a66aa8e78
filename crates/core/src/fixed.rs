//! The seven fixed filters (Table 1, top block).
//!
//! Fixed filters have constant basis *and* coefficients, so propagation
//! accumulates the combination on the fly (`O(nF)` working memory — the
//! paper's headline efficiency advantage for this type) and each channel
//! emits a single pre-combined matrix.

use sgnn_dense::DMat;

use crate::filter::SpectralFilter;
use crate::poly::{affine_power, affine_power_terms, folded};
use crate::spec::{FilterSpec, PropCtx, ThetaSpec};
use crate::taxonomy::FilterKind;
use crate::terms::TermStore;

fn single_fixed_spec() -> FilterSpec {
    FilterSpec::single(ThetaSpec::Fixed(vec![1.0]))
}

/// `g(λ) = 1` — the graph-free baseline (an MLP on raw attributes).
#[derive(Clone, Debug)]
pub(crate) struct Identity;

impl SpectralFilter for Identity {
    fn name(&self) -> &'static str {
        "Identity"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Fixed
    }
    fn hops(&self) -> usize {
        0
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        single_fixed_spec()
    }
    fn propagate_into(&self, _ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        out[0].push_input();
    }
    fn basis_value(&self, _q: usize, _k: usize, _lambda: f64) -> f64 {
        1.0
    }
}

/// `g(λ) = 2 − λ` — one hop of GCN propagation (`(I + Ã)x`).
#[derive(Clone, Debug)]
pub(crate) struct Linear;

impl SpectralFilter for Linear {
    fn name(&self) -> &'static str {
        "Linear"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Fixed
    }
    fn hops(&self) -> usize {
        1
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        single_fixed_spec()
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        out[0].push(ctx.hop(1.0, 1.0, x));
    }
    fn basis_value(&self, _q: usize, _k: usize, lambda: f64) -> f64 {
        2.0 - lambda
    }
}

/// `g(λ) = (1 − λ)^K` — the SGC/gfNN impulse filter `Ã^K`.
#[derive(Clone, Debug)]
pub(crate) struct Impulse {
    pub hops: usize,
}

impl SpectralFilter for Impulse {
    fn name(&self) -> &'static str {
        "Impulse"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Fixed
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        single_fixed_spec()
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        out[0].push(affine_power(ctx, x, 1.0, 0.0, self.hops));
    }
    fn basis_value(&self, _q: usize, _k: usize, lambda: f64) -> f64 {
        (1.0 - lambda).powi(self.hops as i32)
    }
}

/// `g(λ) = 1/(K+1) Σ_k (1 − λ)^k` — uniform power averaging (S²GC).
#[derive(Clone, Debug)]
pub(crate) struct Monomial {
    pub hops: usize,
}

impl Monomial {
    fn coeffs(&self) -> Vec<f32> {
        vec![1.0 / (self.hops + 1) as f32; self.hops + 1]
    }
}

impl SpectralFilter for Monomial {
    fn name(&self) -> &'static str {
        "Monomial"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Fixed
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        single_fixed_spec()
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        out[0].push(folded(x, self.coeffs(), |s| {
            affine_power_terms(ctx, s, 1.0, 0.0, self.hops)
        }));
    }
    fn basis_value(&self, _q: usize, _k: usize, lambda: f64) -> f64 {
        self.coeffs()
            .iter()
            .enumerate()
            .map(|(k, &c)| c as f64 * (1.0 - lambda).powi(k as i32))
            .sum()
    }
}

/// `g(λ) = Σ_k α(1−α)^k (1 − λ)^k` — truncated personalized PageRank (APPNP).
#[derive(Clone, Debug)]
pub struct Ppr {
    pub hops: usize,
    /// Decay/restart coefficient `α ∈ [0, 1]`; larger keeps more node
    /// identity, smaller reaches further (the heterophily knob of RQ3).
    pub alpha: f32,
}

impl Ppr {
    fn coeffs(&self) -> Vec<f32> {
        (0..=self.hops)
            .map(|k| self.alpha * (1.0 - self.alpha).powi(k as i32))
            .collect()
    }
}

impl SpectralFilter for Ppr {
    fn name(&self) -> &'static str {
        "PPR"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Fixed
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        single_fixed_spec()
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        out[0].push(folded(x, self.coeffs(), |s| {
            affine_power_terms(ctx, s, 1.0, 0.0, self.hops)
        }));
    }
    fn basis_value(&self, _q: usize, _k: usize, lambda: f64) -> f64 {
        self.coeffs()
            .iter()
            .enumerate()
            .map(|(k, &c)| c as f64 * (1.0 - lambda).powi(k as i32))
            .sum()
    }
}

/// `g(λ) = Σ_k e^{−α} α^k / k! · (1 − λ)^k` — the heat-kernel filter (GDC/DGC).
#[derive(Clone, Debug)]
pub(crate) struct HeatKernel {
    pub hops: usize,
    /// Temperature `α > 0`.
    pub alpha: f32,
}

impl HeatKernel {
    fn coeffs(&self) -> Vec<f32> {
        let mut c = Vec::with_capacity(self.hops + 1);
        let mut term = (-self.alpha as f64).exp();
        for k in 0..=self.hops {
            c.push(term as f32);
            term *= self.alpha as f64 / (k + 1) as f64;
        }
        c
    }
}

impl SpectralFilter for HeatKernel {
    fn name(&self) -> &'static str {
        "HK"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Fixed
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        single_fixed_spec()
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        out[0].push(folded(x, self.coeffs(), |s| {
            affine_power_terms(ctx, s, 1.0, 0.0, self.hops)
        }));
    }
    fn basis_value(&self, _q: usize, _k: usize, lambda: f64) -> f64 {
        self.coeffs()
            .iter()
            .enumerate()
            .map(|(k, &c)| c as f64 * (1.0 - lambda).powi(k as i32))
            .sum()
    }
}

/// `g(λ) ≈ e^{−α(λ−μ)²}` — the G²CN concentrated Gaussian, realized by the
/// iterate `h ← h − (α/K')·(L̃ − μI)² h` over `K' = ⌈K/2⌉` steps (each step
/// is two propagations, `K` hops total).
#[derive(Clone, Debug)]
pub struct Gaussian {
    pub hops: usize,
    /// Concentration `α > 0` (larger = narrower pass band).
    pub alpha: f32,
    /// Concentration center `μ ∈ [0, 2]` (0 = low-pass, 2 = high-pass).
    pub center: f32,
}

impl Gaussian {
    fn iters(&self) -> usize {
        (self.hops / 2).max(1)
    }
}

impl SpectralFilter for Gaussian {
    fn name(&self) -> &'static str {
        "Gaussian"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Fixed
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        single_fixed_spec()
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        let iters = self.iters();
        let step = self.alpha / iters as f32;
        let mut h = x.clone();
        for _ in 0..iters {
            // (L̃ − μI) = (1 − μ)I − Ã, applied twice.
            let l1 = ctx.hop(-1.0, 1.0 - self.center, &h);
            let l2 = ctx.hop(-1.0, 1.0 - self.center, &l1);
            h.axpy(-step, &l2);
        }
        out[0].push(h);
    }
    fn basis_value(&self, _q: usize, _k: usize, lambda: f64) -> f64 {
        let iters = self.iters();
        let step = self.alpha as f64 / iters as f64;
        let d = lambda - self.center as f64;
        (1.0 - step * d * d).powi(iters as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_filter_matches_spectral, small_graph_pm};
    use sgnn_dense::rng as drng;

    #[test]
    fn fixed_filters_match_exact_spectral_filtering() {
        let filters: Vec<Box<dyn SpectralFilter>> = vec![
            Box::new(Identity),
            Box::new(Linear),
            Box::new(Impulse { hops: 4 }),
            Box::new(Monomial { hops: 5 }),
            Box::new(Ppr {
                hops: 8,
                alpha: 0.2,
            }),
            Box::new(HeatKernel {
                hops: 8,
                alpha: 1.0,
            }),
            Box::new(Gaussian {
                hops: 6,
                alpha: 1.0,
                center: 0.0,
            }),
        ];
        for f in &filters {
            check_filter_matches_spectral(f.as_ref(), 2e-3);
        }
    }

    #[test]
    fn ppr_coefficients_decay_geometrically() {
        let p = Ppr {
            hops: 4,
            alpha: 0.3,
        };
        let c = p.coeffs();
        assert!((c[0] - 0.3).abs() < 1e-6);
        for w in c.windows(2) {
            assert!((w[1] / w[0] - 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn hk_coefficients_sum_below_one() {
        let h = HeatKernel {
            hops: 20,
            alpha: 2.0,
        };
        let s: f32 = h.coeffs().iter().sum();
        assert!(s <= 1.0 + 1e-5);
        assert!(
            s > 0.99,
            "K=20 truncation should nearly exhaust e^-a a^k/k!"
        );
    }

    #[test]
    fn low_pass_filters_attenuate_high_frequencies() {
        for f in [
            Box::new(Ppr {
                hops: 10,
                alpha: 0.2,
            }) as Box<dyn SpectralFilter>,
            Box::new(HeatKernel {
                hops: 10,
                alpha: 1.0,
            }),
            Box::new(Gaussian {
                hops: 10,
                alpha: 1.0,
                center: 0.0,
            }),
            Box::new(Monomial { hops: 10 }),
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
        let g = Gaussian {
            hops: 10,
            alpha: 1.0,
            center: 2.0,
        };
        assert!(g.initial_response(2.0, 1) > g.initial_response(0.2, 1).abs());
    }

    #[test]
    fn identity_ignores_graph() {
        let (pm, _) = small_graph_pm();
        let x = drng::randn_mat(pm.n(), 3, 1.0, &mut drng::seeded(0));
        let ctx = PropCtx::forward(&pm);
        let out = Identity.propagate(&ctx, &x);
        assert_eq!(out[0][0], x);
        assert_eq!(ctx.hops_used(), 0);
    }

    #[test]
    fn hop_counts_match_complexity_claims() {
        let (pm, _) = small_graph_pm();
        let x = drng::randn_mat(pm.n(), 2, 1.0, &mut drng::seeded(1));
        let ctx = PropCtx::forward(&pm);
        let _ = Ppr {
            hops: 7,
            alpha: 0.1,
        }
        .propagate(&ctx, &x);
        assert_eq!(ctx.hops_used(), 7);
        let ctx2 = PropCtx::forward(&pm);
        let _ = Gaussian {
            hops: 6,
            alpha: 1.0,
            center: 0.0,
        }
        .propagate(&ctx2, &x);
        assert_eq!(ctx2.hops_used(), 6);
    }
}
