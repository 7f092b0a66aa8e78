//! Filter-bank filters (Table 1, bottom block): mixtures of `Q` fixed or
//! variable channels with channel weights `γ_q` (Eq. (3) of the paper).
//!
//! Following the paper's unified decoupled formulation, each bank is
//! expressed as channels over the shared propagation primitive: low-pass
//! channels accumulate powers of `Ã = I − L̃`, high-pass channels powers of
//! `L̃`, identity channels pass the signal through. Models whose original
//! form is inseparably iterative (AdaGNN, FBGNN, ACMGNN) are full-batch only
//! (`mb_compatible = false`), matching their absence from Table 10.

use std::sync::Arc;

use sgnn_autograd::{NodeId, ParamStore, Tape};
use sgnn_dense::DMat;
use sgnn_sparse::PropMatrix;

use crate::filter::{ResponseParams, SpectralFilter};
use crate::op::ParamHandles;
use crate::poly::{
    affine_power, affine_power_terms, bernstein_terms, binomial, cheb_t, chebyshev_terms, folded,
};
use crate::spec::{ChannelSpec, ExtraParamSpec, FilterSpec, Fusion, PropCtx, ThetaSpec};
use crate::taxonomy::FilterKind;
use crate::terms::TermStore;

fn uniform(hops: usize) -> Vec<f32> {
    vec![1.0 / (hops + 1) as f32; hops + 1]
}

fn impulse_init(hops: usize) -> Vec<f32> {
    let mut v = vec![0.0; hops + 1];
    v[0] = 1.0;
    v
}

/// AdaGNN: per-feature adaptive linear filters applied layer-wise,
/// `H_{j+1} = H_j − (L̃ H_j)·diag(γ_j)`; the response of feature `f` is
/// `Π_j (1 − γ_{j,f} λ)`.
#[derive(Clone, Debug)]
pub(crate) struct AdaGnn {
    pub hops: usize,
    /// Gate initialization (0.5 keeps the per-layer response positive over
    /// the whole spectrum `[0, 2]`).
    pub init_gate: f32,
}

impl SpectralFilter for AdaGnn {
    fn name(&self) -> &'static str {
        "AdaGNN"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Bank
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, in_features: usize) -> FilterSpec {
        let mut spec = FilterSpec::single(ThetaSpec::Fixed(vec![1.0]));
        spec.extra.push(ExtraParamSpec {
            name: "gates",
            init: DMat::filled(self.hops, in_features, self.init_gate),
        });
        spec
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        // Frozen-gate application: uniform gate g ⇒ h ← h − g·L̃h per layer.
        let mut h = x.clone();
        for _ in 0..self.hops {
            let lh = ctx.prop(-1.0, 1.0, &h);
            h.axpy(-self.init_gate, &lh);
        }
        out[0].push(h);
    }
    fn basis_value(&self, _q: usize, _k: usize, lambda: f64) -> f64 {
        (1.0 - self.init_gate as f64 * lambda).powi(self.hops as i32)
    }
    fn mb_compatible(&self) -> bool {
        false
    }
    fn apply_symbolic(
        &self,
        tape: &mut Tape,
        pm: &Arc<PropMatrix>,
        x: NodeId,
        handles: &ParamHandles,
        store: &ParamStore,
    ) -> Option<NodeId> {
        let gates = tape.param(store, handles.extra[0]);
        let mut h = x;
        for j in 0..self.hops {
            let lh = tape.prop(pm, -1.0, 1.0, h);
            let gj = tape.gather_rows(gates, Arc::new(vec![j as u32]));
            let gated = tape.col_scale(lh, gj);
            h = tape.sub(h, gated);
        }
        Some(h)
    }
    fn response(&self, lambda: f64, params: &ResponseParams) -> f64 {
        match params.extra.first() {
            Some(g) if !g.is_empty() => {
                // Mean gate per layer (features averaged).
                let f = g.len() / self.hops.max(1);
                (0..self.hops)
                    .map(|j| {
                        let row = &g[j * f..(j + 1) * f];
                        let mean = row.iter().sum::<f32>() as f64 / f.max(1) as f64;
                        1.0 - mean * lambda
                    })
                    .product()
            }
            _ => self.basis_value(0, 0, lambda),
        }
    }
}

/// Helper: fixed low-pass channel `1/(K+1) Σ (I − L̃)^k x`.
fn lp_fixed(ctx: &PropCtx<'_>, s: &mut TermStore<'_>, hops: usize) {
    s.push_with(|x| {
        folded(x, uniform(hops), |t| {
            affine_power_terms(ctx, t, 1.0, 0.0, hops)
        })
    });
}

/// Helper: fixed high-pass channel `1/(K+1) Σ L̃^k x`.
fn hp_fixed(ctx: &PropCtx<'_>, s: &mut TermStore<'_>, hops: usize) {
    s.push_with(|x| {
        folded(x, uniform(hops), |t| {
            affine_power_terms(ctx, t, -1.0, 1.0, hops)
        })
    });
}

fn lp_response(hops: usize, k: usize, lambda: f64, fixed: bool) -> f64 {
    if fixed {
        uniform(hops)
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * (1.0 - lambda).powi(i as i32))
            .sum()
    } else {
        (1.0 - lambda).powi(k as i32)
    }
}

fn hp_response(hops: usize, k: usize, lambda: f64, fixed: bool) -> f64 {
    if fixed {
        uniform(hops)
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * lambda.powi(i as i32))
            .sum()
    } else {
        lambda.powi(k as i32)
    }
}

/// FBGNN-I: fixed LP + HP channels, learnable channel weights `γ`.
#[derive(Clone, Debug)]
pub(crate) struct FbGnnI {
    pub hops: usize,
}

impl SpectralFilter for FbGnnI {
    fn name(&self) -> &'static str {
        "FBGNNI"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Bank
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec {
            channels: vec![
                ChannelSpec {
                    name: "lp",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
                ChannelSpec {
                    name: "hp",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
            ],
            fusion: Fusion::LearnableSum(vec![0.5, 0.5]),
            extra: Vec::new(),
        }
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        lp_fixed(ctx, &mut out[0], self.hops);
        hp_fixed(ctx, &mut out[1], self.hops);
    }
    fn basis_value(&self, q: usize, k: usize, lambda: f64) -> f64 {
        if q == 0 {
            lp_response(self.hops, k, lambda, true)
        } else {
            hp_response(self.hops, k, lambda, true)
        }
    }
    fn mb_compatible(&self) -> bool {
        false
    }
}

/// FBGNN-II: LP + HP channels with *learnable per-term* coefficients plus
/// learnable channel weights.
#[derive(Clone, Debug)]
pub(crate) struct FbGnnII {
    pub hops: usize,
}

impl SpectralFilter for FbGnnII {
    fn name(&self) -> &'static str {
        "FBGNNII"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Bank
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec {
            channels: vec![
                ChannelSpec {
                    name: "lp",
                    theta: ThetaSpec::Learnable {
                        init: uniform(self.hops),
                    },
                },
                ChannelSpec {
                    name: "hp",
                    theta: ThetaSpec::Learnable {
                        init: uniform(self.hops),
                    },
                },
            ],
            fusion: Fusion::LearnableSum(vec![0.5, 0.5]),
            extra: Vec::new(),
        }
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        affine_power_terms(ctx, &mut out[0], 1.0, 0.0, self.hops);
        affine_power_terms(ctx, &mut out[1], -1.0, 1.0, self.hops);
    }
    fn basis_value(&self, q: usize, k: usize, lambda: f64) -> f64 {
        if q == 0 {
            lp_response(self.hops, k, lambda, false)
        } else {
            hp_response(self.hops, k, lambda, false)
        }
    }
    fn mb_compatible(&self) -> bool {
        false
    }
}

/// ACMGNN-I: fixed LP + HP + identity channels, learnable `γ` (adaptive
/// channel mixing, summation fusion).
#[derive(Clone, Debug)]
pub(crate) struct AcmGnnI {
    pub hops: usize,
}

impl SpectralFilter for AcmGnnI {
    fn name(&self) -> &'static str {
        "ACMGNNI"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Bank
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        let third = 1.0 / 3.0;
        FilterSpec {
            channels: vec![
                ChannelSpec {
                    name: "lp",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
                ChannelSpec {
                    name: "hp",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
                ChannelSpec {
                    name: "id",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
            ],
            fusion: Fusion::LearnableSum(vec![third, third, third]),
            extra: Vec::new(),
        }
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        lp_fixed(ctx, &mut out[0], self.hops);
        hp_fixed(ctx, &mut out[1], self.hops);
        out[2].push_input();
    }
    fn basis_value(&self, q: usize, k: usize, lambda: f64) -> f64 {
        match q {
            0 => lp_response(self.hops, k, lambda, true),
            1 => hp_response(self.hops, k, lambda, true),
            _ => 1.0,
        }
    }
    fn mb_compatible(&self) -> bool {
        false
    }
}

/// ACMGNN-II: variable LP + HP + ID channels fused by concatenation (the
/// wider-representation variant).
#[derive(Clone, Debug)]
pub(crate) struct AcmGnnII {
    pub hops: usize,
}

impl SpectralFilter for AcmGnnII {
    fn name(&self) -> &'static str {
        "ACMGNNII"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Bank
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec {
            channels: vec![
                ChannelSpec {
                    name: "lp",
                    theta: ThetaSpec::Learnable {
                        init: uniform(self.hops),
                    },
                },
                ChannelSpec {
                    name: "hp",
                    theta: ThetaSpec::Learnable {
                        init: uniform(self.hops),
                    },
                },
                ChannelSpec {
                    name: "id",
                    theta: ThetaSpec::Learnable { init: vec![1.0] },
                },
            ],
            fusion: Fusion::Concat,
            extra: Vec::new(),
        }
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        affine_power_terms(ctx, &mut out[0], 1.0, 0.0, self.hops);
        affine_power_terms(ctx, &mut out[1], -1.0, 1.0, self.hops);
        out[2].push_input();
    }
    fn basis_value(&self, q: usize, k: usize, lambda: f64) -> f64 {
        match q {
            0 => lp_response(self.hops, k, lambda, false),
            1 => hp_response(self.hops, k, lambda, false),
            _ => 1.0,
        }
    }
    fn mb_compatible(&self) -> bool {
        false
    }
}

/// FAGCN: biased low/high-frequency channels
/// `γ1 ((β+1)I − L̃)^K + γ2 ((β−1)I + L̃)^K`.
#[derive(Clone, Debug)]
pub(crate) struct FaGnn {
    pub hops: usize,
    /// Bias `β ∈ [0, 1]` keeping a β-weighted residual in both channels.
    pub beta: f32,
}

impl SpectralFilter for FaGnn {
    fn name(&self) -> &'static str {
        "FAGNN"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Bank
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec {
            channels: vec![
                ChannelSpec {
                    name: "lp",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
                ChannelSpec {
                    name: "hp",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
            ],
            fusion: Fusion::LearnableSum(vec![0.5, 0.5]),
            extra: Vec::new(),
        }
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        // (β+1)I − L̃ = βI + Ã ; (β−1)I + L̃ = βI − Ã.
        out[0].push_with(|x| affine_power(ctx, x, 1.0, self.beta, self.hops));
        out[1].push_with(|x| affine_power(ctx, x, -1.0, self.beta, self.hops));
    }
    fn basis_value(&self, q: usize, _k: usize, lambda: f64) -> f64 {
        let b = self.beta as f64;
        if q == 0 {
            (b + 1.0 - lambda).powi(self.hops as i32)
        } else {
            (b - 1.0 + lambda).powi(self.hops as i32)
        }
    }
}

/// G²CN: two concentrated Gaussian channels, one centered at `λ = 0`
/// (low frequencies), one at `λ = 2` (high frequencies).
#[derive(Clone, Debug)]
pub(crate) struct G2Cn {
    pub hops: usize,
    pub alpha_low: f32,
    pub alpha_high: f32,
}

impl G2Cn {
    fn iters(&self) -> usize {
        (self.hops / 2).max(1)
    }

    fn gaussian_channel(&self, ctx: &PropCtx<'_>, x: &DMat, alpha: f32, center: f32) -> DMat {
        let iters = self.iters();
        let step = alpha / iters as f32;
        let mut h = x.clone();
        for _ in 0..iters {
            let l1 = ctx.prop(-1.0, 1.0 - center, &h);
            let l2 = ctx.prop(-1.0, 1.0 - center, &l1);
            h.axpy(-step, &l2);
        }
        h
    }

    fn gaussian_response(&self, alpha: f32, center: f32, lambda: f64) -> f64 {
        let iters = self.iters();
        let step = alpha as f64 / iters as f64;
        let d = lambda - center as f64;
        (1.0 - step * d * d).powi(iters as i32)
    }
}

impl SpectralFilter for G2Cn {
    fn name(&self) -> &'static str {
        "G2CN"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Bank
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec {
            channels: vec![
                ChannelSpec {
                    name: "low",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
                ChannelSpec {
                    name: "high",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
            ],
            fusion: Fusion::LearnableSum(vec![0.5, 0.5]),
            extra: Vec::new(),
        }
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        out[0].push_with(|x| self.gaussian_channel(ctx, x, self.alpha_low, 0.0));
        out[1].push_with(|x| self.gaussian_channel(ctx, x, self.alpha_high, 2.0));
    }
    fn basis_value(&self, q: usize, _k: usize, lambda: f64) -> f64 {
        if q == 0 {
            self.gaussian_response(self.alpha_low, 0.0, lambda)
        } else {
            self.gaussian_response(self.alpha_high, 2.0, lambda)
        }
    }
}

/// GNN-LF/HF: PPR propagation pre-filtered by `(I − β₁L̃)` (low-frequency
/// channel) and `(I + β₂L̃)` (high-frequency channel).
#[derive(Clone, Debug)]
pub(crate) struct GnnLfHf {
    pub hops: usize,
    pub alpha: f32,
    pub beta_lf: f32,
    pub beta_hf: f32,
}

impl GnnLfHf {
    fn ppr_coeffs(&self) -> Vec<f32> {
        (0..=self.hops)
            .map(|k| self.alpha * (1.0 - self.alpha).powi(k as i32))
            .collect()
    }

    fn ppr_response(&self, lambda: f64) -> f64 {
        self.ppr_coeffs()
            .iter()
            .enumerate()
            .map(|(k, &c)| c as f64 * (1.0 - lambda).powi(k as i32))
            .sum()
    }
}

impl SpectralFilter for GnnLfHf {
    fn name(&self) -> &'static str {
        "GNN-LF/HF"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Bank
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec {
            channels: vec![
                ChannelSpec {
                    name: "lf",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
                ChannelSpec {
                    name: "hf",
                    theta: ThetaSpec::Fixed(vec![1.0]),
                },
            ],
            fusion: Fusion::LearnableSum(vec![0.5, 0.5]),
            extra: Vec::new(),
        }
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        if out.iter().all(TermStore::skips) {
            return;
        }
        let s = folded(x, self.ppr_coeffs(), |t| {
            affine_power_terms(ctx, t, 1.0, 0.0, self.hops)
        });
        // (I − βL̃) = (1−β)I + βÃ ; (I + βL̃) = (1+β)I − βÃ.
        out[0].push_with(|_| ctx.prop(self.beta_lf, 1.0 - self.beta_lf, &s));
        out[1].push_with(|_| ctx.prop(-self.beta_hf, 1.0 + self.beta_hf, &s));
    }
    fn basis_value(&self, q: usize, _k: usize, lambda: f64) -> f64 {
        let p = self.ppr_response(lambda);
        if q == 0 {
            (1.0 - self.beta_lf as f64 * lambda) * p
        } else {
            (1.0 + self.beta_hf as f64 * lambda) * p
        }
    }
}

/// FiGURe: a four-channel bank — Identity, Monomial, Chebyshev, and
/// Bernstein bases, each with learnable per-term coefficients, fused with
/// learnable channel weights.
#[derive(Clone, Debug)]
pub(crate) struct FiGURe {
    pub hops: usize,
}

impl SpectralFilter for FiGURe {
    fn name(&self) -> &'static str {
        "FiGURe"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Bank
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec {
            channels: vec![
                ChannelSpec {
                    name: "id",
                    theta: ThetaSpec::Learnable { init: vec![1.0] },
                },
                ChannelSpec {
                    name: "mono",
                    theta: ThetaSpec::Learnable {
                        init: uniform(self.hops),
                    },
                },
                ChannelSpec {
                    name: "cheb",
                    theta: ThetaSpec::Learnable {
                        init: impulse_init(self.hops),
                    },
                },
                ChannelSpec {
                    name: "bern",
                    theta: ThetaSpec::Learnable {
                        init: vec![1.0; self.hops + 1],
                    },
                },
            ],
            fusion: Fusion::LearnableSum(vec![0.25; 4]),
            extra: Vec::new(),
        }
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        out[0].push_input();
        affine_power_terms(ctx, &mut out[1], 1.0, 0.0, self.hops);
        chebyshev_terms(ctx, &mut out[2], self.hops);
        bernstein_terms(ctx, &mut out[3], self.hops);
    }
    fn basis_value(&self, q: usize, k: usize, lambda: f64) -> f64 {
        match q {
            0 => 1.0,
            1 => (1.0 - lambda).powi(k as i32),
            2 => cheb_t(k, lambda - 1.0),
            _ => {
                binomial(self.hops, k)
                    * 0.5f64.powi(self.hops as i32)
                    * (2.0 - lambda).powi((self.hops - k) as i32)
                    * lambda.powi(k as i32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_filter_matches_spectral;

    #[test]
    fn bank_filters_match_exact_spectral_filtering() {
        let filters: Vec<Box<dyn SpectralFilter>> = vec![
            Box::new(AdaGnn {
                hops: 4,
                init_gate: 0.5,
            }),
            Box::new(FbGnnI { hops: 5 }),
            Box::new(FbGnnII { hops: 5 }),
            Box::new(AcmGnnI { hops: 5 }),
            Box::new(AcmGnnII { hops: 4 }),
            Box::new(FaGnn { hops: 4, beta: 0.3 }),
            Box::new(G2Cn {
                hops: 6,
                alpha_low: 1.0,
                alpha_high: 1.0,
            }),
            Box::new(GnnLfHf {
                hops: 6,
                alpha: 0.2,
                beta_lf: 0.4,
                beta_hf: 0.4,
            }),
            Box::new(FiGURe { hops: 4 }),
        ];
        for f in &filters {
            check_filter_matches_spectral(f.as_ref(), 2e-3);
        }
    }

    #[test]
    fn fagnn_channels_cover_both_ends() {
        let f = FaGnn { hops: 6, beta: 0.2 };
        // Channel 0 dominates at λ=0, channel 1 at λ=2.
        assert!(f.basis_value(0, 0, 0.0) > f.basis_value(1, 0, 0.0).abs());
        assert!(f.basis_value(1, 0, 2.0) > f.basis_value(0, 0, 2.0).abs());
    }

    #[test]
    fn g2cn_channels_concentrate_at_their_centers() {
        let f = G2Cn {
            hops: 10,
            alpha_low: 1.5,
            alpha_high: 1.5,
        };
        assert!(f.basis_value(0, 0, 0.0) > f.basis_value(0, 0, 1.5).abs());
        assert!(f.basis_value(1, 0, 2.0) > f.basis_value(1, 0, 0.5).abs());
    }

    #[test]
    fn adagnn_symbolic_gradients_reach_gates() {
        use crate::op::FilterModule;
        use sgnn_dense::rng as drng;
        use sgnn_sparse::Graph;
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pm = Arc::new(PropMatrix::new(&g, 0.5));
        let filter: Arc<dyn SpectralFilter> = Arc::new(AdaGnn {
            hops: 3,
            init_gate: 0.5,
        });
        let mut store = ParamStore::new();
        let module = FilterModule::new(Arc::clone(&filter), 2, &mut store);
        let gates = module.handles.extra[0];
        let x = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(12));
        let target = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(13));
        let build = |store: &ParamStore| {
            let mut tape = Tape::new(false, 0);
            let xn = tape.constant(x.clone());
            let out = module.apply_fb(&mut tape, &pm, xn, store);
            let loss = tape.mse(out, target.clone());
            (tape, loss)
        };
        store.zero_grads();
        let (mut tape, loss) = build(&store);
        tape.backward(loss, &mut store);
        let report = sgnn_autograd::gradcheck::check_grads(
            &mut store,
            &[gates],
            |s| {
                let (t, l) = build(s);
                t.value(l).get(0, 0) as f64
            },
            1e-3,
        );
        assert!(
            report.max_rel_err < 5e-3,
            "max rel err {}",
            report.max_rel_err
        );
    }

    #[test]
    fn concat_fusion_widens_output() {
        use crate::op::FilterModule;
        use sgnn_autograd::ParamStore;
        let filter: Arc<dyn SpectralFilter> = Arc::new(AcmGnnII { hops: 3 });
        let mut store = ParamStore::new();
        let module = FilterModule::new(filter, 4, &mut store);
        assert_eq!(module.out_features(4), 12);
    }
}
