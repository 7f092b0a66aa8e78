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
use crate::poly::{ppr_weights, uniform, unit, Basis, Polynomial};
use crate::spec::{ExtraParamSpec, FilterSpec, Fusion, PropCtx, ThetaSpec};
use crate::terms::TermStore;

type Channel = (&'static str, Basis, ThetaSpec);

fn bank(name: &'static str, hops: usize, channels: Vec<Channel>, fusion: Fusion) -> Polynomial {
    Polynomial::new(name, hops, channels, fusion)
}

/// Powers of `Ã = I − L̃` (low-pass) and of `L̃` (high-pass).
fn low(hops: usize) -> Basis {
    Basis::powers(1.0, 0.0, hops)
}

fn high(hops: usize) -> Basis {
    Basis::powers(-1.0, 1.0, hops)
}

/// A channel pre-combined with constant coefficients.
fn fixed(name: &'static str, basis: Basis) -> Channel {
    (name, basis, ThetaSpec::Fixed(vec![1.0]))
}

fn learnable(name: &'static str, basis: Basis, init: Vec<f32>) -> Channel {
    (name, basis, ThetaSpec::Learnable { init })
}

/// FBGNN-I: fixed LP + HP channels `1/(K+1) Σ (I − L̃)^k` and
/// `1/(K+1) Σ L̃^k`, learnable channel weights `γ`.
pub(crate) fn fbgnn_i(name: &'static str, hops: usize) -> Polynomial {
    let channels = vec![
        fixed("lp", low(hops).folded(uniform(hops))),
        fixed("hp", high(hops).folded(uniform(hops))),
    ];
    bank(name, hops, channels, Fusion::LearnableSum(vec![0.5, 0.5])).full_batch_only()
}

/// FBGNN-II: LP + HP channels with *learnable per-term* coefficients plus
/// learnable channel weights.
pub(crate) fn fbgnn_ii(name: &'static str, hops: usize) -> Polynomial {
    let channels = vec![
        learnable("lp", low(hops), uniform(hops)),
        learnable("hp", high(hops), uniform(hops)),
    ];
    bank(name, hops, channels, Fusion::LearnableSum(vec![0.5, 0.5])).full_batch_only()
}

/// ACMGNN-I: fixed LP + HP + identity channels, learnable `γ` (adaptive
/// channel mixing, summation fusion).
pub(crate) fn acmgnn_i(name: &'static str, hops: usize) -> Polynomial {
    let third = 1.0 / 3.0;
    let channels = vec![
        fixed("lp", low(hops).folded(uniform(hops))),
        fixed("hp", high(hops).folded(uniform(hops))),
        fixed("id", Basis::Input),
    ];
    bank(name, hops, channels, Fusion::LearnableSum(vec![third; 3])).full_batch_only()
}

/// ACMGNN-II: variable LP + HP + ID channels fused by concatenation (the
/// wider-representation variant).
pub(crate) fn acmgnn_ii(name: &'static str, hops: usize) -> Polynomial {
    let channels = vec![
        learnable("lp", low(hops), uniform(hops)),
        learnable("hp", high(hops), uniform(hops)),
        learnable("id", Basis::Input, vec![1.0]),
    ];
    bank(name, hops, channels, Fusion::Concat).full_batch_only()
}

/// FAGCN: biased low/high-frequency channels
/// `γ1 ((β+1)I − L̃)^K + γ2 ((β−1)I + L̃)^K`, the bias `β ∈ [0, 1]` keeping
/// a β-weighted residual in both: `(β+1)I − L̃ = βI + Ã`,
/// `(β−1)I + L̃ = βI − Ã`.
pub(crate) fn fagnn(name: &'static str, hops: usize, beta: f32) -> Polynomial {
    let power = |a| Basis::Power { a, b: beta, hops };
    let channels = vec![fixed("lp", power(1.0)), fixed("hp", power(-1.0))];
    bank(name, hops, channels, Fusion::LearnableSum(vec![0.5, 0.5]))
}

/// G²CN: two concentrated Gaussian channels, one centered at `λ = 0`
/// (low frequencies), one at `λ = 2` (high frequencies).
pub(crate) fn g2cn(name: &'static str, hops: usize, alpha_low: f32, alpha_high: f32) -> Polynomial {
    let gaussian = |alpha, center| Basis::Gaussian {
        alpha,
        center,
        hops,
    };
    let channels = vec![
        fixed("low", gaussian(alpha_low, 0.0)),
        fixed("high", gaussian(alpha_high, 2.0)),
    ];
    bank(name, hops, channels, Fusion::LearnableSum(vec![0.5, 0.5]))
}

/// GNN-LF/HF: one PPR propagation (restart `α`), then pre-filtered by
/// `(I − β₁L̃) = (1−β₁)I + β₁Ã` (low-frequency channel) and
/// `(I + β₂L̃) = (1+β₂)I − β₂Ã` (high-frequency channel).
pub(crate) fn gnn_lf_hf(
    name: &'static str,
    hops: usize,
    alpha: f32,
    beta_lf: f32,
    beta_hf: f32,
) -> Polynomial {
    let hop = |a: f32, b| Basis::Power { a, b, hops: 1 };
    let channels = vec![
        fixed("lf", hop(beta_lf, 1.0 - beta_lf)),
        fixed("hf", hop(-beta_hf, 1.0 + beta_hf)),
    ];
    bank(name, hops, channels, Fusion::LearnableSum(vec![0.5, 0.5]))
        .after(low(hops).folded(ppr_weights(hops, alpha)))
}

/// FiGURe: a four-channel bank — Identity, Monomial, Chebyshev, and
/// Bernstein bases, each with learnable per-term coefficients, fused with
/// learnable channel weights.
pub(crate) fn figure(name: &'static str, hops: usize) -> Polynomial {
    let channels = vec![
        learnable("id", Basis::Input, vec![1.0]),
        learnable("mono", low(hops), uniform(hops)),
        learnable("cheb", Basis::chebyshev(hops), unit(hops)),
        learnable("bern", Basis::Bernstein { hops }, vec![1.0; hops + 1]),
    ];
    bank(name, hops, channels, Fusion::LearnableSum(vec![0.25; 4]))
}

/// AdaGNN: per-feature adaptive linear filters applied layer-wise,
/// `H_{j+1} = H_j − (L̃ H_j)·diag(g_j)`; column `f` of the output is
/// filtered by `Π_j (1 − g_{j,f} λ)`.
#[derive(Clone, Debug)]
pub(crate) struct AdaGnn {
    pub name: &'static str,
    pub hops: usize,
    /// Gate initialization (0.5 keeps the per-layer response positive over
    /// the whole spectrum `[0, 2]`).
    pub init_gate: f32,
}

impl SpectralFilter for AdaGnn {
    fn name(&self) -> &'static str {
        self.name
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
            let lh = ctx.hop(-1.0, 1.0, &h);
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
    /// Per hop: `L̃h`, the gate row, the gated term and the difference.
    fn symbolic_nodes(&self, f: usize) -> Option<(usize, usize)> {
        Some((3 * self.hops, self.hops * f))
    }
    /// The feature mean of the columns' responses `Π_j (1 − g_{j,f} λ)` —
    /// the convention per-feature θ follows.
    fn response(&self, lambda: f64, params: &ResponseParams) -> f64 {
        match params.extra.first() {
            Some(g) if !g.is_empty() => {
                let f = g.len() / self.hops;
                let column = |c: usize| -> f64 {
                    (0..self.hops)
                        .map(|j| 1.0 - g[j * f + c] as f64 * lambda)
                        .product()
                };
                (0..f).map(column).sum::<f64>() / f as f64
            }
            _ => self.basis_value(0, 0, lambda),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_filter_matches_spectral, column_params, module_at, Params};

    /// The filter banks at orders and hyperparameters other than the
    /// registry's, at initial and random parameters, against exact
    /// spectral filtering.
    #[test]
    fn bank_filters_match_exact_spectral_filtering() {
        let filters: Vec<Arc<dyn SpectralFilter>> = vec![
            Arc::new(AdaGnn {
                name: "AdaGNN",
                hops: 4,
                init_gate: 0.5,
            }),
            Arc::new(fbgnn_i("FBGNNI", 5)),
            Arc::new(fbgnn_ii("FBGNNII", 5)),
            Arc::new(acmgnn_i("ACMGNNI", 5)),
            Arc::new(acmgnn_ii("ACMGNNII", 4)),
            Arc::new(fagnn("FAGNN", 4, 0.3)),
            Arc::new(g2cn("G2CN", 6, 1.0, 1.0)),
            Arc::new(gnn_lf_hf("GNN-LF/HF", 6, 0.2, 0.4, 0.4)),
            Arc::new(figure("FiGURe", 4)),
        ];
        for f in &filters {
            for params in [Params::Initial, Params::Random(5)] {
                check_filter_matches_spectral(f, params, 1e-4);
            }
        }
    }

    #[test]
    fn fagnn_channels_cover_both_ends() {
        let f = fagnn("FAGNN", 6, 0.2);
        // Channel 0 dominates at λ=0, channel 1 at λ=2.
        assert!(f.basis_value(0, 0, 0.0) > f.basis_value(1, 0, 0.0).abs());
        assert!(f.basis_value(1, 0, 2.0) > f.basis_value(0, 0, 2.0).abs());
    }

    #[test]
    fn g2cn_channels_concentrate_at_their_centers() {
        let f = g2cn("G2CN", 10, 1.5, 1.5);
        assert!(f.basis_value(0, 0, 0.0) > f.basis_value(0, 0, 1.5).abs());
        assert!(f.basis_value(1, 0, 2.0) > f.basis_value(1, 0, 0.5).abs());
    }

    /// At random gates each output column is filtered by its own product
    /// `Π_j (1 − g_{j,f} λ)`, and the response is their mean on a 21-point
    /// grid over `[0, 2]`.
    #[test]
    fn adagnn_response_is_the_mean_of_its_columns() {
        let filter: Arc<dyn SpectralFilter> = Arc::new(AdaGnn {
            name: "AdaGNN",
            hops: 5,
            init_gate: 0.5,
        });
        check_filter_matches_spectral(&filter, Params::Random(7), 1e-4);
        let (module, store) = module_at(&filter, Params::Random(7));
        let rp = module.response_params(&store);
        let fdim = store.value(module.handles.extra[0]).cols();
        for i in 0..=20 {
            let lambda = 0.1 * i as f64;
            let columns =
                (0..fdim).map(|c| filter.response(lambda, &column_params(&module, &store, c)));
            let mean = columns.sum::<f64>() / fdim as f64;
            let got = filter.response(lambda, &rp);
            assert!(
                (got - mean).abs() < 1e-12,
                "λ={lambda}: {got} vs the columns' mean {mean}"
            );
        }
    }

    #[test]
    fn adagnn_symbolic_gradients_reach_gates() {
        use crate::op::FilterModule;
        use sgnn_dense::rng as drng;
        use sgnn_sparse::Graph;
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pm = Arc::new(PropMatrix::new(&g, 0.5));
        let filter: Arc<dyn SpectralFilter> = Arc::new(AdaGnn {
            name: "AdaGNN",
            hops: 3,
            init_gate: 0.5,
        });
        let mut store = ParamStore::new();
        let module = FilterModule::new(Arc::clone(&filter), 2, &mut store);
        let gates = module.handles.extra[0];
        let x = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(12));
        let target = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(13));
        let build = |store: &ParamStore| {
            let mut tape = Tape::new(true, 0);
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
        let filter: Arc<dyn SpectralFilter> = Arc::new(acmgnn_ii("ACMGNNII", 3));
        let mut store = ParamStore::new();
        let module = FilterModule::new(filter, 4, &mut store);
        assert_eq!(module.out_features(4), 12);
    }
}
