//! The [`SpectralFilter`] trait and frequency-response machinery.

use std::sync::Arc;

use sgnn_autograd::{NodeId, ParamStore, Tape};
use sgnn_dense::DMat;
use sgnn_sparse::PropMatrix;

use crate::op::{CoeffValues, ParamHandles};
use crate::spec::{FilterSpec, PropCtx};
use crate::taxonomy::FilterKind;
use crate::terms::{Policy, TermStore};

/// Current coefficient values used to evaluate a filter's scalar frequency
/// response `g(λ)`.
#[derive(Clone, Debug)]
pub struct ResponseParams {
    /// Channel weights `γ_q` (length `Q`).
    pub gamma: Vec<f32>,
    /// Effective per-term coefficients per channel (`θ` after any
    /// transform; per-feature schemes averaged over features).
    pub theta: Vec<Vec<f32>>,
    /// Extra basis-parameter values in spec order, flattened row-major
    /// (AdaGNN gates, Favard recurrence coefficients).
    pub extra: Vec<Vec<f32>>,
}

impl ResponseParams {
    /// Parameters at initialization: the coefficients resolved from the
    /// spec's own initial values, and its extra parameters' inits.
    pub fn initial(spec: &FilterSpec) -> Self {
        let mut rp = CoeffValues::resolve(spec, &spec.initial_params()).to_response_params();
        rp.extra = spec.extra.iter().map(|e| e.init.data().to_vec()).collect();
        rp
    }
}

/// A spectral graph filter `g(L̃) = ⊕_q γ_q Σ_k θ_{q,k} T_q^{(k)}(L̃)`.
///
/// Implementations provide three things: static metadata (`spec`
/// (SpectralFilter::spec)), the basis recurrence
/// ([`propagate_into`](SpectralFilter::propagate_into)), and the scalar
/// basis values that define the frequency response. Everything else —
/// parameter creation, differentiable application, mini-batch recombination
/// — is generic (see [`crate::op::FilterModule`]).
pub trait SpectralFilter: Send + Sync {
    /// Canonical filter name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Taxonomy type (Table 1).
    fn kind(&self) -> FilterKind;

    /// Propagation order `K`.
    fn hops(&self) -> usize;

    /// Trainable-surface description for input feature width `in_features`
    /// (only per-feature coefficient schemes depend on the width).
    fn spec(&self, in_features: usize) -> FilterSpec;

    /// Writes the basis terms for signal `x` into `out`, one
    /// [`TermStore`] per channel, each made over `x`: this is the filter's
    /// recurrence, and the only place it is written.
    ///
    /// Channel `q` receives `ThetaSpec::num_terms`
    /// terms; fixed channels pre-combine their coefficients and write a
    /// single matrix. A recurrence declares its `TermStore::window` before
    /// reading earlier terms, and writes nothing to a channel whose store
    /// `skips`.
    ///
    /// With an adjoint [`PropCtx`] the transposed operator is applied — every
    /// basis term is linear in `x` with scalar (or per-feature-diagonal)
    /// coefficients, so the same recurrence over `Ãᵀ` computes the adjoint
    /// map used for backpropagation.
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]);

    /// Materializes every basis term for signal `x`: one `Vec<DMat>` per
    /// channel, [`propagate_into`](Self::propagate_into) with every channel
    /// kept.
    fn propagate(&self, ctx: &PropCtx<'_>, x: &DMat) -> Vec<Vec<DMat>> {
        let channels = self.spec(x.cols()).num_channels();
        let mut out: Vec<TermStore<'_>> = (0..channels)
            .map(|_| TermStore::new(x, Policy::Keep))
            .collect();
        self.propagate_into(ctx, x, &mut out);
        out.into_iter().map(TermStore::into_terms).collect()
    }

    /// Scalar basis value `T_q^{(k)}(λ)`; for fixed (pre-combined) channels
    /// this is the channel's entire response `g_q(λ)`.
    fn basis_value(&self, channel: usize, k: usize, lambda: f64) -> f64;

    /// Symbolic full-batch application for filters whose *basis* contains
    /// trainable parameters (GIN's adaptive self-loops, AdaGNN's feature
    /// gates, Favard's recurrence): building the recurrence from primitive
    /// tape ops gives exact gradients for those parameters, which the
    /// generic operator cannot provide.
    ///
    /// Return `None` (the default) to use the generic path.
    fn apply_symbolic(
        &self,
        tape: &mut Tape,
        pm: &Arc<PropMatrix>,
        x: NodeId,
        handles: &ParamHandles,
        store: &ParamStore,
    ) -> Option<NodeId> {
        let _ = (tape, pm, x, handles, store);
        None
    }

    /// Whether the decoupled mini-batch scheme applies (iterative-only
    /// designs — AdaGNN, FBGNN, ACMGNN, Favard — are full-batch only,
    /// matching Table 10 of the paper).
    fn mb_compatible(&self) -> bool {
        true
    }

    /// Frequency response `g(λ)` under the given coefficient values.
    ///
    /// Default: `Σ_q γ_q Σ_k θ_{q,k} · basis_value(q, k, λ)`. Filters whose
    /// response is not linear in their parameters (AdaGNN) override this.
    fn response(&self, lambda: f64, params: &ResponseParams) -> f64 {
        params
            .gamma
            .iter()
            .zip(&params.theta)
            .enumerate()
            .map(|(q, (&g, th))| {
                g as f64
                    * th.iter()
                        .enumerate()
                        .map(|(k, &t)| t as f64 * self.basis_value(q, k, lambda))
                        .sum::<f64>()
            })
            .sum()
    }

    /// Response at initialization.
    fn initial_response(&self, lambda: f64, in_features: usize) -> f64 {
        self.response(lambda, &ResponseParams::initial(&self.spec(in_features)))
    }
}

/// Samples `g(λ)` on a uniform grid over the spectral interval `[0, 2]`.
pub fn sample_response(
    filter: &dyn SpectralFilter,
    params: &ResponseParams,
    points: usize,
) -> Vec<(f64, f64)> {
    (0..points)
        .map(|i| {
            let lambda = 2.0 * i as f64 / (points.max(2) - 1) as f64;
            (lambda, filter.response(lambda, params))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelSpec, Fusion, ThetaSpec};

    struct Toy;
    impl SpectralFilter for Toy {
        fn name(&self) -> &'static str {
            "Toy"
        }
        fn kind(&self) -> FilterKind {
            FilterKind::Fixed
        }
        fn hops(&self) -> usize {
            1
        }
        fn spec(&self, _f: usize) -> FilterSpec {
            FilterSpec {
                channels: vec![
                    ChannelSpec {
                        name: "a",
                        theta: ThetaSpec::Fixed(vec![1.0, 2.0]),
                    },
                    ChannelSpec {
                        name: "b",
                        theta: ThetaSpec::Fixed(vec![3.0]),
                    },
                ],
                fusion: Fusion::FixedSum(vec![1.0, 0.5]),
                extra: Vec::new(),
            }
        }
        fn propagate_into(&self, _ctx: &PropCtx<'_>, _x: &DMat, _out: &mut [TermStore<'_>]) {
            unimplemented!("response-only toy")
        }
        fn basis_value(&self, channel: usize, k: usize, lambda: f64) -> f64 {
            // channel a: powers of λ; channel b: constant 1.
            if channel == 0 {
                lambda.powi(k as i32)
            } else {
                1.0
            }
        }
    }

    #[test]
    fn default_response_combines_channels() {
        let f = Toy;
        let rp = ResponseParams::initial(&f.spec(4));
        // g(λ) = 1·(1·1 + 2·λ) + 0.5·(3·1) = 2λ + 2.5
        assert!((f.response(0.0, &rp) - 2.5).abs() < 1e-9);
        assert!((f.response(1.0, &rp) - 4.5).abs() < 1e-9);
        assert!((f.initial_response(2.0, 4) - 6.5).abs() < 1e-9);
    }

    #[test]
    fn sample_response_covers_interval() {
        let f = Toy;
        let rp = ResponseParams::initial(&f.spec(4));
        let samples = sample_response(&f, &rp, 5);
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0].0, 0.0);
        assert_eq!(samples[4].0, 2.0);
    }
}
