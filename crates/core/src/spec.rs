//! Filter specifications: coefficient schemes, channel fusion, and the
//! propagation context.
//!
//! A filter's *specification* is static metadata: it tells the training
//! machinery which parameters to create ([`ThetaSpec`], [`Fusion`],
//! [`ExtraParamSpec`]) and how many basis terms each channel produces. The
//! filter's *propagation* then materializes those basis terms against a
//! concrete graph through a [`PropCtx`].

use std::sync::atomic::{AtomicUsize, Ordering};

use sgnn_dense::DMat;
use sgnn_sparse::{Dir, PropMatrix};

/// How the basis terms of one channel are combined into the channel output.
#[derive(Clone, Debug)]
pub enum ThetaSpec {
    /// Coefficients are constants (fixed filters pre-combine during
    /// propagation and use a single term with coefficient 1).
    Fixed(Vec<f32>),
    /// A learnable coefficient vector `θ` with the given initialization —
    /// one scalar per basis term.
    Learnable { init: Vec<f32> },
    /// Learnable raw parameters `p`; effective coefficients are
    /// `transform · p` (ChebInterp's Chebyshev-node interpolation).
    /// `transform` is `(num_terms × p_len)`.
    Transformed { init: Vec<f32>, transform: DMat },
    /// Learnable per-feature coefficients `θ_{k,f}` (`num_terms × F`);
    /// channel output column `f` is `Σ_k θ_{k,f} · T_k[:, f]` (AdaGNN-style
    /// adaptive frequency response per feature, OptBasis per-channel
    /// coefficients).
    PerFeature { init: DMat },
}

impl ThetaSpec {
    /// Number of basis terms this scheme combines.
    pub fn num_terms(&self) -> usize {
        match self {
            ThetaSpec::Fixed(c) => c.len(),
            ThetaSpec::Learnable { init } => init.len(),
            ThetaSpec::Transformed { transform, .. } => transform.rows(),
            ThetaSpec::PerFeature { init } => init.rows(),
        }
    }

    /// True when the coefficients are trained by gradient descent.
    pub(crate) fn is_learnable(&self) -> bool {
        !matches!(self, ThetaSpec::Fixed(_))
    }
}

/// One channel of a filter bank (single-filter models have exactly one).
#[derive(Clone, Debug)]
pub struct ChannelSpec {
    /// Short channel label (`"lp"`, `"hp"`, …) used in parameter names.
    pub name: &'static str,
    /// Coefficient scheme; its `ThetaSpec::num_terms` fixes how many basis
    /// matrices `propagate` must emit for this channel.
    pub theta: ThetaSpec,
}

/// How channel outputs fuse into the filter output (Eq. (3)'s `⊕`).
#[derive(Clone, Debug)]
pub enum Fusion {
    /// `Σ_q w_q · out_q` with constant weights (single channels use `[1]`).
    FixedSum(Vec<f32>),
    /// `Σ_q γ_q · out_q` with learnable `γ` initialized as given.
    LearnableSum(Vec<f32>),
    /// Feature-wise concatenation of channel outputs (width grows `Q×`).
    Concat,
}

impl Fusion {
    /// Number of channels this fusion expects.
    pub(crate) fn arity(&self) -> Option<usize> {
        match self {
            Fusion::FixedSum(w) => Some(w.len()),
            Fusion::LearnableSum(w) => Some(w.len()),
            Fusion::Concat => None,
        }
    }
}

/// An auxiliary trainable parameter that shapes the *basis itself* rather
/// than combining terms (GIN's adaptive self-loop strength, AdaGNN's
/// per-layer feature gates, Favard's recurrence coefficients).
#[derive(Clone, Debug)]
pub(crate) struct ExtraParamSpec {
    pub name: &'static str,
    pub init: DMat,
}

/// Complete static description of a filter's trainable surface.
#[derive(Clone, Debug)]
pub struct FilterSpec {
    pub channels: Vec<ChannelSpec>,
    pub fusion: Fusion,
    pub(crate) extra: Vec<ExtraParamSpec>,
}

impl FilterSpec {
    /// Single-channel spec with no extra parameters.
    pub(crate) fn single(theta: ThetaSpec) -> Self {
        Self {
            channels: vec![ChannelSpec {
                name: "main",
                theta,
            }],
            fusion: Fusion::FixedSum(vec![1.0]),
            extra: Vec::new(),
        }
    }

    /// Number of channels `Q`.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Initial values of the learnable coefficient parameters, as the
    /// parameter store holds them, in the order
    /// [`CoeffValues::resolve`](crate::op::CoeffValues::resolve) reads them:
    /// each learnable channel's `θ` (or transformed `p`) as a column, or
    /// `num_terms × F` per feature, then `γ` as a column.
    pub fn initial_params(&self) -> Vec<DMat> {
        let column = |v: &[f32]| DMat::from_vec(v.len(), 1, v.to_vec());
        let theta = self.channels.iter().filter_map(|c| match &c.theta {
            ThetaSpec::Fixed(_) => None,
            ThetaSpec::Learnable { init } | ThetaSpec::Transformed { init, .. } => {
                Some(column(init))
            }
            ThetaSpec::PerFeature { init } => Some(init.clone()),
        });
        let gamma = match &self.fusion {
            Fusion::LearnableSum(w) => Some(column(w)),
            Fusion::FixedSum(_) | Fusion::Concat => None,
        };
        theta.chain(gamma).collect()
    }

    /// Columns of the filter's output on `width`-wide input: every
    /// channel's side by side under `Fusion::Concat`, else `width`.
    pub fn out_width(&self, width: usize) -> usize {
        match self.fusion {
            Fusion::Concat => width * self.num_channels(),
            _ => width,
        }
    }

    /// Values held by the extra basis parameters.
    pub fn extra_len(&self) -> usize {
        self.extra.iter().map(|e| e.init.len()).sum()
    }

    /// Total basis terms across channels.
    pub fn total_terms(&self) -> usize {
        self.channels.iter().map(|c| c.theta.num_terms()).sum()
    }

    /// Sanity-checks internal consistency (fusion arity vs. channel count).
    pub(crate) fn validate(&self) {
        if let Some(q) = self.fusion.arity() {
            assert_eq!(
                q,
                self.channels.len(),
                "fusion weight count must match channels"
            );
        }
        assert!(
            !self.channels.is_empty(),
            "a filter needs at least one channel"
        );
    }
}

/// Propagation context: a graph operator, the direction its hops run
/// (`Ã` forward, `Ãᵀ` in backpropagation), and a count of the hops (the
/// `O(KmF)` cost driver reported by the efficiency experiments).
///
/// The hop counter is atomic so one context can be shared by worker-pool
/// tasks propagating independent channels concurrently.
pub struct PropCtx<'a> {
    pm: &'a PropMatrix,
    dir: Dir,
    hops: AtomicUsize,
}

impl<'a> PropCtx<'a> {
    /// Forward context (`Ã`).
    pub fn forward(pm: &'a PropMatrix) -> Self {
        Self::new(pm, Dir::Forward)
    }

    /// Adjoint context (`Ãᵀ`) used during backpropagation.
    pub fn adjoint(pm: &'a PropMatrix) -> Self {
        Self::new(pm, Dir::Adjoint)
    }

    fn new(pm: &'a PropMatrix, dir: Dir) -> Self {
        Self {
            pm,
            dir,
            hops: AtomicUsize::new(0),
        }
    }

    /// The direction this context's hops run.
    pub(crate) fn dir(&self) -> Dir {
        self.dir
    }

    /// One hop, `out = a·Ã·x + b·x [+ c·z]` in this context's direction
    /// ([`PropMatrix::hop_into`]): the polynomial recurrences write each
    /// term over a retired buffer instead of allocating one per hop.
    pub(crate) fn hop_into(
        &self,
        a: f32,
        b: f32,
        cz: Option<(f32, &DMat)>,
        x: &DMat,
        out: &mut DMat,
    ) {
        self.hops.fetch_add(1, Ordering::Relaxed);
        self.pm.hop_into(self.dir, a, b, cz, x, out);
    }

    /// [`hop_into`](Self::hop_into) without a `c`-term, into a new matrix.
    pub(crate) fn hop(&self, a: f32, b: f32, x: &DMat) -> DMat {
        self.hops.fetch_add(1, Ordering::Relaxed);
        self.pm.hop(self.dir, a, b, x)
    }

    /// Hops executed through this context so far.
    pub fn hops_used(&self) -> usize {
        self.hops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{CoeffValues, ThetaValues};

    #[test]
    fn theta_spec_term_counts() {
        assert_eq!(ThetaSpec::Fixed(vec![1.0]).num_terms(), 1);
        assert_eq!(ThetaSpec::Learnable { init: vec![0.0; 5] }.num_terms(), 5);
        let t = ThetaSpec::Transformed {
            init: vec![1.0; 3],
            transform: DMat::zeros(6, 3),
        };
        assert_eq!(t.num_terms(), 6);
        assert!(t.is_learnable());
        let p = ThetaSpec::PerFeature {
            init: DMat::zeros(4, 7),
        };
        assert_eq!(p.num_terms(), 4);
    }

    /// The coefficients at init are the resolver's over the spec's own
    /// initial parameters: a transformed scheme's `M·p`, …
    #[test]
    fn transformed_initial_coefficients_apply_matrix() {
        let transform = DMat::from_vec(2, 1, vec![2.0, -1.0]);
        let spec = FilterSpec::single(ThetaSpec::Transformed {
            init: vec![3.0],
            transform,
        });
        let cv = CoeffValues::resolve(&spec, &spec.initial_params());
        assert!(
            matches!(&cv.theta[0], ThetaValues::Shared(c) if c[..] == [6.0, -3.0]),
            "{cv:?}"
        );
    }

    /// … and a per-feature scheme's response averages its features.
    #[test]
    fn per_feature_initial_coefficients_average() {
        let init = DMat::from_vec(2, 2, vec![1.0, 3.0, 0.0, 2.0]);
        let spec = FilterSpec::single(ThetaSpec::PerFeature { init });
        let rp = CoeffValues::resolve(&spec, &spec.initial_params()).to_response_params();
        assert_eq!(rp.theta, vec![vec![2.0, 1.0]]);
    }

    #[test]
    fn spec_validation() {
        let spec = FilterSpec::single(ThetaSpec::Fixed(vec![1.0]));
        spec.validate();
        assert_eq!(spec.num_channels(), 1);
        assert_eq!(spec.total_terms(), 1);
    }

    #[test]
    #[should_panic(expected = "fusion weight count")]
    fn spec_validation_catches_arity_mismatch() {
        let spec = FilterSpec {
            channels: vec![ChannelSpec {
                name: "a",
                theta: ThetaSpec::Fixed(vec![1.0]),
            }],
            fusion: Fusion::LearnableSum(vec![0.5, 0.5]),
            extra: Vec::new(),
        };
        spec.validate();
    }

    #[test]
    fn prop_ctx_counts_hops() {
        use sgnn_sparse::Graph;
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let pm = PropMatrix::new(&g, 0.5);
        let ctx = PropCtx::forward(&pm);
        let x = DMat::filled(3, 2, 1.0);
        let _ = ctx.hop(1.0, 0.0, &x);
        let mut out = DMat::zeros(3, 2);
        ctx.hop_into(-1.0, 1.0, Some((0.5, &x)), &x, &mut out);
        assert_eq!(ctx.hops_used(), 2);
        assert_eq!(ctx.dir(), Dir::Forward);
    }
}
