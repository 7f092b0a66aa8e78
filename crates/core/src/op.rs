//! Differentiable application of spectral filters, and the one place their
//! coefficients are resolved and combined.
//!
//! [`FilterModule`] owns a filter's trainable parameters and provides the two
//! application paths of the benchmark:
//!
//! * **Full-batch** ([`FilterModule::apply_fb`]) — on a training tape a
//!   single generic [`CustomOp`] whose forward materializes the basis terms
//!   and combines them with the current `θ`/`γ`, and whose backward (a)
//!   takes inner products of the saved terms for `θ`/`γ` gradients and (b)
//!   re-runs the recurrence on the **transposed** operator to push the
//!   gradient through the graph computation (valid because every basis term
//!   is linear in the input signal), folding each adjoint term into
//!   `Σ_k θ_k·T_k(Ãᵀ)·g` as it is made. An eval tape is forward-only, so
//!   there the terms are folded as the recurrence writes them
//!   ([`filter_output`]) and none is kept. Filters whose basis itself
//!   contains trainable parameters (GIN's `VarLinear`, `AdaGNN`, `Favard`)
//!   override [`SpectralFilter::apply_symbolic`] and build their recurrence
//!   from primitive tape ops instead, getting exact gradients.
//! * **Mini-batch** ([`FilterModule::precompute`] +
//!   [`FilterModule::combine_batch`]) — the paper's decoupled scheme: basis
//!   terms are computed once on raw attributes ("CPU"), stored in RAM, and
//!   each training step recombines gathered batch rows with the learnable
//!   coefficients in one tape node ("GPU").
//!
//! Coefficients come from one resolver, [`CoeffValues::resolve`]: the spec
//! plus the current value of each learnable parameter, read from a
//! [`ParamStore`], a tape's parameter nodes or the spec's own inits.
//! `⊕_q γ_q Σ_k θ_{q,k}·T_{q,k}` is formed by one [`combine`] — both
//! schemes' forward, the mini-batch inference pass and the served rows —
//! over all rows or a list of ids, with one arithmetic. The fold inside the
//! recurrence ([`filter_output`], `TermStore`'s `Fold`) gives `combine`'s
//! bits without holding the terms. Both tape nodes take their `θ`/`γ`
//! gradients from one routine, `coeff_grads`; the full-batch op adds the
//! input gradient.

use std::borrow::{Borrow, Cow};
use std::sync::Arc;

use sgnn_autograd::param::ParamGroup;
use sgnn_autograd::{CustomOp, NodeId, ParamId, ParamStore, Tape};
use sgnn_dense::runtime::run_map;
use sgnn_dense::{matmul, obs, DMat};
use sgnn_sparse::PropMatrix;

use crate::filter::{ResponseParams, SpectralFilter};
use crate::spec::{FilterSpec, Fusion, PropCtx, ThetaSpec};
use crate::terms::{per_feature, Policy, TermStore};

/// Concrete coefficient values for one application of a filter.
#[derive(Clone, Debug)]
pub enum ThetaValues {
    /// One scalar per term.
    Shared(Vec<f32>),
    /// `(num_terms × F)` per-feature coefficients.
    PerFeature(DMat),
}

/// All coefficient values: per-channel `θ` plus channel weights `γ`.
#[derive(Clone, Debug)]
pub struct CoeffValues {
    pub(crate) theta: Vec<ThetaValues>,
    pub gamma: Vec<f32>,
}

impl CoeffValues {
    /// The coefficients of `spec` given the current value of each learnable
    /// coefficient parameter, in the order of
    /// [`FilterSpec::initial_params`] and `ParamHandles::coeff_ids` (each
    /// learnable channel's `θ`, then `γ`): a store's values, the full-batch
    /// op's tape inputs, or `spec.initial_params()` for the values at init.
    /// A transformed scheme's coefficients are `M·p`; `γ` is the fusion's
    /// weights, or ones under concatenation.
    ///
    /// # Panics
    /// If `params` holds a different number of values.
    pub fn resolve<T: Borrow<DMat>>(spec: &FilterSpec, params: &[T]) -> Self {
        let mut params = params.iter().map(Borrow::borrow);
        let mut next = || params.next().expect("a value per learnable parameter");
        let theta = spec
            .channels
            .iter()
            .map(|ch| match &ch.theta {
                ThetaSpec::Fixed(c) => ThetaValues::Shared(c.clone()),
                ThetaSpec::Learnable { .. } => ThetaValues::Shared(next().data().to_vec()),
                ThetaSpec::Transformed { transform, .. } => {
                    ThetaValues::Shared(matmul::matmul(transform, next()).into_vec())
                }
                ThetaSpec::PerFeature { .. } => ThetaValues::PerFeature(next().clone()),
            })
            .collect();
        let gamma = match &spec.fusion {
            Fusion::FixedSum(w) => w.clone(),
            Fusion::LearnableSum(_) => next().data().to_vec(),
            Fusion::Concat => vec![1.0; spec.channels.len()],
        };
        assert!(
            params.next().is_none(),
            "more values than learnable parameters"
        );
        Self { theta, gamma }
    }

    /// Per-channel effective coefficients averaged over features — the form
    /// consumed by frequency-response evaluation (with no extra parameters).
    pub(crate) fn to_response_params(&self) -> ResponseParams {
        let theta = self
            .theta
            .iter()
            .map(|t| match t {
                ThetaValues::Shared(v) => v.clone(),
                ThetaValues::PerFeature(m) => {
                    let f = m.cols().max(1);
                    (0..m.rows())
                        .map(|k| m.row(k).iter().sum::<f32>() / f as f32)
                        .collect()
                }
            })
            .collect();
        ResponseParams {
            gamma: self.gamma.clone(),
            theta,
            extra: Vec::new(),
        }
    }
}

/// The rows of the terms a [`combine`] forms.
#[derive(Clone, Copy, Debug)]
pub enum Rows<'a> {
    /// Every row, in order.
    All,
    /// Row `ids[r]` as output row `r` (ids may repeat, or be empty).
    Ids(&'a [u32]),
}

/// The filter output `⊕_q γ_q Σ_k θ_{q,k}·T_{q,k}` over `rows` of the
/// terms: both schemes' forward, the mini-batch inference pass and the
/// served rows. Shared coefficients run `DMat::lin_comb` / `lin_comb_rows`
/// (the first term's product, then one FMA per term), per-feature ones
/// `terms::per_feature` (the first term's product, then one add per term),
/// so no term row is gathered or copied. Channels are independent, so
/// multi-channel filter banks combine across the worker pool.
pub fn combine(spec: &FilterSpec, terms: &[Vec<DMat>], rows: Rows<'_>, cv: &CoeffValues) -> DMat {
    assert_eq!(
        terms.len(),
        spec.channels.len(),
        "one term group per channel"
    );
    let outs = run_map(terms.len(), |q| channel_out(&terms[q], rows, &cv.theta[q]));
    fuse(&spec.fusion, &outs, &cv.gamma)
}

/// One channel's `Σ_k θ_k·T_k` over `rows` of its terms.
fn channel_out(terms: &[DMat], rows: Rows<'_>, theta: &ThetaValues) -> DMat {
    match (theta, rows) {
        (ThetaValues::Shared(c), Rows::All) => DMat::lin_comb(terms, c),
        (ThetaValues::Shared(c), Rows::Ids(ids)) => DMat::lin_comb_rows(terms, ids, c),
        (ThetaValues::PerFeature(m), _) => {
            assert_eq!(m.rows(), terms.len(), "one coefficient row per term");
            let n = match rows {
                Rows::All => terms[0].rows(),
                Rows::Ids(ids) => ids.len(),
            };
            let mut out = DMat::scratch(n, terms[0].cols());
            per_feature(&mut out, 0, terms, rows, m);
            out
        }
    }
}

/// The fusion step `⊕_q` over the channel outputs: their `γ`-weighted sum,
/// or their concatenation.
fn fuse(fusion: &Fusion, outs: &[DMat], gamma: &[f32]) -> DMat {
    match fusion {
        Fusion::FixedSum(_) | Fusion::LearnableSum(_) => DMat::lin_comb(outs, gamma),
        Fusion::Concat => DMat::hcat(&outs.iter().collect::<Vec<_>>()),
    }
}

/// The filter's output on `x` at coefficients `cv`:
/// `combine(spec, &filter.propagate(ctx, x), Rows::All, cv)`, bit for bit
/// and with the same hops, without materializing the terms — each
/// channel's terms are folded as its recurrence writes them, so only the
/// recurrence's window is live. Concat channels run one by one, the others
/// skipped.
pub fn filter_output(
    filter: &dyn SpectralFilter,
    spec: &FilterSpec,
    ctx: &PropCtx<'_>,
    x: &DMat,
    cv: &CoeffValues,
) -> DMat {
    let outs = match spec.fusion {
        Fusion::Concat => run_map(spec.channels.len(), |q| {
            fold_channels(filter, ctx, x, cv, Some(q)).swap_remove(0)
        }),
        _ => fold_channels(filter, ctx, x, cv, None),
    };
    fuse(&spec.fusion, &outs, &cv.gamma)
}

/// The folded output of channel `only`, or of every channel when `None`.
fn fold_channels(
    filter: &dyn SpectralFilter,
    ctx: &PropCtx<'_>,
    x: &DMat,
    cv: &CoeffValues,
    only: Option<usize>,
) -> Vec<DMat> {
    let mut stores: Vec<TermStore<'_>> = cv
        .theta
        .iter()
        .enumerate()
        .map(|(q, theta)| {
            let policy = match only {
                Some(o) if o != q => Policy::Skip,
                _ => Policy::Fold(theta),
            };
            TermStore::new(x, policy)
        })
        .collect();
    filter.propagate_into(ctx, x, &mut stores);
    stores
        .into_iter()
        .filter(|s| !s.skips())
        .map(TermStore::finish)
        .collect()
}

/// The input gradient of a generic full-batch filter: the adjoint
/// recurrence over the output gradient `gout`, folded with the forward's
/// coefficients. A concat channel's gradient block runs through its own
/// channel only, and the blocks' results are summed in channel order.
fn input_grad(
    filter: &dyn SpectralFilter,
    spec: &FilterSpec,
    ctx: &PropCtx<'_>,
    gout: &DMat,
    cv: &CoeffValues,
) -> DMat {
    let _sp = obs::span!("filter.propagate", adjoint = true);
    match spec.fusion {
        Fusion::Concat => {
            // Independent channels, fanned out over the pool.
            let parts = run_map(spec.channels.len(), |q| {
                let gq = channel_part(spec, gout, q);
                fold_channels(filter, ctx, &gq, cv, Some(q)).swap_remove(0)
            });
            let mut parts = parts.into_iter();
            let mut acc = parts.next().expect("at least one channel");
            for part in parts {
                acc.add_assign_mat(&part);
            }
            acc
        }
        _ => filter_output(filter, spec, ctx, gout, cv),
    }
}

/// The part of a filter-width matrix that belongs to channel `q`: all of
/// it under sum fusion, a copy of its column block `q` under concat.
pub(crate) fn channel_part<'a>(spec: &FilterSpec, m: &'a DMat, q: usize) -> Cow<'a, DMat> {
    if !matches!(spec.fusion, Fusion::Concat) {
        return Cow::Borrowed(m);
    }
    let fw = m.cols() / spec.channels.len();
    let mut g = DMat::scratch(m.rows(), fw);
    for r in 0..m.rows() {
        g.row_mut(r)
            .copy_from_slice(&m.row(r)[q * fw..(q + 1) * fw]);
    }
    Cow::Owned(g)
}

/// The gradients of a combination's learnable coefficients given its
/// output gradient `gout`, in [`ParamHandles::coeff_ids`] order: each
/// learnable channel's `θ`, then `γ`. A channel's output gradient is its
/// part of `gout`, times `γ_q` under a sum; then `dθ_k = ⟨T_k, γ_q·g⟩` (in
/// `f64`, one pass for all terms), `dp = Mᵀ·dθ` for a transformed scheme,
/// `dθ_k = Σ_r T_k[r] ⊙ (γ_q·g)[r]` (in `f32`, row order) per feature, and
/// `dγ_q = ⟨channel output, gout⟩`.
fn coeff_grads(spec: &FilterSpec, terms: &[Vec<DMat>], cv: &CoeffValues, gout: &DMat) -> Vec<DMat> {
    let _sp = obs::span!("filter.theta_grad");
    let mut grads = Vec::new();
    for (q, (ch, terms)) in spec.channels.iter().zip(terms).enumerate() {
        if !ch.theta.is_learnable() {
            continue;
        }
        let mut gq = channel_part(spec, gout, q);
        // Concat's γ is ones, and scaling by one is exact: skip the copy.
        if cv.gamma[q] != 1.0 {
            gq = Cow::Owned(gq.scaled(cv.gamma[q]));
        }
        let shared = || {
            let dc = DMat::dots(terms, &gq).into_iter().map(|d| d as f32);
            DMat::from_vec(terms.len(), 1, dc.collect())
        };
        grads.push(match &ch.theta {
            ThetaSpec::Learnable { .. } => shared(),
            ThetaSpec::Transformed { transform, .. } => matmul::matmul_at_b(transform, &shared()),
            ThetaSpec::PerFeature { .. } => {
                let mut g = DMat::zeros(terms.len(), gq.cols());
                for (k, t) in terms.iter().enumerate() {
                    let row = g.row_mut(k);
                    for r in 0..t.rows() {
                        for ((acc, &tv), &gv) in row.iter_mut().zip(t.row(r)).zip(gq.row(r)) {
                            *acc += tv * gv;
                        }
                    }
                }
                g
            }
            ThetaSpec::Fixed(_) => unreachable!("a fixed channel has no parameter"),
        });
    }
    if let Fusion::LearnableSum(_) = spec.fusion {
        // One channel output at a time: the full-batch outputs are `n × F`.
        let dg = terms
            .iter()
            .zip(&cv.theta)
            .map(|(terms, theta)| channel_out(terms, Rows::All, theta).dot(gout) as f32);
        grads.push(DMat::from_vec(spec.channels.len(), 1, dg.collect()));
    }
    grads
}

/// Parameter handles created for one filter instance.
#[derive(Clone, Debug)]
pub struct ParamHandles {
    /// Per-channel `θ` parameter (None for fixed channels). Shared/Transformed
    /// schemes store a column vector; PerFeature stores the full matrix.
    pub theta: Vec<Option<ParamId>>,
    /// Channel weights `γ` when learnable.
    pub gamma: Option<ParamId>,
    /// Extra basis parameters, in spec order.
    pub extra: Vec<ParamId>,
}

impl ParamHandles {
    /// The learnable coefficient parameters in the order
    /// [`CoeffValues::resolve`] reads their values: each learnable channel's
    /// `θ`, then `γ`.
    pub(crate) fn coeff_ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        self.theta.iter().flatten().chain(&self.gamma).copied()
    }
}

/// A filter bound to its trainable parameters.
pub struct FilterModule {
    filter: Arc<dyn SpectralFilter>,
    spec: FilterSpec,
    pub(crate) handles: ParamHandles,
}

impl FilterModule {
    /// Creates the filter's parameters in `store` for input width
    /// `in_features` and returns the bound module.
    pub fn new(
        filter: Arc<dyn SpectralFilter>,
        in_features: usize,
        store: &mut ParamStore,
    ) -> Self {
        let spec = filter.spec(in_features);
        spec.validate();
        let mut init = spec.initial_params().into_iter();
        let mut add = |name: String| {
            let value = init
                .next()
                .expect("an initial value per learnable parameter");
            store.add(name, value, ParamGroup::Filter)
        };
        let theta = spec
            .channels
            .iter()
            .map(|ch| {
                let name = format!("{}.{}.theta", filter.name(), ch.name);
                ch.theta.is_learnable().then(|| add(name))
            })
            .collect();
        let gamma = matches!(spec.fusion, Fusion::LearnableSum(_))
            .then(|| add(format!("{}.gamma", filter.name())));
        let extra = spec
            .extra
            .iter()
            .map(|e| {
                store.add(
                    format!("{}.{}", filter.name(), e.name),
                    e.init.clone(),
                    ParamGroup::Filter,
                )
            })
            .collect();
        Self {
            filter,
            spec,
            handles: ParamHandles {
                theta,
                gamma,
                extra,
            },
        }
    }

    /// The wrapped filter.
    pub fn filter(&self) -> &Arc<dyn SpectralFilter> {
        &self.filter
    }

    /// The bound spec.
    pub fn spec(&self) -> &FilterSpec {
        &self.spec
    }

    /// Resolves the current coefficient values from the store.
    pub fn coeff_values(&self, store: &ParamStore) -> CoeffValues {
        let values: Vec<&DMat> = self.handles.coeff_ids().map(|id| store.value(id)).collect();
        CoeffValues::resolve(&self.spec, &values)
    }

    /// Current frequency-response parameters (for spectral analysis of a
    /// trained filter).
    pub fn response_params(&self, store: &ParamStore) -> ResponseParams {
        let mut rp = self.coeff_values(store).to_response_params();
        rp.extra = self
            .handles
            .extra
            .iter()
            .map(|&id| store.value(id).data().to_vec())
            .collect();
        rp
    }

    /// Output feature width for input width `f` (grows under concat fusion).
    pub fn out_features(&self, f: usize) -> usize {
        match self.spec.fusion {
            Fusion::Concat => f * self.spec.channels.len(),
            _ => f,
        }
    }

    // ----- full-batch -------------------------------------------------------

    /// Applies the filter on a full-batch tape: differentiably on a
    /// training tape, and on an eval tape as its folded output, keeping no
    /// term.
    pub fn apply_fb(
        &self,
        tape: &mut Tape,
        pm: &Arc<PropMatrix>,
        x: NodeId,
        store: &ParamStore,
    ) -> NodeId {
        if let Some(node) = self
            .filter
            .apply_symbolic(tape, pm, x, &self.handles, store)
        {
            return node;
        }
        debug_assert!(
            self.spec.extra.is_empty(),
            "filters with basis parameters must implement apply_symbolic"
        );
        let ctx = PropCtx::forward(pm);
        let cv = self.coeff_values(store);
        if !tape.training() {
            let _sp = obs::span!("filter.propagate");
            let value = filter_output(self.filter.as_ref(), &self.spec, &ctx, tape.value(x), &cv);
            return tape.constant(value);
        }
        let inputs = std::iter::once(x)
            .chain(self.coeff_inputs(tape, store))
            .collect();
        let terms = {
            let _sp = obs::span!("filter.propagate");
            self.filter.propagate(&ctx, tape.value(x))
        };
        debug_assert_terms_match(&self.spec, &terms);
        let value = {
            let _sp = obs::span!("filter.combine");
            combine(&self.spec, &terms, Rows::All, &cv)
        };
        let op = FbFilterOp {
            filter: Arc::clone(&self.filter),
            pm: Arc::clone(pm),
            spec: self.spec.clone(),
            terms,
        };
        tape.custom(inputs, value, Box::new(op))
    }

    /// The learnable coefficient parameters as tape nodes, in
    /// [`ParamHandles::coeff_ids`] order: the inputs of the mini-batch node,
    /// and of the full-batch op after `x`.
    fn coeff_inputs(&self, tape: &mut Tape, store: &ParamStore) -> Vec<NodeId> {
        self.handles
            .coeff_ids()
            .map(|id| tape.param(store, id))
            .collect()
    }

    // ----- mini-batch -------------------------------------------------------

    /// Mini-batch precomputation: materializes the basis terms on raw
    /// attributes (the CPU stage of the decoupled scheme). The returned
    /// matrices are what the scheme keeps resident in RAM.
    pub fn precompute(&self, pm: &PropMatrix, x: &DMat) -> Vec<Vec<DMat>> {
        let ctx = PropCtx::forward(pm);
        let terms = self.filter.propagate(&ctx, x);
        debug_assert_terms_match(&self.spec, &terms);
        terms
    }

    /// Recombines gathered batch rows of the precomputed terms with the
    /// current learnable coefficients, on the tape (the GPU stage): one
    /// node over the coefficient parameters, whose value is [`combine`]'s
    /// and whose backward is `coeff_grads`. A training tape keeps the
    /// terms for that backward — owned ones move there, borrowed ones are
    /// copied; an eval tape keeps the combined rows alone.
    pub fn combine_batch<'a>(
        &self,
        tape: &mut Tape,
        batch_terms: impl Into<Cow<'a, [Vec<DMat>]>>,
        store: &ParamStore,
    ) -> NodeId {
        let terms = batch_terms.into();
        assert_eq!(
            terms.len(),
            self.spec.channels.len(),
            "terms/channels mismatch"
        );
        let cv = self.coeff_values(store);
        let value = combine(&self.spec, &terms, Rows::All, &cv);
        if !tape.training() {
            return tape.constant(value);
        }
        let inputs = self.coeff_inputs(tape, store);
        let op = BatchCombineOp {
            spec: self.spec.clone(),
            terms: terms.into_owned(),
        };
        tape.custom(inputs, value, Box::new(op))
    }

    /// Bytes of the precomputed term matrices — the RAM footprint the
    /// mini-batch scheme trades for device memory.
    pub fn precompute_bytes(terms: &[Vec<DMat>]) -> usize {
        terms.iter().flatten().map(DMat::nbytes).sum()
    }
}

fn debug_assert_terms_match(spec: &FilterSpec, terms: &[Vec<DMat>]) {
    debug_assert_eq!(terms.len(), spec.channels.len(), "channel count mismatch");
    for (ch, t) in spec.channels.iter().zip(terms) {
        debug_assert_eq!(
            t.len(),
            ch.theta.num_terms(),
            "term count mismatch in channel {}",
            ch.name
        );
    }
}

/// The generic full-batch filter op (see module docs).
struct FbFilterOp {
    filter: Arc<dyn SpectralFilter>,
    pm: Arc<PropMatrix>,
    spec: FilterSpec,
    /// Basis terms saved for the backward pass.
    terms: Vec<Vec<DMat>>,
}

impl CustomOp for FbFilterOp {
    fn name(&self) -> &str {
        self.filter.name()
    }

    fn backward(&self, inputs: &[&DMat], gout: &DMat) -> Vec<Option<DMat>> {
        // Inputs: x, then the learnable coefficients (`coeff_inputs`).
        let cv = CoeffValues::resolve(&self.spec, &inputs[1..]);
        let coeffs = coeff_grads(&self.spec, &self.terms, &cv, gout);
        // x gradient: adjoint propagation of the (per-channel) output grad,
        // folded with the same coefficients.
        let ctx = PropCtx::adjoint(&self.pm);
        let dx = input_grad(self.filter.as_ref(), &self.spec, &ctx, gout, &cv);
        std::iter::once(dx).chain(coeffs).map(Some).collect()
    }
}

/// The mini-batch combination node ([`FilterModule::combine_batch`]); its
/// inputs are the learnable coefficient parameters.
struct BatchCombineOp {
    spec: FilterSpec,
    /// The batch rows of every term, saved for the backward pass.
    terms: Vec<Vec<DMat>>,
}

impl CustomOp for BatchCombineOp {
    fn name(&self) -> &str {
        "combine_batch"
    }

    fn backward(&self, inputs: &[&DMat], gout: &DMat) -> Vec<Option<DMat>> {
        let cv = CoeffValues::resolve(&self.spec, inputs);
        let grads = coeff_grads(&self.spec, &self.terms, &cv, gout);
        grads.into_iter().map(Some).collect()
    }
}

#[cfg(test)]
#[path = "../tests/support/combine_ref.rs"]
mod combine_ref;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::make_filter;
    use sgnn_dense::rng as drng;
    use sgnn_sparse::Graph;

    /// A ring of 8 nodes with two chords.
    fn graph() -> Graph {
        let ring = (0..8).map(|i| (i, (i + 1) % 8));
        Graph::from_edges(8, &ring.chain([(0, 4), (2, 6)]).collect::<Vec<_>>())
    }

    fn setup() -> (Arc<PropMatrix>, DMat) {
        let pm = Arc::new(PropMatrix::new(&graph(), 0.5));
        let x = drng::randn_mat(8, 3, 1.0, &mut drng::seeded(3));
        (pm, x)
    }

    #[test]
    fn fb_and_mb_paths_agree_at_init() {
        let (pm, x) = setup();
        for filter in [crate::ppr(4, 0.3), make_filter("Chebyshev", 4).unwrap()] {
            let mut store = ParamStore::new();
            let module = FilterModule::new(Arc::clone(&filter), x.cols(), &mut store);
            // FB path.
            let mut tape = Tape::new(false, 0);
            let xn = tape.constant(x.clone());
            let fb = module.apply_fb(&mut tape, &pm, xn, &store);
            // MB path with full "batch".
            let terms = module.precompute(&pm, &x);
            let mut tape2 = Tape::new(false, 0);
            let mb = module.combine_batch(&mut tape2, &terms, &store);
            let (a, b) = (tape.value(fb), tape2.value(mb));
            assert_eq!(a.shape(), b.shape());
            for (u, v) in a.data().iter().zip(b.data()) {
                assert!((u - v).abs() < 1e-4, "{}: {u} vs {v}", filter.name());
            }
        }
    }

    /// `combine_batch`'s one node against the chain of tape nodes it stands
    /// for (`tests/support/combine_ref.rs`), on a training tape, for every
    /// filter the mini-batch scheme runs — fixed, shared, transformed and
    /// per-feature θ, fixed and learnable γ — with trained-looking (random)
    /// parameters, at two batch shapes: the value and every parameter
    /// gradient, bit for bit; and
    /// `combine` over the ids of the full terms gives the same value. One
    /// term row is `−0.0`, and a second pass takes every parameter's
    /// magnitude: a product-first sum over it stays `−0.0`, one begun from
    /// `+0.0` does not, so the sign shows the arithmetic.
    #[test]
    fn combine_batch_matches_the_tape_chain() {
        let (pm, x) = setup();
        let mut kinds = [0; 4];
        let mut learnable_gamma = 0;
        for (name, positive) in crate::all_filter_names()
            .into_iter()
            .flat_map(|n| [(n, false), (n, true)])
        {
            let (module, mut store) = random_module(name, x.cols(), 17);
            if !module.filter().mb_compatible() {
                continue;
            }
            if positive {
                for id in store.ids().collect::<Vec<_>>() {
                    *store.value_mut(id) = store.value(id).map(f32::abs);
                }
            }
            let spec = module.spec();
            for ch in &spec.channels {
                kinds[match ch.theta {
                    ThetaSpec::Fixed(_) => 0,
                    ThetaSpec::Learnable { .. } => 1,
                    ThetaSpec::Transformed { .. } => 2,
                    ThetaSpec::PerFeature { .. } => 3,
                }] += 1;
            }
            learnable_gamma += matches!(spec.fusion, Fusion::LearnableSum(_)) as usize;
            let mut terms = module.precompute(&pm, &x);
            terms
                .iter_mut()
                .flatten()
                .for_each(|t| t.row_mut(3).fill(-0.0));
            for ids in [&[7u32, 0, 3, 3, 5, 0, 1][..], &[6, 2, 3]] {
                let case = format!("{name}, positive {positive}, {} rows", ids.len());
                let gathered: Vec<Vec<DMat>> = terms
                    .iter()
                    .map(|ch| ch.iter().map(|t| t.gather_rows(ids)).collect())
                    .collect();
                let gout = drng::randn_mat(
                    ids.len(),
                    module.out_features(x.cols()),
                    1.0,
                    &mut drng::seeded(ids.len() as u64),
                );
                let mut run = |chain: bool| {
                    store.zero_grads();
                    let mut tape = Tape::new(true, 0);
                    let out = if chain {
                        let (h, t) = (&module.handles, gathered.clone());
                        combine_ref::combine_chain(&mut tape, spec, h, t, &store)
                    } else {
                        module.combine_batch(&mut tape, &gathered, &store)
                    };
                    let g = tape.constant(gout.clone());
                    let weighted = tape.hadamard(out, g);
                    let loss = tape.sum(weighted);
                    let value = bits(tape.value(out));
                    tape.backward(loss, &mut store);
                    let grads: Vec<_> = store.ids().map(|id| bits(store.grad(id))).collect();
                    (value, grads)
                };
                let (want, got) = (run(true), run(false));
                assert_eq!(got.0, want.0, "value, {case}");
                assert_eq!(got.1, want.1, "gradients, {case}");
                let cv = module.coeff_values(&store);
                let rows = combine(spec, &terms, Rows::Ids(ids), &cv);
                assert_eq!(bits(&rows), want.0, "combine over ids, {case}");
            }
        }
        assert!(kinds.iter().all(|&n| n > 0), "θ schemes: {kinds:?}");
        assert!(learnable_gamma > 0, "a mini-batch filter learns γ");
    }

    /// A module over every parameter drawn at random: trained-looking
    /// shared, transformed and per-feature θ and γ.
    fn random_module(name: &str, f: usize, seed: u64) -> (FilterModule, ParamStore) {
        let filter = crate::make_filter(name, 4).unwrap();
        let mut store = ParamStore::new();
        let module = FilterModule::new(filter, f, &mut store);
        let mut rng = drng::seeded(seed);
        for id in store.ids().collect::<Vec<_>>() {
            let (r, c) = store.value(id).shape();
            *store.value_mut(id) = drng::randn_mat(r, c, 1.0, &mut rng);
        }
        (module, store)
    }

    /// Fold ≡ Keep + combine: for every registry filter — all three
    /// fusions, shared/transformed/per-feature θ — over the in-memory and
    /// the sharded operator, forward and adjoint, folding the terms as the
    /// recurrence writes them gives `combine`'s bits over the kept
    /// terms, with the same hop count.
    #[test]
    fn fold_matches_keep_then_combine_for_every_filter() {
        let (_, x) = setup();
        let g = graph();
        let mut path = std::env::temp_dir();
        path.push(format!("sgnn-core-fold-{}", std::process::id()));
        sgnn_sparse::shard::write_shards_from_csr(g.adjacency(), &path, 8, true).unwrap();
        // ρ ≠ 1/2, so the adjoint operator differs from the forward one.
        let rho = 0.8;
        let sharded = sgnn_sparse::ShardedCsr::open(&path, true).unwrap();
        let pms = [
            PropMatrix::new(&g, rho),
            PropMatrix::from_sharded(Arc::new(sharded), rho),
        ];
        std::fs::remove_file(&path).unwrap();
        let mut fusions = [0; 3];
        for name in crate::all_filter_names() {
            let (module, store) = random_module(name, x.cols(), 23);
            let (filter, spec) = (module.filter().as_ref(), module.spec());
            let cv = module.coeff_values(&store);
            fusions[match spec.fusion {
                Fusion::FixedSum(_) => 0,
                Fusion::LearnableSum(_) => 1,
                Fusion::Concat => 2,
            }] += 1;
            for pm in &pms {
                // Forward first: OptBasis's adjoint replays its forward.
                for ctxs in [
                    [PropCtx::forward(pm), PropCtx::forward(pm)],
                    [PropCtx::adjoint(pm), PropCtx::adjoint(pm)],
                ] {
                    let terms = filter.propagate(&ctxs[0], &x);
                    let want = combine(spec, &terms, Rows::All, &cv);
                    let got = filter_output(filter, spec, &ctxs[1], &x, &cv);
                    let case = format!("{name}: {:?}, sharded {}", ctxs[0].dir(), pm.is_sharded());
                    assert_eq!(got.shape(), want.shape(), "{case}");
                    assert_eq!(bits(&got), bits(&want), "{case}");
                    assert_eq!(ctxs[1].hops_used(), ctxs[0].hops_used(), "{case}");
                }
            }
        }
        assert!(
            fusions.iter().all(|&n| n > 0),
            "fusions covered: {fusions:?}"
        );
    }

    fn bits(m: &DMat) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every bit of a coefficient set: each channel's θ, then γ.
    fn cv_bits(cv: &CoeffValues) -> Vec<Vec<u32>> {
        let f = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
        let theta = cv.theta.iter().map(|t| match t {
            ThetaValues::Shared(c) => f(c),
            ThetaValues::PerFeature(m) => f(m.data()),
        });
        theta.chain([f(&cv.gamma)]).collect()
    }

    /// One resolver, three lookups: for every registry filter — shared,
    /// transformed and per-feature θ — the coefficients read from a store at
    /// init, from the tape nodes' parameter inputs and from the spec's own
    /// inits are the same bits.
    #[test]
    fn coefficients_resolve_alike_from_store_inputs_and_spec() {
        let (_, x) = setup();
        let mut schemes = [0; 4];
        for name in crate::all_filter_names() {
            let mut store = ParamStore::new();
            let filter = crate::make_filter(name, 4).unwrap();
            let module = FilterModule::new(filter, x.cols(), &mut store);
            let spec = module.spec();
            let mut tape = Tape::new(false, 0);
            let inputs = module.coeff_inputs(&mut tape, &store);
            let values: Vec<&DMat> = inputs.iter().map(|&n| tape.value(n)).collect();
            let from_store = cv_bits(&module.coeff_values(&store));
            let from_inputs = cv_bits(&CoeffValues::resolve(spec, &values));
            let from_spec = cv_bits(&CoeffValues::resolve(spec, &spec.initial_params()));
            assert_eq!(from_inputs, from_store, "{name}");
            assert_eq!(from_spec, from_store, "{name}");
            for ch in &spec.channels {
                schemes[match ch.theta {
                    ThetaSpec::Fixed(_) => 0,
                    ThetaSpec::Learnable { .. } => 1,
                    ThetaSpec::Transformed { .. } => 2,
                    ThetaSpec::PerFeature { .. } => 3,
                }] += 1;
            }
        }
        assert!(schemes.iter().all(|&n| n > 0), "θ schemes: {schemes:?}");
    }

    /// A module's response parameters at init are `ResponseParams::initial`
    /// of its spec, and `to_response_params` gives their θ and γ (`{:?}`
    /// prints every `f32` exactly).
    #[test]
    fn response_params_at_init_are_the_initial_ones() {
        for name in crate::all_filter_names() {
            let mut store = ParamStore::new();
            let module = FilterModule::new(crate::make_filter(name, 4).unwrap(), 3, &mut store);
            let want = ResponseParams::initial(module.spec());
            let got = module.response_params(&store);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name}");
            let got = module.coeff_values(&store).to_response_params();
            let (got, want) = ((got.gamma, got.theta), (want.gamma, want.theta));
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name}");
        }
    }

    /// `combine` over ids `0..n` is `combine` over all rows, bit for bit,
    /// for every registry filter with trained-looking coefficients; an
    /// empty id list gives no rows, and a repeated id repeats its row.
    #[test]
    fn combine_over_every_id_matches_all_rows() {
        let (pm, x) = setup();
        let every: Vec<u32> = (0..x.rows() as u32).collect();
        for name in crate::all_filter_names() {
            let (module, store) = random_module(name, x.cols(), 31);
            let spec = module.spec();
            let terms = module.filter().propagate(&PropCtx::forward(&pm), &x);
            let cv = module.coeff_values(&store);
            let all = combine(spec, &terms, Rows::All, &cv);
            let ids = combine(spec, &terms, Rows::Ids(&every), &cv);
            assert_eq!(ids.shape(), all.shape(), "{name}");
            assert_eq!(bits(&ids), bits(&all), "{name}");
            let none = combine(spec, &terms, Rows::Ids(&[]), &cv);
            assert_eq!(none.shape(), (0, all.cols()), "{name}");
            let twice = combine(spec, &terms, Rows::Ids(&[5, 5]), &cv);
            assert_eq!(bits(&twice), bits(&all.gather_rows(&[5, 5])), "{name}");
        }
    }

    /// An eval tape is forward-only, so the full-batch filter keeps no
    /// term there: it records one node, a constant holding the folded
    /// output with the training tape's value bits, and no parameter.
    #[test]
    fn eval_fb_pass_keeps_no_terms() {
        let (pm, x) = setup();
        for name in crate::all_filter_names() {
            let (module, store) = random_module(name, x.cols(), 41);
            if !module.spec().extra.is_empty() {
                continue; // built from primitive tape ops
            }
            let run = |training: bool| {
                let mut tape = Tape::new(training, 0);
                let xn = tape.constant(x.clone());
                let out = module.apply_fb(&mut tape, &pm, xn, &store);
                (bits(tape.value(out)), out - xn)
            };
            let (eval, train) = (run(false), run(true));
            assert_eq!(eval.0, train.0, "{name}");
            assert_eq!(eval.1, 1, "{name}: the output alone");
            let coeffs = module.spec().initial_params().len();
            assert_eq!(train.1, 1 + coeffs, "{name}: θ/γ inputs, then the op");
        }
    }

    /// Each hand-written symbolic filter states what its tape holds:
    /// `symbolic_nodes` counts the values `apply_symbolic` records beside
    /// its parameter nodes, at several orders and widths.
    #[test]
    fn symbolic_nodes_count_what_apply_symbolic_records() {
        let (pm, x) = setup();
        let mut symbolic = 0;
        for name in crate::all_filter_names() {
            for hops in [1, 2, 5] {
                let filter = crate::make_filter(name, hops).unwrap();
                let Some((signals, floats)) = filter.symbolic_nodes(x.cols()) else {
                    continue;
                };
                symbolic += (hops == 1) as usize;
                let mut store = ParamStore::new();
                let module = FilterModule::new(filter, x.cols(), &mut store);
                let mut tape = Tape::new(true, 0);
                let xn = tape.constant(x.clone());
                let out = module.apply_fb(&mut tape, &pm, xn, &store);
                let recorded: usize = (xn + 1..=out).map(|id| tape.value(id).len()).sum();
                let params: usize = store.ids().map(|id| store.value(id).len()).sum();
                let want = signals * x.len() + floats + params;
                assert_eq!(recorded, want, "{name}, K = {hops}");
            }
        }
        assert_eq!(symbolic, 3, "VarLinear, Favard and AdaGNN");
    }

    /// A concat filter's adjoint runs each channel's recurrence once, over
    /// that channel's gradient block: as many hops as the forward.
    #[test]
    fn concat_adjoint_runs_each_channel_once() {
        let (pm, x) = setup();
        let mut concat = 0;
        for name in crate::all_filter_names() {
            let (module, store) = random_module(name, x.cols(), 5);
            let spec = module.spec();
            if !matches!(spec.fusion, Fusion::Concat) {
                continue;
            }
            concat += 1;
            let fwd = PropCtx::forward(&pm);
            let _ = module.filter().propagate(&fwd, &x);
            let gout = drng::randn_mat(
                x.rows(),
                module.out_features(x.cols()),
                1.0,
                &mut drng::seeded(6),
            );
            let adj = PropCtx::adjoint(&pm);
            let cv = module.coeff_values(&store);
            let dx = input_grad(module.filter().as_ref(), spec, &adj, &gout, &cv);
            assert_eq!(dx.shape(), x.shape(), "{name}");
            assert_eq!(adj.hops_used(), fwd.hops_used(), "{name}");
        }
        assert!(concat > 0, "the registry has a concat filter");
    }

    #[test]
    fn fb_gradients_match_finite_differences() {
        let (pm, x) = setup();
        let filter = make_filter("Chebyshev", 3).unwrap();
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            drng::glorot(3, 3, &mut drng::seeded(9)),
            ParamGroup::Network,
        );
        let module = FilterModule::new(Arc::clone(&filter), 3, &mut store);
        let theta = module.handles.theta[0].unwrap();
        let target = drng::randn_mat(8, 3, 1.0, &mut drng::seeded(4));

        let build = |store: &ParamStore| {
            let mut tape = Tape::new(true, 0);
            let xn = tape.constant(x.clone());
            let wn = tape.param(store, w);
            let h = tape.matmul(xn, wn);
            let f = module.apply_fb(&mut tape, &pm, h, store);
            let loss = tape.mse(f, target.clone());
            (tape, loss)
        };
        store.zero_grads();
        let (mut tape, loss) = build(&store);
        tape.backward(loss, &mut store);
        let report = sgnn_autograd::gradcheck::check_grads(
            &mut store,
            &[w, theta],
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
    fn fixed_filter_backward_reaches_input_weights() {
        let (pm, x) = setup();
        let filter = make_filter("Linear", 1).unwrap();
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            drng::glorot(3, 2, &mut drng::seeded(1)),
            ParamGroup::Network,
        );
        let module = FilterModule::new(Arc::clone(&filter), 2, &mut store);
        let mut tape = Tape::new(true, 0);
        let xn = tape.constant(x.clone());
        let wn = tape.param(&store, w);
        let h = tape.matmul(xn, wn);
        let f = module.apply_fb(&mut tape, &pm, h, &store);
        let loss = tape.sum(f);
        tape.backward(loss, &mut store);
        assert!(
            store.grad(w).norm() > 0.0,
            "gradient must pass through the fixed filter"
        );
    }
}
