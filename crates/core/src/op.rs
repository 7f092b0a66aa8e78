//! Differentiable application of spectral filters.
//!
//! [`FilterModule`] owns a filter's trainable parameters and provides the two
//! application paths of the benchmark:
//!
//! * **Full-batch** ([`FilterModule::apply_fb`]) — a single generic
//!   [`CustomOp`] whose forward materializes the basis terms and combines
//!   them with the current `θ`/`γ`, and whose backward (a) takes inner
//!   products of the saved terms for `θ`/`γ` gradients and (b) re-runs the
//!   recurrence on the **transposed** operator to push the gradient through
//!   the graph computation (valid because every basis term is linear in the
//!   input signal), folding each adjoint term into `Σ_k θ_k·T_k(Ãᵀ)·g` as
//!   it is made ([`fold_eager`]). Filters whose basis itself contains
//!   trainable parameters (GIN's `VarLinear`, `AdaGNN`, `Favard`) override
//!   [`SpectralFilter::apply_symbolic`] and build their recurrence from
//!   primitive tape ops instead, getting exact gradients.
//! * **Mini-batch** ([`FilterModule::precompute`] +
//!   [`FilterModule::combine_batch`]) — the paper's decoupled scheme: basis
//!   terms are computed once on raw attributes ("CPU"), stored in RAM, and
//!   each training step recombines gathered batch rows with the learnable
//!   coefficients on the tape ("GPU").

use std::borrow::Cow;
use std::sync::Arc;

use sgnn_autograd::param::ParamGroup;
use sgnn_autograd::{CustomOp, NodeId, ParamId, ParamStore, Tape};
use sgnn_dense::runtime::run_map;
use sgnn_dense::{matmul, obs, DMat, FirstTerm};
use sgnn_sparse::PropMatrix;

use crate::filter::{ResponseParams, SpectralFilter};
use crate::spec::{FilterSpec, Fusion, PropCtx, ThetaSpec};
use crate::terms::{fold_terms, Policy, TermStore};

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
    pub theta: Vec<ThetaValues>,
    pub gamma: Vec<f32>,
}

impl CoeffValues {
    /// Values at initialization, straight from the spec.
    pub fn initial(spec: &FilterSpec) -> Self {
        let theta = spec
            .channels
            .iter()
            .map(|c| match &c.theta {
                ThetaSpec::PerFeature { init } => ThetaValues::PerFeature(init.clone()),
                other => ThetaValues::Shared(other.initial_coefficients()),
            })
            .collect();
        let gamma = match &spec.fusion {
            Fusion::FixedSum(w) | Fusion::LearnableSum(w) => w.clone(),
            Fusion::Concat => vec![1.0; spec.channels.len()],
        };
        Self { theta, gamma }
    }

    /// Per-channel effective coefficients averaged over features — the form
    /// consumed by frequency-response evaluation.
    pub fn to_response_params(&self) -> ResponseParams {
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

/// Combines one channel's terms with its coefficient values — per element
/// the arithmetic of [`fold_terms`], which folds per-feature θ here too.
pub fn combine_channel(terms: &[DMat], theta: &ThetaValues) -> DMat {
    match theta {
        ThetaValues::Shared(c) => DMat::lin_comb(terms, c, FirstTerm::Product),
        ThetaValues::PerFeature(m) => {
            assert_eq!(m.rows(), terms.len(), "one coefficient row per term");
            let mut acc = None;
            fold_terms(&mut acc, 0, &terms.iter().collect::<Vec<_>>(), theta);
            acc.expect("a channel has at least one term")
        }
    }
}

/// Eagerly combines all channels' terms into the filter output.
///
/// Channels are independent, so multi-channel filter banks combine across
/// the worker pool (single-channel filters take the serial fallback).
pub fn combine_eager(spec: &FilterSpec, terms: &[Vec<DMat>], cv: &CoeffValues) -> DMat {
    assert_eq!(
        terms.len(),
        spec.channels.len(),
        "one term group per channel"
    );
    let outs: Vec<DMat> = run_map(terms.len(), |q| combine_channel(&terms[q], &cv.theta[q]));
    match &spec.fusion {
        Fusion::FixedSum(_) | Fusion::LearnableSum(_) => {
            DMat::lin_comb(&outs, &cv.gamma, FirstTerm::Product)
        }
        Fusion::Concat => {
            let refs: Vec<&DMat> = outs.iter().collect();
            DMat::hcat(&refs)
        }
    }
}

/// `combine_eager(spec, &filter.propagate(ctx, x), cv)`, bit for bit and with
/// the same hops, without materializing the terms: each channel's terms are
/// folded as its recurrence writes them, so only the recurrence's window is
/// live. Concat channels run one by one, the others skipped.
pub fn fold_eager(
    filter: &dyn SpectralFilter,
    spec: &FilterSpec,
    ctx: &PropCtx<'_>,
    x: &DMat,
    cv: &CoeffValues,
) -> DMat {
    match &spec.fusion {
        Fusion::FixedSum(_) | Fusion::LearnableSum(_) => {
            let outs = fold_channels(filter, ctx, x, cv, None);
            DMat::lin_comb(&outs, &cv.gamma, FirstTerm::Product)
        }
        Fusion::Concat => {
            let outs = run_map(spec.channels.len(), |q| {
                fold_channels(filter, ctx, x, cv, Some(q)).swap_remove(0)
            });
            let refs: Vec<&DMat> = outs.iter().collect();
            DMat::hcat(&refs)
        }
    }
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
                let gq = channel_block(gout, q, spec.channels.len());
                fold_channels(filter, ctx, &gq, cv, Some(q)).swap_remove(0)
            });
            let mut parts = parts.into_iter();
            let mut acc = parts.next().expect("at least one channel");
            for part in parts {
                acc.add_assign_mat(&part);
            }
            acc
        }
        _ => fold_eager(filter, spec, ctx, gout, cv),
    }
}

/// Column block `q` of `q_count` equal blocks of `m`, copied out.
fn channel_block(m: &DMat, q: usize, q_count: usize) -> DMat {
    let fw = m.cols() / q_count;
    let mut g = DMat::scratch(m.rows(), fw);
    for r in 0..m.rows() {
        g.row_mut(r)
            .copy_from_slice(&m.row(r)[q * fw..(q + 1) * fw]);
    }
    g
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

/// A filter bound to its trainable parameters.
pub struct FilterModule {
    filter: Arc<dyn SpectralFilter>,
    spec: FilterSpec,
    handles: ParamHandles,
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
        let mut theta = Vec::with_capacity(spec.channels.len());
        for ch in &spec.channels {
            let id = match &ch.theta {
                ThetaSpec::Fixed(_) => None,
                ThetaSpec::Learnable { init } | ThetaSpec::Transformed { init, .. } => {
                    Some(store.add(
                        format!("{}.{}.theta", filter.name(), ch.name),
                        DMat::from_vec(init.len(), 1, init.clone()),
                        ParamGroup::Filter,
                    ))
                }
                ThetaSpec::PerFeature { init } => Some(store.add(
                    format!("{}.{}.theta", filter.name(), ch.name),
                    init.clone(),
                    ParamGroup::Filter,
                )),
            };
            theta.push(id);
        }
        let gamma = match &spec.fusion {
            Fusion::LearnableSum(init) => Some(store.add(
                format!("{}.gamma", filter.name()),
                DMat::from_vec(init.len(), 1, init.clone()),
                ParamGroup::Filter,
            )),
            _ => None,
        };
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

    /// Parameter handles (for hyperparameter groups, SPSA, inspection).
    pub fn handles(&self) -> &ParamHandles {
        &self.handles
    }

    /// Reads the current coefficient values from the store.
    pub fn coeff_values(&self, store: &ParamStore) -> CoeffValues {
        let theta = self
            .spec
            .channels
            .iter()
            .zip(&self.handles.theta)
            .map(|(ch, id)| match (&ch.theta, id) {
                (ThetaSpec::Fixed(c), _) => ThetaValues::Shared(c.clone()),
                (ThetaSpec::Learnable { .. }, Some(pid)) => {
                    ThetaValues::Shared(store.value(*pid).data().to_vec())
                }
                (ThetaSpec::Transformed { transform, .. }, Some(pid)) => {
                    ThetaValues::Shared(matmul::matmul(transform, store.value(*pid)).into_vec())
                }
                (ThetaSpec::PerFeature { .. }, Some(pid)) => {
                    ThetaValues::PerFeature(store.value(*pid).clone())
                }
                _ => unreachable!("learnable channel without parameter"),
            })
            .collect();
        let gamma = match (&self.spec.fusion, &self.handles.gamma) {
            (Fusion::FixedSum(w), _) => w.clone(),
            (Fusion::LearnableSum(_), Some(pid)) => store.value(*pid).data().to_vec(),
            (Fusion::Concat, _) => vec![1.0; self.spec.channels.len()],
            _ => unreachable!("learnable fusion without parameter"),
        };
        CoeffValues { theta, gamma }
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

    /// Applies the filter differentiably on a full-batch tape.
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
        // Declare inputs: x, then learnable θ per channel, then γ.
        let mut inputs = vec![x];
        let mut theta_slots = Vec::with_capacity(self.spec.channels.len());
        for id in &self.handles.theta {
            theta_slots.push(id.map(|pid| {
                let node = tape.param(store, pid);
                inputs.push(node);
                inputs.len() - 1
            }));
        }
        let gamma_slot = self.handles.gamma.map(|pid| {
            let node = tape.param(store, pid);
            inputs.push(node);
            inputs.len() - 1
        });
        // Forward.
        let ctx = PropCtx::forward(pm);
        let terms = {
            let _sp = obs::span!("filter.propagate");
            self.filter.propagate(&ctx, tape.value(x))
        };
        debug_assert_terms_match(&self.spec, &terms);
        let cv = self.coeff_values(store);
        let value = {
            let _sp = obs::span!("filter.combine");
            combine_eager(&self.spec, &terms, &cv)
        };
        let op = FbFilterOp {
            filter: Arc::clone(&self.filter),
            pm: Arc::clone(pm),
            spec: self.spec.clone(),
            terms,
            theta_slots,
            gamma_slot,
        };
        tape.custom(inputs, value, Box::new(op))
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
    /// current learnable coefficients, on the tape (the GPU stage). Owned
    /// terms move onto the tape as its constants; borrowed ones are copied.
    pub fn combine_batch<'a>(
        &self,
        tape: &mut Tape,
        batch_terms: impl Into<Cow<'a, [Vec<DMat>]>>,
        store: &ParamStore,
    ) -> NodeId {
        let batch_terms = batch_terms.into().into_owned();
        assert_eq!(
            batch_terms.len(),
            self.spec.channels.len(),
            "terms/channels mismatch"
        );
        let mut channel_outs = Vec::with_capacity(batch_terms.len());
        for ((ch, terms), theta_id) in self
            .spec
            .channels
            .iter()
            .zip(batch_terms)
            .zip(&self.handles.theta)
        {
            let term_nodes: Vec<NodeId> = terms.into_iter().map(|t| tape.constant(t)).collect();
            let out = match (&ch.theta, theta_id) {
                (ThetaSpec::Fixed(c), _) => {
                    let coeffs = tape.constant(DMat::from_vec(c.len(), 1, c.clone()));
                    tape.lin_comb(&term_nodes, coeffs)
                }
                (ThetaSpec::Learnable { .. }, Some(pid)) => {
                    let theta = tape.param(store, *pid);
                    tape.lin_comb(&term_nodes, theta)
                }
                (ThetaSpec::Transformed { transform, .. }, Some(pid)) => {
                    let theta = tape.param(store, *pid);
                    let m = tape.constant(transform.clone());
                    let coeffs = tape.matmul(m, theta);
                    tape.lin_comb(&term_nodes, coeffs)
                }
                (ThetaSpec::PerFeature { .. }, Some(pid)) => {
                    let theta = tape.param(store, *pid);
                    let mut acc: Option<NodeId> = None;
                    for (k, &tn) in term_nodes.iter().enumerate() {
                        let row = tape.gather_rows(theta, Arc::new(vec![k as u32]));
                        let scaled = tape.col_scale(tn, row);
                        acc = Some(match acc {
                            None => scaled,
                            Some(a) => tape.add(a, scaled),
                        });
                    }
                    acc.expect("per-feature channel with no terms")
                }
                _ => unreachable!("learnable channel without parameter"),
            };
            channel_outs.push(out);
        }
        match &self.spec.fusion {
            Fusion::FixedSum(w) => {
                let coeffs = tape.constant(DMat::from_vec(w.len(), 1, w.clone()));
                tape.lin_comb(&channel_outs, coeffs)
            }
            Fusion::LearnableSum(_) => {
                let gamma = tape.param(store, self.handles.gamma.expect("gamma param"));
                tape.lin_comb(&channel_outs, gamma)
            }
            Fusion::Concat => tape.hcat(&channel_outs),
        }
    }

    /// Evaluation-mode [`combine_batch`](Self::combine_batch) of the rows
    /// `ids` of the full term matrices `terms`: the same values, bit for
    /// bit. Shared coefficients are combined straight from the terms, so no
    /// term is gathered or copied; a filter with per-feature coefficients
    /// gathers its rows and runs `combine_batch` on an eval tape.
    pub fn combine_rows(&self, terms: &[Vec<DMat>], ids: &[u32], store: &ParamStore) -> DMat {
        assert_eq!(
            terms.len(),
            self.spec.channels.len(),
            "terms/channels mismatch"
        );
        let cv = self.coeff_values(store);
        if cv
            .theta
            .iter()
            .any(|t| matches!(t, ThetaValues::PerFeature(_)))
        {
            let gathered: Vec<Vec<DMat>> = terms
                .iter()
                .map(|ch| ch.iter().map(|t| t.gather_rows(ids)).collect())
                .collect();
            let mut tape = Tape::new(false, 0);
            let out = self.combine_batch(&mut tape, gathered, store);
            return tape.into_value(out);
        }
        // `combine_batch` sums shared coefficients with `Tape::lin_comb`:
        // an FMA chain onto zero.
        let outs: Vec<DMat> = terms
            .iter()
            .zip(&cv.theta)
            .map(|(terms, theta)| match theta {
                ThetaValues::Shared(c) => {
                    DMat::lin_comb_rows(terms, ids, c, FirstTerm::FmaOntoZero)
                }
                ThetaValues::PerFeature(_) => unreachable!("handled above"),
            })
            .collect();
        match &self.spec.fusion {
            Fusion::FixedSum(_) | Fusion::LearnableSum(_) => {
                DMat::lin_comb(&outs, &cv.gamma, FirstTerm::FmaOntoZero)
            }
            Fusion::Concat => {
                let refs: Vec<&DMat> = outs.iter().collect();
                DMat::hcat(&refs)
            }
        }
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
    /// Input-slot index of each channel's θ parameter.
    theta_slots: Vec<Option<usize>>,
    /// Input-slot index of γ.
    gamma_slot: Option<usize>,
}

impl FbFilterOp {
    fn coeff_values(&self, inputs: &[&DMat]) -> CoeffValues {
        let theta = self
            .spec
            .channels
            .iter()
            .zip(&self.theta_slots)
            .map(|(ch, slot)| match (&ch.theta, slot) {
                (ThetaSpec::Fixed(c), _) => ThetaValues::Shared(c.clone()),
                (ThetaSpec::Learnable { .. }, Some(s)) => {
                    ThetaValues::Shared(inputs[*s].data().to_vec())
                }
                (ThetaSpec::Transformed { transform, .. }, Some(s)) => {
                    ThetaValues::Shared(matmul::matmul(transform, inputs[*s]).into_vec())
                }
                (ThetaSpec::PerFeature { .. }, Some(s)) => {
                    ThetaValues::PerFeature(inputs[*s].clone())
                }
                _ => unreachable!(),
            })
            .collect();
        let gamma = match (&self.spec.fusion, self.gamma_slot) {
            (Fusion::FixedSum(w), _) => w.clone(),
            (Fusion::LearnableSum(_), Some(s)) => inputs[s].data().to_vec(),
            (Fusion::Concat, _) => vec![1.0; self.spec.channels.len()],
            _ => unreachable!(),
        };
        CoeffValues { theta, gamma }
    }

    /// The slice of `gout` feeding channel `q`: `gout` itself for sum fusion,
    /// a copy of the channel's column block for concat.
    fn channel_gout<'a>(&self, q: usize, gout: &'a DMat) -> Cow<'a, DMat> {
        match self.spec.fusion {
            Fusion::Concat => Cow::Owned(channel_block(gout, q, self.spec.channels.len())),
            _ => Cow::Borrowed(gout),
        }
    }

    /// `dc_k = γ_q ⟨T_k, g⟩` as a column, one reduction pass for all terms.
    fn shared_theta_grad(terms: &[DMat], gq: &DMat, gamma_q: f32) -> DMat {
        let dc = DMat::dots(terms, gq)
            .into_iter()
            .map(|d| gamma_q * d as f32)
            .collect();
        DMat::from_vec(terms.len(), 1, dc)
    }
}

impl CustomOp for FbFilterOp {
    fn name(&self) -> &str {
        self.filter.name()
    }

    fn saved_bytes(&self) -> usize {
        self.terms.iter().flatten().map(DMat::nbytes).sum()
    }

    fn backward(&self, inputs: &[&DMat], gout: &DMat) -> Vec<Option<DMat>> {
        let cv = self.coeff_values(inputs);
        let mut grads: Vec<Option<DMat>> = vec![None; inputs.len()];

        let theta_span = obs::span!("filter.theta_grad");
        // γ gradient: dγ_q = ⟨channel output, gout⟩.
        if let Some(s) = self.gamma_slot {
            let mut gg = DMat::zeros(self.spec.channels.len(), 1);
            for (q, (terms, th)) in self.terms.iter().zip(&cv.theta).enumerate() {
                let out_q = combine_channel(terms, th);
                gg.set(q, 0, out_q.dot(gout) as f32);
            }
            grads[s] = Some(gg);
        }

        // θ gradients.
        for (q, ((ch, slot), terms)) in self
            .spec
            .channels
            .iter()
            .zip(&self.theta_slots)
            .zip(&self.terms)
            .enumerate()
        {
            let Some(s) = slot else { continue };
            let gq = self.channel_gout(q, gout);
            let gamma_q = cv.gamma[q];
            let grad = match &ch.theta {
                ThetaSpec::Learnable { .. } => Self::shared_theta_grad(terms, &gq, gamma_q),
                ThetaSpec::Transformed { transform, .. } => {
                    // dp = Mᵀ dc.
                    matmul::matmul_at_b(transform, &Self::shared_theta_grad(terms, &gq, gamma_q))
                }
                ThetaSpec::PerFeature { .. } => {
                    let f = gq.cols();
                    let mut g = DMat::zeros(terms.len(), f);
                    for (k, t) in terms.iter().enumerate() {
                        let row = g.row_mut(k);
                        for r in 0..t.rows() {
                            for ((acc, &tv), &gv) in row.iter_mut().zip(t.row(r)).zip(gq.row(r)) {
                                *acc += gamma_q * tv * gv;
                            }
                        }
                    }
                    g
                }
                ThetaSpec::Fixed(_) => unreachable!(),
            };
            grads[*s] = Some(grad);
        }
        drop(theta_span);

        // x gradient: adjoint propagation of the (per-channel) output grad,
        // folded with the same coefficients.
        let ctx = PropCtx::adjoint(&self.pm);
        let dx = input_grad(self.filter.as_ref(), &self.spec, &ctx, gout, &cv);
        grads[0] = Some(dx);
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{Linear, Ppr};
    use crate::variable::Chebyshev;
    use sgnn_dense::rng as drng;
    use sgnn_sparse::Graph;

    fn setup() -> (Arc<PropMatrix>, DMat) {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (0, 4),
                (2, 6),
            ],
        );
        let pm = Arc::new(PropMatrix::new(&g, 0.5));
        let x = drng::randn_mat(8, 3, 1.0, &mut drng::seeded(3));
        (pm, x)
    }

    #[test]
    fn fb_and_mb_paths_agree_at_init() {
        let (pm, x) = setup();
        for filter in [
            Arc::new(Ppr {
                hops: 4,
                alpha: 0.3,
            }) as Arc<dyn SpectralFilter>,
            Arc::new(Chebyshev { hops: 4 }),
        ] {
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

    /// `combine_rows` against `combine_batch` over gathered rows on an eval
    /// tape, bit for bit, for every filter the mini-batch scheme runs:
    /// shared, transformed and per-feature coefficients, every fusion,
    /// trained-looking (random) parameters, ids repeated and out of order.
    #[test]
    fn combine_rows_matches_combine_batch_on_gathered_rows() {
        let (pm, x) = setup();
        let ids = [7u32, 0, 3, 3, 5, 0, 1];
        let bits = |m: &DMat| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for name in crate::all_filter_names() {
            let filter = crate::make_filter(name, 4).unwrap();
            if !filter.mb_compatible() {
                continue;
            }
            let mut store = ParamStore::new();
            let module = FilterModule::new(filter, x.cols(), &mut store);
            let mut rng = drng::seeded(17);
            for id in store.ids().collect::<Vec<_>>() {
                let (r, c) = store.value(id).shape();
                *store.value_mut(id) = drng::randn_mat(r, c, 1.0, &mut rng);
            }
            let terms = module.precompute(&pm, &x);
            let gathered: Vec<Vec<DMat>> = terms
                .iter()
                .map(|ch| ch.iter().map(|t| t.gather_rows(&ids)).collect())
                .collect();
            let mut tape = Tape::new(false, 0);
            let want = module.combine_batch(&mut tape, &gathered, &store);
            let got = module.combine_rows(&terms, &ids, &store);
            assert_eq!(bits(&got), bits(tape.value(want)), "{name}");
            assert_eq!(got.shape(), tape.value(want).shape(), "{name}");
        }
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
    /// recurrence writes them gives `combine_eager`'s bits over the kept
    /// terms, with the same hop count.
    #[test]
    fn fold_matches_keep_then_combine_for_every_filter() {
        let (_, x) = setup();
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (0, 4),
                (2, 6),
            ],
        );
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
        let bits = |m: &DMat| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
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
                    let want = combine_eager(spec, &filter.propagate(&ctxs[0], &x), &cv);
                    let got = fold_eager(filter, spec, &ctxs[1], &x, &cv);
                    let case = format!(
                        "{name}: adjoint {}, sharded {}",
                        ctxs[0].is_adjoint(),
                        pm.is_sharded()
                    );
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
        let filter: Arc<dyn SpectralFilter> = Arc::new(Chebyshev { hops: 3 });
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            drng::glorot(3, 3, &mut drng::seeded(9)),
            ParamGroup::Network,
        );
        let module = FilterModule::new(Arc::clone(&filter), 3, &mut store);
        let theta = module.handles().theta[0].unwrap();
        let target = drng::randn_mat(8, 3, 1.0, &mut drng::seeded(4));

        let build = |store: &ParamStore| {
            let mut tape = Tape::new(false, 0);
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
        let filter: Arc<dyn SpectralFilter> = Arc::new(Linear);
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            drng::glorot(3, 2, &mut drng::seeded(1)),
            ParamGroup::Network,
        );
        let module = FilterModule::new(Arc::clone(&filter), 2, &mut store);
        let mut tape = Tape::new(false, 0);
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
