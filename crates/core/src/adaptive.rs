//! Adaptive-basis filters: FavardGNN and OptBasisGNN.
//!
//! Both learn (or derive) the polynomial *basis* itself through a three-term
//! recurrence instead of fixing it a priori — the most expressive and the
//! most expensive designs in the taxonomy:
//!
//! * [`Favard`] — Favard's theorem guarantees any recurrence
//!   `T_k = s_k(Ã T_{k−1} − β_k T_{k−1} − s_{k−1}^{-1} T_{k−2})` generates an
//!   orthogonal polynomial basis; the scales `s_k` and shifts `β_k` are
//!   trainable. Full-batch training builds the recurrence symbolically on
//!   the tape (exact gradients, including through the reciprocal).
//! * [`OptBasis`] — derives the recurrence coefficients *from the input
//!   signal* by per-feature Lanczos-style orthonormalization, approaching
//!   the optimal basis for signal denoising without extra parameters. The
//!   forward coefficients are saved so the adjoint pass can replay the same
//!   (frozen) linear map over `Ãᵀ` — the same locally-constant-basis
//!   treatment the original implementation uses when decoupling.

use std::sync::Arc;
use std::sync::Mutex;

use sgnn_autograd::{NodeId, ParamStore, Tape};
use sgnn_dense::DMat;
use sgnn_sparse::PropMatrix;

use crate::filter::{ResponseParams, SpectralFilter};
use crate::op::ParamHandles;
use crate::poly::three_term_terms;
use crate::spec::{ExtraParamSpec, FilterSpec, PropCtx, ThetaSpec};
use crate::taxonomy::FilterKind;
use crate::terms::TermStore;

fn impulse_init(hops: usize) -> Vec<f32> {
    let mut v = vec![0.0; hops + 1];
    v[0] = 1.0;
    v
}

/// FavardGNN: learnable three-term recurrence basis.
#[derive(Clone, Debug)]
pub(crate) struct Favard {
    pub hops: usize,
}

impl Favard {
    /// Scalar basis values under given recurrence parameters.
    fn scalar_terms(&self, s: &[f32], beta: &[f32], t: f64) -> Vec<f64> {
        let mut vals = Vec::with_capacity(self.hops + 1);
        vals.push(s[0] as f64);
        for k in 1..=self.hops {
            let prev = vals[k - 1];
            let prev2 = if k >= 2 {
                vals[k - 2] / s[k - 1] as f64
            } else {
                0.0
            };
            vals.push(s[k] as f64 * (t * prev - beta[k] as f64 * prev - prev2));
        }
        vals
    }
}

impl SpectralFilter for Favard {
    fn name(&self) -> &'static str {
        "Favard"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        let mut spec = FilterSpec::single(ThetaSpec::Learnable {
            init: impulse_init(self.hops),
        });
        spec.extra.push(ExtraParamSpec {
            name: "scale",
            init: DMat::filled(self.hops + 1, 1, 1.0),
        });
        spec.extra.push(ExtraParamSpec {
            name: "shift",
            init: DMat::zeros(self.hops + 1, 1),
        });
        spec
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        // Eager path with the initial recurrence (s = 1, β = 0):
        // T_k = Ã T_{k−1} − T_{k−2}.
        three_term_terms(ctx, &mut out[0], self.hops, (1.0, 0.0), |_| {
            (1.0, 0.0, -1.0)
        });
    }
    fn basis_value(&self, _q: usize, k: usize, lambda: f64) -> f64 {
        let s = vec![1.0f32; self.hops + 1];
        let beta = vec![0.0f32; self.hops + 1];
        self.scalar_terms(&s, &beta, 1.0 - lambda)[k]
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
        let scale = tape.param(store, handles.extra[0]);
        let shift = tape.param(store, handles.extra[1]);
        let mut terms: Vec<NodeId> = Vec::with_capacity(self.hops + 1);
        let s0 = tape.gather_rows(scale, Arc::new(vec![0]));
        terms.push(tape.lin_comb(&[x], s0));
        for k in 1..=self.hops {
            let sk = tape.gather_rows(scale, Arc::new(vec![k as u32]));
            let bk = tape.gather_rows(shift, Arc::new(vec![k as u32]));
            let prev = terms[k - 1];
            let aprev = tape.prop(pm, 1.0, 0.0, prev);
            let bterm = tape.lin_comb(&[prev], bk);
            let mut u = tape.sub(aprev, bterm);
            if k >= 2 {
                let sprev = tape.gather_rows(scale, Arc::new(vec![(k - 1) as u32]));
                let rinv = tape.recip(sprev);
                let cterm = tape.lin_comb(&[terms[k - 2]], rinv);
                u = tape.sub(u, cterm);
            }
            terms.push(tape.lin_comb(&[u], sk));
        }
        let theta = tape.param(store, handles.theta[0].expect("Favard θ"));
        Some(tape.lin_comb(&terms, theta))
    }
    fn response(&self, lambda: f64, params: &ResponseParams) -> f64 {
        let ones = vec![1.0f32; self.hops + 1];
        let zeros = vec![0.0f32; self.hops + 1];
        let s = params.extra.first().map(Vec::as_slice).unwrap_or(&ones);
        let b = params.extra.get(1).map(Vec::as_slice).unwrap_or(&zeros);
        let vals = self.scalar_terms(s, b, 1.0 - lambda);
        params.theta[0]
            .iter()
            .zip(&vals)
            .map(|(&t, &v)| t as f64 * v)
            .sum()
    }
}

/// Saved per-hop recurrence coefficients of one OptBasis forward pass.
#[derive(Clone, Debug, Default)]
struct OptSaved {
    /// `inv_norm[k][f]` — per-feature inverse norm applied at hop `k`
    /// (index 0 normalizes the input signal).
    inv_norm: Vec<Vec<f32>>,
    /// `beta[k][f]` — projection on `T_{k−1}` removed at hop `k ≥ 1`.
    beta: Vec<Vec<f32>>,
    /// `gamma[k][f]` — projection on `T_{k−2}` removed at hop `k ≥ 2`.
    gamma: Vec<Vec<f32>>,
}

/// OptBasisGNN: per-feature orthonormal (Lanczos) basis derived from the
/// input signal, with learnable per-feature coefficients.
pub(crate) struct OptBasis {
    pub hops: usize,
    saved: Mutex<Option<OptSaved>>,
}

impl OptBasis {
    pub(crate) fn new(hops: usize) -> Self {
        Self {
            hops,
            saved: Mutex::new(None),
        }
    }

    fn forward_terms(&self, ctx: &PropCtx<'_>, x: &DMat, terms: &mut TermStore<'_>) {
        let f = x.cols();
        let mut saved = OptSaved::default();
        terms.window(2);

        let col_inv_norms = |m: &DMat| -> Vec<f32> {
            let mut n2 = vec![0.0f64; m.cols()];
            for row in m.row_iter() {
                for (acc, &v) in n2.iter_mut().zip(row) {
                    *acc += v as f64 * v as f64;
                }
            }
            n2.iter()
                .map(|&s| {
                    if s > 0.0 {
                        (1.0 / s.sqrt()) as f32
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        let col_dots = |a: &DMat, b: &DMat| -> Vec<f32> {
            let mut d = vec![0.0f64; a.cols()];
            for (ra, rb) in a.row_iter().zip(b.row_iter()) {
                for ((acc, &u), &v) in d.iter_mut().zip(ra).zip(rb) {
                    *acc += u as f64 * v as f64;
                }
            }
            d.iter().map(|&s| s as f32).collect()
        };
        let scale_cols = |m: &mut DMat, s: &[f32]| {
            for r in 0..m.rows() {
                for (v, &sc) in m.row_mut(r).iter_mut().zip(s) {
                    *v *= sc;
                }
            }
        };
        let axpy_cols = |m: &mut DMat, coef: &[f32], other: &DMat| {
            for r in 0..m.rows() {
                for ((v, &c), &o) in m.row_mut(r).iter_mut().zip(coef).zip(other.row(r)) {
                    *v -= c * o;
                }
            }
        };

        let inv0 = col_inv_norms(x);
        let mut t0 = x.clone();
        scale_cols(&mut t0, &inv0);
        saved.inv_norm.push(inv0);
        saved.beta.push(vec![0.0; f]);
        saved.gamma.push(vec![0.0; f]);
        terms.push(t0);

        for k in 1..=self.hops {
            let mut y = terms.spare();
            ctx.prop_into(1.0, 0.0, terms.term(k - 1), &mut y);
            let beta = col_dots(&y, terms.term(k - 1));
            axpy_cols(&mut y, &beta, terms.term(k - 1));
            let gamma = if k >= 2 {
                let g = col_dots(&y, terms.term(k - 2));
                axpy_cols(&mut y, &g, terms.term(k - 2));
                g
            } else {
                vec![0.0; f]
            };
            let inv = col_inv_norms(&y);
            scale_cols(&mut y, &inv);
            saved.beta.push(beta);
            saved.gamma.push(gamma);
            saved.inv_norm.push(inv);
            terms.push(y);
        }
        *self.saved.lock().expect("OptBasis state poisoned") = Some(saved);
    }

    /// Replays the frozen forward recurrence over the adjoint operator —
    /// because all recurrence coefficients are per-feature scalars, the
    /// composed map per feature column is a polynomial in `Ã`, whose adjoint
    /// is the same polynomial in `Ãᵀ`.
    fn adjoint_terms(&self, ctx: &PropCtx<'_>, g: &DMat, terms: &mut TermStore<'_>) {
        let saved = self
            .saved
            .lock()
            .expect("OptBasis state poisoned")
            .clone()
            .expect("OptBasis adjoint requires a prior forward pass");
        terms.window(2);
        let apply_cols = |m: &mut DMat, s: &[f32]| {
            for r in 0..m.rows() {
                for (v, &sc) in m.row_mut(r).iter_mut().zip(s) {
                    *v *= sc;
                }
            }
        };
        let mut t0 = g.clone();
        apply_cols(&mut t0, &saved.inv_norm[0]);
        terms.push(t0);
        for k in 1..=self.hops {
            let mut y = terms.spare();
            ctx.prop_into(1.0, 0.0, terms.term(k - 1), &mut y);
            for r in 0..y.rows() {
                let prev = terms.term(k - 1).row(r);
                let beta = &saved.beta[k];
                let yr = y.row_mut(r);
                for ((v, &b), &p) in yr.iter_mut().zip(beta).zip(prev) {
                    *v -= b * p;
                }
            }
            if k >= 2 {
                for r in 0..y.rows() {
                    let prev2 = terms.term(k - 2).row(r);
                    let gam = &saved.gamma[k];
                    for ((v, &gc), &p) in y.row_mut(r).iter_mut().zip(gam).zip(prev2) {
                        *v -= gc * p;
                    }
                }
            }
            apply_cols(&mut y, &saved.inv_norm[k]);
            terms.push(y);
        }
    }
}

impl SpectralFilter for OptBasis {
    fn name(&self) -> &'static str {
        "OptBasis"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, in_features: usize) -> FilterSpec {
        let mut init = DMat::zeros(self.hops + 1, in_features);
        init.row_mut(0).iter_mut().for_each(|v| *v = 1.0);
        FilterSpec::single(ThetaSpec::PerFeature { init })
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        if ctx.is_adjoint() {
            self.adjoint_terms(ctx, x, &mut out[0]);
        } else {
            self.forward_terms(ctx, x, &mut out[0]);
        }
    }
    fn basis_value(&self, _q: usize, _k: usize, _lambda: f64) -> f64 {
        // The basis is signal-dependent; no closed-form response exists.
        f64::NAN
    }
    fn response(&self, _lambda: f64, _params: &ResponseParams) -> f64 {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_filter_matches_spectral, small_graph_pm};
    use sgnn_dense::rng as drng;

    #[test]
    fn favard_initial_basis_matches_spectral() {
        check_filter_matches_spectral(&Favard { hops: 4 }, 2e-3);
    }

    #[test]
    fn favard_symbolic_gradients_reach_recurrence_params() {
        use crate::op::FilterModule;
        use sgnn_sparse::Graph;
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let pm = Arc::new(PropMatrix::new(&g, 0.5));
        let filter: Arc<dyn SpectralFilter> = Arc::new(Favard { hops: 3 });
        let mut store = ParamStore::new();
        let module = FilterModule::new(Arc::clone(&filter), 2, &mut store);
        let h = module.handles.clone();
        let x = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(8));
        let target = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(9));
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
        let ids = [h.theta[0].unwrap(), h.extra[0], h.extra[1]];
        for id in ids {
            assert!(store.grad(id).norm().is_finite());
        }
        let report = sgnn_autograd::gradcheck::check_grads(
            &mut store,
            &ids,
            |s| {
                let (t, l) = build(s);
                t.value(l).get(0, 0) as f64
            },
            1e-3,
        );
        assert!(
            report.max_rel_err < 1e-2,
            "max rel err {}",
            report.max_rel_err
        );
    }

    #[test]
    fn optbasis_terms_are_column_orthonormal() {
        let (pm, _) = small_graph_pm();
        let x = drng::randn_mat(pm.n(), 3, 1.0, &mut drng::seeded(5));
        let f = OptBasis::new(4);
        let ctx = PropCtx::forward(&pm);
        let terms = &f.propagate(&ctx, &x)[0];
        assert_eq!(terms.len(), 5);
        for col in 0..3 {
            for (i, a) in terms.iter().enumerate() {
                for (j, b) in terms.iter().enumerate() {
                    let dot: f64 = (0..pm.n())
                        .map(|r| a.get(r, col) as f64 * b.get(r, col) as f64)
                        .sum();
                    let want = if i == j { 1.0 } else { 0.0 };
                    assert!((dot - want).abs() < 1e-3, "col {col}: ⟨T{i}, T{j}⟩ = {dot}");
                }
            }
        }
    }

    #[test]
    fn optbasis_adjoint_is_true_adjoint_per_term() {
        // ⟨T_k(x), y⟩ must equal ⟨x, T_kᵀ(y)⟩ for the frozen recurrence.
        let (pm, _) = small_graph_pm();
        let n = pm.n();
        let x = drng::randn_mat(n, 2, 1.0, &mut drng::seeded(6));
        let y = drng::randn_mat(n, 2, 1.0, &mut drng::seeded(7));
        let f = OptBasis::new(3);
        let fwd = {
            let ctx = PropCtx::forward(&pm);
            f.propagate(&ctx, &x)
        };
        let adj = {
            let ctx = PropCtx::adjoint(&pm);
            f.propagate(&ctx, &y)
        };
        for k in 0..=3 {
            // Per-column adjoint check.
            for c in 0..2 {
                let lhs: f64 = (0..n)
                    .map(|r| fwd[0][k].get(r, c) as f64 * y.get(r, c) as f64)
                    .sum();
                let rhs: f64 = (0..n)
                    .map(|r| x.get(r, c) as f64 * adj[0][k].get(r, c) as f64)
                    .sum();
                assert!((lhs - rhs).abs() < 1e-3, "k={k} c={c}: {lhs} vs {rhs}");
            }
        }
    }
}
