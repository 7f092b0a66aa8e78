//! The classic variable filters (Table 1, middle block): predetermined basis,
//! learnable coefficients `θ_k`.
//!
//! All of these emit `K + 1` basis-term matrices per channel, so the
//! mini-batch scheme stores `O(KnF)` in RAM and full-batch training keeps the
//! same amount on the device tape — exactly the memory asymmetry versus fixed
//! filters that RQ1 of the paper reports. [`VarLinear`] is the exception: its
//! learnable parameter sits *inside* the product basis (GIN's adaptive
//! self-loop strength), so it trains through a symbolic tape recurrence.

use std::sync::Arc;

use sgnn_autograd::{NodeId, ParamStore, Tape};
use sgnn_dense::DMat;
use sgnn_sparse::PropMatrix;

use crate::filter::{ResponseParams, SpectralFilter};
use crate::op::ParamHandles;
use crate::poly::{
    affine_power, affine_power_terms, bernstein_terms, binomial, cheb_t, cheb_u, chebyshev_terms,
    jacobi_p, legendre_p, three_term_terms,
};
use crate::spec::{ExtraParamSpec, FilterSpec, PropCtx, ThetaSpec};
use crate::taxonomy::FilterKind;
use crate::terms::TermStore;

/// Unit-impulse initialization `[1, 0, …, 0]` (identity response) used by the
/// orthogonal-basis filters.
fn impulse_init(hops: usize) -> Vec<f32> {
    let mut v = vec![0.0; hops + 1];
    v[0] = 1.0;
    v
}

/// `g(λ; θ) = Π_j (1 + θ_j − λ)` — GIN/AKGNN's adaptive self-loop product.
///
/// The per-hop scalars `θ_j` live inside the operator product, so full-batch
/// training uses the symbolic path; mini-batch freezes them at
/// initialization (the basis then degenerates to `Ã^K`, i.e. Impulse).
#[derive(Clone, Debug)]
pub(crate) struct VarLinear {
    pub hops: usize,
}

impl SpectralFilter for VarLinear {
    fn name(&self) -> &'static str {
        "VarLinear"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        let mut spec = FilterSpec::single(ThetaSpec::Fixed(vec![1.0]));
        spec.extra.push(ExtraParamSpec {
            name: "theta_layers",
            init: DMat::zeros(self.hops, 1),
        });
        spec
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        // Frozen-basis (θ = 0) application: ((1+0)I − L̃)^K = Ã^K.
        out[0].push(affine_power(ctx, x, 1.0, 0.0, self.hops));
    }
    fn basis_value(&self, _q: usize, _k: usize, lambda: f64) -> f64 {
        (1.0 - lambda).powi(self.hops as i32)
    }
    fn apply_symbolic(
        &self,
        tape: &mut Tape,
        pm: &Arc<PropMatrix>,
        x: NodeId,
        handles: &ParamHandles,
        store: &ParamStore,
    ) -> Option<NodeId> {
        let theta = tape.param(store, handles.extra[0]);
        let mut h = x;
        for j in 0..self.hops {
            // ((1 + θ_j)I − L̃)h = Ãh + θ_j·h.
            let lin = tape.prop(pm, 1.0, 0.0, h);
            let tj = tape.gather_rows(theta, Arc::new(vec![j as u32]));
            let scaled = tape.lin_comb(&[h], tj);
            h = tape.add(lin, scaled);
        }
        Some(h)
    }
    fn response(&self, lambda: f64, params: &ResponseParams) -> f64 {
        let thetas = params.extra.first().map(Vec::as_slice).unwrap_or(&[]);
        (0..self.hops)
            .map(|j| 1.0 + thetas.get(j).copied().unwrap_or(0.0) as f64 - lambda)
            .product()
    }
}

/// `g(λ; θ) = Σ_k θ_k (1 − λ)^k` — DAGNN/GPRGNN's learnable power sum,
/// initialized with the GPRGNN PPR pattern `θ_k = α(1−α)^k`.
#[derive(Clone, Debug)]
pub(crate) struct VarMonomial {
    pub hops: usize,
    /// Initialization decay (GPRGNN's `α`).
    pub init_alpha: f32,
}

impl SpectralFilter for VarMonomial {
    fn name(&self) -> &'static str {
        "VarMonomial"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        let a = self.init_alpha;
        let init = (0..=self.hops)
            .map(|k| a * (1.0 - a).powi(k as i32))
            .collect();
        FilterSpec::single(ThetaSpec::Learnable { init })
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        affine_power_terms(ctx, &mut out[0], 1.0, 0.0, self.hops);
    }
    fn basis_value(&self, _q: usize, k: usize, lambda: f64) -> f64 {
        (1.0 - lambda).powi(k as i32)
    }
}

/// `g(λ; θ) = Σ_k θ_k Σ_{i≤k} (1 − λ)^i` — Horner/residual evaluation
/// (HornerGCN, ARMA): every basis term carries an explicit residual of the
/// input signal, guiding `θ` toward preserving node identity.
#[derive(Clone, Debug)]
pub(crate) struct Horner {
    pub hops: usize,
}

impl SpectralFilter for Horner {
    fn name(&self) -> &'static str {
        "Horner"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec::single(ThetaSpec::Learnable {
            init: vec![1.0 / (self.hops + 1) as f32; self.hops + 1],
        })
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        let s = &mut out[0];
        s.window(1);
        s.push_input();
        for k in 0..self.hops {
            // S_{k+1} = Ã S_k + x (Horner step with residual).
            let mut next = s.spare();
            ctx.prop_into(1.0, 0.0, s.term(k), &mut next);
            next.add_assign_mat(x);
            s.push(next);
        }
    }
    fn basis_value(&self, _q: usize, k: usize, lambda: f64) -> f64 {
        (0..=k).map(|i| (1.0 - lambda).powi(i as i32)).sum()
    }
}

/// `g(λ; θ) = Σ_k θ_k T_k(λ − 1)` — ChebNet's first-kind Chebyshev basis.
#[derive(Clone, Debug)]
pub(crate) struct Chebyshev {
    pub hops: usize,
}

impl SpectralFilter for Chebyshev {
    fn name(&self) -> &'static str {
        "Chebyshev"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec::single(ThetaSpec::Learnable {
            init: impulse_init(self.hops),
        })
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        chebyshev_terms(ctx, &mut out[0], self.hops);
    }
    fn basis_value(&self, _q: usize, k: usize, lambda: f64) -> f64 {
        cheb_t(k, lambda - 1.0)
    }
}

/// `g(λ; θ) = Σ_k θ_k U_k(λ − 1)` — ClenshawGCN's second-kind Chebyshev
/// basis with residual-style recurrence.
#[derive(Clone, Debug)]
pub(crate) struct Clenshaw {
    pub hops: usize,
}

impl SpectralFilter for Clenshaw {
    fn name(&self) -> &'static str {
        "Clenshaw"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec::single(ThetaSpec::Learnable {
            init: impulse_init(self.hops),
        })
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        // U_1 = −2Ã·x; U_k = −2Ã·U_{k−1} − U_{k−2}.
        three_term_terms(ctx, &mut out[0], self.hops, (-2.0, 0.0), |_| {
            (-2.0, 0.0, -1.0)
        });
    }
    fn basis_value(&self, _q: usize, k: usize, lambda: f64) -> f64 {
        cheb_u(k, lambda - 1.0)
    }
}

/// ChebNetII: Chebyshev basis whose coefficients are *interpolated* from
/// learnable values at the Chebyshev nodes, `c = M·θ`, yielding smoother,
/// better-conditioned responses.
#[derive(Clone, Debug)]
pub(crate) struct ChebInterp {
    pub hops: usize,
}

impl ChebInterp {
    /// The interpolation matrix `M[k][κ] = w_k · 2/(K+1) · T_k(x_κ)` with
    /// `w_0 = 1/2` and Chebyshev nodes `x_κ`.
    fn transform(&self) -> DMat {
        let n = self.hops + 1;
        DMat::from_fn(n, n, |k, kappa| {
            let xk = (std::f64::consts::PI * (kappa as f64 + 0.5) / n as f64).cos();
            let w = if k == 0 { 0.5 } else { 1.0 };
            (w * 2.0 / n as f64 * cheb_t(k, xk)) as f32
        })
    }
}

impl SpectralFilter for ChebInterp {
    fn name(&self) -> &'static str {
        "ChebInterp"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        // θ_κ = 1 at every node interpolates the constant function 1
        // (identity response) — ChebNetII's recommended initialization.
        FilterSpec::single(ThetaSpec::Transformed {
            init: vec![1.0; self.hops + 1],
            transform: self.transform(),
        })
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        chebyshev_terms(ctx, &mut out[0], self.hops);
    }
    fn basis_value(&self, _q: usize, k: usize, lambda: f64) -> f64 {
        cheb_t(k, lambda - 1.0)
    }
}

/// BernNet: `g(λ; θ) = Σ_k θ_k · C(K,k)/2^K (2−λ)^{K−k} λ^k` — the
/// non-negative Bernstein basis (`O(K²mF)` propagation time).
#[derive(Clone, Debug)]
pub(crate) struct Bernstein {
    pub hops: usize,
}

impl SpectralFilter for Bernstein {
    fn name(&self) -> &'static str {
        "Bernstein"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        // All-ones θ makes the Bernstein sum telescope to the constant 1.
        FilterSpec::single(ThetaSpec::Learnable {
            init: vec![1.0; self.hops + 1],
        })
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        bernstein_terms(ctx, &mut out[0], self.hops);
    }
    fn basis_value(&self, _q: usize, k: usize, lambda: f64) -> f64 {
        binomial(self.hops, k)
            * 0.5f64.powi(self.hops as i32)
            * (2.0 - lambda).powi((self.hops - k) as i32)
            * lambda.powi(k as i32)
    }
}

/// LegendreNet: `g(λ; θ) = Σ_k θ_k P_k(λ − 1)` with the Legendre recurrence.
#[derive(Clone, Debug)]
pub(crate) struct Legendre {
    pub hops: usize,
}

impl SpectralFilter for Legendre {
    fn name(&self) -> &'static str {
        "Legendre"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec::single(ThetaSpec::Learnable {
            init: impulse_init(self.hops),
        })
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        // P_1 = −Ã·x; P_k = ((2k−1)(L̃−I)P_{k−1} − (k−1)P_{k−2}) / k.
        three_term_terms(ctx, &mut out[0], self.hops, (-1.0, 0.0), |k| {
            let kf = k as f32;
            (-(2.0 * kf - 1.0) / kf, 0.0, -(kf - 1.0) / kf)
        });
    }
    fn basis_value(&self, _q: usize, k: usize, lambda: f64) -> f64 {
        legendre_p(k, lambda - 1.0)
    }
}

/// JacobiConv: `g(λ; θ) = Σ_k θ_k P_k^{(a,b)}(1 − λ)` — the general Jacobi
/// basis with shape hyperparameters `a, b` (Chebyshev and Legendre are
/// special cases).
#[derive(Clone, Debug)]
pub(crate) struct Jacobi {
    pub hops: usize,
    pub a: f64,
    pub b: f64,
}

impl SpectralFilter for Jacobi {
    fn name(&self) -> &'static str {
        "Jacobi"
    }
    fn kind(&self) -> FilterKind {
        FilterKind::Variable
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        FilterSpec::single(ThetaSpec::Learnable {
            init: impulse_init(self.hops),
        })
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        let (a, b) = (self.a, self.b);
        // T_1 = (a−b)/2·x + (a+b+2)/2·Ã x.
        let first = (((a + b + 2.0) / 2.0) as f32, ((a - b) / 2.0) as f32);
        three_term_terms(ctx, &mut out[0], self.hops, first, |k| {
            let jf = k as f64;
            let c = 2.0 * jf + a + b;
            let d1 = (c * (c - 1.0)) / (2.0 * jf * (jf + a + b));
            let d2 = ((c - 1.0) * (a * a - b * b)) / (2.0 * jf * (jf + a + b) * (c - 2.0));
            let d3 = ((jf + a - 1.0) * (jf + b - 1.0) * c) / (jf * (jf + a + b) * (c - 2.0));
            // T_k = d1·Ã T_{k−1} + d2·T_{k−1} − d3·T_{k−2}.
            (d1 as f32, d2 as f32, -(d3 as f32))
        });
    }
    fn basis_value(&self, _q: usize, k: usize, lambda: f64) -> f64 {
        jacobi_p(k, self.a, self.b, 1.0 - lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_filter_matches_spectral;

    #[test]
    fn variable_filters_match_exact_spectral_filtering() {
        let filters: Vec<Box<dyn SpectralFilter>> = vec![
            Box::new(VarLinear { hops: 4 }),
            Box::new(VarMonomial {
                hops: 5,
                init_alpha: 0.3,
            }),
            Box::new(Horner { hops: 5 }),
            Box::new(Chebyshev { hops: 6 }),
            Box::new(Clenshaw { hops: 6 }),
            Box::new(ChebInterp { hops: 6 }),
            Box::new(Bernstein { hops: 5 }),
            Box::new(Legendre { hops: 6 }),
            Box::new(Jacobi {
                hops: 5,
                a: 1.0,
                b: 1.0,
            }),
        ];
        for f in &filters {
            check_filter_matches_spectral(f.as_ref(), 2e-3);
        }
    }

    #[test]
    fn chebinterp_init_is_identity_response() {
        let f = ChebInterp { hops: 8 };
        for i in 0..=10 {
            let lambda = 0.2 * i as f64;
            let r = f.initial_response(lambda, 4);
            assert!((r - 1.0).abs() < 1e-4, "λ={lambda}: {r}");
        }
    }

    #[test]
    fn bernstein_all_ones_is_all_pass() {
        let f = Bernstein { hops: 6 };
        for i in 0..=10 {
            let lambda = 0.2 * i as f64;
            assert!((f.initial_response(lambda, 4) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn bernstein_basis_is_nonnegative_partition() {
        let f = Bernstein { hops: 8 };
        for i in 0..=20 {
            let lambda = 0.1 * i as f64;
            let mut sum = 0.0;
            for k in 0..=8 {
                let b = f.basis_value(0, k, lambda);
                assert!(b >= -1e-12, "Bernstein term must be non-negative");
                sum += b;
            }
            assert!((sum - 1.0).abs() < 1e-9, "partition of unity at λ={lambda}");
        }
    }

    #[test]
    fn horner_terms_accumulate_identity() {
        // Horner basis at λ=0 (constant signal on a regular graph view):
        // basis_k(0) = k+1.
        let f = Horner { hops: 4 };
        for k in 0..=4 {
            assert_eq!(f.basis_value(0, k, 0.0), (k + 1) as f64);
        }
    }

    #[test]
    fn var_linear_symbolic_gradients_flow_to_layer_params() {
        use crate::op::FilterModule;
        use sgnn_dense::rng as drng;
        use sgnn_sparse::Graph;

        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pm = Arc::new(PropMatrix::new(&g, 0.5));
        let filter: Arc<dyn SpectralFilter> = Arc::new(VarLinear { hops: 3 });
        let mut store = ParamStore::new();
        let module = FilterModule::new(Arc::clone(&filter), 2, &mut store);
        let theta_pid = module.handles.extra[0];
        let x = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(2));
        let target = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(3));

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
        assert!(store.grad(theta_pid).norm() > 0.0);
        let report = sgnn_autograd::gradcheck::check_grads(
            &mut store,
            &[theta_pid],
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
}
