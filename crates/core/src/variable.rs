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
use crate::poly::{ppr_weights, uniform, unit, Basis, Polynomial};
use crate::spec::{ExtraParamSpec, FilterSpec, PropCtx, ThetaSpec};
use crate::terms::TermStore;

fn variable(name: &'static str, hops: usize, basis: Basis, init: Vec<f32>) -> Polynomial {
    let theta = ThetaSpec::Learnable { init };
    Polynomial::single(name, hops, basis, theta)
}

/// `g(λ; θ) = Σ_k θ_k (1 − λ)^k` — DAGNN/GPRGNN's learnable power sum,
/// initialized with the GPRGNN PPR pattern `θ_k = α(1−α)^k`.
pub(crate) fn var_monomial(name: &'static str, hops: usize, init_alpha: f32) -> Polynomial {
    let init = ppr_weights(hops, init_alpha);
    variable(name, hops, Basis::powers(1.0, 0.0, hops), init)
}

/// `g(λ; θ) = Σ_k θ_k Σ_{i≤k} (1 − λ)^i` — Horner/residual evaluation
/// (HornerGCN, ARMA): every basis term carries an explicit residual of the
/// input signal, `S_{k+1} = Ã·S_k + x`, guiding `θ` toward preserving node
/// identity.
pub(crate) fn horner(name: &'static str, hops: usize) -> Polynomial {
    let basis = Basis::Powers {
        a: 1.0,
        b: 0.0,
        hops,
        residual: true,
    };
    variable(name, hops, basis, uniform(hops))
}

/// `g(λ; θ) = Σ_k θ_k T_k(λ − 1)` — ChebNet's first-kind Chebyshev basis.
pub(crate) fn chebyshev(name: &'static str, hops: usize) -> Polynomial {
    variable(name, hops, Basis::chebyshev(hops), unit(hops))
}

/// `g(λ; θ) = Σ_k θ_k U_k(λ − 1)` — ClenshawGCN's second-kind Chebyshev
/// basis: `U_1 = −2Ã·x`, `U_k = −2Ã·U_{k−1} − U_{k−2}`.
pub(crate) fn clenshaw(name: &'static str, hops: usize) -> Polynomial {
    let basis = Basis::three_term(hops, (-2.0, 0.0), |_| (-2.0, 0.0, -1.0));
    variable(name, hops, basis, unit(hops))
}

/// ChebNetII: Chebyshev basis whose coefficients are *interpolated* from
/// learnable values at the Chebyshev nodes, `c = M·θ`, yielding smoother,
/// better-conditioned responses. `θ_κ = 1` at every node interpolates the
/// constant function 1 (identity response) — ChebNetII's recommended
/// initialization.
pub(crate) fn cheb_interp(name: &'static str, hops: usize) -> Polynomial {
    // M[k][κ] = w_k · 2/(K+1) · T_k(x_κ) with w_0 = 1/2 and Chebyshev nodes
    // x_κ, from the closed form of T_k.
    let n = hops + 1;
    let transform = DMat::from_fn(n, n, |k, kappa| {
        let xk = (std::f64::consts::PI * (kappa as f64 + 0.5) / n as f64).cos();
        let w = if k == 0 { 0.5 } else { 1.0 };
        (w * 2.0 / n as f64 * (k as f64 * xk.acos()).cos()) as f32
    });
    let theta = ThetaSpec::Transformed {
        init: vec![1.0; n],
        transform,
    };
    let basis = Basis::chebyshev(hops);
    Polynomial::single(name, hops, basis, theta)
}

/// BernNet: `g(λ; θ) = Σ_k θ_k · C(K,k)/2^K (2−λ)^{K−k} λ^k` — the
/// non-negative Bernstein basis (`O(K²mF)` propagation time). All-ones `θ`
/// makes the sum telescope to the constant 1.
pub(crate) fn bernstein(name: &'static str, hops: usize) -> Polynomial {
    variable(name, hops, Basis::Bernstein { hops }, vec![1.0; hops + 1])
}

/// LegendreNet: `g(λ; θ) = Σ_k θ_k P_k(λ − 1)`: `P_1 = −Ã·x`,
/// `P_k = ((2k−1)(L̃−I)P_{k−1} − (k−1)P_{k−2}) / k`.
pub(crate) fn legendre(name: &'static str, hops: usize) -> Polynomial {
    let basis = Basis::three_term(hops, (-1.0, 0.0), |k| {
        let kf = k as f32;
        (-(2.0 * kf - 1.0) / kf, 0.0, -(kf - 1.0) / kf)
    });
    variable(name, hops, basis, unit(hops))
}

/// JacobiConv: `g(λ; θ) = Σ_k θ_k P_k^{(a,b)}(1 − λ)` — the general Jacobi
/// basis with shape hyperparameters `a, b` (Chebyshev and Legendre are
/// special cases), by the three-term recurrence of Appendix B.
pub(crate) fn jacobi(name: &'static str, hops: usize, a: f64, b: f64) -> Polynomial {
    // T_1 = (a−b)/2·x + (a+b+2)/2·Ã x.
    let first = (((a + b + 2.0) / 2.0) as f32, ((a - b) / 2.0) as f32);
    let basis = Basis::three_term(hops, first, |k| {
        let jf = k as f64;
        let c = 2.0 * jf + a + b;
        let d1 = (c * (c - 1.0)) / (2.0 * jf * (jf + a + b));
        let d2 = ((c - 1.0) * (a * a - b * b)) / (2.0 * jf * (jf + a + b) * (c - 2.0));
        let d3 = ((jf + a - 1.0) * (jf + b - 1.0) * c) / (jf * (jf + a + b) * (c - 2.0));
        // T_k = d1·Ã T_{k−1} + d2·T_{k−1} − d3·T_{k−2}.
        (d1 as f32, d2 as f32, -(d3 as f32))
    });
    variable(name, hops, basis, unit(hops))
}

/// `g(λ; θ) = Π_j (1 + θ_j − λ)` — GIN/AKGNN's adaptive self-loop product.
///
/// The per-hop scalars `θ_j` live inside the operator product, so full-batch
/// training uses the symbolic path; mini-batch freezes them at
/// initialization (the basis then degenerates to `Ã^K`, i.e. Impulse).
#[derive(Clone, Debug)]
pub(crate) struct VarLinear {
    pub name: &'static str,
    pub hops: usize,
}

impl VarLinear {
    /// The frozen-basis (θ = 0) filter: `((1+0)I − L̃)^K = Ã^K`.
    fn frozen(&self) -> Basis {
        Basis::Power {
            a: 1.0,
            b: 0.0,
            hops: self.hops,
        }
    }
}

impl SpectralFilter for VarLinear {
    fn name(&self) -> &'static str {
        self.name
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
    fn propagate_into(&self, ctx: &PropCtx<'_>, _x: &DMat, out: &mut [TermStore<'_>]) {
        self.frozen().write(ctx, &mut out[0]);
    }
    fn basis_value(&self, _q: usize, _k: usize, lambda: f64) -> f64 {
        self.frozen().value(0, lambda)
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
    /// Per hop: `Ãh`, `θ_j`, `θ_j·h` and their sum.
    fn symbolic_nodes(&self, _f: usize) -> Option<(usize, usize)> {
        Some((3 * self.hops, self.hops))
    }
    fn response(&self, lambda: f64, params: &ResponseParams) -> f64 {
        let thetas = params.extra.first().map(Vec::as_slice).unwrap_or(&[]);
        (0..self.hops)
            .map(|j| 1.0 + thetas.get(j).copied().unwrap_or(0.0) as f64 - lambda)
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check_filter_matches_spectral, Params};

    /// The variable filters at orders and hyperparameters other than the
    /// registry's, at initial and random parameters, against exact
    /// spectral filtering.
    #[test]
    fn variable_filters_match_exact_spectral_filtering() {
        let filters: Vec<Arc<dyn SpectralFilter>> = vec![
            Arc::new(VarLinear {
                name: "VarLinear",
                hops: 4,
            }),
            Arc::new(var_monomial("VarMonomial", 5, 0.3)),
            Arc::new(horner("Horner", 5)),
            Arc::new(chebyshev("Chebyshev", 6)),
            Arc::new(clenshaw("Clenshaw", 6)),
            Arc::new(cheb_interp("ChebInterp", 6)),
            Arc::new(bernstein("Bernstein", 5)),
            Arc::new(legendre("Legendre", 6)),
            Arc::new(jacobi("Jacobi", 5, 1.0, 1.0)),
        ];
        for f in &filters {
            for params in [Params::Initial, Params::Random(5)] {
                check_filter_matches_spectral(f, params, 1e-4);
            }
        }
    }

    #[test]
    fn chebinterp_init_is_identity_response() {
        let f = cheb_interp("ChebInterp", 8);
        for i in 0..=10 {
            let lambda = 0.2 * i as f64;
            let r = f.initial_response(lambda, 4);
            assert!((r - 1.0).abs() < 1e-4, "λ={lambda}: {r}");
        }
    }

    #[test]
    fn bernstein_all_ones_is_all_pass() {
        let f = bernstein("Bernstein", 6);
        for i in 0..=10 {
            let lambda = 0.2 * i as f64;
            assert!((f.initial_response(lambda, 4) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn bernstein_basis_is_nonnegative_partition() {
        let f = bernstein("Bernstein", 8);
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
        let f = horner("Horner", 4);
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
        let filter: Arc<dyn SpectralFilter> = Arc::new(VarLinear {
            name: "VarLinear",
            hops: 3,
        });
        let mut store = ParamStore::new();
        let module = FilterModule::new(Arc::clone(&filter), 2, &mut store);
        let theta_pid = module.handles.extra[0];
        let x = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(2));
        let target = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(3));

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
