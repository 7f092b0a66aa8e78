//! Shared test helpers: exact spectral validation of filters.
//!
//! The strongest correctness check available for a polynomial filter is to
//! compare its propagation-based output against the *exact* spectral
//! convolution `U g(Λ) Uᵀ x` (Eq. (2) of the paper) computed by dense
//! eigendecomposition of `L̃` on a small graph. Any error in a recurrence,
//! coefficient, or the frequency response breaks the agreement.

use std::sync::Arc;

use sgnn_autograd::{ParamStore, Tape};
use sgnn_dense::eigen::sym_eigen;
use sgnn_dense::{rng as drng, DMat};
use sgnn_sparse::{Graph, PropMatrix};

use crate::filter::{ResponseParams, SpectralFilter};
use crate::op::FilterModule;
use crate::spec::{Fusion, PropCtx};

/// A small irregular connected graph and its symmetric propagation matrix.
pub(crate) fn small_graph_pm() -> (PropMatrix, Graph) {
    let g = Graph::from_edges(
        10,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 5),
            (2, 7),
            (0, 9),
        ],
    );
    let pm = PropMatrix::new(&g, 0.5);
    (pm, g)
}

/// Dense `L̃ = I − Ã` of a propagation matrix.
pub(crate) fn dense_laplacian(pm: &PropMatrix) -> DMat {
    let n = pm.n();
    let mut l = DMat::zeros(n, n);
    for (r, c, v) in pm.adj().iter() {
        l.set(r as usize, c as usize, -v);
    }
    for i in 0..n {
        l.set(i, i, l.get(i, i) + 1.0);
    }
    l
}

/// Parameter values for a spectral check.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Params {
    /// The spec's initial values.
    Initial,
    /// Each initial value plus `0.25·N(0, 1)`, drawn from this seed: every
    /// θ, γ and basis parameter away from its init.
    Random(u64),
}

/// The filter bound for a 3-feature input, its parameters at `params`.
pub(crate) fn module_at(
    filter: &Arc<dyn SpectralFilter>,
    params: Params,
) -> (FilterModule, ParamStore) {
    let mut store = ParamStore::new();
    let module = FilterModule::new(Arc::clone(filter), 3, &mut store);
    if let Params::Random(seed) = params {
        let mut rng = drng::seeded(seed);
        for id in store.ids().collect::<Vec<_>>() {
            let (r, c) = store.value(id).shape();
            let noise = drng::randn_mat(r, c, 0.25, &mut rng);
            store.value_mut(id).add_assign_mat(&noise);
        }
    }
    (module, store)
}

/// The response parameters output column `c` sees: the same filter bound
/// for one input feature, every per-feature parameter (one whose width is
/// the input's) cut to its column `c`.
pub(crate) fn column_params(module: &FilterModule, store: &ParamStore, c: usize) -> ResponseParams {
    let fdim = 3;
    let mut one = ParamStore::new();
    let single = FilterModule::new(Arc::clone(module.filter()), 1, &mut one);
    for (to, from) in one.ids().collect::<Vec<_>>().into_iter().zip(store.ids()) {
        let v = store.value(from);
        let v = if v.cols() == fdim {
            DMat::from_fn(v.rows(), 1, |r, _| v.get(r, c))
        } else {
            v.clone()
        };
        assert_eq!(v.shape(), one.value(to).shape(), "parameter shapes");
        *one.value_mut(to) = v;
    }
    single.response_params(&one)
}

/// Validates a filter at `params` against the exact spectral convolution
/// on a small graph: its output through [`FilterModule::apply_fb`] on an
/// eval tape — the symbolic recurrence for filters with basis parameters,
/// the folded propagation otherwise — column by column against
/// `U g(Λ) Uᵀ x_c`, `g` being the response that column sees
/// ([`column_params`]). Under concat fusion each channel's block is
/// compared against its own channel response.
pub(crate) fn check_filter_matches_spectral(
    filter: &Arc<dyn SpectralFilter>,
    params: Params,
    tol: f64,
) {
    let name = filter.name();
    let (pm, _g) = small_graph_pm();
    let n = pm.n();
    let (module, store) = module_at(filter, params);
    let spec = module.spec();
    let fdim = 3;
    let x = drng::randn_mat(n, fdim, 1.0, &mut drng::seeded(17));

    let terms = filter.propagate(&PropCtx::forward(&pm), &x);
    assert_eq!(terms.len(), spec.channels.len(), "{name}: channel count");
    for (ch, t) in spec.channels.iter().zip(&terms) {
        let want = ch.theta.num_terms();
        assert_eq!(t.len(), want, "{name}: term count in channel {}", ch.name);
    }

    let pm = Arc::new(pm);
    let mut tape = Tape::new(false, 0);
    let xn = tape.constant(x.clone());
    let out = module.apply_fb(&mut tape, &pm, xn, &store);
    let out = tape.value(out);
    let concat = matches!(spec.fusion, Fusion::Concat);
    let blocks = if concat { spec.channels.len() } else { 1 };
    assert_eq!(out.shape(), (n, fdim * blocks), "{name}: output shape");

    let eig = sym_eigen(&dense_laplacian(&pm));
    for c in 0..fdim {
        let rp = column_params(&module, &store, c);
        let xc = DMat::from_fn(n, 1, |r, _| x.get(r, c));
        for q in 0..blocks {
            let response = |l| {
                if !concat {
                    return filter.response(l, &rp);
                }
                let theta = rp.theta[q].iter().enumerate();
                theta
                    .map(|(k, &t)| t as f64 * filter.basis_value(q, k, l))
                    .sum()
            };
            let want = eig.apply_filter(response, &xc);
            let got = DMat::from_fn(n, 1, |r, _| out.get(r, q * fdim + c));
            assert_close(
                &format!("{name} ({params:?}), column {c} of block {q}"),
                &got,
                &want,
                tol,
            );
        }
    }
}

fn assert_close(name: &str, got: &DMat, want: &DMat, tol: f64) {
    assert_eq!(got.shape(), want.shape(), "{name}: shape");
    let scale = want.norm().max(1.0);
    let mut diff = got.clone();
    diff.sub_assign_mat(want);
    let rel = diff.norm() / scale;
    assert!(
        rel < tol,
        "{name}: relative spectral mismatch {rel:.3e} (tol {tol:.1e})"
    );
}
