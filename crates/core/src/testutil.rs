//! Shared test helpers: exact spectral validation of filters.
//!
//! The strongest correctness check available for a polynomial filter is to
//! compare its propagation-based output against the *exact* spectral
//! convolution `U g(Λ) Uᵀ x` (Eq. (2) of the paper) computed by dense
//! eigendecomposition of `L̃` on a small graph. Any error in a recurrence,
//! coefficient, or the frequency response breaks the agreement.

use sgnn_dense::eigen::sym_eigen;
use sgnn_dense::{rng as drng, DMat};
use sgnn_sparse::{Graph, PropMatrix};

use crate::filter::SpectralFilter;
use crate::op::{channel_part, combine, CoeffValues, Rows, Rule};
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

/// Validates `propagate` + `basis_value` of a filter against the exact
/// spectral convolution, at initial coefficients.
///
/// For sum-fused filters the full output is compared against
/// `g(λ) = Σ_q γ_q g_q(λ)`; for concat fusion each channel block is compared
/// against its own channel response.
pub(crate) fn check_filter_matches_spectral(filter: &dyn SpectralFilter, tol: f64) {
    let (pm, _g) = small_graph_pm();
    let n = pm.n();
    let fdim = 3;
    let x = drng::randn_mat(n, fdim, 1.0, &mut drng::seeded(17));
    let spec = filter.spec(fdim);
    spec.validate();

    let ctx = PropCtx::forward(&pm);
    let terms = filter.propagate(&ctx, &x);
    assert_eq!(
        terms.len(),
        spec.channels.len(),
        "{}: channel count",
        filter.name()
    );
    for (ch, t) in spec.channels.iter().zip(&terms) {
        assert_eq!(
            t.len(),
            ch.theta.num_terms(),
            "{}: term count in channel {}",
            filter.name(),
            ch.name
        );
    }

    let eig = sym_eigen(&dense_laplacian(&pm));
    let cv = CoeffValues::resolve(&spec, &spec.initial_params());
    let rp = crate::filter::ResponseParams::initial(&spec);
    let out = combine(&spec, &terms, Rows::All, &cv, Rule::FullBatch);

    match spec.fusion {
        Fusion::Concat => {
            for q in 0..terms.len() {
                let got = channel_part(&spec, &out, q);
                let want = eig.apply_filter(
                    |l| {
                        rp.theta[q]
                            .iter()
                            .enumerate()
                            .map(|(k, &c)| c as f64 * filter.basis_value(q, k, l))
                            .sum()
                    },
                    &x,
                );
                assert_close(filter.name(), &got, &want, tol);
            }
        }
        _ => {
            let want = eig.apply_filter(|l| filter.response(l, &rp), &x);
            assert_close(filter.name(), &out, &want, tol);
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
