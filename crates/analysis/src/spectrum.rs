//! Exact spectral analysis on small graphs.
//!
//! Uses the dense eigensolver to decompose signals over the Laplacian
//! eigenbasis: per-band energy distributions explain *why* a filter works on
//! a graph (the "alignment with the graph information" of RQ3/RQ7), and the
//! spectral energy of label indicators quantifies how much of the task
//! lives at high frequencies on heterophilous graphs.

use sgnn_dense::eigen::{sym_eigen, SymEigen};
use sgnn_dense::{matmul, DMat};
use sgnn_sparse::PropMatrix;

/// Dense `L̃ = I − Ã`.
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

/// Eigendecomposition of the normalized Laplacian (small graphs only).
pub fn laplacian_spectrum(pm: &PropMatrix) -> SymEigen {
    sym_eigen(&dense_laplacian(pm))
}

/// Energy of each signal column per frequency band.
///
/// The spectrum `[0, 2]` is split into `bands` uniform bins; entry `b` is
/// the fraction of total signal energy carried by eigenvectors whose
/// eigenvalue falls in bin `b` (averaged over the signal columns).
pub fn band_energy(eig: &SymEigen, x: &DMat, bands: usize) -> Vec<f64> {
    assert!(bands >= 1);
    let coeffs = matmul::matmul_at_b(&eig.vectors, x); // Uᵀ x, (n × F)
    let mut energy = vec![0.0f64; bands];
    let mut total = 0.0f64;
    for (i, &lam) in eig.values.iter().enumerate() {
        let b = (((lam / 2.0) * bands as f64) as usize).min(bands - 1);
        let e: f64 = coeffs.row(i).iter().map(|&c| (c as f64) * (c as f64)).sum();
        energy[b] += e;
        total += e;
    }
    if total > 0.0 {
        energy.iter_mut().for_each(|e| *e /= total);
    }
    energy
}

/// One-hot label-indicator matrix (`n × C`), the canonical "task signal".
pub fn label_signal(labels: &[u32], classes: usize) -> DMat {
    let mut m = DMat::zeros(labels.len(), classes);
    for (i, &y) in labels.iter().enumerate() {
        m.set(i, y as usize, 1.0);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_data::{CsbmParams, Metric};

    fn tiny(h: f64, seed: u64) -> (PropMatrix, Vec<u32>, usize) {
        let params = CsbmParams {
            nodes: 120,
            edges: 500,
            homophily: h,
            classes: 2,
            feature_dim: 4,
            signal: 1.0,
            degree_exponent: 3.0,
        };
        let d = sgnn_data::csbm::generate("t", &params, Metric::Accuracy, seed);
        (PropMatrix::new(&d.graph, 0.5), d.labels, d.num_classes)
    }

    /// Fraction of label-signal energy below the spectral midpoint `λ < 1`.
    fn low_frequency_share(pm: &PropMatrix, labels: &[u32], classes: usize) -> f64 {
        band_energy(&laplacian_spectrum(pm), &label_signal(labels, classes), 2)[0]
    }

    #[test]
    fn homophilous_labels_live_at_low_frequencies() {
        let (pm_h, y_h, c) = tiny(0.9, 0);
        let (pm_x, y_x, _) = tiny(0.1, 0);
        let low_h = low_frequency_share(&pm_h, &y_h, c);
        let low_x = low_frequency_share(&pm_x, &y_x, c);
        assert!(
            low_h > low_x + 0.1,
            "homophilous {low_h:.3} vs heterophilous {low_x:.3}"
        );
    }

    #[test]
    fn band_energy_sums_to_one() {
        let (pm, y, c) = tiny(0.5, 3);
        let eig = laplacian_spectrum(&pm);
        let e = band_energy(&eig, &label_signal(&y, c), 8);
        assert_eq!(e.len(), 8);
        assert!((e.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_signal_is_pure_low_frequency_on_regular_graph() {
        // Ring graph: constant vector is the λ=0 eigenvector.
        let edges: Vec<(u32, u32)> = (0..16u32).map(|i| (i, (i + 1) % 16)).collect();
        let pm = PropMatrix::new(&sgnn_sparse::Graph::from_edges(16, &edges), 0.5);
        let eig = laplacian_spectrum(&pm);
        let x = DMat::filled(16, 1, 1.0);
        let e = band_energy(&eig, &x, 4);
        assert!(e[0] > 0.999, "constant signal energy {e:?}");
    }
}
