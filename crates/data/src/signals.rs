//! Spectral-signal regression datasets (Table 7 of the paper).
//!
//! The fully-supervised regression task learns to map an input signal `x` to
//! the response `z = g*(L̃)·x` of a known analytic filter `g*`. Targets are
//! synthesized without eigendecomposition by expanding `g*` in a high-order
//! Chebyshev series on `[0, 2]` and applying it with the three-term
//! recurrence (`K` sparse propagations — the same machinery the filters
//! themselves use, at much higher order so the target is exact to float
//! precision).

use sgnn_dense::{ChebApprox, DMat};
use sgnn_sparse::{Dir, PropMatrix};

/// The five benchmark signals of Table 7.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Signal {
    /// `e^{-10(λ-1)²}` — band-pass.
    Band,
    /// `|sin(πλ)|` — comb.
    Comb,
    /// `1 - e^{-10λ²}` — high-pass.
    High,
    /// `e^{-10λ²}` — low-pass.
    Low,
    /// `1 - e^{-10(λ-1)²}` — band-reject.
    Reject,
}

impl Signal {
    /// All five signals in Table-7 column order.
    pub fn all() -> [Signal; 5] {
        [
            Signal::Band,
            Signal::Comb,
            Signal::High,
            Signal::Low,
            Signal::Reject,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Signal::Band => "BAND",
            Signal::Comb => "COMBINE",
            Signal::High => "HIGH",
            Signal::Low => "LOW",
            Signal::Reject => "REJECT",
        }
    }

    /// The analytic response `g*(λ)`.
    pub(crate) fn eval(&self, lambda: f64) -> f64 {
        match self {
            Signal::Band => (-10.0 * (lambda - 1.0) * (lambda - 1.0)).exp(),
            Signal::Comb => (std::f64::consts::PI * lambda).sin().abs(),
            Signal::High => 1.0 - (-10.0 * lambda * lambda).exp(),
            Signal::Low => (-10.0 * lambda * lambda).exp(),
            Signal::Reject => 1.0 - (-10.0 * (lambda - 1.0) * (lambda - 1.0)).exp(),
        }
    }
}

/// Applies an arbitrary scalar filter `g(L̃)` to a signal matrix through an
/// order-`order` Chebyshev expansion (no eigendecomposition).
pub(crate) fn apply_scalar_filter(
    pm: &PropMatrix,
    g: impl Fn(f64) -> f64,
    x: &DMat,
    order: usize,
) -> DMat {
    let approx = ChebApprox::fit(g, 0.0, 2.0, order);
    let coeffs = approx.coeffs();
    // Chebyshev argument t = λ − 1 ⇒ matrix (L̃ − I) = −Ã.
    let mut out = x.scaled(coeffs[0] as f32); // c_0·T_0 x
    if coeffs.len() > 1 {
        let mut prev2 = x.clone(); // T_0 x
        let mut prev = pm.hop(Dir::Forward, -1.0, 0.0, x); // T_1 x
        out.axpy(coeffs[1] as f32, &prev);
        let mut next = DMat::scratch(x.rows(), x.cols());
        for &c in &coeffs[2..] {
            // T_k = −2Ã·T_{k−1} − T_{k−2}, one pass, into the buffer T_{k−3} held.
            let cz = Some((-1.0, &prev2));
            pm.hop_into(Dir::Forward, -2.0, 0.0, cz, &prev, &mut next);
            out.axpy(c as f32, &next);
            std::mem::swap(&mut prev2, &mut prev);
            std::mem::swap(&mut prev, &mut next);
        }
    }
    out
}

/// A regression instance: input signal, target response, and the signal id.
#[derive(Clone, Debug)]
pub struct RegressionTask {
    pub signal: Signal,
    pub input: DMat,
    pub target: DMat,
}

/// Builds the Table-7 regression task for one signal on one graph: the input
/// is a random Gaussian signal, the target its exact filtered response.
pub fn regression_task(
    pm: &PropMatrix,
    signal: Signal,
    columns: usize,
    seed: u64,
) -> RegressionTask {
    let mut rng = sgnn_dense::rng::seeded(seed);
    let input = sgnn_dense::rng::randn_mat(pm.n(), columns, 1.0, &mut rng);
    let target = apply_scalar_filter(pm, |l| signal.eval(l), &input, 96);
    RegressionTask {
        signal,
        input,
        target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_dense::eigen::sym_eigen;
    use sgnn_sparse::Graph;

    fn small_pm() -> PropMatrix {
        let g = Graph::from_edges(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (11, 0),
                (0, 6),
                (3, 9),
            ],
        );
        PropMatrix::new(&g, 0.5)
    }

    #[test]
    fn chebyshev_application_matches_eigendecomposition() {
        let pm = small_pm();
        let n = pm.n();
        let mut dense = DMat::zeros(n, n);
        for (r, c, v) in pm.adj().iter() {
            dense.set(r as usize, c as usize, -v);
        }
        for i in 0..n {
            dense.set(i, i, dense.get(i, i) + 1.0);
        }
        let eig = sym_eigen(&dense);
        let x = sgnn_dense::rng::randn_mat(n, 2, 1.0, &mut sgnn_dense::rng::seeded(0));
        for sig in Signal::all() {
            let via_cheb = apply_scalar_filter(&pm, |l| sig.eval(l), &x, 96);
            let via_eig = eig.apply_filter(|l| sig.eval(l), &x);
            let mut diff = via_cheb.clone();
            diff.sub_assign_mat(&via_eig);
            let rel = diff.norm() / via_eig.norm().max(1e-9);
            // COMBINE has a |·| kink; its Chebyshev series converges slower.
            let tol = if sig == Signal::Comb { 5e-3 } else { 1e-4 };
            assert!(rel < tol, "{}: rel err {rel:.2e}", sig.name());
        }
    }

    #[test]
    fn low_and_high_signals_are_complementary() {
        for i in 0..=20 {
            let l = 0.1 * i as f64;
            let s = Signal::Low.eval(l) + Signal::High.eval(l);
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    /// The one-pass recurrence keeps the bits of the two-pass one it
    /// replaced: a hop, then `T_{k−2}` subtracted.
    #[test]
    fn regression_target_is_the_two_pass_recurrence() {
        let params = crate::CsbmParams {
            nodes: 600,
            edges: 4000,
            ..crate::CsbmParams::default()
        };
        let g = crate::csbm::generate("s", &params, crate::Metric::Accuracy, 1).graph;
        for pm in [small_pm(), PropMatrix::new(&g, 0.5)] {
            for sig in Signal::all() {
                let task = regression_task(&pm, sig, 3, 5);
                let coeffs = ChebApprox::fit(|l| sig.eval(l), 0.0, 2.0, 96)
                    .coeffs()
                    .to_vec();
                let x = &task.input;
                let mut prev2 = x.clone();
                let mut want = prev2.scaled(coeffs[0] as f32);
                let mut prev = pm.hop(Dir::Forward, -1.0, 0.0, x);
                want.axpy(coeffs[1] as f32, &prev);
                for &c in &coeffs[2..] {
                    let mut next = pm.hop(Dir::Forward, -2.0, 0.0, &prev);
                    next.sub_assign_mat(&prev2);
                    want.axpy(c as f32, &next);
                    prev2 = prev;
                    prev = next;
                }
                let bits = |m: &DMat| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&task.target), bits(&want), "{}", sig.name());
            }
        }
    }

    #[test]
    fn regression_task_is_deterministic_and_shaped() {
        let pm = small_pm();
        let a = regression_task(&pm, Signal::Band, 3, 5);
        let b = regression_task(&pm, Signal::Band, 3, 5);
        assert_eq!(a.input, b.input);
        assert_eq!(a.target, b.target);
        assert_eq!(a.input.shape(), (12, 3));
        assert_eq!(a.target.shape(), (12, 3));
    }
}
