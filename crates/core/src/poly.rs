//! Shared polynomial-propagation helpers.
//!
//! Most filters are thin wrappers around a handful of propagation patterns:
//! powers of an affine operator, three-term recurrences, the Bernstein
//! basis, and decaying power sums (a power recurrence [`folded`]). Each
//! writes its terms into a [`TermStore`], so the same recurrence serves a
//! caller that keeps the terms and one that folds them. Centralizing them
//! keeps each filter definition close to its formula in Appendix B of the
//! paper.

use sgnn_dense::DMat;

use crate::op::ThetaValues;
use crate::spec::PropCtx;
use crate::terms::{Policy, TermStore};

/// Basis terms `(a·Ã + b·I)^k · x` for `k = 0..=hops`; each hop reads one
/// term.
pub(crate) fn affine_power_terms(
    ctx: &PropCtx<'_>,
    s: &mut TermStore<'_>,
    a: f32,
    b: f32,
    hops: usize,
) {
    if s.skips() {
        return;
    }
    s.window(1);
    s.push_input();
    for k in 0..hops {
        let mut next = s.spare();
        ctx.hop_into(a, b, None, s.term(k), &mut next);
        s.push(next);
    }
}

/// The single matrix `Σ_k coeffs[k]·T_k` of the recurrence `write` runs over
/// `x`, folded as the terms arrive — the `O(nF)`-memory path of fixed
/// filters.
pub(crate) fn folded(x: &DMat, coeffs: Vec<f32>, write: impl FnOnce(&mut TermStore<'_>)) -> DMat {
    let theta = ThetaValues::Shared(coeffs);
    let mut s = TermStore::new(x, Policy::Fold(&theta));
    write(&mut s);
    s.finish()
}

/// `(a·Ã + b·I)^k · x` for a single `k` (no intermediate retention).
pub(crate) fn affine_power(ctx: &PropCtx<'_>, x: &DMat, a: f32, b: f32, k: usize) -> DMat {
    if k == 0 {
        return x.clone();
    }
    let mut cur = DMat::scratch(x.rows(), x.cols());
    ctx.hop_into(a, b, None, x, &mut cur);
    if k > 1 {
        let mut next = DMat::scratch(x.rows(), x.cols());
        for _ in 1..k {
            ctx.hop_into(a, b, None, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
    }
    cur
}

/// A three-term recurrence: `T_0 = x`, `T_1 = a₁·Ã·x + b₁·x` with
/// `(a₁, b₁) = first`, and `T_k = a·Ã·T_{k−1} + b·T_{k−1} + c·T_{k−2}` with
/// `(a, b, c) = step(k)`, each in one pass over the edges (bit-identical to
/// the hop followed by the axpy).
pub(crate) fn three_term_terms(
    ctx: &PropCtx<'_>,
    s: &mut TermStore<'_>,
    hops: usize,
    first: (f32, f32),
    step: impl Fn(usize) -> (f32, f32, f32),
) {
    if s.skips() {
        return;
    }
    s.window(2);
    s.push_input();
    if hops >= 1 {
        let mut t = s.spare();
        ctx.hop_into(first.0, first.1, None, s.term(0), &mut t);
        s.push(t);
    }
    for k in 2..=hops {
        let (a, b, c) = step(k);
        let mut t = s.spare();
        ctx.hop_into(a, b, Some((c, s.term(k - 2))), s.term(k - 1), &mut t);
        s.push(t);
    }
}

/// Chebyshev basis terms `T_k(L̃ − I)·x` of the first kind, `k = 0..=hops`
/// (the argument `L̃ − I = −Ã` has spectrum in `[-1, 1]`):
/// `T_k = 2(L̃ − I)T_{k−1} − T_{k−2} = −2Ã·T_{k−1} − T_{k−2}`.
pub(crate) fn chebyshev_terms(ctx: &PropCtx<'_>, s: &mut TermStore<'_>, hops: usize) {
    three_term_terms(ctx, s, hops, (-1.0, 0.0), |_| (-2.0, 0.0, -1.0));
}

/// Bernstein basis terms `C(K,k)/2^K · (2I − L̃)^{K−k} L̃^k · x`,
/// `k = 0..=hops` — the paper's only `O(K²mF)` basis. No term reads
/// another: `L̃^k x` is kept aside and lifted by `(2I − L̃)^{K−k}`.
pub(crate) fn bernstein_terms(ctx: &PropCtx<'_>, s: &mut TermStore<'_>, hops: usize) {
    if s.skips() {
        return;
    }
    let x = s.input();
    let k_total = hops;
    let norm = 0.5f64.powi(k_total as i32);
    // L̃^k x computed incrementally (`None` is x itself).
    let mut lap_pow: Option<DMat> = None;
    for k in 0..=k_total {
        if k > 0 {
            lap_pow = Some(ctx.hop(-1.0, 1.0, lap_pow.as_ref().unwrap_or(x)));
        }
        let base = lap_pow.as_ref().unwrap_or(x);
        let mut t = if k == k_total {
            base.clone()
        } else {
            let mut t = s.spare();
            ctx.hop_into(1.0, 1.0, None, base, &mut t);
            for _ in 1..(k_total - k) {
                t = ctx.hop(1.0, 1.0, &t);
            }
            t
        };
        t.scale((binomial(k_total, k) * norm) as f32);
        s.push(t);
    }
}

/// Binomial coefficient as `f64` (exact for the small orders used here).
pub(crate) fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// Chebyshev polynomial of the first kind `T_k(t)`, valid for all real `t`.
pub(crate) fn cheb_t(k: usize, t: f64) -> f64 {
    if t.abs() <= 1.0 {
        (k as f64 * t.acos()).cos()
    } else if t > 1.0 {
        (k as f64 * t.acosh()).cosh()
    } else {
        let s = if k.is_multiple_of(2) { 1.0 } else { -1.0 };
        s * (k as f64 * (-t).acosh()).cosh()
    }
}

/// Chebyshev polynomial of the second kind `U_k(t)` via the recurrence.
pub(crate) fn cheb_u(k: usize, t: f64) -> f64 {
    let (mut u0, mut u1) = (1.0f64, 2.0 * t);
    match k {
        0 => u0,
        1 => u1,
        _ => {
            for _ in 2..=k {
                let u2 = 2.0 * t * u1 - u0;
                u0 = u1;
                u1 = u2;
            }
            u1
        }
    }
}

/// Legendre polynomial `P_k(t)` via the recurrence.
pub(crate) fn legendre_p(k: usize, t: f64) -> f64 {
    let (mut p0, mut p1) = (1.0f64, t);
    match k {
        0 => p0,
        1 => p1,
        _ => {
            for j in 2..=k {
                let p2 = ((2 * j - 1) as f64 * t * p1 - (j - 1) as f64 * p0) / j as f64;
                p0 = p1;
                p1 = p2;
            }
            p1
        }
    }
}

/// Jacobi polynomial `P_k^{(α,β)}(t)` via the three-term recurrence used by
/// JacobiConv (Appendix B of the paper).
pub(crate) fn jacobi_p(k: usize, alpha: f64, beta: f64, t: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let mut p0 = 1.0f64;
    let mut p1 = (alpha - beta) / 2.0 + (alpha + beta + 2.0) / 2.0 * t;
    if k == 1 {
        return p1;
    }
    for j in 2..=k {
        let jf = j as f64;
        let c = 2.0 * jf + alpha + beta;
        let d1 = (c * (c - 1.0)) / (2.0 * jf * (jf + alpha + beta));
        let d2 = ((c - 1.0) * (alpha * alpha - beta * beta))
            / (2.0 * jf * (jf + alpha + beta) * (c - 2.0));
        let d3 =
            ((jf + alpha - 1.0) * (jf + beta - 1.0) * c) / (jf * (jf + alpha + beta) * (c - 2.0));
        let p2 = (d1 * t + d2) * p1 - d3 * p0;
        p0 = p1;
        p1 = p2;
    }
    p1
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_sparse::{Graph, PropMatrix};

    fn ctx_graph() -> (Graph, ()) {
        (Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]), ())
    }

    fn kept(
        ctx: &PropCtx<'_>,
        x: &DMat,
        write: impl FnOnce(&PropCtx<'_>, &mut TermStore<'_>),
    ) -> Vec<DMat> {
        let mut s = TermStore::new(x, Policy::Keep);
        write(ctx, &mut s);
        s.into_terms()
    }

    #[test]
    fn power_terms_and_sum_agree() {
        let (g, _) = ctx_graph();
        let pm = PropMatrix::new(&g, 0.5);
        let ctx = PropCtx::forward(&pm);
        let x = DMat::from_fn(4, 2, |r, c| (r + c) as f32);
        let coeffs = [0.3f32, -0.2, 0.5, 0.1];
        let terms = kept(&ctx, &x, |c, s| affine_power_terms(c, s, 1.0, 0.0, 3));
        let combined = DMat::lin_comb(&terms, &coeffs);
        let fused = folded(&x, coeffs.to_vec(), |s| {
            affine_power_terms(&ctx, s, 1.0, 0.0, 3)
        });
        assert_eq!(combined, fused);
        assert_eq!(ctx.hops_used(), 6);
    }

    #[test]
    fn affine_power_matches_terms() {
        let (g, _) = ctx_graph();
        let pm = PropMatrix::new(&g, 0.5);
        let ctx = PropCtx::forward(&pm);
        let x = DMat::from_fn(4, 1, |r, _| r as f32);
        let terms = kept(&ctx, &x, |c, s| affine_power_terms(c, s, -1.0, 1.0, 3));
        let p3 = affine_power(&ctx, &x, -1.0, 1.0, 3);
        assert_eq!(terms[3], p3);
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(10, 5), 252.0);
        assert_eq!(binomial(3, 4), 0.0);
    }

    #[test]
    fn chebyshev_identities() {
        for i in 0..20 {
            let t = -1.0 + 0.1 * i as f64;
            // T_3(t) = 4t³ − 3t; U_2(t) = 4t² − 1.
            assert!((cheb_t(3, t) - (4.0 * t * t * t - 3.0 * t)).abs() < 1e-9);
            assert!((cheb_u(2, t) - (4.0 * t * t - 1.0)).abs() < 1e-9);
        }
        // Outside [-1, 1] the hyperbolic branch must continue the polynomial.
        assert!((cheb_t(2, 1.5) - (2.0 * 1.5 * 1.5 - 1.0)).abs() < 1e-9);
        assert!((cheb_t(3, -1.2) - (4.0 * (-1.2f64).powi(3) - 3.0 * -1.2)).abs() < 1e-9);
    }

    #[test]
    fn legendre_identities() {
        for i in 0..20 {
            let t = -1.0 + 0.1 * i as f64;
            assert!((legendre_p(2, t) - 0.5 * (3.0 * t * t - 1.0)).abs() < 1e-9);
            assert!((legendre_p(3, t) - 0.5 * (5.0 * t * t * t - 3.0 * t)).abs() < 1e-9);
        }
    }

    #[test]
    fn jacobi_reduces_to_legendre_at_zero_zero() {
        for k in 0..6 {
            for i in 0..10 {
                let t = -0.9 + 0.2 * i as f64;
                assert!(
                    (jacobi_p(k, 0.0, 0.0, t) - legendre_p(k, t)).abs() < 1e-9,
                    "k={k} t={t}"
                );
            }
        }
    }
}
