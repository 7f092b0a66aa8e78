//! Filters as data: the polynomial bases of Table 1, the one interpreter
//! that reads them, and [`Polynomial`], the filter made of them.
//!
//! A [`Basis`] names one family and its parameters: affine powers
//! `(a·Ã + b·I)^k` (every term, the last alone, or with Horner's residual),
//! three-term recurrences with per-`k` coefficients (Chebyshev, Clenshaw,
//! Legendre, Jacobi), Bernstein, G²CN's concentrated Gaussian, the input
//! itself, and any of these folded with fixed coefficients. The interpreter
//! runs a description twice: on `Ã` through [`PropCtx::hop_into`], writing
//! the terms into a [`TermStore`] ([`Basis::write`]), and on a scalar `λ` in
//! `f64` ([`Basis::value`]), with `Ã` standing for its eigenvalue `1 − λ`.
//! Both read the same coefficients, so a filter's propagation and its
//! frequency response cannot drift apart.

use sgnn_dense::DMat;

use crate::filter::SpectralFilter;
use crate::op::ThetaValues;
use crate::spec::{ChannelSpec, FilterSpec, Fusion, PropCtx, ThetaSpec};
use crate::terms::{Policy, TermStore};

/// One channel's basis `T_0, T_1, …` as data.
#[derive(Clone, Debug)]
pub(crate) enum Basis {
    /// `T_0 = x`: one term.
    Input,
    /// `T_k = (a·Ã + b·I)^k·x` for `k = 0..=hops`, each hop reading the
    /// last term. With `residual` each step also adds `x` (Horner:
    /// `T_{k+1} = (a·Ã + b·I)·T_k + x`).
    Powers {
        a: f32,
        b: f32,
        hops: usize,
        residual: bool,
    },
    /// `(a·Ã + b·I)^hops·x` alone: one term.
    Power { a: f32, b: f32, hops: usize },
    /// `T_0 = x` and `T_k = a_k·Ã·T_{k−1} + b_k·T_{k−1} + c_k·T_{k−2}` with
    /// `(a_k, b_k, c_k)` the `k`-th entry (`T_{−1} = 0`), each term in one
    /// pass over the edges.
    ThreeTerm(Vec<(f32, f32, f32)>),
    /// `C(K,k)/2^K · (2I − L̃)^{K−k} L̃^k · x` for `k = 0..=hops` — the
    /// paper's only `O(K²mF)` basis.
    Bernstein { hops: usize },
    /// `(I − s·(L̃ − μI)²)^{K'}·x` with `K' = max(⌊K/2⌋, 1)` and
    /// `s = α/K'` — G²CN's concentrated Gaussian `≈ e^{−α(λ−μ)²}`, two hops
    /// per step: one term.
    Gaussian {
        alpha: f32,
        center: f32,
        hops: usize,
    },
    /// `Σ_k c_k·T_k` of the inner basis, folded as its terms arrive: one
    /// term in `O(nF)` working memory (a fixed filter's pre-combined
    /// channel).
    Folded(Box<Basis>, Vec<f32>),
}

impl Basis {
    /// `(a·Ã + b·I)^k·x` for every `k ≤ hops`.
    pub(crate) fn powers(a: f32, b: f32, hops: usize) -> Self {
        Basis::Powers {
            a,
            b,
            hops,
            residual: false,
        }
    }

    /// The three-term recurrence of `hops` terms past `x`: `first` is
    /// `(a_1, b_1)`, and `step(k)` gives `(a_k, b_k, c_k)` for `k ≥ 2`.
    pub(crate) fn three_term(
        hops: usize,
        first: (f32, f32),
        step: impl Fn(usize) -> (f32, f32, f32),
    ) -> Self {
        let steps = (1..=hops).map(|k| {
            if k == 1 {
                (first.0, first.1, 0.0)
            } else {
                step(k)
            }
        });
        Basis::ThreeTerm(steps.collect())
    }

    /// Chebyshev polynomials of the first kind `T_k(L̃ − I)`, `k ≤ hops`
    /// (`L̃ − I = −Ã` has spectrum in `[−1, 1]`):
    /// `T_k = −2Ã·T_{k−1} − T_{k−2}`.
    pub(crate) fn chebyshev(hops: usize) -> Self {
        Self::three_term(hops, (-1.0, 0.0), |_| (-2.0, 0.0, -1.0))
    }

    /// This basis folded with `coeffs`, one per term.
    pub(crate) fn folded(self, coeffs: Vec<f32>) -> Self {
        assert_eq!(coeffs.len(), self.num_terms(), "a coefficient per term");
        Basis::Folded(Box::new(self), coeffs)
    }

    /// The number of terms the basis makes.
    pub(crate) fn num_terms(&self) -> usize {
        match self {
            Basis::Powers { hops, .. } | Basis::Bernstein { hops } => hops + 1,
            Basis::ThreeTerm(steps) => steps.len() + 1,
            Basis::Input | Basis::Power { .. } | Basis::Gaussian { .. } | Basis::Folded(..) => 1,
        }
    }

    /// Writes the terms of the store's input into the store, hop by hop;
    /// nothing on a skipped channel. A recurrence declares the window it
    /// reads, and writes each term over a retired one's buffer.
    pub(crate) fn write(&self, ctx: &PropCtx<'_>, s: &mut TermStore<'_>) {
        if s.skips() {
            return;
        }
        match *self {
            Basis::Input => s.push_input(),
            Basis::Powers {
                a,
                b,
                hops,
                residual,
            } => {
                s.window(1);
                s.push_input();
                for k in 0..hops {
                    let mut next = s.spare();
                    ctx.hop_into(a, b, None, s.term(k), &mut next);
                    if residual {
                        next.add_assign_mat(s.input());
                    }
                    s.push(next);
                }
            }
            Basis::ThreeTerm(ref steps) => {
                s.window(2);
                s.push_input();
                for (k, &(a, b, c)) in steps.iter().enumerate() {
                    let mut t = s.spare();
                    let cz = k.checked_sub(1).map(|j| (c, s.term(j)));
                    ctx.hop_into(a, b, cz, s.term(k), &mut t);
                    s.push(t);
                }
            }
            Basis::Bernstein { hops } => bernstein(ctx, s, hops),
            Basis::Power { .. } | Basis::Gaussian { .. } | Basis::Folded(..) => {
                s.push_with(|x| self.single(ctx, x));
            }
        }
    }

    /// The one term of a single-term basis over `x`.
    fn single(&self, ctx: &PropCtx<'_>, x: &DMat) -> DMat {
        match self {
            Basis::Input => x.clone(),
            &Basis::Power { a, b, hops } => {
                if hops == 0 {
                    return x.clone();
                }
                let mut cur = DMat::scratch(x.rows(), x.cols());
                ctx.hop_into(a, b, None, x, &mut cur);
                if hops > 1 {
                    let mut next = DMat::scratch(x.rows(), x.cols());
                    for _ in 1..hops {
                        ctx.hop_into(a, b, None, &cur, &mut next);
                        std::mem::swap(&mut cur, &mut next);
                    }
                }
                cur
            }
            &Basis::Gaussian {
                alpha,
                center,
                hops,
            } => {
                let iters = gaussian_iters(hops);
                let step = alpha / iters as f32;
                let mut h = x.clone();
                for _ in 0..iters {
                    // (L̃ − μI) = (1 − μ)I − Ã, applied twice.
                    let l1 = ctx.hop(-1.0, 1.0 - center, &h);
                    let l2 = ctx.hop(-1.0, 1.0 - center, &l1);
                    h.axpy(-step, &l2);
                }
                h
            }
            Basis::Folded(inner, coeffs) => {
                let theta = ThetaValues::Shared(coeffs.clone());
                let mut s = TermStore::new(x, Policy::Fold(&theta));
                inner.write(ctx, &mut s);
                s.finish()
            }
            Basis::Powers { .. } | Basis::ThreeTerm(_) | Basis::Bernstein { .. } => {
                panic!("a {}-term basis has no single term", self.num_terms())
            }
        }
    }

    /// Term `k` at eigenvalue `λ` of `L̃`: the same family and coefficients
    /// in `f64`, with `a·Ã + b·I` standing for `a·(1 − λ) + b`.
    pub(crate) fn value(&self, k: usize, lambda: f64) -> f64 {
        match *self {
            Basis::Input => 1.0,
            Basis::Powers {
                a,
                b,
                residual: false,
                ..
            } => affine(a, b, lambda).powi(k as i32),
            Basis::Powers {
                a,
                b,
                residual: true,
                ..
            } => (0..=k).map(|i| affine(a, b, lambda).powi(i as i32)).sum(),
            Basis::Power { a, b, hops } => affine(a, b, lambda).powi(hops as i32),
            Basis::ThreeTerm(ref steps) => {
                let (mut prev, mut cur) = (0.0, 1.0);
                for &(a, b, c) in &steps[..k] {
                    (prev, cur) = (cur, affine(a, b, lambda) * cur + c as f64 * prev);
                }
                cur
            }
            Basis::Bernstein { hops } => {
                binomial(hops, k)
                    * 0.5f64.powi(hops as i32)
                    * (2.0 - lambda).powi((hops - k) as i32)
                    * lambda.powi(k as i32)
            }
            Basis::Gaussian {
                alpha,
                center,
                hops,
            } => {
                let iters = gaussian_iters(hops);
                let step = alpha as f64 / iters as f64;
                let d = lambda - center as f64;
                (1.0 - step * d * d).powi(iters as i32)
            }
            Basis::Folded(ref inner, ref coeffs) => coeffs
                .iter()
                .enumerate()
                .map(|(k, &c)| c as f64 * inner.value(k, lambda))
                .sum(),
        }
    }
}

/// `a·Ã + b·I` at eigenvalue `λ` of `L̃`, written `(a + b) − a·λ`: the
/// rounding of the closed forms the responses were printed from, such as
/// `(β + 1) − λ`, `2 − λ` and `λ`.
fn affine(a: f32, b: f32, lambda: f64) -> f64 {
    (a as f64 + b as f64) - a as f64 * lambda
}

fn gaussian_iters(hops: usize) -> usize {
    (hops / 2).max(1)
}

/// Bernstein terms: no term reads another, so `L̃^k x` is kept aside and
/// lifted by `(2I − L̃)^{K−k}`.
fn bernstein(ctx: &PropCtx<'_>, s: &mut TermStore<'_>, k_total: usize) {
    let x = s.input();
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
fn binomial(n: usize, k: usize) -> f64 {
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

/// `1/(K+1)` for each of the `K + 1` terms.
pub(crate) fn uniform(hops: usize) -> Vec<f32> {
    vec![1.0 / (hops + 1) as f32; hops + 1]
}

/// `[1, 0, …, 0]`: the identity response over an orthogonal basis.
pub(crate) fn unit(hops: usize) -> Vec<f32> {
    let mut v = vec![0.0; hops + 1];
    v[0] = 1.0;
    v
}

/// Personalized-PageRank weights `α(1 − α)^k`, `k = 0..=hops`.
pub(crate) fn ppr_weights(hops: usize, alpha: f32) -> Vec<f32> {
    (0..=hops)
        .map(|k| alpha * (1.0 - alpha).powi(k as i32))
        .collect()
}

/// A filter made of bases: its name and order, one
/// `(basis, θ)` per channel and how they fuse. The one [`SpectralFilter`]
/// implementation behind every filter whose basis has no trainable part.
#[derive(Clone, Debug)]
pub(crate) struct Polynomial {
    name: &'static str,
    hops: usize,
    spec: FilterSpec,
    /// One basis per channel of `spec`.
    bases: Vec<Basis>,
    /// A single-term basis computed once that every channel then runs
    /// over; its channels are single-term (GNN-LF/HF's shared PPR).
    shared: Option<Basis>,
    /// False for the iterative-only banks, which Table 10 leaves out.
    mini_batch: bool,
}

impl Polynomial {
    /// A filter of the given channels `(name, basis, θ)`.
    ///
    /// # Panics
    /// If a channel's θ does not hold a coefficient per basis term, or the
    /// fusion does not fit the channels.
    pub(crate) fn new(
        name: &'static str,
        hops: usize,
        channels: Vec<(&'static str, Basis, ThetaSpec)>,
        fusion: Fusion,
    ) -> Self {
        let (channels, bases) = channels
            .into_iter()
            .map(|(ch, basis, theta)| {
                assert_eq!(
                    basis.num_terms(),
                    theta.num_terms(),
                    "{name}.{ch}: a coefficient per basis term"
                );
                (ChannelSpec { name: ch, theta }, basis)
            })
            .unzip();
        let spec = FilterSpec {
            channels,
            fusion,
            extra: Vec::new(),
        };
        spec.validate();
        Self {
            name,
            hops,
            spec,
            bases,
            shared: None,
            mini_batch: true,
        }
    }

    /// A one-channel filter.
    pub(crate) fn single(name: &'static str, hops: usize, basis: Basis, theta: ThetaSpec) -> Self {
        let channels = vec![("main", basis, theta)];
        Self::new(name, hops, channels, Fusion::FixedSum(vec![1.0]))
    }

    /// Every channel run over `shared`'s one term instead of the input.
    pub(crate) fn after(mut self, shared: Basis) -> Self {
        assert!(
            std::iter::once(&shared)
                .chain(&self.bases)
                .all(|b| b.num_terms() == 1),
            "{}: a shared basis feeds single-term channels",
            self.name
        );
        self.shared = Some(shared);
        self
    }

    /// Trained by the full-batch scheme only.
    pub(crate) fn full_batch_only(mut self) -> Self {
        self.mini_batch = false;
        self
    }
}

impl SpectralFilter for Polynomial {
    fn name(&self) -> &'static str {
        self.name
    }
    fn hops(&self) -> usize {
        self.hops
    }
    fn spec(&self, _f: usize) -> FilterSpec {
        self.spec.clone()
    }
    fn propagate_into(&self, ctx: &PropCtx<'_>, x: &DMat, out: &mut [TermStore<'_>]) {
        let Some(shared) = &self.shared else {
            for (basis, s) in self.bases.iter().zip(out) {
                basis.write(ctx, s);
            }
            return;
        };
        if out.iter().all(TermStore::skips) {
            return;
        }
        let p = shared.single(ctx, x);
        for (basis, s) in self.bases.iter().zip(out) {
            s.push_with(|_| basis.single(ctx, &p));
        }
    }
    fn basis_value(&self, q: usize, k: usize, lambda: f64) -> f64 {
        let v = self.bases[q].value(k, lambda);
        match &self.shared {
            Some(shared) => v * shared.value(0, lambda),
            None => v,
        }
    }
    fn mb_compatible(&self) -> bool {
        self.mini_batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_sparse::{Graph, PropMatrix};

    fn ring4() -> PropMatrix {
        PropMatrix::new(
            &Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            0.5,
        )
    }

    fn kept(ctx: &PropCtx<'_>, x: &DMat, basis: &Basis) -> Vec<DMat> {
        let mut s = TermStore::new(x, Policy::Keep);
        basis.write(ctx, &mut s);
        s.into_terms()
    }

    #[test]
    fn power_terms_and_sum_agree() {
        let pm = ring4();
        let ctx = PropCtx::forward(&pm);
        let x = DMat::from_fn(4, 2, |r, c| (r + c) as f32);
        let coeffs = [0.3f32, -0.2, 0.5, 0.1];
        let terms = kept(&ctx, &x, &Basis::powers(1.0, 0.0, 3));
        let combined = DMat::lin_comb(&terms, &coeffs);
        let fused = Basis::powers(1.0, 0.0, 3)
            .folded(coeffs.to_vec())
            .single(&ctx, &x);
        assert_eq!(combined, fused);
        assert_eq!(ctx.hops_used(), 6);
    }

    #[test]
    fn affine_power_matches_terms() {
        let pm = ring4();
        let ctx = PropCtx::forward(&pm);
        let x = DMat::from_fn(4, 1, |r, _| r as f32);
        let terms = kept(&ctx, &x, &Basis::powers(-1.0, 1.0, 3));
        let p3 = Basis::Power {
            a: -1.0,
            b: 1.0,
            hops: 3,
        };
        assert_eq!(terms[3], p3.single(&ctx, &x));
        assert_eq!(p3.value(0, 0.7), Basis::powers(-1.0, 1.0, 3).value(3, 0.7));
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(10, 5), 252.0);
        assert_eq!(binomial(3, 4), 0.0);
    }

    /// The Chebyshev recurrence at `λ` is `T_k(λ − 1)`, and Clenshaw's is
    /// the second kind `U_k(λ − 1)`.
    #[test]
    fn chebyshev_identities() {
        let cheb = Basis::chebyshev(3);
        let clenshaw = Basis::three_term(3, (-2.0, 0.0), |_| (-2.0, 0.0, -1.0));
        for i in 0..=20 {
            let lambda = 0.1 * i as f64;
            let t = lambda - 1.0;
            assert!((cheb.value(3, lambda) - (4.0 * t * t * t - 3.0 * t)).abs() < 1e-12);
            assert!((clenshaw.value(2, lambda) - (4.0 * t * t - 1.0)).abs() < 1e-12);
        }
    }

    /// Legendre's recurrence: `P_k = ((2k−1)·t·P_{k−1} − (k−1)·P_{k−2})/k`
    /// at `t = λ − 1`, with its `f32` step coefficients.
    fn legendre(hops: usize) -> Basis {
        Basis::three_term(hops, (-1.0, 0.0), |k| {
            let kf = k as f32;
            (-(2.0 * kf - 1.0) / kf, 0.0, -(kf - 1.0) / kf)
        })
    }

    #[test]
    fn legendre_identities() {
        let p = legendre(3);
        for i in 0..=20 {
            let lambda = 0.1 * i as f64;
            let t = lambda - 1.0;
            assert!((p.value(2, lambda) - 0.5 * (3.0 * t * t - 1.0)).abs() < 1e-7);
            assert!((p.value(3, lambda) - 0.5 * (5.0 * t * t * t - 3.0 * t)).abs() < 1e-7);
        }
    }

    /// Jacobi at `a = b = 0` is Legendre at `1 − λ`: `P_k(−t) = (−1)^k P_k(t)`.
    #[test]
    fn jacobi_reduces_to_legendre_at_zero_zero() {
        let jacobi = crate::variable::jacobi("Jacobi", 5, 0.0, 0.0);
        let p = legendre(5);
        for k in 0..=5 {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            for i in 0..=10 {
                let lambda = 0.2 * i as f64;
                let (j, l) = (jacobi.basis_value(0, k, lambda), p.value(k, lambda));
                assert!((j - sign * l).abs() < 1e-6, "k={k} λ={lambda}: {j} vs {l}");
            }
        }
    }
}
