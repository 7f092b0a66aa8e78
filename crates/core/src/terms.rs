//! The term store under every filter's recurrence.
//!
//! A filter writes the basis terms `T_0, T_1, …` of each channel into one
//! [`TermStore`] per channel (see
//! [`SpectralFilter::propagate_into`](crate::SpectralFilter::propagate_into)),
//! and the caller's [`Policy`] decides what becomes of them:
//!
//! * [`Policy::Keep`] holds every term — the mini-batch precompute and the
//!   full-batch training forward, whose θ-gradients `⟨T_k, g⟩` read them all;
//! * [`Policy::Fold`] accumulates `Σ_k θ_k·T_k` as each term arrives, so only
//!   the recurrence's *window* — the terms its next step reads, declared with
//!   [`TermStore::window`] — stays live: the full-batch backward's adjoint
//!   and the fixed filters' pre-combined channels. `T_0 = x` is borrowed,
//!   a term that leaves the window becomes the buffer of a later one, and
//!   terms wait in the window unfolded, so one pass over the accumulator
//!   takes every term about to leave it (three at a time for a three-term
//!   recurrence);
//! * [`Policy::Skip`] marks a channel the caller does not need: its
//!   recurrence must not run (pushing a computed term panics).
//!
//! A fold gives the bits of [`combine`](crate::op::combine) over the kept
//! terms under [`Rule::FullBatch`](crate::op::Rule::FullBatch):
//! [`fold_terms`] is that rule's element arithmetic — `lin_comb`'s for
//! shared θ (the first term a product, then one FMA `axpy` per term in term
//! order), [`per_feature`] onto a zero for per-feature θ. `per_feature` is
//! also the per-feature row rule under `combine` itself, for all rows or a
//! list of ids and under either rule.

use std::borrow::Borrow;

use sgnn_dense::runtime::run_chunks;
use sgnn_dense::{obs, DMat, FirstTerm};

use crate::op::{Rows, ThetaValues};

static TERMS_FOLDED: obs::Counter = obs::Counter::new("filter.terms_folded");

/// What a [`TermStore`] does with the terms written into it.
#[derive(Clone, Copy, Debug)]
pub enum Policy<'a> {
    /// Hold every term.
    Keep,
    /// Accumulate `Σ_k θ_k·T_k` with these coefficients, one per term.
    Fold(&'a ThetaValues),
    /// Drop the channel: its recurrence must not run (pushing a computed
    /// term panics).
    Skip,
}

enum Slot {
    /// `T_k = x`, borrowed from the store's input.
    Input,
    Owned(DMat),
    /// Left the window (fold only).
    Retired,
}

/// One channel's basis terms over the signal `x`, as the policy keeps them.
pub struct TermStore<'a> {
    x: &'a DMat,
    policy: Policy<'a>,
    slots: Vec<Slot>,
    /// Most recent terms the recurrence still reads (fold only).
    window: usize,
    /// Slots below this index have left the window.
    live_from: usize,
    /// Terms below this index are in `acc`.
    folded: usize,
    acc: Option<DMat>,
    /// A retired term's buffer, handed out by [`spare`](Self::spare).
    spare: Option<DMat>,
}

impl<'a> TermStore<'a> {
    /// An empty store for the terms of signal `x`.
    pub(crate) fn new(x: &'a DMat, policy: Policy<'a>) -> Self {
        Self {
            x,
            policy,
            slots: Vec::new(),
            window: 0,
            live_from: 0,
            folded: 0,
            acc: None,
            spare: None,
        }
    }

    /// The signal the terms are built from.
    pub(crate) fn input(&self) -> &'a DMat {
        self.x
    }

    /// Whether the caller skips this channel.
    pub(crate) fn skips(&self) -> bool {
        matches!(self.policy, Policy::Skip)
    }

    /// Declares that each step of the recurrence reads at most the `depth`
    /// most recent terms (2 for three-term recurrences, 1 for powers; the
    /// default 0 for terms built from something else). A fold retires older
    /// terms; reading one through [`term`](Self::term) panics.
    pub(crate) fn window(&mut self, depth: usize) {
        self.window = depth;
    }

    /// Writes `T_k = x`: borrowed, except that `Keep` holds a copy, and
    /// nothing on a skipped channel.
    pub(crate) fn push_input(&mut self) {
        match self.policy {
            Policy::Keep => self.push(self.x.clone()),
            Policy::Fold(_) => self.write(Slot::Input),
            Policy::Skip => {}
        }
    }

    /// Writes the next term.
    pub(crate) fn push(&mut self, t: DMat) {
        assert_eq!(t.shape(), self.x.shape(), "a term has the input's shape");
        self.write(Slot::Owned(t));
    }

    /// Writes a channel's only term, `make(x)`, unless the channel is skipped.
    pub(crate) fn push_with(&mut self, make: impl FnOnce(&DMat) -> DMat) {
        if !self.skips() {
            let t = make(self.x);
            self.push(t);
        }
    }

    /// Term `k`.
    ///
    /// # Panics
    /// If `k` was not written yet, or has left a fold's window.
    pub(crate) fn term(&self, k: usize) -> &DMat {
        match &self.slots[k] {
            Slot::Input => self.x,
            Slot::Owned(t) => t,
            Slot::Retired => panic!(
                "term {k} left the recurrence's window of {} (at term {})",
                self.window,
                self.slots.len()
            ),
        }
    }

    /// A buffer for the next term, to be fully overwritten: under `Fold`
    /// the buffer of a term that left the window, when there is one.
    pub(crate) fn spare(&mut self) -> DMat {
        self.spare
            .take()
            .unwrap_or_else(|| DMat::scratch(self.x.rows(), self.x.cols()))
    }

    /// Every term, in order (`Keep` only).
    pub(crate) fn into_terms(self) -> Vec<DMat> {
        assert!(matches!(self.policy, Policy::Keep), "only Keep holds terms");
        self.slots
            .into_iter()
            .map(|s| match s {
                Slot::Owned(t) => t,
                _ => unreachable!("Keep owns every term"),
            })
            .collect()
    }

    /// `Σ_k θ_k·T_k` (`Fold` only, after the last term).
    pub(crate) fn finish(self) -> DMat {
        let Policy::Fold(theta) = self.policy else {
            panic!("only Fold accumulates");
        };
        assert_eq!(
            self.slots.len(),
            num_terms(theta),
            "the recurrence wrote {} of the channel's terms",
            self.slots.len()
        );
        self.acc.expect("a channel has at least one term")
    }

    fn write(&mut self, slot: Slot) {
        let theta = match self.policy {
            Policy::Skip => panic!("the recurrence of a skipped channel ran"),
            Policy::Keep => {
                self.slots.push(slot);
                return;
            }
            Policy::Fold(theta) => theta,
        };
        let k = self.slots.len();
        assert!(k < num_terms(theta), "term {k} has no coefficient");
        self.slots.push(slot);
        let last = k + 1 == num_terms(theta);
        // Terms below `live` leave the window with this write. Unfolded terms
        // wait in the window, so one pass over the accumulator takes every
        // term the window held.
        let live = (k + 1).saturating_sub(if last { 0 } else { self.window });
        if self.folded < live {
            self.fold_pending(theta);
        }
        self.retire_before(live);
    }

    /// Folds every term written since the last fold, in one pass.
    fn fold_pending(&mut self, theta: &ThetaValues) {
        let (from, to) = (self.folded, self.slots.len());
        self.folded = to;
        TERMS_FOLDED.add((to - from) as u64);
        let x = self.x;
        let terms: Vec<&DMat> = self.slots[from..to]
            .iter()
            .map(|s| match s {
                Slot::Input => x,
                Slot::Owned(t) => t,
                Slot::Retired => unreachable!("an unfolded term is live"),
            })
            .collect();
        fold_terms(&mut self.acc, from, &terms, theta);
    }

    /// Retires every term below index `end`, keeping one buffer as spare.
    fn retire_before(&mut self, end: usize) {
        while self.live_from < end {
            if let Slot::Owned(t) =
                std::mem::replace(&mut self.slots[self.live_from], Slot::Retired)
            {
                if self.spare.is_none() {
                    self.spare = Some(t);
                }
            }
            self.live_from += 1;
        }
    }
}

fn num_terms(theta: &ThetaValues) -> usize {
    match theta {
        ThetaValues::Shared(c) => c.len(),
        ThetaValues::PerFeature(m) => m.rows(),
    }
}

/// Adds terms `k0, k0 + 1, …` to the combination `acc` (`None` before the
/// first term) by the fold's arithmetic,
/// [`Rule::FullBatch`](crate::op::Rule::FullBatch): for shared θ
/// `lin_comb`'s (`acc = c₀·T₀`, then `acc = fma(T_k, c_k, acc)` in term
/// order), for per-feature θ [`per_feature`] onto a zeroed `acc`. Row
/// chunks spread over the pool; elements are independent, so neither the
/// pool width nor how the terms are split over calls shows in the bits.
pub(crate) fn fold_terms(acc: &mut Option<DMat>, k0: usize, terms: &[&DMat], theta: &ThetaValues) {
    assert!(acc.is_some() || k0 == 0, "a fold starts at the first term");
    match theta {
        ThetaValues::Shared(c) => {
            let c = &c[k0..k0 + terms.len()];
            match acc {
                None => *acc = Some(DMat::lin_comb(terms, c, FirstTerm::Product)),
                Some(a) => a.lin_comb_onto(terms, c),
            }
        }
        ThetaValues::PerFeature(m) => {
            let (rows, cols) = terms[0].shape();
            let a = acc.get_or_insert_with(|| DMat::zeros(rows, cols));
            per_feature(a, k0, terms, Rows::All, m, false);
        }
    }
}

/// The per-feature row rule: output row `r` takes `T_j[row] ⊙ θ_{k0+j}`
/// for each term `j` in term order, `row` being `r` or `ids[r]`. With
/// `product_first` the first product is the row's value and each later one
/// is added to it (`Rule::Tape`'s `col_scale` + `add`); otherwise every
/// product is added to `out` as it stands (`Rule::FullBatch`, onto zeros).
/// Row chunks spread over the pool.
pub(crate) fn per_feature<T: Borrow<DMat> + Sync>(
    out: &mut DMat,
    k0: usize,
    terms: &[T],
    rows: Rows<'_>,
    theta: &DMat,
    product_first: bool,
) {
    let (n, cols) = out.shape();
    assert_eq!(theta.cols(), cols, "per-feature width mismatch");
    if cols == 0 {
        return;
    }
    run_chunks(out.data_mut(), n, cols, |first_row, chunk| {
        for (j, t) in terms.iter().enumerate() {
            let (t, coef) = (t.borrow(), theta.row(k0 + j));
            for (r, o) in chunk.chunks_exact_mut(cols).enumerate() {
                let src = t.row(match rows {
                    Rows::All => first_row + r,
                    Rows::Ids(ids) => ids[first_row + r] as usize,
                });
                let pairs = o.iter_mut().zip(src).zip(coef);
                if product_first && j == 0 {
                    pairs.for_each(|((o, &tv), &cv)| *o = tv * cv);
                } else {
                    pairs.for_each(|((o, &tv), &cv)| *o += tv * cv);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{affine_power_terms, chebyshev_terms};
    use crate::spec::PropCtx;
    use sgnn_dense::rng as drng;
    use sgnn_sparse::{Graph, PropMatrix};

    fn ring(n: usize) -> PropMatrix {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        PropMatrix::new(&Graph::from_edges(n, &edges), 0.5)
    }

    /// The window is the fold's memory: a power recurrence keeps one term
    /// live and a three-term recurrence two, whatever K.
    #[test]
    fn a_fold_holds_only_the_window() {
        let pm = ring(6);
        let ctx = PropCtx::forward(&pm);
        let x = drng::randn_mat(6, 2, 1.0, &mut drng::seeded(1));
        let theta = ThetaValues::Shared(vec![0.5; 7]);
        let live = |s: &TermStore<'_>| {
            s.slots
                .iter()
                .filter(|t| !matches!(t, Slot::Retired))
                .count()
        };
        let mut s = TermStore::new(&x, Policy::Fold(&theta));
        affine_power_terms(&ctx, &mut s, 1.0, 0.0, 6);
        assert_eq!(live(&s), 0, "the last term releases the window");
        let mut s = TermStore::new(&x, Policy::Fold(&theta));
        s.window(2);
        s.push_input();
        for _ in 0..4 {
            let t = s.spare();
            s.push(t);
            assert!(live(&s) <= 2);
        }
    }

    /// A recurrence that reads deeper than the window it declared panics
    /// instead of folding a stale or reused buffer.
    #[test]
    #[should_panic(expected = "left the recurrence's window")]
    fn reading_past_the_window_panics() {
        let x = DMat::filled(4, 3, 1.0);
        let theta = ThetaValues::Shared(vec![1.0; 4]);
        let mut s = TermStore::new(&x, Policy::Fold(&theta));
        s.window(1);
        s.push_input();
        s.push(DMat::filled(4, 3, 2.0));
        s.push(DMat::filled(4, 3, 3.0));
        let _ = s.term(0);
    }

    /// Helpers return before their first hop on a skipped channel; a
    /// computed term written to one panics.
    #[test]
    #[should_panic(expected = "skipped channel")]
    fn a_skipped_channel_takes_no_terms() {
        let pm = ring(5);
        let ctx = PropCtx::forward(&pm);
        let x = DMat::filled(5, 2, 1.0);
        let mut s = TermStore::new(&x, Policy::Skip);
        chebyshev_terms(&ctx, &mut s, 3);
        s.push_input();
        s.push_with(|x| ctx.prop(1.0, 0.0, x));
        assert_eq!((ctx.hops_used(), s.slots.len()), (0, 0));
        s.push(x.clone());
    }

    #[test]
    fn the_fold_counter_counts_terms() {
        let pm = ring(5);
        let x = drng::randn_mat(5, 2, 1.0, &mut drng::seeded(2));
        let theta = ThetaValues::Shared(vec![0.25; 4]);
        let before = obs::snapshot();
        let mut s = TermStore::new(&x, Policy::Fold(&theta));
        chebyshev_terms(&PropCtx::forward(&pm), &mut s, 3);
        let _ = s.finish();
        let after = obs::snapshot();
        let folded = |s: &obs::Snapshot| s.counter("filter.terms_folded").unwrap_or(0);
        assert!(folded(&after) >= folded(&before) + 4);
    }
}
