//! Per-cell recycling of [`DMat`](crate::DMat) buffers.
//!
//! A training step builds a tape of `n × F` matrices and drops them all at
//! once; with the system allocator that is a `malloc` of fresh pages per
//! matrix and a trim back to the OS per step, so every epoch page-faults
//! its whole working set in again. While a [`scope`] guard is alive on a
//! thread, `DMat`'s `Drop` parks its buffer here instead and `DMat::zeros`,
//! `scratch`, `clone` and `map` pick one of exactly the requested length
//! back up — epoch 1 allocates as before, later epochs run on the same
//! pages.
//!
//! Rules, all local to this module:
//!
//! * **Lifetime.** The pool holds buffers only while a guard exists on the
//!   thread and is emptied when the outermost one drops (unwinding included),
//!   so nothing is retained across cells and another cell's shapes never sit
//!   on this cell's peak.
//! * **Exact length.** A request is served only by a buffer of the same
//!   length: no slack bytes, no search, and a reused matrix owns exactly what
//!   a fresh one would.
//! * **Bounded.** A length accepts a buffer back only against one it handed
//!   out (recycled or announced as a fresh allocation), so buffers that
//!   arrive from elsewhere — allocated on a worker thread, or built with
//!   `from_vec` — cannot pile up epoch after epoch.
//! * **Small buffers bypass.** Under 64 KiB `malloc` reuses its own free
//!   lists without going back to the OS; there is nothing to save.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;

use sgnn_obs as obs;

/// Shortest buffer (in `f32` entries) the pool handles: 64 KiB.
const MIN_LEN: usize = 64 * 1024 / std::mem::size_of::<f32>();

static REUSED: obs::Counter = obs::Counter::new("dense.pool.reused");
static FRESH: obs::Counter = obs::Counter::new("dense.pool.fresh");

/// Free buffers of one length, and how many of that length are out.
#[derive(Default)]
struct Bin {
    free: Vec<Vec<f32>>,
    out: usize,
}

#[derive(Default)]
struct Pool {
    /// Live [`Scope`] guards on this thread.
    depth: usize,
    bins: HashMap<usize, Bin>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Keeps this thread's pool alive; see [`scope`].
#[must_use = "the pool is live only while the guard is"]
pub struct Scope {
    /// The guard counts on its own thread's pool, so it must stay there.
    _not_send: PhantomData<*const ()>,
}

/// Opens the calling thread's pool until the returned guard drops. Guards
/// nest: an inner one shares the outer pool, and only the outermost drop
/// frees what the pool holds.
pub fn scope() -> Scope {
    POOL.with(|p| p.borrow_mut().depth += 1);
    Scope {
        _not_send: PhantomData,
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown finds the pool
        // already destroyed, and with it everything it held.
        let _ = POOL.try_with(|p| {
            let mut pool = p.borrow_mut();
            pool.depth -= 1;
            if pool.depth == 0 {
                pool.bins = HashMap::new();
            }
        });
    }
}

/// A recycled buffer of exactly `len` entries with unspecified (but
/// initialised) contents, or `None` when the caller must allocate: no scope
/// on this thread, `len` under [`MIN_LEN`], or nothing of that length free.
#[inline]
pub(crate) fn take(len: usize) -> Option<Vec<f32>> {
    if len < MIN_LEN {
        return None;
    }
    take_large(len)
}

fn take_large(len: usize) -> Option<Vec<f32>> {
    let recycled = POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.depth == 0 {
            return None;
        }
        let bin = pool.bins.entry(len).or_default();
        bin.out += 1;
        Some(bin.free.pop())
    })?;
    if recycled.is_some() {
        REUSED.incr();
    } else {
        FRESH.incr();
    }
    recycled
}

/// Parks `buf` for a later [`take`] of the same length, or drops it (see the
/// module rules).
#[inline]
pub(crate) fn give(buf: Vec<f32>) {
    if buf.len() >= MIN_LEN {
        give_large(buf);
    }
}

fn give_large(buf: Vec<f32>) {
    // `try_with`: matrices dropped during thread teardown are just freed.
    let _ = POOL.try_with(|p| {
        let mut pool = p.borrow_mut();
        if pool.depth == 0 {
            return;
        }
        if let Some(bin) = pool.bins.get_mut(&buf.len()) {
            if bin.out > 0 {
                bin.out -= 1;
                bin.free.push(buf);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DMat;

    /// Buffers this thread's pool holds right now.
    fn retained() -> usize {
        POOL.with(|p| p.borrow().bins.values().map(|b| b.free.len()).sum())
    }

    /// Rows of a 64-column matrix exactly at the threshold.
    const ROWS: usize = MIN_LEN / 64;

    #[test]
    fn outside_a_scope_nothing_is_kept() {
        drop(DMat::zeros(ROWS, 64));
        assert_eq!(retained(), 0);
        assert!(take(MIN_LEN).is_none());
    }

    #[test]
    fn reuses_exact_length_only() {
        let _s = scope();
        let mut a = DMat::zeros(ROWS, 64);
        a.fill(7.0);
        let ptr = a.data().as_ptr();
        drop(a);
        assert_eq!(retained(), 1);
        // One row more or less is a different length: fresh allocations.
        let longer = DMat::zeros(ROWS + 1, 64);
        assert_eq!(retained(), 1);
        // Same length, other shape: the parked buffer, zeroed again.
        let b = DMat::zeros(ROWS * 2, 32);
        assert_eq!(b.data().as_ptr(), ptr);
        assert!(b.data().iter().all(|&v| v == 0.0));
        assert_eq!(retained(), 0);
        drop((b, longer));
        assert_eq!(retained(), 2);
    }

    #[test]
    fn every_pooled_constructor_recycles_and_overwrites() {
        let _s = scope();
        let src = DMat::from_fn(ROWS, 64, |r, c| (r * 64 + c) as f32);
        type Build = fn(&DMat) -> DMat;
        // (constructor, whether it defines the contents)
        let builders: [(Build, bool); 5] = [
            (|m| m.clone(), true),
            (|m| m.map(|v| v + 1.0), true),
            (|m| m.scaled(2.0), true),
            (|m| DMat::zeros(m.rows(), m.cols()), true),
            (|m| DMat::scratch(m.rows(), m.cols()), false),
        ];
        for (build, defines_contents) in builders {
            let first = build(&src);
            let mut dirty = src.clone();
            dirty.fill(f32::NAN);
            let ptr = dirty.data().as_ptr();
            drop(dirty);
            let again = build(&src);
            assert_eq!(again.data().as_ptr(), ptr, "recycled");
            assert_eq!(again.shape(), src.shape());
            if defines_contents {
                assert_eq!(again, first, "nothing of the old contents shows");
            }
        }
    }

    #[test]
    fn small_buffers_bypass() {
        let _s = scope();
        drop(DMat::zeros(ROWS - 1, 64));
        drop(DMat::zeros(3, 3));
        assert_eq!(retained(), 0);
        assert!(POOL.with(|p| p.borrow().bins.is_empty()));
    }

    #[test]
    fn foreign_buffers_do_not_accumulate() {
        let _s = scope();
        // Never announced to the pool: refused while nothing of the length
        // is out …
        drop(DMat::from_vec(ROWS, 64, vec![1.0; MIN_LEN]));
        assert_eq!(retained(), 0);
        // … and accepted only in place of one that is.
        let own = DMat::zeros(ROWS, 64);
        for _ in 0..5 {
            drop(DMat::from_vec(ROWS, 64, vec![1.0; MIN_LEN]));
        }
        assert_eq!(retained(), 1);
        drop(own);
        assert_eq!(retained(), 1);
    }

    #[test]
    fn into_vec_leaves_with_its_buffer() {
        let _s = scope();
        let v = DMat::zeros(ROWS, 64).into_vec();
        assert_eq!(v.len(), MIN_LEN);
        assert_eq!(retained(), 0);
    }

    #[test]
    fn nested_scopes_share_the_outer_pool() {
        let outer = scope();
        drop(DMat::zeros(ROWS, 64));
        {
            let _inner = scope();
            assert_eq!(retained(), 1, "inner scope sees the outer buffers");
            drop(DMat::zeros(ROWS, 32 * 3));
        }
        assert_eq!(retained(), 2, "inner drop frees nothing");
        drop(outer);
        assert_eq!(retained(), 0);
        assert!(take(MIN_LEN).is_none(), "pool is closed again");
    }

    #[test]
    fn a_panicking_cell_leaves_the_pool_empty() {
        let result = std::panic::catch_unwind(|| {
            let _s = scope();
            let live = DMat::zeros(ROWS, 64);
            drop(DMat::zeros(ROWS, 64));
            assert_eq!(retained(), 1);
            if live.rows() == ROWS {
                panic!("cell failed");
            }
        });
        assert!(result.is_err());
        assert_eq!(retained(), 0);
        assert_eq!(POOL.with(|p| p.borrow().depth), 0);
        // The matrix that was live during the unwind was parked and freed
        // with the rest; the next cell starts from nothing.
        drop(DMat::zeros(ROWS, 64));
        assert_eq!(retained(), 0);
    }
}
