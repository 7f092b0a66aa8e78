//! Span identity and parent/child tracking.
//!
//! Every thread that opens a span gets a small dense ordinal (`thread_ord`)
//! and allocates span ids locally: `id = (ord << 40) | local_counter`, with
//! the counter starting at 1 so id `0` can mean "no parent / root". Ids are
//! therefore unique process-wide without any shared atomic on the span path.
//!
//! Open spans live on a thread-local stack; [`open_span`] pushes and returns
//! `(id, parent, depth)` where `parent` is the id below it on the stack (or
//! 0) and `depth` is the number of spans already open. Because the stack is
//! thread-local, a span's parent is always a span opened *on the same
//! thread* — cross-thread causality (a pool worker's kernel span "caused by"
//! the dispatching thread's span) is intentionally not modeled; worker spans
//! are roots of their own thread's tree.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bits reserved for the per-thread span counter (2^40 spans per thread).
const LOCAL_BITS: u32 = 40;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ORD: Cell<Option<u64>> = const { Cell::new(None) };
    static NEXT_LOCAL: Cell<u64> = const { Cell::new(1) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Small dense thread id for traces (`ThreadId` has no stable integer).
pub(crate) fn thread_ord() -> u64 {
    ORD.with(|c| {
        if let Some(v) = c.get() {
            v
        } else {
            let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(Some(v));
            v
        }
    })
}

/// Allocates a fresh span id on this thread (never 0).
fn next_id() -> u64 {
    let ord = thread_ord();
    NEXT_LOCAL.with(|c| {
        let local = c.get();
        c.set(local + 1);
        (ord << LOCAL_BITS) | (local & ((1 << LOCAL_BITS) - 1))
    })
}

/// Pushes a new open span; returns `(id, parent_id, depth)`.
pub(crate) fn open_span() -> (u64, u64, u32) {
    let id = next_id();
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        let depth = s.len() as u32;
        s.push(id);
        (id, parent, depth)
    })
}

/// Pops `id` off the open-span stack. Guards drop in LIFO order on a
/// thread, so `id` is normally the top; if an intervening guard was leaked
/// (`mem::forget`) we pop down to and including `id` so the stack cannot
/// grow without bound.
pub(crate) fn close_span(id: u64) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        while let Some(top) = s.pop() {
            if top == id {
                break;
            }
        }
    })
}

/// The id of the innermost open span on this thread (0 when none).
#[cfg(test)]
pub(crate) fn current_parent() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// `(parent_id, depth)` for a post-hoc recorded leaf span: it hangs off
/// the innermost open span without joining the stack.
pub(crate) fn record_position() -> (u64, u32) {
    STACK.with(|s| {
        let s = s.borrow();
        (s.last().copied().unwrap_or(0), s.len() as u32)
    })
}

/// Allocates an id for a post-hoc recorded span (no stack push).
pub(crate) fn leaf_id() -> u64 {
    next_id()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_monotonic_per_thread() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert!(b > a);
        assert_eq!(a >> LOCAL_BITS, b >> LOCAL_BITS);
    }

    #[test]
    fn stack_tracks_parents_and_depth() {
        // Run on a dedicated thread so other tests' stacks don't interfere.
        std::thread::spawn(|| {
            let (a, pa, da) = open_span();
            let (b, pb, db) = open_span();
            assert_eq!(pa, 0);
            assert_eq!(da, 0);
            assert_eq!(pb, a);
            assert_eq!(db, 1);
            assert_eq!(current_parent(), b);
            close_span(b);
            assert_eq!(current_parent(), a);
            close_span(a);
            assert_eq!(current_parent(), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn close_recovers_from_leaked_guards() {
        std::thread::spawn(|| {
            let (a, _, _) = open_span();
            let (_b, _, _) = open_span(); // leaked: never closed
            let (c, _, _) = open_span();
            close_span(c);
            close_span(a); // pops the leaked b too
            assert_eq!(current_parent(), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn thread_ords_are_distinct() {
        let mine = thread_ord();
        let other = std::thread::spawn(thread_ord).join().unwrap();
        assert_ne!(mine, other);
    }
}
