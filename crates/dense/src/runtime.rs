//! Persistent worker-pool runtime for all parallel kernels.
//!
//! The previous parallel layer spawned fresh scoped threads on every call —
//! acceptable for the two original hot kernels, but thread creation is a
//! per-call tax of tens of microseconds that dominates dispatch cost once
//! every row-parallel kernel, filter fan-out, and backward pass goes through
//! it. This module replaces per-call spawning with a lazily created pool of
//! long-lived workers parked on a condvar.
//!
//! # Dispatch model
//!
//! A parallel call posts one *job* — `n` independent tasks, executed by
//! calling a borrowed closure with indices `0..n`. Workers (and the calling
//! thread, which always participates) claim task indices from a shared
//! atomic cursor, so load balancing is dynamic. The caller returns only when
//! all `n` tasks have completed, which is what makes lending the closure —
//! and the mutable buffers it captures — to pool threads sound.
//!
//! # Thread-count semantics
//!
//! The effective width of each dispatch is [`num_threads`] at call time:
//! an explicit [`set_threads`] override if present, otherwise `SGNN_THREADS`
//! (read once per process and cached), otherwise the machine parallelism.
//! The pool grows on demand up to the requested width; shrinking is
//! logical — excess workers simply stop being offered work — so
//! `set_threads` can resize between dispatches without tearing threads down.
//!
//! # Panic propagation
//!
//! A panicking task is caught in the worker, recorded, and re-raised on the
//! calling thread as `"worker thread panicked"` once the job drains —
//! mirroring the old `crossbeam::scope(..).expect(..)` behavior. The pool
//! itself is unharmed: no lock is held while tasks run, so a panic cannot
//! poison the dispatch mutex, and subsequent jobs run normally.
//!
//! # Nesting
//!
//! Tasks that themselves call into [`run_chunks`]/[`run_indexed`]/[`run_map`]
//! execute the nested call serially inline (tracked by a thread-local flag).
//! Posting a nested job from inside a task could otherwise idle a worker on
//! work only the pool can finish.

use std::cell::Cell;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use sgnn_obs as obs;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

// Pool observability (see the Observability section of DESIGN.md for the
// taxonomy). Utilization is derived offline as `pool.busy_ns /
// pool.lane_ns`: busy is the time lanes actually spent draining tasks, lane
// is dispatch wall-clock × lanes that joined, so the gap is parked/steal-idle
// time.
static DISPATCHES: obs::Counter = obs::Counter::new("pool.dispatches");
static TASKS: obs::Counter = obs::Counter::new("pool.tasks");
static SERIAL_INLINE: obs::Counter = obs::Counter::new("pool.serial_inline");
static NESTED_INLINE: obs::Counter = obs::Counter::new("pool.nested_inline");
static BUSY_NS: obs::Counter = obs::Counter::new("pool.busy_ns");
static LANE_NS: obs::Counter = obs::Counter::new("pool.lane_ns");
/// End-to-end dispatch latency (post → all tasks done), per dispatch.
static DISPATCH_NS: obs::Histogram = obs::Histogram::new("pool.dispatch_ns");

/// Counts a serial fallback: nested calls inside a pool task separately
/// from width-1 / tiny-problem inlining.
#[inline]
fn count_inline_fallback() {
    if in_worker() {
        NESTED_INLINE.incr();
    } else {
        SERIAL_INLINE.incr();
    }
}

/// Pins the number of worker threads (0 restores the default).
///
/// Takes effect at the next dispatch: the pool never shrinks its thread set,
/// but jobs posted after a `set_threads(n)` use at most `n` threads. The
/// Figure-5 experiment uses this to emulate hosts with slower/faster
/// CPU-side propagation.
pub fn set_threads(n: usize) {
    replace_threads(n);
}

/// [`set_threads`], returning the override it replaced.
pub(crate) fn replace_threads(n: usize) -> usize {
    THREAD_OVERRIDE.swap(n, Ordering::Relaxed)
}

/// Default thread count: `SGNN_THREADS` if set to a positive integer,
/// otherwise the machine parallelism. Computed once per process — kernel
/// dispatch must not pay an `env::var` syscall per call.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("SGNN_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Number of worker threads used by the parallel kernels.
pub fn num_threads() -> usize {
    let pinned = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if pinned > 0 {
        pinned
    } else {
        default_threads()
    }
}

thread_local! {
    /// True while this thread is executing a pool task (worker threads
    /// always; the dispatching thread during its participation). Nested
    /// parallel calls check this and run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// One posted job. Cloned into each participating thread; only `Arc`s and a
/// raw task pointer, so clones are cheap and never outlive anything they
/// don't own (the pointer is never dereferenced after the job drains —
/// see `run_tasks`).
#[derive(Clone)]
struct Job {
    task: TaskPtr,
    n: usize,
    /// Upper bound on pool workers that may join (the caller is extra).
    max_helpers: usize,
    /// Workers that have joined so far; admission ticket against
    /// `max_helpers`, which is how a `set_threads` shrink takes effect.
    joiners: Arc<AtomicUsize>,
    /// Next unclaimed task index.
    next: Arc<AtomicUsize>,
    /// Completed task count; the job is over when this reaches `n`.
    done: Arc<AtomicUsize>,
    panicked: Arc<AtomicBool>,
}

/// Lifetime-erased pointer to the borrowed task closure.
///
/// The dispatcher blocks until all `n` tasks complete, so the closure (and
/// everything it borrows) outlives every dereference; `Send`/`Sync` are
/// sound because the closure itself is `Sync` and only shared references to
/// it cross threads.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// Erases the closure borrow's lifetime so the pointer can sit in the
/// worker-visible job board.
///
/// SAFETY (caller): the dispatch that created the pointer must not return
/// until no thread can dereference it again (`run_tasks` guarantees this
/// once `done == n`).
#[allow(clippy::useless_transmute)]
fn erase<'a>(task: &'a (dyn Fn(usize) + Sync + 'a)) -> TaskPtr {
    TaskPtr(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync + 'a), *const (dyn Fn(usize) + Sync)>(
            task,
        )
    })
}

/// Mutex-guarded job board. Workers sleep on `work_cv` until `seq` moves;
/// dispatchers sleep on `done_cv` until their job's `done` count fills.
struct Board {
    seq: u64,
    job: Option<Job>,
    workers: usize,
}

struct Shared {
    board: Mutex<Board>,
    work_cv: Condvar,
    done_cv: Condvar,
}

fn shared() -> &'static Arc<Shared> {
    static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();
    SHARED.get_or_init(|| {
        Arc::new(Shared {
            board: Mutex::new(Board {
                seq: 0,
                job: None,
                workers: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        })
    })
}

fn worker_loop(shared: Arc<Shared>) {
    IN_WORKER.with(|f| f.set(true));
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut board = shared.board.lock().unwrap();
            loop {
                if board.seq != last_seq {
                    last_seq = board.seq;
                    if let Some(job) = board.job.clone() {
                        break job;
                    }
                }
                board = shared.work_cv.wait(board).unwrap();
            }
        };
        // Admission: a shrunken thread count shows up as a small
        // `max_helpers`, leaving surplus workers parked.
        if job.joiners.fetch_add(1, Ordering::Relaxed) < job.max_helpers {
            run_tasks(&job, &shared);
        }
    }
}

/// Claims and runs task indices until the cursor passes `n`.
///
/// Safety of the `task` dereference: an index `i < n` can only be claimed
/// while `done < n`, and the dispatching thread — which owns the closure's
/// borrow — does not return until `done == n`. Once the job drains, every
/// claim sees `i >= n` and the pointer is never touched again.
///
/// A lane books its busy time task by task, *before* the task counts as
/// done: when the dispatcher sees `done == n` every lane's share is in, so
/// `pool.busy_ns ≤ pool.lane_ns` holds dispatch by dispatch and a worker
/// descheduled after its last task has nothing left to add to a later
/// dispatch's (or a later `obs::reset`'s) window.
fn run_tasks(job: &Job, shared: &Shared) {
    let mut busy_since = Instant::now();
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n {
            return;
        }
        let task = unsafe { &*job.task.0 };
        if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }
        let now = Instant::now();
        BUSY_NS.add((now - busy_since).as_nanos() as u64);
        busy_since = now;
        // AcqRel chains every task's writes into the release sequence the
        // dispatcher's final Acquire load synchronizes with.
        if job.done.fetch_add(1, Ordering::AcqRel) + 1 == job.n {
            // Lock before notifying so the wakeup cannot slip between the
            // dispatcher's re-check and its wait.
            drop(shared.board.lock().unwrap());
            shared.done_cv.notify_all();
        }
    }
}

/// Posts `n` tasks, participates in draining them, and blocks until all
/// complete. Re-raises worker panics as `"worker thread panicked"`.
///
/// `max_helpers` bounds how many pool workers may join; the posting thread
/// works regardless, so total concurrency is at most `max_helpers + 1`.
fn dispatch(n: usize, max_helpers: usize, task: &(dyn Fn(usize) + Sync)) {
    debug_assert!(n > 0 && max_helpers > 0);
    let _span = obs::span!("pool.dispatch", tasks = n, helpers = max_helpers);
    DISPATCHES.incr();
    TASKS.add(n as u64);
    let dispatched_at = Instant::now();
    let shared = shared();
    let job = Job {
        task: erase(task),
        n,
        max_helpers,
        joiners: Arc::new(AtomicUsize::new(0)),
        next: Arc::new(AtomicUsize::new(0)),
        done: Arc::new(AtomicUsize::new(0)),
        panicked: Arc::new(AtomicBool::new(false)),
    };
    {
        let mut board = shared.board.lock().unwrap();
        // Grow the pool on demand up to the requested width. There is no
        // point spawning more helpers than tasks.
        let want = max_helpers.min(n);
        while board.workers < want {
            board.workers += 1;
            let worker_shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("sgnn-worker-{}", board.workers))
                .spawn(move || worker_loop(worker_shared))
                .expect("failed to spawn pool worker");
        }
        board.seq += 1;
        board.job = Some(job.clone());
        shared.work_cv.notify_all();
    }

    // Participate: the posting thread is one of the `threads` lanes. Flag it
    // as a worker so nested parallel calls from inside tasks run inline.
    IN_WORKER.with(|f| f.set(true));
    run_tasks(&job, shared);
    IN_WORKER.with(|f| f.set(false));

    let mut board = shared.board.lock().unwrap();
    while job.done.load(Ordering::Acquire) < job.n {
        board = shared.done_cv.wait(board).unwrap();
    }
    // Retire the posting if it is still ours (a concurrent dispatch may
    // have replaced it already).
    if let Some(current) = &board.job {
        if Arc::ptr_eq(&current.done, &job.done) {
            board.job = None;
        }
    }
    drop(board);

    let wall = dispatched_at.elapsed().as_nanos() as u64;
    let lanes = job.joiners.load(Ordering::Relaxed).min(max_helpers) as u64 + 1;
    LANE_NS.add(wall.saturating_mul(lanes));
    DISPATCH_NS.record(wall);

    if job.panicked.load(Ordering::Relaxed) {
        panic!("worker thread panicked");
    }
}

/// Raw-pointer wrapper that lets disjoint-range writers cross the closure
/// `Sync` bound. Every user must guarantee its index ranges are disjoint.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor rather than field access so closures capture the whole
    /// `Sync` wrapper (precise capture would otherwise grab the raw
    /// pointer field, which is not `Sync`).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Runs `f(first_row, chunk)` over contiguous chunks of whole rows of `data`.
///
/// `data` must have length `rows * cols`; each invocation receives the index
/// of its first row and a mutable slice covering complete rows. Falls back to
/// a single in-thread call when only one lane is available, the work is tiny,
/// or the call is nested inside another pool task.
pub fn run_chunks<F>(data: &mut [f32], rows: usize, cols: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(data.len(), rows * cols, "buffer must cover rows*cols");
    let threads = num_threads().min(rows.max(1));
    // Tiny problems are faster single-threaded than paying dispatch cost.
    if threads <= 1 || rows * cols < 1 << 14 || in_worker() {
        count_inline_fallback();
        f(0, data);
        return;
    }
    let rows_per = rows.div_ceil(threads);
    let n_chunks = rows.div_ceil(rows_per);
    let base = SendPtr(data.as_mut_ptr());
    dispatch(n_chunks, threads - 1, &|i: usize| {
        let first = i * rows_per;
        let take = rows_per.min(rows - first);
        // SAFETY: chunk i covers rows [first, first + take), and chunks are
        // pairwise disjoint by construction; `data` outlives the dispatch.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(first * cols), take * cols) };
        f(first, chunk);
    });
}

/// Runs `f(first_row, chunk)` over *caller-chosen* contiguous row chunks of
/// `data` — the scheduled counterpart of [`run_chunks`], for any element
/// type (the CSR builder in `sgnn-sparse` sorts `u32` column rows with it).
///
/// `boundaries` must be a monotone row partition starting at 0; chunk `i`
/// covers rows `boundaries[i]..boundaries[i + 1]` and `data` must have
/// `boundaries.last() * cols` entries. Chunks are claimed dynamically by the
/// pool, so callers that weight their boundaries by per-row cost (e.g. the
/// nnz-balanced SpMM plans in `sgnn-sparse`) get load balancing that a
/// row-count split cannot provide. Unlike [`run_chunks`] there is no
/// tiny-problem cutoff: the caller already decided the work is worth
/// scheduling (empty chunks are skipped). Falls back to one serial call for
/// width-1 pools and nested invocations, exactly like [`run_chunks`].
pub fn run_plan<T, F>(data: &mut [T], cols: usize, boundaries: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        boundaries.first() == Some(&0) && boundaries.windows(2).all(|w| w[0] <= w[1]),
        "boundaries must be a monotone partition starting at 0"
    );
    let rows = *boundaries.last().unwrap();
    assert_eq!(data.len(), rows * cols, "buffer must cover rows*cols");
    let n_chunks = boundaries.len() - 1;
    let threads = num_threads().min(n_chunks.max(1));
    if threads <= 1 || in_worker() {
        count_inline_fallback();
        f(0, data);
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    dispatch(n_chunks, threads - 1, &|i: usize| {
        let first = boundaries[i];
        let take = boundaries[i + 1] - first;
        if take == 0 {
            return;
        }
        // SAFETY: boundaries are monotone, so chunk i's rows
        // [first, first + take) are pairwise disjoint from every other
        // chunk's; `data` outlives the dispatch.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(first * cols), take * cols) };
        f(first, chunk);
    });
}

/// [`run_plan`] plus one *auxiliary* task that runs concurrently with the
/// row chunks — the primitive behind double-buffered shard prefetch in
/// `sgnn-sparse` (decode shard `k+1` while the kernel consumes shard `k`).
///
/// The aux closure is posted as the first task of the job so a free lane
/// claims it before the row chunks drain; it runs exactly once. On width-1
/// pools and nested invocations the fallback is `aux()` followed by the
/// serial kernel, so the aux work still happens (synchronously) and results
/// are bit-identical to the parallel path.
pub fn run_plan_aux<F, A>(data: &mut [f32], cols: usize, boundaries: &[usize], aux: A, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
    A: FnOnce() + Send,
{
    assert!(
        boundaries.first() == Some(&0) && boundaries.windows(2).all(|w| w[0] <= w[1]),
        "boundaries must be a monotone partition starting at 0"
    );
    let rows = *boundaries.last().unwrap();
    assert_eq!(data.len(), rows * cols, "buffer must cover rows*cols");
    let n_chunks = boundaries.len() - 1;
    let threads = num_threads().min(n_chunks + 1);
    if threads <= 1 || in_worker() {
        count_inline_fallback();
        aux();
        f(0, data);
        return;
    }
    let aux_cell: Mutex<Option<A>> = Mutex::new(Some(aux));
    let base = SendPtr(data.as_mut_ptr());
    dispatch(n_chunks + 1, threads - 1, &|i: usize| {
        if i == 0 {
            // Take under the lock, run outside it: a panicking aux must not
            // poison the cell while other lanes are still probing it.
            let taken = aux_cell.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(aux) = taken {
                aux();
            }
            return;
        }
        let first = boundaries[i - 1];
        let take = boundaries[i] - first;
        if take == 0 {
            return;
        }
        // SAFETY: boundaries are monotone, so chunk i's rows
        // [first, first + take) are pairwise disjoint from every other
        // chunk's; `data` outlives the dispatch. The aux task never touches
        // `data`.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(first * cols), take * cols) };
        f(first, chunk);
    });
}

/// Runs `f(i)` for `i` in `0..n` across the pool, each index exactly once.
///
/// Indices are claimed dynamically, so coarse uneven tasks (e.g. one filter
/// per index) balance across lanes.
pub fn run_indexed<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || in_worker() {
        count_inline_fallback();
        for i in 0..n {
            f(i);
        }
        return;
    }
    dispatch(n, threads - 1, &f);
}

/// Collects `f(i)` for `i` in `0..n` into a `Vec`, computing entries across
/// the pool. Order matches the index, exactly as the serial map would.
pub fn run_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || in_worker() {
        count_inline_fallback();
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<std::mem::MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit contents are allowed to be uninitialized.
    unsafe { slots.set_len(n) };
    let base = SendPtr(slots.as_mut_ptr());
    dispatch(n, threads - 1, &|i: usize| {
        let v = f(i);
        // SAFETY: each index is claimed exactly once, so each slot is
        // written exactly once, and slot i is touched only by task i.
        unsafe { (*base.get().add(i)).write(v) };
    });
    // If a task panicked, `dispatch` has already re-raised and we never get
    // here; on success all n slots are initialized.
    let mut slots = ManuallyDrop::new(slots);
    unsafe { Vec::from_raw_parts(slots.as_mut_ptr().cast::<T>(), n, slots.capacity()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_chunks_covers_all_rows_once() {
        let _l = pin::lock();
        let _t = pin::threads(4);
        let rows = 997;
        let cols = 33;
        let mut data = vec![0.0f32; rows * cols];
        run_chunks(&mut data, rows, cols, |first, chunk| {
            for (r, row) in chunk.chunks_exact_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (first + r) as f32;
                }
            }
        });
        for r in 0..rows {
            assert_eq!(data[r * cols], r as f32, "row {r} written exactly once");
        }
    }

    #[test]
    fn run_plan_covers_every_row_exactly_once() {
        let _l = pin::lock();
        let _t = pin::threads(4);
        let cols = 17;
        // Uneven partition, including an empty chunk.
        let boundaries = [0usize, 1, 1, 40, 200, 203];
        let rows = *boundaries.last().unwrap();
        let mut data = vec![0.0f32; rows * cols];
        run_plan(&mut data, cols, &boundaries, |first, chunk| {
            for (r, row) in chunk.chunks_exact_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (first + r) as f32 + 1.0;
                }
            }
        });
        for r in 0..rows {
            assert_eq!(data[r * cols], r as f32 + 1.0, "row {r} written once");
        }
    }

    #[test]
    fn run_plan_matches_run_chunks_bits() {
        let _l = pin::lock();
        let _t = pin::threads(3);
        let (rows, cols) = (257, 65);
        let kernel = |first: usize, chunk: &mut [f32]| {
            for (r, row) in chunk.chunks_exact_mut(cols).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = ((first + r) as f32).mul_add(0.25, c as f32 * 0.5).sin();
                }
            }
        };
        let mut a = vec![0.0f32; rows * cols];
        run_chunks(&mut a, rows, cols, kernel);
        let mut b = vec![0.0f32; rows * cols];
        run_plan(&mut b, cols, &[0, 3, 100, 101, 250, 257], kernel);
        assert_eq!(a, b, "schedule must not change per-row results");
    }

    #[test]
    fn run_plan_aux_runs_aux_once_and_matches_run_plan() {
        for width in [1usize, 4] {
            let _l = pin::lock();
            let _t = pin::threads(width);
            let cols = 9;
            let boundaries = [0usize, 2, 2, 60, 150, 151];
            let rows = *boundaries.last().unwrap();
            let kernel = |first: usize, chunk: &mut [f32]| {
                for (r, row) in chunk.chunks_exact_mut(cols).enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = ((first + r) as f32).mul_add(0.5, c as f32).cos();
                    }
                }
            };
            let mut a = vec![0.0f32; rows * cols];
            run_plan(&mut a, cols, &boundaries, kernel);
            let aux_runs = AtomicUsize::new(0);
            let mut b = vec![0.0f32; rows * cols];
            run_plan_aux(
                &mut b,
                cols,
                &boundaries,
                || {
                    aux_runs.fetch_add(1, Ordering::Relaxed);
                },
                kernel,
            );
            assert_eq!(aux_runs.load(Ordering::Relaxed), 1, "width {width}");
            assert_eq!(a, b, "aux task must not perturb kernel results");
        }
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn run_plan_aux_propagates_aux_panic() {
        let _l = pin::lock();
        let _t = pin::threads(4);
        let mut data = vec![0.0f32; 100 * 4];
        run_plan_aux(
            &mut data,
            4,
            &[0, 50, 100],
            || panic!("aux failed"),
            |_, _| {},
        );
    }

    #[test]
    fn run_indexed_visits_every_index() {
        let _l = pin::lock();
        let _t = pin::threads(4);
        let sum = AtomicU64::new(0);
        run_indexed(1000, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn run_map_preserves_index_order() {
        let _l = pin::lock();
        let _t = pin::threads(4);
        let out = run_map(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let _l = pin::lock();
        let _t = pin::threads(4);
        let total = AtomicU64::new(0);
        run_indexed(8, |_| {
            // Inner call must not deadlock or double-count; it runs serially
            // on whichever lane executes this task.
            run_indexed(10, |j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 45);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn task_panic_propagates_to_dispatcher() {
        let _l = pin::lock();
        let _t = pin::threads(4);
        run_indexed(64, |i| {
            if i == 17 {
                panic!("boom in task");
            }
        });
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let _l = pin::lock();
        let _t = pin::threads(4);
        let poisoned = std::panic::catch_unwind(|| {
            run_indexed(64, |i| {
                if i % 7 == 3 {
                    panic!("repeated failure");
                }
            });
        });
        assert!(poisoned.is_err(), "panicking job must re-raise");
        // The pool must keep dispatching normally afterwards: no poisoned
        // locks, no wedged workers.
        let sum = AtomicU64::new(0);
        run_indexed(500, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 499 * 500 / 2);
        let mut data = vec![1.0f32; 64 * 512];
        run_chunks(&mut data, 64, 512, |_, chunk| {
            for v in chunk {
                *v += 1.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn resize_between_dispatches_changes_width() {
        let _l = pin::lock();
        let _t = pin::threads(1);
        let seen = AtomicUsize::new(0);
        // Width 1: everything runs on the calling thread.
        run_indexed(32, |_| {
            assert!(in_worker() || num_threads() == 1);
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 32);
        // Resize mid-sequence; the next dispatch uses the new width and
        // still visits every index exactly once.
        set_threads(6);
        let sum = AtomicU64::new(0);
        run_indexed(1000, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }
}
