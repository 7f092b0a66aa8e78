//! The TCP serving loop: accept → decode → admission → batching queue →
//! one dense transform per coalesced batch → per-request replies.
//!
//! Threading model: each piece of server state belongs to the one thread
//! that uses it. `sgnn-serve-accept` owns the connections: it enforces
//! [`ServeConfig::max_conns`], closes sockets silent past
//! [`ServeConfig::idle_timeout`], and hands each connection to its own
//! `sgnn-serve-conn` reader (blocking socket reads poll a shutdown flag via
//! a read timeout). `sgnn-serve-batch` owns the bounded request queue, the
//! engine and the LRU cache: it lingers up to [`ServeConfig::linger`] to
//! coalesce concurrent queries into one transform, with a batch-row cap
//! that adapts to queue depth (`Admission::batch_rows`). A panic inside a
//! batch is caught there: the unwind drops the batch's tickets, each
//! replying `Internal`, and the batcher goes on — counted in
//! `serve.batcher_restarts`. All dense math inside a batch runs on the
//! shared `sgnn_dense::runtime` worker pool, exactly like training.
//!
//! Degradation ladder (never a crash, never a hang):
//!
//! 1. malformed / stalled frame → `BadFrame` reply, connection closed
//!    (framing lost; a stalled partial frame is the slowloris case);
//! 2. oversized / out-of-range query → typed reply, connection stays;
//! 3. connection or in-flight cap hit → `Overloaded` reply with a
//!    `retry_after_ms` hint;
//! 4. predicted-hopeless deadline → shed at enqueue with `Overloaded`
//!    (see `crate::admission`);
//! 5. full queue → immediate `Backpressure` reply;
//! 6. expired deadline → `Timeout` reply (checked at dequeue *and* again
//!    after the transform);
//! 7. injected/internal batch failure → `Internal` reply to the whole
//!    batch; a batch *panic* → `Internal` to that batch's requests. The
//!    server keeps serving in every case.
//!
//! Request conservation: every `Query` counted in `serve.requests` ends
//! in exactly one bucket —
//! `serve.requests == serve.batches + serve.batch.coalesced + serve.shed
//! + serve.rejected` (batches+coalesced = reached a batch; shed =
//! admission; rejected = `TooLarge` / `Backpressure` / in-flight cap).
//! The batch-reached counters are bumped *before* the fault-injection
//! point in [`run_batch`], so the law survives a batcher panic.
//!
//! Hot reload: a `Reload` admin frame — or a `reload.request` marker file
//! in the bundle directory — makes the batcher load a fresh engine from
//! disk, run its `ServeEngine::self_test`, and only then swap it in
//! under a new generation tag (invalidating the LRU cache). A bundle that
//! fails to decode, pair, or self-test is discarded and the previous
//! engine keeps serving (`serve.reload.failed`).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sgnn_obs::{self as obs, Counter, Histogram};

use crate::admission::Admission;
use crate::bundle;
use crate::conn::{Conn, Ticket};
use crate::engine::ServeEngine;
use crate::faults::{self, Injected};
use crate::lru::LruCache;
use crate::wire::{decode_request, ErrorCode, FramePoll, FrameReader, Request, Response, MAX_BODY};

// Request-path observability (ISSUE 8/9): counts, queue/transform latency,
// batch shape, and the self-healing events. `serve.batch` /
// `serve.requests` are CI-required; the chaos smoke additionally requires
// `serve.shed`, `serve.reloads`, and `serve.batcher_restarts`.
static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
static SERVE_BATCHES: Counter = Counter::new("serve.batches");
static SERVE_COALESCED: Counter = Counter::new("serve.batch.coalesced");
static SERVE_CACHE_HIT: Counter = Counter::new("serve.cache.hit");
static SERVE_CACHE_MISS: Counter = Counter::new("serve.cache.miss");
static SERVE_CACHE_INVALIDATED: Counter = Counter::new("serve.cache.invalidated");
static SERVE_BACKPRESSURE: Counter = Counter::new("serve.backpressure");
static SERVE_TIMEOUTS: Counter = Counter::new("serve.timeouts");
static SERVE_BADFRAME: Counter = Counter::new("serve.badframe");
static SERVE_SHED: Counter = Counter::new("serve.shed");
static SERVE_REJECTED: Counter = Counter::new("serve.rejected");
static SERVE_RELOADS: Counter = Counter::new("serve.reloads");
static SERVE_RELOAD_FAILED: Counter = Counter::new("serve.reload.failed");
static SERVE_BATCHER_RESTARTS: Counter = Counter::new("serve.batcher_restarts");
static SERVE_CONN_LIMIT: Counter = Counter::new("serve.conn.limit");
static SERVE_CONN_REAPED: Counter = Counter::new("serve.conn.reaped");
static SERVE_CONN_STALLED: Counter = Counter::new("serve.conn.stalled");
static BATCH_SIZE: Histogram = Histogram::new("serve.batch_size");
static QUEUE_NS: Histogram = Histogram::new("serve.queue_ns");
static TRANSFORM_NS: Histogram = Histogram::new("serve.transform_ns");
static REQUEST_NS: Histogram = Histogram::new("serve.request_ns");

/// Marker file in the bundle directory that triggers a hot reload (the
/// no-admin-client path: `touch reload.request` after replacing the
/// bundle). Consumed (deleted) when the reload is attempted.
pub const RELOAD_MARKER: &str = "reload.request";

#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Base batch-row cap; under load the batcher may grow a batch up to
    /// `crate::admission::MAX_BATCH_GROWTH`× this.
    pub max_batch_rows: usize,
    /// How long a non-full batch waits for more requests to coalesce.
    pub linger: Duration,
    /// Bounded queue depth (in requests); beyond it, `Backpressure`.
    pub queue_cap: usize,
    /// LRU capacity in cached node rows; 0 disables the cache.
    pub cache_cap: usize,
    /// Per-query node cap; beyond it, `TooLarge`.
    pub max_nodes_per_query: usize,
    /// Directory holding `model.ckpt` + `terms.bin` for hot reload;
    /// `None` disables the `Reload` frame and the marker file.
    pub bundle_dir: Option<PathBuf>,
    /// Accepted-connection cap; beyond it, `Overloaded` and close.
    pub max_conns: usize,
    /// Admitted-but-unanswered queries allowed per connection.
    pub max_inflight_per_conn: usize,
    /// Connections silent this long (and with nothing in flight) are
    /// closed by the accept thread.
    pub idle_timeout: Duration,
    /// A started frame must complete within this (slowloris defense).
    pub frame_deadline: Duration,
    /// Per-socket reply-write timeout.
    pub write_timeout: Duration,
    /// Deadline-aware admission control (sheds with `Overloaded`). Off =
    /// the PR-8 behavior: hopeless requests queue and time out at
    /// dequeue. Exists so the bench can measure shed-vs-noshed.
    pub shed: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_batch_rows: 64,
            linger: Duration::from_micros(500),
            queue_cap: 256,
            cache_cap: 4096,
            max_nodes_per_query: 4096,
            bundle_dir: None,
            max_conns: 256,
            max_inflight_per_conn: 64,
            idle_timeout: Duration::from_secs(60),
            frame_deadline: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
            shed: true,
        }
    }
}

/// How often blocking accept/read/recv loops wake to poll shutdown.
const POLL: Duration = Duration::from_millis(20);

/// How often the batcher checks for the reload marker file while idle.
const MARKER_POLL: Duration = Duration::from_millis(200);

/// One admitted query waiting in the batching queue.
struct Pending {
    ticket: Arc<Ticket>,
    nodes: Vec<u32>,
    arrived: Instant,
    deadline: Option<Instant>,
}

/// Queue items: queries to batch, plus admin work the batcher must do
/// because it owns the engine.
enum Job {
    Query(Pending),
    /// `ticket` is `None` for marker-file reloads (nobody to answer).
    Reload {
        ticket: Option<Arc<Ticket>>,
    },
}

/// The engine and everything whose lifetime is tied to the loaded bundle,
/// owned by the batcher.
struct EngineSlot {
    engine: ServeEngine,
    cache: LruCache,
    /// Monotonic bundle generation; bumped on every successful reload.
    generation: u64,
}

/// The state every server thread reads; everything else belongs to the
/// one thread that uses it.
struct Shared {
    cfg: ServeConfig,
    stop: AtomicBool,
    admission: Admission,
}

impl Shared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running server; dropping (or calling [`shutdown`](Self::shutdown))
/// stops the accept loop, drains the threads, and joins them.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Returns the connection readers' handles when it exits.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    batcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals every loop to stop and joins all server threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Readers notice the flag at their next read timeout.
        let readers = self.accept.take().and_then(|h| h.join().ok());
        for h in readers.into_iter().flatten() {
            let _ = h.join();
        }
        // Every queue sender is gone now; the batcher drains and exits.
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Boots a server for `engine` and returns once the socket is listening.
pub fn serve(engine: ServeEngine, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap);
    let slot = EngineSlot {
        engine,
        cache: LruCache::new(cfg.cache_cap),
        generation: 0,
    };
    let shared = Arc::new(Shared {
        cfg,
        stop: AtomicBool::new(false),
        admission: Admission::new(),
    });

    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("sgnn-serve-batch".into())
            .spawn(move || batcher_loop(rx, slot, &shared))?
    };

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("sgnn-serve-accept".into())
            .spawn(move || accept_loop(listener, tx, &shared))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        batcher: Some(batcher),
    })
}

/// Accepts connections until shutdown, spawning one reader per connection,
/// and returns the readers' handles. It owns every live connection: it
/// enforces `max_conns` and, at most once per [`POLL`], closes those idle
/// past [`ServeConfig::idle_timeout`] with nothing in flight (the reader
/// sees EOF on its next poll and exits).
fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<Job>,
    shared: &Arc<Shared>,
) -> Vec<JoinHandle<()>> {
    let mut live: Vec<(Arc<Conn>, JoinHandle<()>)> = Vec::new();
    let mut next_id = 0u64;
    let mut last_reap = Instant::now();
    while !shared.stopped() {
        live.retain(|(_, h)| !h.is_finished());
        if last_reap.elapsed() >= POLL {
            last_reap = Instant::now();
            let idle_timeout = shared.cfg.idle_timeout;
            for (conn, _) in &live {
                if conn.inflight() == 0 && conn.idle() >= idle_timeout && !conn.is_closed() {
                    SERVE_CONN_REAPED.incr();
                    conn.close();
                }
            }
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                std::thread::sleep(POLL);
                continue;
            }
        };
        let id = next_id;
        next_id += 1;
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let Ok(conn) = Conn::new(write_half, id, shared.cfg.write_timeout) else {
            continue;
        };
        let conn = Arc::new(conn);
        conn.touch();
        // Injected `disconnect conn=K`: the peer sees an abrupt hangup
        // before any reply — clients must cope.
        if faults::on_accept(id) {
            conn.close();
            continue;
        }
        if live.len() >= shared.cfg.max_conns {
            SERVE_CONN_LIMIT.incr();
            conn.send(&Response::Error {
                nonce: 0,
                code: ErrorCode::Overloaded,
                retry_after_ms: 100,
                msg: format!("connection limit ({}) reached", shared.cfg.max_conns),
            });
            conn.close();
            continue;
        }
        let (tx, shared2, conn2) = (tx.clone(), Arc::clone(shared), Arc::clone(&conn));
        let handle = std::thread::Builder::new()
            .name("sgnn-serve-conn".into())
            .spawn(move || reader_loop(stream, conn2, tx, &shared2))
            .expect("spawn connection reader");
        live.push((conn, handle));
    }
    live.into_iter().map(|(_, h)| h).collect()
}

fn reader_loop(mut stream: TcpStream, conn: Arc<Conn>, tx: SyncSender<Job>, shared: &Arc<Shared>) {
    // The read timeout doubles as the shutdown poll interval.
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut frames = FrameReader::new();
    while !shared.stopped() && !conn.is_closed() {
        // Injected `stall conn=K`: this connection's reader dawdles, as
        // if the peer (or the path to it) were glacially slow.
        if let Some(delay) = faults::on_conn_read(conn.id()) {
            std::thread::sleep(delay);
        }
        let body = match frames.poll(&mut stream, MAX_BODY, shared.cfg.frame_deadline) {
            FramePoll::Frame(body) => body,
            FramePoll::Eof => return, // clean close
            FramePoll::Pending(_) => continue,
            FramePoll::Stalled => {
                // Rung 1 (slowloris): a peer that starts a frame must
                // finish it; reply, then close.
                SERVE_CONN_STALLED.incr();
                SERVE_BADFRAME.incr();
                conn.send(&Response::Error {
                    nonce: 0,
                    code: ErrorCode::BadFrame,
                    retry_after_ms: 0,
                    msg: format!(
                        "partial frame exceeded {:?} deadline",
                        shared.cfg.frame_deadline
                    ),
                });
                conn.close();
                return;
            }
            FramePoll::Io(_) => return, // torn frame / dead peer
            FramePoll::TooLarge(len) => {
                // Rung 1: after a frame this malformed the stream offset
                // is unrecoverable.
                SERVE_BADFRAME.incr();
                conn.send(&Response::Error {
                    nonce: 0,
                    code: ErrorCode::BadFrame,
                    retry_after_ms: 0,
                    msg: format!("declared body of {len} bytes exceeds cap"),
                });
                conn.close();
                return;
            }
        };
        conn.touch();
        let req = match decode_request(&body) {
            Ok(req) => req,
            Err(e) => {
                SERVE_BADFRAME.incr();
                conn.send(&Response::Error {
                    nonce: 0,
                    code: ErrorCode::BadFrame,
                    retry_after_ms: 0,
                    msg: e.to_string(),
                });
                conn.close();
                return;
            }
        };
        match req {
            Request::Ping { nonce } => conn.send(&Response::Pong { nonce }),
            Request::Reload { nonce } => {
                if shared.cfg.bundle_dir.is_none() {
                    conn.send(&Response::Error {
                        nonce,
                        code: ErrorCode::Internal,
                        retry_after_ms: 0,
                        msg: "server was not booted with a bundle directory".into(),
                    });
                    continue;
                }
                let ticket = Arc::new(Ticket::new(Arc::clone(&conn), nonce));
                match tx.try_send(Job::Reload {
                    ticket: Some(Arc::clone(&ticket)),
                }) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        ticket.reply(&Response::Error {
                            nonce,
                            code: ErrorCode::Backpressure,
                            retry_after_ms: 50,
                            msg: "queue full; retry reload".into(),
                        });
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        ticket.reply(&Response::Error {
                            nonce,
                            code: ErrorCode::Shutdown,
                            retry_after_ms: 0,
                            msg: "server shutting down".into(),
                        });
                        return;
                    }
                }
            }
            Request::Query {
                nonce,
                deadline_ms,
                nodes,
            } => {
                SERVE_REQUESTS.incr();
                if nodes.is_empty() || nodes.len() > shared.cfg.max_nodes_per_query {
                    // Rung 2: typed refusal, connection stays.
                    SERVE_REJECTED.incr();
                    conn.send(&Response::Error {
                        nonce,
                        code: ErrorCode::TooLarge,
                        retry_after_ms: 0,
                        msg: format!(
                            "{} nodes (allowed 1..={})",
                            nodes.len(),
                            shared.cfg.max_nodes_per_query
                        ),
                    });
                    continue;
                }
                if conn.inflight() >= shared.cfg.max_inflight_per_conn {
                    // Rung 3: one connection cannot monopolize the queue.
                    SERVE_REJECTED.incr();
                    conn.send(&Response::Error {
                        nonce,
                        code: ErrorCode::Overloaded,
                        retry_after_ms: 10,
                        msg: format!(
                            "{} requests in flight on this connection (cap {})",
                            conn.inflight(),
                            shared.cfg.max_inflight_per_conn
                        ),
                    });
                    continue;
                }
                let arrived = Instant::now();
                let deadline =
                    (deadline_ms > 0).then(|| arrived + Duration::from_millis(deadline_ms as u64));
                // Rung 4: shed requests whose deadline the queue has
                // already spent. Only deadline-bearing requests shed.
                if shared.cfg.shed && deadline_ms > 0 {
                    // The drain estimate assumes the batch growth the
                    // batcher would actually use at this queue depth.
                    let batch_rows = shared.admission.batch_rows(shared.cfg.max_batch_rows);
                    if let Err(retry_after_ms) = shared.admission.admit(
                        nodes.len(),
                        Duration::from_millis(deadline_ms as u64),
                        batch_rows,
                    ) {
                        SERVE_SHED.incr();
                        conn.send(&Response::Error {
                            nonce,
                            code: ErrorCode::Overloaded,
                            retry_after_ms,
                            msg: "shed: deadline unreachable at current queue depth".into(),
                        });
                        continue;
                    }
                }
                let rows = nodes.len();
                let ticket = Arc::new(Ticket::new(Arc::clone(&conn), nonce));
                let pending = Pending {
                    ticket: Arc::clone(&ticket),
                    nodes,
                    arrived,
                    deadline,
                };
                match tx.try_send(Job::Query(pending)) {
                    Ok(()) => shared.admission.on_enqueue(rows),
                    Err(TrySendError::Full(_)) => {
                        // Rung 5: bounded queue, typed refusal, no hang.
                        SERVE_BACKPRESSURE.incr();
                        SERVE_REJECTED.incr();
                        ticket.reply(&Response::Error {
                            nonce,
                            code: ErrorCode::Backpressure,
                            retry_after_ms: 20,
                            msg: "batch queue full".into(),
                        });
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        ticket.reply(&Response::Error {
                            nonce,
                            code: ErrorCode::Shutdown,
                            retry_after_ms: 0,
                            msg: "server shutting down".into(),
                        });
                        return;
                    }
                }
            }
        }
    }
}

/// The batcher: owns the queue's receive half, the engine and the batch
/// sequence. Each turn — dequeue, linger, run the batch, then any reloads
/// queued behind it — runs under `catch_unwind`. A panic unwinds that
/// turn's batch, whose dropped tickets each reply `Internal`, counts in
/// `serve.batcher_restarts`, and the loop takes the next turn. The
/// sequence survives the panic, so a seq-keyed injected panic cannot
/// re-fire on the batch after it.
fn batcher_loop(rx: Receiver<Job>, mut slot: EngineSlot, shared: &Shared) {
    let mut seq = 0u64;
    let mut last_marker_check = Instant::now();
    loop {
        let turn = std::panic::catch_unwind(AssertUnwindSafe(|| {
            batcher_turn(&rx, &mut slot, &mut seq, &mut last_marker_check, shared)
        }));
        match turn {
            Ok(true) => {}
            Ok(false) => return, // shutdown or queue closed
            Err(_) => SERVE_BATCHER_RESTARTS.incr(),
        }
    }
}

/// One turn of [`batcher_loop`]; `false` when the batcher should exit.
fn batcher_turn(
    rx: &Receiver<Job>,
    slot: &mut EngineSlot,
    seq: &mut u64,
    last_marker_check: &mut Instant,
    shared: &Shared,
) -> bool {
    let first = match rx.recv_timeout(POLL) {
        Ok(Job::Query(p)) => p,
        Ok(Job::Reload { ticket }) => {
            do_reload(shared, slot, ticket);
            return true;
        }
        Err(RecvTimeoutError::Timeout) => {
            if shared.stopped() {
                return false;
            }
            if last_marker_check.elapsed() >= MARKER_POLL {
                *last_marker_check = Instant::now();
                if take_reload_marker(shared) {
                    do_reload(shared, slot, None);
                }
            }
            return true;
        }
        Err(RecvTimeoutError::Disconnected) => return false,
    };
    shared.admission.on_dequeue(first.nodes.len());
    let mut rows = first.nodes.len();
    let mut batch = vec![first];
    let mut reloads: Vec<Option<Arc<Ticket>>> = Vec::new();
    // Linger: hold the batch open briefly so concurrent queries ride the
    // same transform. A full batch closes immediately; under load the row
    // cap grows with queue depth (adaptive batching).
    let max_rows = shared.admission.batch_rows(shared.cfg.max_batch_rows);
    let close_at = Instant::now() + shared.cfg.linger;
    while rows < max_rows {
        let now = Instant::now();
        if now >= close_at {
            break;
        }
        match rx.recv_timeout(close_at - now) {
            Ok(Job::Query(p)) => {
                shared.admission.on_dequeue(p.nodes.len());
                rows += p.nodes.len();
                batch.push(p);
            }
            // A reload behind queries runs *after* them: those queries
            // were admitted under the old generation.
            Ok(Job::Reload { ticket }) => reloads.push(ticket),
            Err(_) => break,
        }
    }
    let batch_seq = *seq;
    *seq += 1;
    // The admission estimator observes the *whole* batch service time —
    // transform, cache fills, reply fan-out, and any injected slow fault —
    // because that is what a queued request actually waits behind. (The
    // obs `serve.transform_ns` histogram stays transform-only.)
    let t0 = Instant::now();
    run_batch(slot, batch, batch_seq);
    shared.admission.record_batch(rows, t0.elapsed());
    for ticket in reloads {
        do_reload(shared, slot, ticket);
    }
    true
}

/// Consumes the reload marker file if present.
fn take_reload_marker(shared: &Shared) -> bool {
    let Some(dir) = shared.cfg.bundle_dir.as_ref() else {
        return false;
    };
    let marker = dir.join(RELOAD_MARKER);
    if marker.exists() {
        let _ = std::fs::remove_file(&marker);
        return true;
    }
    false
}

/// Loads a fresh engine from the bundle directory, self-tests it, and
/// swaps it in under a new generation. Any failure — I/O, codec, pairing,
/// self-test, even a panic inside the loader — leaves the previous engine
/// serving (rollback by not swapping).
fn do_reload(shared: &Shared, slot: &mut EngineSlot, ticket: Option<Arc<Ticket>>) {
    let fail = |msg: String| {
        SERVE_RELOAD_FAILED.incr();
        if let Some(t) = &ticket {
            t.reply(&Response::Error {
                nonce: t.nonce(),
                code: ErrorCode::Internal,
                retry_after_ms: 0,
                msg,
            });
        }
    };
    let Some(dir) = shared.cfg.bundle_dir.clone() else {
        fail("server was not booted with a bundle directory".into());
        return;
    };
    let _sp = obs::span!("serve.reload");
    // A loader that fails — or panics — leaves the slot untouched; the
    // swap below is the only section that touches the live engine.
    let loaded = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut engine = bundle::load_engine(&dir).map_err(|e| e.to_string())?;
        engine.self_test().map_err(|e| e.to_string())?;
        Ok::<ServeEngine, String>(engine)
    }));
    let engine = match loaded {
        Ok(Ok(engine)) => engine,
        Ok(Err(msg)) => {
            fail(format!("bundle rejected, previous engine kept: {msg}"));
            return;
        }
        Err(_) => {
            fail("bundle loader panicked, previous engine kept".into());
            return;
        }
    };
    slot.generation += 1;
    slot.engine = engine;
    let generation = slot.generation;
    let dropped = slot.cache.invalidate(generation);
    SERVE_CACHE_INVALIDATED.add(dropped as u64);
    SERVE_RELOADS.incr();
    if let Some(t) = &ticket {
        t.reply(&Response::Reloaded {
            nonce: t.nonce(),
            generation,
        });
    }
}

fn run_batch(slot: &mut EngineSlot, batch: Vec<Pending>, seq: u64) {
    let requests = batch.len();
    let rows: usize = batch.iter().map(|p| p.nodes.len()).sum();
    let _sp = obs::span!("serve.batch", requests = requests, rows = rows);
    // Conservation law: count the batch as "reached" *before* anything
    // that can fail or panic, so
    // requests == batches + coalesced + shed + rejected
    // holds even when the batch panics.
    SERVE_BATCHES.incr();
    if requests > 1 {
        SERVE_COALESCED.add(requests as u64 - 1);
    }
    BATCH_SIZE.record(rows as u64);
    for p in &batch {
        QUEUE_NS.record_duration(p.arrived.elapsed());
    }

    // Injected faults fire before the deadline checks, so a `slow` fault
    // deterministically expires short-deadline requests.
    match faults::on_batch(seq) {
        Some(Injected::Fail) => {
            for p in &batch {
                p.ticket.reply(&Response::Error {
                    nonce: p.ticket.nonce(),
                    code: ErrorCode::Internal,
                    retry_after_ms: 0,
                    msg: "injected batch failure".into(),
                });
            }
            return;
        }
        Some(Injected::Panic) => {
            // The unwind drops the batch's tickets, each replying
            // `Internal`; the batcher catches it and takes the next turn.
            panic!("injected batcher panic (batch {seq})");
        }
        None => {}
    }

    // Rung 6a: drop requests that expired while queued.
    let now = Instant::now();
    let (batch, expired): (Vec<_>, Vec<_>) = batch
        .into_iter()
        .partition(|p| p.deadline.is_none_or(|d| now < d));
    for p in expired {
        SERVE_TIMEOUTS.incr();
        p.ticket.reply(&Response::Error {
            nonce: p.ticket.nonce(),
            code: ErrorCode::Timeout,
            retry_after_ms: 0,
            msg: "deadline expired in queue".into(),
        });
    }
    if batch.is_empty() {
        return;
    }

    let nodes_in_graph = slot.engine.nodes() as u32;
    let classes = slot.engine.classes();

    // Validate ids (rung 2), then resolve each surviving request in one
    // pass: a cached row is copied straight into that request's reply
    // buffer — before any `put` below, so an eviction later in this batch
    // cannot touch it — and a missed row leaves a zeroed hole, its id
    // deduplicated into the miss list. Only missed ids are ever hashed
    // (default hasher: they come off the wire).
    let mut miss_row: HashMap<u32, u32> = HashMap::new();
    let mut misses: Vec<u32> = Vec::new();
    // (request, row within its reply, row of the miss list)
    let mut holes: Vec<(u32, u32, u32)> = Vec::new();
    let mut hits = 0u64;
    let mut valid: Vec<(Pending, Vec<f32>)> = Vec::with_capacity(batch.len());
    'req: for p in batch {
        for &id in &p.nodes {
            if id >= nodes_in_graph {
                p.ticket.reply(&Response::Error {
                    nonce: p.ticket.nonce(),
                    code: ErrorCode::NodeOutOfRange,
                    retry_after_ms: 0,
                    msg: format!("node {id} >= {nodes_in_graph}"),
                });
                continue 'req;
            }
        }
        let mut data = Vec::with_capacity(p.nodes.len() * classes);
        for (i, &id) in p.nodes.iter().enumerate() {
            if let Some(row) = slot.cache.get(id) {
                hits += 1;
                data.extend_from_slice(row);
            } else {
                let m = *miss_row.entry(id).or_insert_with(|| {
                    misses.push(id);
                    misses.len() as u32 - 1
                });
                holes.push((valid.len() as u32, i as u32, m));
                data.resize(data.len() + classes, 0.0);
            }
        }
        valid.push((p, data));
    }
    SERVE_CACHE_HIT.add(hits);
    SERVE_CACHE_MISS.add(misses.len() as u64);

    // One dense transform for every miss in the coalesced batch; holes are
    // filled from its output, never from the cache, so a miss list longer
    // than the cache (or a disabled cache) still answers every row.
    if !misses.is_empty() {
        let t0 = Instant::now();
        let logits = slot.engine.logits(&misses);
        TRANSFORM_NS.record_duration(t0.elapsed());
        for (req, i, m) in holes {
            let at = i as usize * classes;
            valid[req as usize].1[at..at + classes].copy_from_slice(logits.row(m as usize));
        }
        for (m, &id) in misses.iter().enumerate() {
            slot.cache.put(id, logits.row(m));
        }
    }

    // Send replies; rung 6b re-checks deadlines after the transform (it
    // may have been slowed by an injected fault or load).
    let now = Instant::now();
    for (p, data) in valid {
        if p.deadline.is_some_and(|d| now >= d) {
            SERVE_TIMEOUTS.incr();
            p.ticket.reply(&Response::Error {
                nonce: p.ticket.nonce(),
                code: ErrorCode::Timeout,
                retry_after_ms: 0,
                msg: "deadline expired during transform".into(),
            });
            continue;
        }
        p.ticket.reply(&Response::Logits {
            nonce: p.ticket.nonce(),
            rows: p.nodes.len() as u32,
            cols: classes as u32,
            data,
        });
        REQUEST_NS.record_duration(p.arrived.elapsed());
    }
}
