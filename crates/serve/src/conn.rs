//! Per-connection state: the shared write half, activity tracking for the
//! idle reaper, the in-flight cap, and the exactly-once reply ticket.
//!
//! A [`Conn`] is created at accept time and shared by the reader thread
//! (immediate error replies), the batcher (logit replies), the watchdog
//! (failing in-flight requests after a batcher panic), and the reaper
//! (closing idle sockets). Because three of those can race to answer the
//! same request — batcher vs. restarted batcher vs. watchdog — every
//! admitted query gets a [`Ticket`] whose `reply` is exactly-once: the
//! first caller wins, later callers are no-ops. That is what makes the
//! watchdog safe: it can conservatively fail everything that *looks*
//! in-flight without ever double-replying a request the dying batcher
//! already answered.
//!
//! The write path is also where the network-chaos faults live
//! ([`crate::faults::on_write`]): torn writes and frame corruption are
//! injected here, below the protocol encoder, exactly like a failing NIC
//! or middlebox would.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::faults::{self, WriteFault};
use crate::wire::{encode_response, ErrorCode, Response};

/// The shared half of one accepted connection.
pub(crate) struct Conn {
    /// Accept-order index (0-based per server) — the chaos DSL's `conn=K`.
    id: u64,
    /// Write half (reader keeps the read half). Locked per reply; replies
    /// on one connection may interleave across requests — clients match on
    /// the echoed nonce.
    stream: Mutex<TcpStream>,
    /// Admitted-but-unanswered queries on this connection.
    inflight: AtomicUsize,
    /// Set once the socket is known dead (write failure, reap, injected
    /// disconnect); later sends are dropped without touching the socket.
    closed: AtomicBool,
    /// Activity clock for the idle reaper, as milliseconds since `epoch`.
    epoch: Instant,
    last_active_ms: AtomicU64,
}

impl Conn {
    /// Wraps the write half of an accepted socket. `write_timeout` bounds
    /// every reply write so one dead peer cannot wedge the batcher.
    pub(crate) fn new(
        stream: TcpStream,
        id: u64,
        write_timeout: Duration,
    ) -> std::io::Result<Self> {
        stream.set_write_timeout(Some(write_timeout))?;
        Ok(Self {
            id,
            stream: Mutex::new(stream),
            inflight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            epoch: Instant::now(),
            last_active_ms: AtomicU64::new(0),
        })
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Records activity (a completed frame or a reply) for the reaper.
    pub(crate) fn touch(&self) {
        self.last_active_ms
            .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// How long this connection has been idle.
    pub(crate) fn idle(&self) -> Duration {
        let now = self.epoch.elapsed().as_millis() as u64;
        Duration::from_millis(now.saturating_sub(self.last_active_ms.load(Ordering::Relaxed)))
    }

    pub(crate) fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Force-closes the socket (idle reap, injected disconnect). The
    /// reader's next poll sees EOF and exits; pending sends are dropped.
    pub(crate) fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            let stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Best-effort reply: a peer that hung up loses its reply, nobody
    /// else. Chaos write faults (torn write, frame corruption) are
    /// injected here, after encoding — corrupting real bytes on the real
    /// socket, which the client-side CRC must catch.
    pub(crate) fn send(&self, resp: &Response) {
        if self.is_closed() {
            return;
        }
        let mut frame = encode_response(resp);
        let fault = faults::on_write(self.id);
        if let Some(WriteFault::Corrupt) = fault {
            // Flip one bit in the last body byte (inside the CRC field):
            // the length prefix still parses, the CRC check must not.
            let n = frame.len();
            frame[n - 1] ^= 0x10;
        }
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        let ok = if let Some(WriteFault::Torn) = fault {
            let cut = frame.len() / 2;
            let _ = stream.write_all(&frame[..cut]).and_then(|_| stream.flush());
            let _ = stream.shutdown(Shutdown::Both);
            false
        } else {
            stream
                .write_all(&frame)
                .and_then(|_| stream.flush())
                .is_ok()
        };
        drop(stream);
        if ok {
            self.touch();
        } else {
            // One failed write means the stream offset is gone for the
            // peer; everything later would be garbage mid-frame bytes.
            self.close();
        }
    }
}

/// Exactly-once reply handle for one admitted query.
///
/// Created at admission (counts against the connection's in-flight cap),
/// resolved by whoever answers first — batcher, watchdog, or shutdown
/// path. Also records whether the request was ever *dequeued*: after a
/// batcher panic the watchdog fails only dequeued tickets (the ones the
/// dying batch actually held); still-queued tickets survive and are
/// served normally by the restarted batcher.
pub(crate) struct Ticket {
    conn: std::sync::Arc<Conn>,
    nonce: u64,
    dequeued: AtomicBool,
    done: AtomicBool,
}

impl Ticket {
    pub(crate) fn new(conn: std::sync::Arc<Conn>, nonce: u64) -> Self {
        conn.inflight.fetch_add(1, Ordering::SeqCst);
        Self {
            conn,
            nonce,
            dequeued: AtomicBool::new(false),
            done: AtomicBool::new(false),
        }
    }

    pub(crate) fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Marks the ticket as pulled off the queue by the batcher — the
    /// watchdog's "was it in the dying batcher's hands?" signal.
    pub(crate) fn mark_dequeued(&self) {
        self.dequeued.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_dequeued(&self) -> bool {
        self.dequeued.load(Ordering::SeqCst)
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Sends the reply if nobody else has; returns whether this call won.
    pub(crate) fn reply(&self, resp: &Response) -> bool {
        if self.done.swap(true, Ordering::SeqCst) {
            return false;
        }
        self.conn.inflight.fetch_sub(1, Ordering::SeqCst);
        self.conn.send(resp);
        true
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // A ticket dropped unreplied fails LOUDLY: the client gets a typed
        // `Internal` instead of dead air. This is what the batcher-panic
        // unwind hits — the batch's tickets are destroyed before the
        // watchdog can sweep them, and without this reply the peer would
        // block until the idle reaper finally severed the connection. It
        // also releases the in-flight slot, so one lost request cannot
        // permanently shrink the connection's budget.
        if !self.done.swap(true, Ordering::SeqCst) {
            self.conn.inflight.fetch_sub(1, Ordering::SeqCst);
            self.conn.send(&Response::Error {
                nonce: self.nonce,
                code: ErrorCode::Internal,
                retry_after_ms: 0,
                msg: "request dropped by server".into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_response, ErrorCode, FramePoll, FrameReader, MAX_BODY};
    use std::net::TcpListener;
    use std::sync::Arc;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn pong(nonce: u64) -> Response {
        Response::Pong { nonce }
    }

    /// The next reply on `client`, or `None` on a clean close.
    fn next_reply(client: &mut TcpStream) -> Option<Response> {
        match FrameReader::new().poll(client, MAX_BODY, Duration::MAX) {
            FramePoll::Frame(body) => Some(decode_response(&body).unwrap()),
            FramePoll::Eof => None,
            other => panic!("expected a reply or a clean close, got {other:?}"),
        }
    }

    #[test]
    fn send_reaches_the_peer_and_failed_send_closes() {
        let (mut client, server) = pair();
        let conn = Conn::new(server, 0, Duration::from_secs(1)).unwrap();
        conn.send(&pong(9));
        assert_eq!(next_reply(&mut client), Some(pong(9)));
        drop(client);
        // Writes eventually fail once the peer is gone; the conn marks
        // itself closed instead of erroring forever.
        for _ in 0..64 {
            conn.send(&pong(10));
            if conn.is_closed() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(conn.is_closed());
    }

    #[test]
    fn ticket_replies_exactly_once_and_tracks_inflight() {
        let (mut client, server) = pair();
        let conn = Arc::new(Conn::new(server, 0, Duration::from_secs(1)).unwrap());
        let t = Ticket::new(Arc::clone(&conn), 5);
        assert_eq!(conn.inflight(), 1);
        assert!(!t.is_dequeued());
        t.mark_dequeued();
        assert!(t.is_dequeued());
        assert!(t.reply(&pong(5)));
        assert!(!t.reply(&Response::Error {
            nonce: 5,
            code: ErrorCode::Internal,
            retry_after_ms: 0,
            msg: "loser".into(),
        }));
        assert_eq!(conn.inflight(), 0);
        assert_eq!(next_reply(&mut client), Some(pong(5)));
        // Only the winning reply ever hits the wire. (The ticket holds an
        // Arc<Conn>, so drop it first or the socket never closes.)
        drop(t);
        drop(conn);
        assert_eq!(next_reply(&mut client), None);
    }

    #[test]
    fn dropped_ticket_releases_its_slot_and_fails_loudly() {
        let (mut client, server) = pair();
        let conn = Arc::new(Conn::new(server, 0, Duration::from_secs(1)).unwrap());
        let t = Ticket::new(Arc::clone(&conn), 9);
        assert_eq!(conn.inflight(), 1);
        drop(t);
        assert_eq!(conn.inflight(), 0);
        // The peer must hear about the loss: a typed Internal, not dead
        // air (dead air means blocking until the idle reaper gives up).
        match next_reply(&mut client).unwrap() {
            Response::Error { nonce, code, .. } => {
                assert_eq!(nonce, 9);
                assert_eq!(code, ErrorCode::Internal);
            }
            other => panic!("expected Internal error, got {other:?}"),
        }
    }

    #[test]
    fn idle_clock_resets_on_touch() {
        let (_client, server) = pair();
        let conn = Conn::new(server, 0, Duration::from_secs(1)).unwrap();
        std::thread::sleep(Duration::from_millis(15));
        assert!(conn.idle() >= Duration::from_millis(10));
        conn.touch();
        assert!(conn.idle() < Duration::from_millis(10));
    }
}
