//! A blocking client for the serve protocol: one connection, one
//! outstanding request at a time, nonce-checked replies.
//!
//! Retry policy lives here too: [`Backoff`] is a deterministic, seeded,
//! capped exponential backoff with full jitter — no wall-clock seeding,
//! so a load run with a fixed seed sleeps the same schedule every time.
//! [`Client::connect_retry`] survives a server that is mid-reload or
//! briefly over its connection limit; [`Client::query_retry`] retries the
//! two *retryable* typed errors (`Backpressure`, `Overloaded`), honoring
//! the server's `retry_after_ms` hint.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sgnn_dense::DMat;

use crate::wire::{
    self, decode_response, encode_request, ErrorCode, FramePoll, FrameReader, Request, Response,
    WireError, MAX_BODY,
};

/// Why a client call failed (transport or protocol — a typed *error reply*
/// from the server is not a `ClientError`, it's [`Reply::Error`]).
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Wire(WireError),
    /// The reply's echoed nonce does not match the request — a cross-wired
    /// response, which the e2e suite treats as fatal.
    NonceMismatch {
        sent: u64,
        got: u64,
    },
    /// Server closed the connection without replying.
    Closed,
    /// Got a Pong where logits were expected (or vice versa).
    UnexpectedReply,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O: {e}"),
            ClientError::Wire(e) => write!(f, "client decode: {e}"),
            ClientError::NonceMismatch { sent, got } => {
                write!(f, "nonce mismatch: sent {sent}, got {got}")
            }
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::UnexpectedReply => write!(f, "unexpected reply kind"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A query's outcome: logits, or one of the server's typed errors.
#[derive(Debug, PartialEq)]
pub enum Reply {
    /// Row-major logits, one row per requested node, in request order.
    Logits(DMat),
    Error {
        code: ErrorCode,
        /// Server backoff hint; 0 = none.
        retry_after_ms: u32,
        msg: String,
    },
    /// A `Reload` admin request succeeded; the server is now serving
    /// bundle `generation`.
    Reloaded { generation: u64 },
}

/// Deterministic capped exponential backoff with full jitter.
///
/// The delay before attempt `n` is uniform in `[window/2, window]` where
/// `window = min(cap, base × 2ⁿ)` — jittered so a thundering herd of
/// rejected clients does not re-arrive in lockstep, deterministic (seeded
/// LCG, same constants as the loadgen id stream) so runs reproduce.
#[derive(Clone, Debug)]
pub struct Backoff {
    state: u64,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Self {
        Self {
            state: seed ^ 0x5DEE_CE66_D1CE_4E5D,
            base: base.max(Duration::from_micros(1)),
            cap,
            attempt: 0,
        }
    }

    /// Sensible defaults for talking to a local server: 1ms base, 100ms cap.
    pub fn for_seed(seed: u64) -> Self {
        Self::new(seed, Duration::from_millis(1), Duration::from_millis(100))
    }

    /// Forgets accumulated attempts (call after a success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Attempts taken since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    fn rand01(&mut self) -> f64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        self.next_delay_hinted(0)
    }

    /// Like [`next_delay`](Self::next_delay), but never shorter than the
    /// server's `retry_after_ms` hint (still capped) — a client that is
    /// told when capacity returns should not knock earlier.
    pub fn next_delay_hinted(&mut self, retry_after_ms: u32) -> Duration {
        let exp = self.attempt.min(16);
        self.attempt = self.attempt.saturating_add(1);
        let window = self
            .base
            .saturating_mul(1u32 << exp.min(31))
            .min(self.cap)
            .max(self.base);
        let jittered = window.mul_f64(0.5 + 0.5 * self.rand01());
        let hint = Duration::from_millis(retry_after_ms as u64).min(self.cap);
        jittered.max(hint)
    }
}

pub struct Client {
    stream: TcpStream,
    next_nonce: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            next_nonce: 1,
        })
    }

    /// Like [`connect`](Self::connect), but gives up after `timeout`.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            next_nonce: 1,
        })
    }

    /// Bounded connect retry: up to `attempts` tries, sleeping a jittered
    /// backoff between them. Lets load clients survive a server that is
    /// mid-reload, briefly over `max_conns`, or still binding.
    pub fn connect_retry(
        addr: SocketAddr,
        attempts: u32,
        backoff: &mut Backoff,
    ) -> std::io::Result<Self> {
        let mut last = std::io::Error::other("no connect attempts");
        for attempt in 0..attempts.max(1) {
            match Self::connect_timeout(addr, Duration::from_secs(5)) {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
            if attempt + 1 < attempts {
                std::thread::sleep(backoff.next_delay());
            }
        }
        Err(last)
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let sent = req.nonce();
        wire::write_frame(&mut self.stream, &encode_request(req))?;
        // No partial-frame deadline: the reply is read until it completes,
        // the server closes, or the socket itself errors.
        let body = match FrameReader::new().poll(&mut self.stream, MAX_BODY, Duration::MAX) {
            FramePoll::Frame(body) => body,
            FramePoll::Eof => return Err(ClientError::Closed),
            FramePoll::Io(e) | FramePoll::Pending(e) => return Err(ClientError::Io(e)),
            FramePoll::Stalled => return Err(ClientError::Io(std::io::ErrorKind::TimedOut.into())),
            FramePoll::TooLarge(_) => {
                return Err(ClientError::Wire(WireError::Malformed(
                    "oversized reply".into(),
                )))
            }
        };
        let resp = decode_response(&body).map_err(ClientError::Wire)?;
        // `BadFrame` replies carry nonce 0 (the server could not trust the
        // frame enough to echo anything); everything else must echo ours.
        let got = resp.nonce();
        let is_badframe = matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadFrame,
                ..
            }
        );
        if got != sent && !is_badframe {
            return Err(ClientError::NonceMismatch { sent, got });
        }
        Ok(resp)
    }

    fn fresh_nonce(&mut self) -> u64 {
        let n = self.next_nonce;
        self.next_nonce += 1;
        n
    }

    /// Queries logits for `nodes` with no deadline.
    pub fn query(&mut self, nodes: &[u32]) -> Result<Reply, ClientError> {
        self.query_deadline(nodes, 0)
    }

    /// Queries logits for `nodes`; `deadline_ms > 0` asks the server to
    /// reply `Timeout` instead of serving a stale answer (and licenses
    /// the server to shed the request with `Overloaded` when the deadline
    /// is predicted unreachable).
    pub fn query_deadline(
        &mut self,
        nodes: &[u32],
        deadline_ms: u32,
    ) -> Result<Reply, ClientError> {
        let req = Request::Query {
            nonce: self.fresh_nonce(),
            deadline_ms,
            nodes: nodes.to_vec(),
        };
        match self.roundtrip(&req)? {
            Response::Logits {
                rows, cols, data, ..
            } => {
                if data.len() != rows as usize * cols as usize {
                    return Err(ClientError::Wire(WireError::Malformed(
                        "logit shape/data mismatch".into(),
                    )));
                }
                Ok(Reply::Logits(DMat::from_vec(
                    rows as usize,
                    cols as usize,
                    data,
                )))
            }
            Response::Error {
                code,
                retry_after_ms,
                msg,
                ..
            } => Ok(Reply::Error {
                code,
                retry_after_ms,
                msg,
            }),
            Response::Pong { .. } | Response::Reloaded { .. } => Err(ClientError::UnexpectedReply),
        }
    }

    /// [`query_deadline`](Self::query_deadline) with bounded retry on the
    /// retryable errors (`Backpressure`/`Overloaded`), sleeping the
    /// jittered backoff (at least the server's hint) between attempts.
    /// Returns the final reply and the number of retries taken.
    pub fn query_retry(
        &mut self,
        nodes: &[u32],
        deadline_ms: u32,
        max_attempts: u32,
        backoff: &mut Backoff,
    ) -> Result<(Reply, u32), ClientError> {
        let mut retries = 0u32;
        loop {
            let reply = self.query_deadline(nodes, deadline_ms)?;
            match &reply {
                Reply::Error {
                    code: ErrorCode::Backpressure | ErrorCode::Overloaded,
                    retry_after_ms,
                    ..
                } if retries + 1 < max_attempts.max(1) => {
                    let delay = backoff.next_delay_hinted(*retry_after_ms);
                    retries += 1;
                    std::thread::sleep(delay);
                }
                _ => {
                    backoff.reset();
                    return Ok((reply, retries));
                }
            }
        }
    }

    /// Admin: ask the server to hot-swap in the bundle currently on disk.
    /// `Ok(Reply::Reloaded { generation })` on success; a typed error
    /// (e.g. `Internal` with the loader's reason) when the bundle was
    /// rejected and the previous engine kept.
    pub fn reload(&mut self) -> Result<Reply, ClientError> {
        let req = Request::Reload {
            nonce: self.fresh_nonce(),
        };
        match self.roundtrip(&req)? {
            Response::Reloaded { generation, .. } => Ok(Reply::Reloaded { generation }),
            Response::Error {
                code,
                retry_after_ms,
                msg,
                ..
            } => Ok(Reply::Error {
                code,
                retry_after_ms,
                msg,
            }),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let req = Request::Ping {
            nonce: self.fresh_nonce(),
        };
        match self.roundtrip(&req)? {
            Response::Pong { .. } => Ok(()),
            _ => Err(ClientError::UnexpectedReply),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_hint_respecting() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(seed, Duration::from_millis(1), Duration::from_millis(50));
            (0..8).map(|_| b.next_delay()).collect()
        };
        assert_eq!(schedule(7), schedule(7), "same seed, same schedule");
        assert_ne!(schedule(7), schedule(8), "different seed, different jitter");
        let s = schedule(7);
        for (i, d) in s.iter().enumerate() {
            assert!(*d <= Duration::from_millis(50), "delay {i} over cap: {d:?}");
            assert!(*d >= Duration::from_micros(500), "delay {i} under base/2");
        }
        // Later delays trend up until the cap pins them.
        assert!(s[5] > s[0]);

        let mut b = Backoff::new(1, Duration::from_millis(1), Duration::from_millis(50));
        assert!(
            b.next_delay_hinted(20) >= Duration::from_millis(20),
            "hint is a floor"
        );
        let mut b = Backoff::new(1, Duration::from_millis(1), Duration::from_millis(50));
        assert!(
            b.next_delay_hinted(10_000) <= Duration::from_millis(50),
            "hint is still capped"
        );
    }

    #[test]
    fn backoff_reset_restarts_the_schedule() {
        let mut b = Backoff::new(3, Duration::from_millis(1), Duration::from_secs(1));
        for _ in 0..6 {
            b.next_delay();
        }
        assert_eq!(b.attempts(), 6);
        let late = b.next_delay();
        b.reset();
        assert_eq!(b.attempts(), 0);
        let early = b.next_delay();
        assert!(early < late, "reset must shrink the window");
    }
}
