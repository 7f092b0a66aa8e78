//! The length-prefixed binary wire protocol.
//!
//! Every frame is a `u32` little-endian body length followed by the body;
//! the body ends in a CRC32-IEEE of everything before it, verified *first*
//! on decode so any single-bit corruption is a deterministic
//! [`WireError::CrcMismatch`] rather than a parse of garbage. The CRC only
//! vouches for the bytes, not for the sender: every count read from a frame
//! (`n`, `rows × cols`, a message length) is checked against the bytes
//! actually present before anything is allocated for it.
//!
//! A frame is built in one buffer — reserved at its exact size, `u32`/`f32`
//! runs written in bulk, CRC'd in place, length patched last — and a run is
//! decoded with one bounds check and one bulk conversion.
//!
//! Request body:
//!
//! ```text
//! u8   protocol version (2)
//! u8   opcode            1 = Query, 2 = Ping, 3 = Reload
//! u64  nonce             echoed verbatim in the reply
//! u32  deadline_ms       Query only; 0 = no deadline
//! u32  n                 Query only
//! u32×n node ids         Query only
//! u32  crc
//! ```
//!
//! Response body:
//!
//! ```text
//! u8   protocol version (2)
//! u8   status            0 = Logits, 1 = Error, 2 = Pong, 3 = Reloaded
//! u64  nonce
//! u32  rows, u32 cols, f32×rows·cols   (Logits)
//! u8   code, u32 retry_after_ms, u32 len, bytes   (Error)
//! u64  generation                      (Reloaded)
//! u32  crc
//! ```
//!
//! Version 2 added the `Reload`/`Reloaded` admin frames, the `Overloaded`
//! error code, and the `retry_after_ms` hint on every error reply (0 =
//! no hint; nonzero on `Backpressure`/`Overloaded` tells a well-behaved
//! client how long to back off before retrying).

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use sgnn_dense::le;
use sgnn_dense::sealed::{self, crc32, Cursor};

pub(crate) const WIRE_VERSION: u8 = 2;

/// Largest body either side will read. Replies are `rows × classes` floats;
/// with the per-query node cap this is far more than any legal frame.
pub const MAX_BODY: usize = 16 * 1024 * 1024;

const OP_QUERY: u8 = 1;
const OP_PING: u8 = 2;
const OP_RELOAD: u8 = 3;
const ST_LOGITS: u8 = 0;
const ST_ERROR: u8 = 1;
const ST_PONG: u8 = 2;
const ST_RELOADED: u8 = 3;

/// Why a frame body failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Body shorter than its fixed fields claim.
    Truncated,
    /// First byte is not `WIRE_VERSION`.
    BadVersion(u8),
    /// Unknown opcode / status byte.
    BadTag(u8),
    /// Body does not match its trailing CRC.
    CrcMismatch,
    /// Structurally invalid (bad error code, trailing bytes, non-UTF-8
    /// message).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadTag(t) => write!(f, "unknown opcode/status {t}"),
            WireError::CrcMismatch => write!(f, "frame CRC mismatch"),
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// What the shared cursor can refuse a body for, in this protocol's terms.
impl From<sealed::Error> for WireError {
    fn from(e: sealed::Error) -> Self {
        match e {
            sealed::Error::Truncated => WireError::Truncated,
            sealed::Error::CrcMismatch => WireError::CrcMismatch,
            sealed::Error::Malformed(why) => WireError::Malformed(why),
            other => WireError::Malformed(other.to_string()),
        }
    }
}

/// Typed error codes a server can reply with — the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame did not decode; the connection is closed after
    /// this reply (framing may be lost).
    BadFrame,
    /// The batching queue is full; retry later.
    Backpressure,
    /// The per-request deadline expired before the reply was ready.
    Timeout,
    /// A node id is outside the served graph.
    NodeOutOfRange,
    /// More nodes than the server's per-query cap.
    TooLarge,
    /// Server-side failure (e.g. an injected fault).
    Internal,
    /// The server is shutting down.
    Shutdown,
    /// Admission control shed the request: the deadline could not be met
    /// given current queue depth, the per-connection in-flight cap was
    /// exceeded, or the connection limit was reached. The reply carries a
    /// `retry_after_ms` hint.
    Overloaded,
}

impl ErrorCode {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 0,
            ErrorCode::Backpressure => 1,
            ErrorCode::Timeout => 2,
            ErrorCode::NodeOutOfRange => 3,
            ErrorCode::TooLarge => 4,
            ErrorCode::Internal => 5,
            ErrorCode::Shutdown => 6,
            ErrorCode::Overloaded => 7,
        }
    }

    pub fn from_byte(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => ErrorCode::BadFrame,
            1 => ErrorCode::Backpressure,
            2 => ErrorCode::Timeout,
            3 => ErrorCode::NodeOutOfRange,
            4 => ErrorCode::TooLarge,
            5 => ErrorCode::Internal,
            6 => ErrorCode::Shutdown,
            7 => ErrorCode::Overloaded,
            other => return Err(WireError::Malformed(format!("error code {other}"))),
        })
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    Query {
        nonce: u64,
        /// 0 = no deadline.
        deadline_ms: u32,
        nodes: Vec<u32>,
    },
    Ping {
        nonce: u64,
    },
    /// Admin frame: atomically swap in the bundle on disk (requires the
    /// server to have been booted with a bundle directory).
    Reload {
        nonce: u64,
    },
}

impl Request {
    pub(crate) fn nonce(&self) -> u64 {
        match self {
            Request::Query { nonce, .. } | Request::Ping { nonce } | Request::Reload { nonce } => {
                *nonce
            }
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Logits {
        nonce: u64,
        rows: u32,
        cols: u32,
        /// Row-major `rows × cols` logits, bit-exact f32.
        data: Vec<f32>,
    },
    Error {
        nonce: u64,
        code: ErrorCode,
        /// Backoff hint in milliseconds; 0 = none. Set on shed/overload
        /// replies so clients can retry intelligently.
        retry_after_ms: u32,
        msg: String,
    },
    Pong {
        nonce: u64,
    },
    /// The bundle swap succeeded; `generation` is the new bundle
    /// generation tag (monotonic per server).
    Reloaded {
        nonce: u64,
        generation: u64,
    },
}

impl Response {
    pub(crate) fn nonce(&self) -> u64 {
        match self {
            Response::Logits { nonce, .. }
            | Response::Error { nonce, .. }
            | Response::Pong { nonce }
            | Response::Reloaded { nonce, .. } => *nonce,
        }
    }
}

/// Opens a frame: one buffer reserved for the whole frame (`tail` is what
/// follows the nonce, CRC excluded), a length placeholder for [`seal`] to
/// patch, then the three fields every body starts with.
fn open(tag: u8, nonce: u64, tail: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + 1 + 1 + 8 + tail + 4);
    frame.extend_from_slice(&[0; 4]);
    frame.push(WIRE_VERSION);
    frame.push(tag);
    frame.extend_from_slice(&nonce.to_le_bytes());
    frame
}

/// Closes a frame in place: CRC over the body written so far, appended,
/// and the body length (CRC included) patched into the prefix.
fn seal(mut frame: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&frame[4..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    let body_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame
}

/// Encodes a request as a complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    seal(match req {
        Request::Query {
            nonce,
            deadline_ms,
            nodes,
        } => {
            let mut f = open(OP_QUERY, *nonce, 4 + 4 + nodes.len() * 4);
            f.extend_from_slice(&deadline_ms.to_le_bytes());
            f.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
            le::put_u32s(&mut f, nodes);
            f
        }
        Request::Ping { nonce } => open(OP_PING, *nonce, 0),
        Request::Reload { nonce } => open(OP_RELOAD, *nonce, 0),
    })
}

/// Encodes a response as a complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    seal(match resp {
        Response::Logits {
            nonce,
            rows,
            cols,
            data,
        } => {
            let mut f = open(ST_LOGITS, *nonce, 4 + 4 + data.len() * 4);
            f.extend_from_slice(&rows.to_le_bytes());
            f.extend_from_slice(&cols.to_le_bytes());
            le::put_f32s(&mut f, data);
            f
        }
        Response::Error {
            nonce,
            code,
            retry_after_ms,
            msg,
        } => {
            let mut f = open(ST_ERROR, *nonce, 1 + 4 + 4 + msg.len());
            f.push(code.to_byte());
            f.extend_from_slice(&retry_after_ms.to_le_bytes());
            f.extend_from_slice(&(msg.len() as u32).to_le_bytes());
            f.extend_from_slice(msg.as_bytes());
            f
        }
        Response::Pong { nonce } => open(ST_PONG, *nonce, 0),
        Response::Reloaded { nonce, generation } => {
            let mut f = open(ST_RELOADED, *nonce, 8);
            f.extend_from_slice(&generation.to_le_bytes());
            f
        }
    })
}

/// Verifies the trailing CRC and returns the payload before it.
fn check_crc(body: &[u8]) -> Result<&[u8], WireError> {
    let (payload, want) = body.split_last_chunk().ok_or(WireError::Truncated)?;
    if crc32(payload) != u32::from_le_bytes(*want) {
        return Err(WireError::CrcMismatch);
    }
    Ok(payload)
}

/// Decodes a request body (everything after the length prefix).
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    let payload = check_crc(body)?;
    let mut c = Cursor::new(payload);
    let v = c.u8()?;
    if v != WIRE_VERSION {
        return Err(WireError::BadVersion(v));
    }
    let op = c.u8()?;
    let req = match op {
        OP_QUERY => {
            let nonce = c.u64()?;
            let deadline_ms = c.u32()?;
            let n = c.u32()? as usize;
            Request::Query {
                nonce,
                deadline_ms,
                nodes: c.u32s(n)?,
            }
        }
        OP_PING => Request::Ping { nonce: c.u64()? },
        OP_RELOAD => Request::Reload { nonce: c.u64()? },
        other => return Err(WireError::BadTag(other)),
    };
    c.done()?;
    Ok(req)
}

/// Decodes a response body (everything after the length prefix).
pub fn decode_response(body: &[u8]) -> Result<Response, WireError> {
    let payload = check_crc(body)?;
    let mut c = Cursor::new(payload);
    let v = c.u8()?;
    if v != WIRE_VERSION {
        return Err(WireError::BadVersion(v));
    }
    let st = c.u8()?;
    let resp = match st {
        ST_LOGITS => {
            let nonce = c.u64()?;
            let rows = c.u32()?;
            let cols = c.u32()?;
            let total = (rows as usize)
                .checked_mul(cols as usize)
                .ok_or_else(|| WireError::Malformed(format!("logit shape {rows}x{cols}")))?;
            Response::Logits {
                nonce,
                rows,
                cols,
                data: c.f32s(total)?,
            }
        }
        ST_ERROR => {
            let nonce = c.u64()?;
            let code = ErrorCode::from_byte(c.u8()?)?;
            let retry_after_ms = c.u32()?;
            let len = c.u32()? as usize;
            let msg = c.str(len)?;
            Response::Error {
                nonce,
                code,
                retry_after_ms,
                msg,
            }
        }
        ST_PONG => Response::Pong { nonce: c.u64()? },
        ST_RELOADED => Response::Reloaded {
            nonce: c.u64()?,
            generation: c.u64()?,
        },
        other => return Err(WireError::BadTag(other)),
    };
    c.done()?;
    Ok(resp)
}

/// Writes one pre-encoded frame (as produced by the `encode_*` functions).
pub(crate) fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Outcome of one [`FrameReader::poll`] call.
#[derive(Debug)]
pub enum FramePoll {
    /// A complete frame body (everything after the length prefix).
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary (peer closed between frames).
    Eof,
    /// The read timed out (`WouldBlock` / `TimedOut`, carried here) with
    /// no frame in progress, or with a frame in progress but still inside
    /// the partial-frame deadline — poll again.
    Pending(std::io::Error),
    /// A frame started but did not complete within the partial-frame
    /// deadline: a stalled or malicious (slowloris) peer.
    Stalled,
    /// Declared body length exceeds the cap — the body is never read.
    TooLarge(u32),
    /// Transport error, including EOF mid-frame (a torn frame).
    Io(std::io::Error),
}

/// The one frame reader, for both ends of a connection.
///
/// A reader that simply blocks loses partially read bytes when a read
/// times out mid-frame, which both corrupts framing on a slow-but-honest
/// peer and lets a malicious one hold a reader thread forever by dripping
/// one byte per timeout (slowloris). `FrameReader` keeps the partial
/// frame across timeouts and enforces a wall-clock deadline from the
/// first byte of a frame to its last: a peer that starts a frame must
/// finish it within `frame_deadline` or the poll reports
/// [`FramePoll::Stalled`]. On a socket without a read timeout one poll
/// blocks until a whole frame, a close, or an error.
#[derive(Default)]
pub struct FrameReader {
    len_buf: [u8; 4],
    got_len: usize,
    body: Vec<u8>,
    got_body: usize,
    /// Set when the first byte of a frame arrives; cleared on completion.
    started: Option<Instant>,
}

impl FrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes as much progress as one blocking read (with the socket's
    /// read timeout) allows. Call in a loop; `Pending` is the idle tick.
    pub fn poll<R: Read>(
        &mut self,
        r: &mut R,
        max_body: usize,
        frame_deadline: Duration,
    ) -> FramePoll {
        loop {
            if self.got_len < 4 {
                match r.read(&mut self.len_buf[self.got_len..]) {
                    Ok(0) => {
                        return if self.started.is_none() {
                            FramePoll::Eof
                        } else {
                            FramePoll::Io(std::io::Error::new(
                                std::io::ErrorKind::UnexpectedEof,
                                "eof inside frame length",
                            ))
                        };
                    }
                    Ok(n) => {
                        self.started.get_or_insert_with(Instant::now);
                        self.got_len += n;
                        if self.got_len == 4 {
                            let len = u32::from_le_bytes(self.len_buf);
                            if len as usize > max_body {
                                self.reset();
                                return FramePoll::TooLarge(len);
                            }
                            self.body = vec![0u8; len as usize];
                            self.got_body = 0;
                        }
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return self.pending_or_stalled(e, frame_deadline);
                    }
                    Err(e) => return FramePoll::Io(e),
                }
            }
            // Length known; body may be zero-sized.
            if self.got_body < self.body.len() {
                match r.read(&mut self.body[self.got_body..]) {
                    Ok(0) => {
                        return FramePoll::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "eof inside frame body",
                        ));
                    }
                    Ok(n) => {
                        self.got_body += n;
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return self.pending_or_stalled(e, frame_deadline);
                    }
                    Err(e) => return FramePoll::Io(e),
                }
            }
            let body = std::mem::take(&mut self.body);
            self.reset();
            return FramePoll::Frame(body);
        }
    }

    fn pending_or_stalled(
        &mut self,
        timeout: std::io::Error,
        frame_deadline: Duration,
    ) -> FramePoll {
        match self.started {
            Some(t0) if t0.elapsed() >= frame_deadline => {
                self.reset();
                FramePoll::Stalled
            }
            _ => FramePoll::Pending(timeout),
        }
    }

    fn reset(&mut self) {
        self.got_len = 0;
        self.got_body = 0;
        self.body = Vec::new();
        self.started = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let reqs = [
            Request::Query {
                nonce: 7,
                deadline_ms: 250,
                nodes: vec![0, 3, 3, 9],
            },
            Request::Ping { nonce: u64::MAX },
            Request::Reload { nonce: 42 },
        ];
        for req in reqs {
            let frame = encode_request(&req);
            let body = &frame[4..];
            assert_eq!(decode_request(body).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trip() {
        let resps = [
            Response::Logits {
                nonce: 1,
                rows: 2,
                cols: 3,
                data: vec![0.0, -1.5, f32::MIN_POSITIVE, 3.25, -0.0, 1e30],
            },
            Response::Error {
                nonce: 2,
                code: ErrorCode::Backpressure,
                retry_after_ms: 7,
                msg: "queue full".into(),
            },
            Response::Error {
                nonce: 4,
                code: ErrorCode::Overloaded,
                retry_after_ms: 250,
                msg: "shed".into(),
            },
            Response::Pong { nonce: 3 },
            Response::Reloaded {
                nonce: 5,
                generation: 9,
            },
        ];
        for resp in resps {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame[4..]).unwrap(), resp);
        }
    }

    #[test]
    fn corrupt_body_is_crc_mismatch() {
        let frame = encode_request(&Request::Query {
            nonce: 9,
            deadline_ms: 0,
            nodes: vec![1, 2, 3],
        });
        for bit in 0..(frame.len() - 4) * 8 {
            let mut bad = frame[4..].to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                decode_request(&bad).unwrap_err(),
                WireError::CrcMismatch,
                "bit {bit}"
            );
        }
    }

    /// One poll of a fresh reader with no partial-frame deadline (the
    /// client's blocking read).
    fn poll_once(r: &mut std::io::Cursor<Vec<u8>>) -> FramePoll {
        FrameReader::new().poll(r, MAX_BODY, Duration::MAX)
    }

    #[test]
    fn frame_io_round_trip_and_caps() {
        let frame = encode_request(&Request::Ping { nonce: 5 });
        let mut cur = std::io::Cursor::new(frame.clone());
        let FramePoll::Frame(body) = poll_once(&mut cur) else {
            panic!("a whole frame must read back");
        };
        assert_eq!(decode_request(&body).unwrap(), Request::Ping { nonce: 5 });
        // Clean EOF after the frame.
        assert!(matches!(poll_once(&mut cur), FramePoll::Eof));
        // Oversized declared length is rejected without reading the body.
        let mut huge = std::io::Cursor::new((MAX_BODY as u32 + 1).to_le_bytes().to_vec());
        assert!(matches!(poll_once(&mut huge), FramePoll::TooLarge(_)));
    }

    /// A reader that yields `chunk` bytes of `data` per call, interleaving
    /// a `WouldBlock` between chunks — a socket timing out mid-frame.
    /// `hang_at_end` makes it time out forever once the data is spent (a
    /// slowloris peer that goes silent) instead of closing cleanly.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        block_next: bool,
        hang_at_end: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return if self.hang_at_end {
                    Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"))
                } else {
                    Ok(0)
                };
            }
            if self.block_next {
                self.block_next = false;
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"));
            }
            self.block_next = true;
            let n = self.chunk.min(self.data.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_survives_byte_dribble_across_timeouts() {
        // One byte per read with a timeout between every pair: a reader
        // that just blocks would lose the partial length here; the
        // stateful reader must reassemble the frame exactly.
        let frame = encode_request(&Request::Query {
            nonce: 77,
            deadline_ms: 5,
            nodes: vec![1, 2, 3, 4, 5],
        });
        let mut r = Dribble {
            data: frame.clone(),
            pos: 0,
            chunk: 1,
            block_next: false,
            hang_at_end: false,
        };
        let mut fr = FrameReader::new();
        let deadline = Duration::from_secs(30);
        loop {
            match fr.poll(&mut r, MAX_BODY, deadline) {
                FramePoll::Frame(body) => {
                    assert_eq!(&frame[4..], &body[..]);
                    break;
                }
                FramePoll::Pending(_) => continue,
                other => panic!("unexpected poll outcome {other:?}"),
            }
        }
        assert!(fr.started.is_none());
        match fr.poll(&mut r, MAX_BODY, deadline) {
            FramePoll::Eof => {}
            other => panic!("expected clean EOF, got {other:?}"),
        }
    }

    #[test]
    fn frame_reader_flags_stalled_partial_frame() {
        // Two bytes of length then silence: once the deadline passes, the
        // reader reports Stalled instead of spinning forever.
        let mut r = Dribble {
            data: vec![10, 0],
            pos: 0,
            chunk: 2,
            block_next: false,
            hang_at_end: true,
        };
        let mut fr = FrameReader::new();
        assert!(matches!(
            fr.poll(&mut r, MAX_BODY, Duration::from_secs(30)),
            FramePoll::Pending(_)
        ));
        assert!(fr.started.is_some());
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            fr.poll(&mut r, MAX_BODY, Duration::from_millis(1)),
            FramePoll::Stalled
        ));
        assert!(fr.started.is_none(), "stall must reset the reader");
    }

    #[test]
    fn frame_reader_rejects_oversized_and_torn_frames() {
        let mut r = std::io::Cursor::new((MAX_BODY as u32 + 1).to_le_bytes().to_vec());
        let mut fr = FrameReader::new();
        assert!(matches!(
            fr.poll(&mut r, MAX_BODY, Duration::from_secs(1)),
            FramePoll::TooLarge(_)
        ));
        // Torn: EOF inside the length, and length 10 with three body bytes.
        // Both are transport errors, not a clean close.
        for torn in [vec![10, 0], vec![10, 0, 0, 0, 1, 2, 3]] {
            let mut r = std::io::Cursor::new(torn);
            assert!(matches!(
                poll_once(&mut r),
                FramePoll::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof
            ));
        }
    }
}
