//! Deterministic fault injection for the request path — the serving
//! counterpart of `sgnn_bench::faults`, on the same `;`-separated
//! `kind key=value` tokenizer and plan holder ([`sgnn_obs::faults`]); this
//! module is the serving clause table and hooks. With no plan installed a
//! hook is one relaxed atomic load — it sits on every socket read, batch
//! and reply. Batch-level clauses key on the batcher's
//! batch sequence number; socket-level clauses key on the connection's
//! accept index (0-based, per server instance).
//!
//! ```text
//! slow [batch=K] [dur=S]    sleep S seconds (default 0.005) before batch K
//!                           (every batch when K is omitted) computes —
//!                           drives deadline-timeout and coalescing tests
//! fail [batch=K]            the handler for batch K (every batch when K is
//!                           omitted) fails; all requests in it get a typed
//!                           `Internal` error reply, the server stays up
//! panic [batch=K]           the batcher thread panics on batch K — the
//!                           watchdog must fail the in-flight requests with
//!                           `Internal` and restart the batcher
//! stall [conn=K] [dur=S]    the reader for connection K dribbles: sleep S
//!                           seconds (default 0.05) before every read —
//!                           drives the partial-frame deadline (slowloris)
//! disconnect [conn=K]       connection K is dropped right after accept —
//!                           clients must survive an abrupt hangup
//! torn-write [conn=K]       every reply on connection K is cut mid-frame
//!                           and the socket closed — clients see a torn
//!                           frame, never garbage parsed as a reply
//! corrupt-frame [conn=K]    every reply frame on connection K has one bit
//!                           flipped in its body — clients must detect the
//!                           CRC mismatch and treat the reply as lost
//! ```
//!
//! Faults install process-globally ([`install`]/[`clear`]), or from the
//! `SGNN_SERVE_FAULTS` environment variable; injections count into the
//! `serve.faults.injected` counter.

use std::time::Duration;

use sgnn_obs::faults::Plan;
use sgnn_obs::Counter;

static INJECTED: Counter = Counter::new("serve.faults.injected");

#[derive(Clone, Debug, PartialEq)]
pub enum ServeFault {
    Slow {
        /// Batch sequence number to hit; `None` = every batch.
        batch: Option<u64>,
        dur: Duration,
    },
    Fail {
        batch: Option<u64>,
    },
    Panic {
        batch: Option<u64>,
    },
    Stall {
        /// Accept-order connection index to hit; `None` = every connection.
        conn: Option<u64>,
        dur: Duration,
    },
    Disconnect {
        conn: Option<u64>,
    },
    TornWrite {
        conn: Option<u64>,
    },
    CorruptFrame {
        conn: Option<u64>,
    },
}

static PLAN: Plan<ServeFault> = Plan::new();

/// Parses a fault spec. Empty spec = empty plan. Batch faults take `batch`,
/// socket faults `conn`; any other key is rejected.
pub fn parse(spec: &str) -> Result<Vec<ServeFault>, String> {
    sgnn_obs::faults::parse(spec, |c| {
        Ok(match c.kind {
            "slow" => ServeFault::Slow {
                batch: c.opt_num("batch")?,
                dur: c.opt_secs("dur")?.unwrap_or(Duration::from_millis(5)),
            },
            "fail" => ServeFault::Fail {
                batch: c.opt_num("batch")?,
            },
            "panic" => ServeFault::Panic {
                batch: c.opt_num("batch")?,
            },
            "stall" => ServeFault::Stall {
                conn: c.opt_num("conn")?,
                dur: c.opt_secs("dur")?.unwrap_or(Duration::from_millis(50)),
            },
            "disconnect" => ServeFault::Disconnect {
                conn: c.opt_num("conn")?,
            },
            "torn-write" => ServeFault::TornWrite {
                conn: c.opt_num("conn")?,
            },
            "corrupt-frame" => ServeFault::CorruptFrame {
                conn: c.opt_num("conn")?,
            },
            other => return Err(c.error(format!("unknown fault kind `{other}`"))),
        })
    })
}

/// Arms a plan process-globally (replacing any previous one).
pub fn install(plan: Vec<ServeFault>) {
    PLAN.install(plan);
}

/// Disarms fault injection.
pub fn clear() {
    PLAN.clear();
}

/// What the batch handler must do about an armed fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Injected {
    /// Reply `Internal` to every request in the batch.
    Fail,
    /// Panic the batcher thread (the watchdog's test vector).
    Panic,
}

/// What the reply writer must do about an armed socket fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// Write only the first half of the frame, then close the socket.
    Torn,
    /// Flip one bit in the frame body before writing it.
    Corrupt,
}

fn matches(key: &Option<u64>, id: u64) -> bool {
    key.is_none() || *key == Some(id)
}

/// Hook called once per batch with its sequence number. `slow` faults sleep
/// here (inline, so queueing backs up exactly as a slow model would);
/// `fail`/`panic` faults return the corresponding [`Injected`] (`panic`
/// wins when both match — it is the stronger failure).
pub(crate) fn on_batch(seq: u64) -> Option<Injected> {
    // Copied out: `slow` sleeps, which must not happen under the plan's lock.
    let plan = PLAN.with(|plan| plan.clone())?;
    let mut out = None;
    for fault in &plan {
        match fault {
            ServeFault::Slow { batch, dur } if matches(batch, seq) => {
                INJECTED.incr();
                std::thread::sleep(*dur);
            }
            ServeFault::Fail { batch } if matches(batch, seq) => {
                INJECTED.incr();
                if out.is_none() {
                    out = Some(Injected::Fail);
                }
            }
            ServeFault::Panic { batch } if matches(batch, seq) => {
                INJECTED.incr();
                out = Some(Injected::Panic);
            }
            _ => {}
        }
    }
    out
}

/// Hook called once per accepted connection (accept-order index). `true`
/// means the connection must be dropped immediately.
pub(crate) fn on_accept(conn: u64) -> bool {
    let hit =
        |f: &ServeFault| matches!(f, ServeFault::Disconnect { conn: key } if matches(key, conn));
    let drop_it = PLAN.with(|plan| plan.iter().any(hit)).unwrap_or(false);
    if drop_it {
        INJECTED.incr();
    }
    drop_it
}

/// Hook called before every blocking read on a connection; a `stall`
/// fault returns the injected delay (the reader sleeps, simulating a peer
/// that dribbles bytes).
pub(crate) fn on_conn_read(conn: u64) -> Option<Duration> {
    let delay = PLAN.with(|plan| {
        plan.iter().find_map(|fault| match fault {
            ServeFault::Stall { conn: key, dur } if matches(key, conn) => Some(*dur),
            _ => None,
        })
    })??;
    INJECTED.incr();
    Some(delay)
}

/// Hook called before every reply write on a connection. `Torn` wins over
/// `Corrupt` when both match (the connection dies either way).
pub(crate) fn on_write(conn: u64) -> Option<WriteFault> {
    PLAN.with(|plan| {
        let mut out = None;
        for fault in plan.iter() {
            match fault {
                ServeFault::TornWrite { conn: key } if matches(key, conn) => {
                    INJECTED.incr();
                    return Some(WriteFault::Torn);
                }
                ServeFault::CorruptFrame { conn: key } if matches(key, conn) => {
                    INJECTED.incr();
                    out = Some(WriteFault::Corrupt);
                }
                _ => {}
            }
        }
        out
    })?
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = parse("slow batch=3 dur=0.01; fail batch=5;slow").unwrap();
        assert_eq!(
            plan,
            vec![
                ServeFault::Slow {
                    batch: Some(3),
                    dur: Duration::from_millis(10)
                },
                ServeFault::Fail { batch: Some(5) },
                ServeFault::Slow {
                    batch: None,
                    dur: Duration::from_millis(5)
                },
            ]
        );
        assert!(parse("").unwrap().is_empty());
    }

    #[test]
    fn parses_chaos_grammar() {
        let plan =
            parse("stall conn=2 dur=0.1; disconnect conn=5; torn-write conn=7; corrupt-frame conn=1; panic batch=4")
                .unwrap();
        assert_eq!(
            plan,
            vec![
                ServeFault::Stall {
                    conn: Some(2),
                    dur: Duration::from_millis(100)
                },
                ServeFault::Disconnect { conn: Some(5) },
                ServeFault::TornWrite { conn: Some(7) },
                ServeFault::CorruptFrame { conn: Some(1) },
                ServeFault::Panic { batch: Some(4) },
            ]
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(parse("explode").is_err());
        assert!(parse("slow batch").is_err());
        assert!(parse("slow dur=-1").is_err());
        assert!(parse("slow dur=nan").is_err());
        assert!(parse("fail dur=0.1").is_err());
        assert!(parse("slow what=3").is_err());
        // Wrong key domain: batch faults take batch, socket faults conn.
        assert!(parse("slow conn=1").is_err());
        assert!(parse("disconnect batch=1").is_err());
        assert!(parse("torn-write dur=0.1").is_err());
        assert!(parse("panic conn=2").is_err());
        // The error names the key, so a typo is findable.
        let e = parse("slow conn=1").unwrap_err();
        assert!(e.contains("unknown key `conn`"), "{e}");
        assert!(parse("stall cel=1").unwrap_err().contains("`cel`"));
    }

    #[test]
    fn socket_hooks_match_on_conn_index() {
        install(
            parse("disconnect conn=3; torn-write conn=4; corrupt-frame conn=5; stall conn=6 dur=0")
                .unwrap(),
        );
        assert!(!on_accept(0));
        assert!(on_accept(3));
        assert_eq!(on_write(4), Some(WriteFault::Torn));
        assert_eq!(on_write(5), Some(WriteFault::Corrupt));
        assert_eq!(on_write(0), None);
        assert_eq!(on_conn_read(6), Some(Duration::ZERO));
        assert_eq!(on_conn_read(1), None);
        clear();
        assert!(!on_accept(3));
    }

    #[test]
    fn panic_wins_over_fail_on_the_same_batch() {
        install(parse("fail batch=2; panic batch=2").unwrap());
        assert_eq!(on_batch(2), Some(Injected::Panic));
        assert_eq!(on_batch(1), None);
        clear();
    }
}
