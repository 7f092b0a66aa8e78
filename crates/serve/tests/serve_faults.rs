//! Fault injection on the request path: deadline timeouts, queue
//! backpressure, malformed frames, and corrupt or mismatched artifacts must
//! all surface as *typed* errors — never a crash, never a hang. (Torn
//! artifacts at every offset are `wire_props`'.)

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sgnn_serve::bundle::{load_engine, CKPT_FILE, TERMS_FILE};
use sgnn_serve::wire::{decode_response, FramePoll, FrameReader, MAX_BODY};
use sgnn_serve::{faults, serve, Client, ErrorCode, Reply, Response, ServeConfig, ServeError};

/// Fault plans are process-global; the server-driving tests in this binary
/// take this lock so one test's armed faults never leak into another.
static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The reply a raw connection receives; `expect` names it when the server
/// closes (or tears the frame) instead.
fn raw_reply(stream: &mut TcpStream, expect: &str) -> Response {
    match FrameReader::new().poll(stream, MAX_BODY, Duration::MAX) {
        FramePoll::Frame(body) => decode_response(&body).unwrap(),
        other => panic!("expected {expect}, got {other:?}"),
    }
}

#[test]
fn slow_batch_expires_deadlines_into_typed_timeouts() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _data, _cfg) = common::tiny_bundle("faults-slow", 19);
    // Every batch sleeps 50 ms; a 5 ms deadline cannot survive it.
    faults::install(faults::parse("slow dur=0.05").unwrap());
    let engine = load_engine(&dir).unwrap();
    let server = serve(engine, ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    match client.query_deadline(&[0], 5).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("a 5 ms deadline must expire behind a 50 ms fault, got {other:?}"),
    }
    // Same connection, no deadline: the slow batch is tolerated.
    assert!(matches!(client.query(&[0]).unwrap(), Reply::Logits(_)));

    // Disarm and the fast path is back.
    faults::clear();
    assert!(matches!(
        client.query_deadline(&[0], 5000).unwrap(),
        Reply::Logits(_)
    ));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_replies_backpressure_without_hanging() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _data, _cfg) = common::tiny_bundle("faults-bp", 23);
    // One-slot queue, one-row batches, and a 100 ms handler: concurrent
    // queries must overflow the queue immediately.
    faults::install(faults::parse("slow dur=0.1").unwrap());
    let engine = load_engine(&dir).unwrap();
    let server = serve(
        engine,
        ServeConfig {
            queue_cap: 1,
            max_batch_rows: 1,
            linger: Duration::ZERO,
            cache_cap: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let started = Instant::now();
    let workers: Vec<_> = (0..10)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                match c.query(&[0]).unwrap() {
                    Reply::Logits(_) => (1u32, 0u32),
                    Reply::Error { code, .. } => {
                        assert_eq!(code, ErrorCode::Backpressure, "only typed backpressure");
                        (0, 1)
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            })
        })
        .collect();
    let (mut served, mut pushed_back) = (0, 0);
    for w in workers {
        let (s, b) = w.join().unwrap();
        served += s;
        pushed_back += b;
    }
    // Bounded queue, typed refusal, and nobody waited on a hung socket.
    assert!(
        pushed_back > 0,
        "the 1-slot queue must push back under 10 concurrent queries"
    );
    assert!(served > 0, "accepted queries still complete");
    assert_eq!(served + pushed_back, 10);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "backpressure must be immediate, not a hang"
    );
    faults::clear();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_fail_is_internal_error_and_server_survives() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _data, _cfg) = common::tiny_bundle("faults-fail", 29);
    faults::install(faults::parse("fail").unwrap());
    let engine = load_engine(&dir).unwrap();
    let server = serve(engine, ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query(&[0]).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::Internal),
        other => panic!("injected fail must reply Internal, got {other:?}"),
    }
    faults::clear();
    assert!(matches!(client.query(&[0]).unwrap(), Reply::Logits(_)));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_oversized_frames_get_error_replies() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _data, _cfg) = common::tiny_bundle("faults-frame", 31);
    let engine = load_engine(&dir).unwrap();
    let server = serve(engine, ServeConfig::default()).unwrap();

    // Garbage body with a valid length prefix → BadFrame reply, then the
    // server closes the connection (framing can no longer be trusted).
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&8u32.to_le_bytes()).unwrap();
    raw.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0, 1, 2, 3])
        .unwrap();
    match raw_reply(&mut raw, "a BadFrame reply, not a silent close") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame, got {other:?}"),
    }
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "connection must be closed after a bad frame"
    );

    // Oversized declared length → same ladder rung, without the server
    // ever allocating the body.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    match raw_reply(&mut raw, "a BadFrame reply for an oversized frame") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame, got {other:?}"),
    }

    // Out-of-range and oversized queries are typed replies and the
    // connection keeps working.
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query(&[u32::MAX]).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::NodeOutOfRange),
        other => panic!("node u32::MAX cannot exist in a tiny graph, got {other:?}"),
    }
    let too_many: Vec<u32> = vec![0; ServeConfig::default().max_nodes_per_query + 1];
    match client.query(&too_many).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::TooLarge),
        other => panic!("per-query node cap must hold, got {other:?}"),
    }
    assert!(matches!(client.query(&[0]).unwrap(), Reply::Logits(_)));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slowloris_partial_frame_is_cut_off_at_the_deadline() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _data, _cfg) = common::tiny_bundle("faults-loris", 41);
    let engine = load_engine(&dir).unwrap();
    let server = serve(
        engine,
        ServeConfig {
            frame_deadline: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // A malicious peer sends a frame length and two body bytes, then goes
    // silent. The old blocking reader would hold its thread forever; the
    // incremental reader must cut the connection at the partial-frame
    // deadline with a typed BadFrame reply.
    let started = Instant::now();
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    loris.write_all(&64u32.to_le_bytes()).unwrap();
    loris.write_all(&[1, 2]).unwrap();
    match raw_reply(&mut loris, "a BadFrame reply, not silence") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame, got {other:?}"),
    }
    let mut rest = Vec::new();
    loris.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "stalled connection must be closed");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the stall must be cut at the deadline, not tolerated"
    );

    // Honest clients are unaffected, before and after.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(matches!(client.query(&[0]).unwrap(), Reply::Logits(_)));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_ckpt_and_mismatched_pairing_are_typed_load_errors() {
    let (dir, _data, _cfg) = common::tiny_bundle("faults-corrupt", 37);

    // Flip one payload byte of the model checkpoint: SGNNCKPT CRC catches it.
    let ckpt = dir.join(CKPT_FILE);
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&ckpt, &bytes).unwrap();
    let err = load_engine(&dir)
        .err()
        .expect("corrupt checkpoint must fail");
    assert!(
        matches!(err, ServeError::Ckpt(_)),
        "corrupt checkpoint must fail as ServeError::Ckpt, got {err}"
    );
    bytes[last] ^= 0x40;
    std::fs::write(&ckpt, &bytes).unwrap();
    load_engine(&dir).unwrap();

    // Terms from a *different run* (other seed): rejected by the pairing
    // guard even though both artifacts are individually valid.
    let (dir2, _data2, _cfg2) = common::tiny_bundle("faults-corrupt-b", 38);
    std::fs::copy(dir2.join(TERMS_FILE), dir.join(TERMS_FILE)).unwrap();
    let err = load_engine(&dir)
        .err()
        .expect("mixed-run artifacts must fail");
    assert!(
        matches!(err, ServeError::Pairing(_)),
        "mixed-run artifacts must fail the pairing check, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn idle_connections_are_reaped_and_busy_ones_are_not() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _data, _cfg) = common::tiny_bundle("faults-idle", 43);
    // Every batch takes 1 s, ten idle timeouts: a query in flight that
    // long must keep its connection open.
    faults::install(faults::parse("slow dur=1").unwrap());
    let engine = load_engine(&dir).unwrap();
    let server = serve(
        engine,
        ServeConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let before = sgnn_obs::snapshot();
    let reaped = || {
        let now = sgnn_obs::snapshot().counter("serve.conn.reaped");
        now.unwrap_or(0) - before.counter("serve.conn.reaped").unwrap_or(0)
    };

    let busy = std::thread::spawn(move || Client::connect(addr).unwrap().query(&[0]));
    let started = Instant::now();
    let mut silent = TcpStream::connect(addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut rest = Vec::new();
    silent
        .read_to_end(&mut rest)
        .expect("the silent connection is closed, not left to time out");
    assert!(rest.is_empty(), "a reaped connection gets no reply");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "reaped within the batch's second, after {:?}",
        started.elapsed()
    );
    // Only the silent connection can have been reaped: the other has had
    // a query in flight since it connected.
    assert_eq!(reaped(), 1);
    match busy.join().unwrap() {
        Ok(Reply::Logits(_)) => {}
        other => panic!("a connection with a query in flight was cut: {other:?}"),
    }
    faults::clear();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_batch_panic_fails_its_batch_and_the_next_query_is_served() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _data, _cfg) = common::tiny_bundle("faults-panic", 47);
    let mut reference = load_engine(&dir).unwrap();
    let want: Vec<u32> = reference
        .logits(&[3])
        .row(0)
        .iter()
        .map(|x| x.to_bits())
        .collect();
    faults::install(faults::parse("panic batch=0").unwrap());
    let engine = load_engine(&dir).unwrap();
    let server = serve(engine, ServeConfig::default()).unwrap();
    let before = sgnn_obs::snapshot();
    let mut client = Client::connect(server.addr()).unwrap();

    match client.query(&[3]).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::Internal),
        other => panic!("the panicking batch must reply Internal, got {other:?}"),
    }
    match client.query(&[3]).unwrap() {
        Reply::Logits(m) => {
            let got: Vec<u32> = m.row(0).iter().map(|x| x.to_bits()).collect();
            assert_eq!(
                got, want,
                "served after the panic, bits differ from the engine"
            );
        }
        other => panic!("the batch after the panic must be served, got {other:?}"),
    }
    server.shutdown();
    faults::clear();
    let after = sgnn_obs::snapshot();
    let d = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(d("serve.batcher_restarts"), 1);
    let reached = d("serve.batches") + d("serve.batch.coalesced");
    assert_eq!(d("serve.requests"), 2);
    assert_eq!(
        d("serve.requests"),
        reached + d("serve.shed") + d("serve.rejected"),
        "conservation law"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
