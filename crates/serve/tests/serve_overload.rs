//! Overload control: when clients bring deadlines the queue cannot meet,
//! the server sheds at *enqueue* — a typed `Overloaded` with a
//! `retry_after_ms` hint — instead of burning batcher time on rows whose
//! deadline will have expired by the time they compute. The request
//! conservation law stays exact under the storm, and a deadline-free
//! probe is served normally afterwards.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sgnn_serve::bundle::load_engine;
use sgnn_serve::{faults, serve, Client, ErrorCode, Reply, ServeConfig};

#[test]
fn aggressive_deadlines_trigger_shedding_with_exact_accounting() {
    sgnn_obs::reset();

    let (dir, data, _cfg) = common::tiny_bundle("overload", 37);
    let n = data.nodes() as u32;

    // Every batch takes at least 4 ms: the admission estimator learns a
    // high per-row cost, so a 2 ms deadline behind a non-empty queue is
    // provably unmeetable and must be shed.
    faults::install(faults::parse("slow dur=0.004").unwrap());
    let engine = load_engine(&dir).unwrap();
    let server = serve(
        engine,
        ServeConfig {
            linger: Duration::from_millis(2),
            max_batch_rows: 8,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Warm the admission estimator past its sample floor: deadline-free
    // queries are never shed, and each one becomes a measured batch.
    let mut warm = Client::connect(addr).unwrap();
    for i in 0..40u32 {
        match warm.query(&[i % n]).unwrap() {
            Reply::Logits(_) => {}
            other => panic!("warmup query {i}: {other:?}"),
        }
    }

    // The storm: closed-loop clients all demanding a 2 ms turnaround the
    // 4 ms-per-batch server cannot possibly give once a queue forms.
    let shed_seen = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..16u64)
        .map(|w| {
            let shed_seen = Arc::clone(&shed_seen);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..30u64 {
                    let v = ((w * 31 + round * 7) % n as u64) as u32;
                    match client.query_deadline(&[v], 2) {
                        Ok(Reply::Logits(_)) => {}
                        Ok(Reply::Error {
                            code,
                            retry_after_ms,
                            ..
                        }) => {
                            if code == ErrorCode::Overloaded {
                                shed_seen.fetch_add(1, Ordering::Relaxed);
                                // The shed reply must carry a usable hint.
                                assert!(
                                    retry_after_ms >= 1,
                                    "worker {w} round {round}: shed without a retry hint"
                                );
                            }
                        }
                        Ok(other) => panic!("worker {w} round {round}: {other:?}"),
                        Err(e) => panic!("worker {w} round {round}: transport {e:?}"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Deadline-free service afterwards is unaffected.
    match warm.query(&[0]).unwrap() {
        Reply::Logits(_) => {}
        other => panic!("post-storm probe: {other:?}"),
    }
    server.shutdown();
    faults::clear();

    let snap = sgnn_obs::snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let shed = c("serve.shed");
    assert!(shed > 0, "unmeetable deadlines must be shed at enqueue");
    assert_eq!(
        shed,
        shed_seen.load(Ordering::Relaxed),
        "every shed on the server must be a typed Overloaded on a client"
    );
    assert_eq!(
        c("serve.requests"),
        c("serve.batches") + c("serve.batch.coalesced") + shed + c("serve.rejected"),
        "conservation law must hold exactly with shedding in play"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
