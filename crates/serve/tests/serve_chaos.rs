//! Network-chaos end-to-end: the acceptance test for ISSUE 9. One server
//! rides out the full socket-fault DSL (`stall`, `disconnect`,
//! `torn-write`, `corrupt-frame`), a forced batcher panic, and two hot
//! reloads — all at once, under concurrent retrying clients. Afterwards:
//!
//! * nothing hung (the test finishes; every worker joined);
//! * the conservation law holds **exactly** once the storm quiesces:
//!   `serve.requests == serve.batches + serve.batch.coalesced +
//!   serve.shed + serve.rejected`;
//! * every logits reply that did get through is bit-identical to offline
//!   inference (the reloads swap in identical bundle bytes, so there is
//!   one reference for the whole storm);
//! * the server still answers a clean probe after the faults are lifted.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sgnn_serve::bundle::load_engine;
use sgnn_serve::{faults, serve, Backoff, Client, ErrorCode, Reply, ServeConfig};

const WORKERS: u64 = 8;
const ROUNDS: u64 = 50;
const CONNECT_ATTEMPTS: u32 = 10;

#[derive(Default)]
struct StormTally {
    ok: AtomicU64,
    typed_errors: AtomicU64,
    transport_errors: AtomicU64,
}

#[test]
fn survives_the_full_storm_with_exact_accounting() {
    sgnn_obs::reset();

    let (dir, data, _cfg) = common::tiny_bundle("chaos", 29);
    let n = data.nodes() as u32;
    let pool: Vec<u32> = (0..16u32.min(n)).map(|i| (i * n) / 16).collect();

    // One reference for the whole storm: the mid-storm reloads re-read the
    // *same* bundle bytes, so served bits must never change.
    let mut reference = load_engine(&dir).unwrap();
    let ref_bits: Vec<Vec<u32>> = pool
        .iter()
        .map(|&v| {
            reference
                .logits(&[v])
                .row(0)
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect();

    // The storm: every socket fault in the DSL pinned to early accept
    // indices (initial worker connections land there), a slow-down on all
    // batches so the queue actually builds, and one injected batcher
    // panic. `batch=6` fires exactly once — the sequence is monotonic
    // across the restart it causes.
    faults::install(
        faults::parse(
            "stall conn=2 dur=0.02; disconnect conn=5; torn-write conn=7; \
             corrupt-frame conn=3; slow dur=0.002; panic batch=6",
        )
        .unwrap(),
    );

    let engine = load_engine(&dir).unwrap();
    let server = serve(
        engine,
        ServeConfig {
            bundle_dir: Some(dir.clone()),
            linger: Duration::from_millis(3),
            max_batch_rows: 32,
            cache_cap: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let tally = Arc::new(StormTally::default());
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let ref_bits = ref_bits.clone();
            let pool = pool.clone();
            let tally = Arc::clone(&tally);
            std::thread::spawn(move || {
                let mut backoff = Backoff::for_seed(w);
                let mut client = Client::connect_retry(addr, CONNECT_ATTEMPTS, &mut backoff)
                    .expect("worker must get a connection");
                for round in 0..ROUNDS {
                    let slot = ((w * 19 + round * 7) % pool.len() as u64) as usize;
                    match client.query(&[pool[slot]]) {
                        Ok(Reply::Logits(m)) => {
                            let got: Vec<u32> = m.row(0).iter().map(|x| x.to_bits()).collect();
                            assert_eq!(
                                got, ref_bits[slot],
                                "worker {w} round {round}: served bits differ from offline"
                            );
                            tally.ok.fetch_add(1, Ordering::Relaxed);
                        }
                        // Typed errors are the server refusing or failing
                        // *loudly*: Internal from the panic sweep,
                        // Backpressure/Overloaded from shedding. All fine
                        // during a storm — silence is the only failure.
                        Ok(Reply::Error { .. }) => {
                            tally.typed_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Reply::Reloaded { .. }) => {
                            panic!("worker {w}: Reloaded for a query nonce")
                        }
                        // Torn write, corrupted frame, or injected
                        // disconnect: drop the connection and come back.
                        Err(_) => {
                            tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                            client = Client::connect_retry(addr, CONNECT_ATTEMPTS, &mut backoff)
                                .expect("worker must reconnect after a fault");
                        }
                    }
                }
            })
        })
        .collect();

    // Two hot reloads mid-storm, from an admin connection that itself may
    // be hit by socket faults — retry until each swap is acknowledged.
    // When batch 6 fires late (a loaded host) the panic's sweep can catch a
    // reload in the batcher's hands; it gets the typed `Internal` every
    // swept request gets. The panic fires once and the admin has one
    // request in flight, so that may happen once — any other refusal, or a
    // second one, still fails the test.
    let mut reload_backoff = Backoff::for_seed(0xAD);
    let mut acked_reloads = 0u32;
    let mut reload_swept = false;
    while acked_reloads < 2 {
        std::thread::sleep(Duration::from_millis(60));
        let Ok(mut admin) = Client::connect_retry(addr, CONNECT_ATTEMPTS, &mut reload_backoff)
        else {
            continue;
        };
        match admin.reload() {
            Ok(Reply::Reloaded { .. }) => acked_reloads += 1,
            Ok(Reply::Error {
                code: ErrorCode::Internal,
                ..
            }) if !reload_swept => reload_swept = true,
            Ok(other) => panic!("identical bundle bytes must reload cleanly, got {other:?}"),
            // The ack was torn or the conn injected away; the swap may or
            // may not have landed — the counter assertion below is `>= 2`
            // for exactly this reason.
            Err(_) => {}
        }
    }

    for w in workers {
        w.join().unwrap();
    }

    // Post-storm probe: lift the faults and hit the *same* server — it
    // must still accept, serve, and answer bit-identically after the
    // panic, the restarts, both reloads, and every severed connection.
    faults::clear();
    let mut probe = Client::connect(addr).unwrap();
    match probe.query(&[pool[0]]).unwrap() {
        Reply::Logits(m) => {
            let got: Vec<u32> = m.row(0).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, ref_bits[0], "post-storm probe must be bit-identical");
        }
        other => panic!("post-storm probe failed: {other:?}"),
    }
    drop(probe);

    // Workers are closed-loop, so everything they enqueued has been
    // batched by now; quiesce and freeze the counters.
    server.shutdown();

    let snap = sgnn_obs::snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let requests = c("serve.requests");
    let batches = c("serve.batches");
    let coalesced = c("serve.batch.coalesced");
    let shed = c("serve.shed");
    let rejected = c("serve.rejected");
    assert!(requests > 0, "the storm must have produced traffic");
    assert_eq!(
        requests,
        batches + coalesced + shed + rejected,
        "conservation law must hold exactly after quiesce: {requests} requests \
         vs {batches} batches + {coalesced} coalesced + {shed} shed + {rejected} rejected"
    );
    assert!(
        c("serve.batcher_restarts") >= 1,
        "the injected panic must have tripped the watchdog"
    );
    assert!(
        c("serve.reloads") >= 2,
        "both mid-storm reloads must have landed (got {})",
        c("serve.reloads")
    );
    assert_eq!(
        c("serve.reload.failed"),
        0,
        "identical bundle bytes never fail to load"
    );
    assert!(
        c("serve.faults.injected") > 0,
        "the harness must have actually injected faults"
    );
    let ok = tally.ok.load(Ordering::Relaxed);
    let typed = tally.typed_errors.load(Ordering::Relaxed);
    let transport = tally.transport_errors.load(Ordering::Relaxed);
    assert_eq!(
        ok + typed + transport,
        WORKERS * ROUNDS,
        "every round accounted for"
    );
    assert!(ok > 0, "some queries must succeed through the storm");
    assert!(
        transport > 0,
        "the socket faults must have actually severed connections"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
