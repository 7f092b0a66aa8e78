//! Serving metrics are live without a trace: an untraced thousand-request
//! run moves the counters, and request conservation holds over their deltas.
//! Its own binary: counters are process-wide, so no other server may run.

mod common;

use sgnn_serve::bundle::load_engine;
use sgnn_serve::{serve, Client, ErrorCode, Reply, ServeConfig};

const CLIENTS: u64 = 4;
const ROUNDS: u64 = 256;

#[test]
fn untraced_server_counts_and_conserves_every_request() {
    sgnn_obs::disable();
    let (dir, data, _cfg) = common::tiny_bundle("untraced", 61);
    let n = data.nodes() as u32;
    let server = serve(load_engine(&dir).unwrap(), ServeConfig::default()).unwrap();
    let addr = server.addr();
    let before = sgnn_obs::snapshot();

    std::thread::scope(|s| {
        for w in 0..CLIENTS {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    let v = ((w * 97 + round * 13) % n as u64) as u32;
                    let nodes = [v, (v + 1) % n];
                    assert!(matches!(client.query(&nodes), Ok(Reply::Logits(_))));
                }
                // One refused query per client: the rejected bucket counts too.
                match client.query(&[]).unwrap() {
                    Reply::Error { code, .. } => assert_eq!(code, ErrorCode::TooLarge),
                    other => panic!("an empty query must be refused, got {other:?}"),
                }
            });
        }
    });
    server.shutdown();

    let after = sgnn_obs::snapshot();
    let rise = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let requests = rise("serve.requests");
    assert_eq!(requests, CLIENTS * (ROUNDS + 1));
    assert_eq!(rise("serve.rejected"), CLIENTS);
    assert_eq!(
        requests,
        rise("serve.batches")
            + rise("serve.batch.coalesced")
            + rise("serve.shed")
            + rise("serve.rejected"),
        "request conservation without a trace"
    );
    let served = |s: &sgnn_obs::Snapshot| s.hist("serve.request_ns").map_or(0, |h| h.count);
    assert_eq!(served(&after) - served(&before), CLIENTS * ROUNDS);
    assert!(after.spans.is_empty(), "no span may be recorded untraced");

    let _ = std::fs::remove_dir_all(&dir);
}
