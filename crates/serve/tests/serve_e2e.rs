//! End-to-end serving: train a tiny model, export its bundle, boot the
//! server on an ephemeral port, and prove that every served response —
//! across concurrent clients, arbitrary batch compositions, and cache
//! state — is **bit-identical** to offline single-node inference on the
//! same checkpoint, and to the trainer's own evaluation pass.

mod common;

use std::path::PathBuf;
use std::time::Duration;

use sgnn_serve::bundle::{export, load_engine, offline_logits};
use sgnn_serve::{serve, Client, Reply, ServeConfig};
use sgnn_train::Scheme;

/// [`common::tiny_bundle`]'s run, exported the same way, together with the
/// logits of every node as the trainer itself infers them
/// ([`sgnn_train::Trained::logits`] over the trained model and the terms it
/// precomputed), as row bit patterns.
/// The engine rebuilds the model from the exported files, so this is the
/// one reference that does not go through `ServeEngine::logits`.
fn tiny_bundle_with_trainer_rows(tag: &str, seed: u64) -> (PathBuf, Vec<Vec<u32>>) {
    let (data, cfg, filter) = common::tiny_run(seed);
    let dir = common::scratch_dir(tag);
    let trained = Scheme::MiniBatch
        .try_train(filter, &data, None, &cfg)
        .unwrap();
    export(&dir, &trained, &cfg, &data).unwrap();
    let logits = trained.logits(&data);
    let rows = (0..logits.rows())
        .map(|r| logits.row(r).iter().map(|x| x.to_bits()).collect())
        .collect();
    (dir, rows)
}

/// Offline reference: one fresh engine, one node per forward pass — the
/// strictest possible baseline (nothing shares a batch with anything).
fn single_node_reference(dir: &std::path::Path, nodes: usize) -> Vec<Vec<u32>> {
    let mut engine = load_engine(dir).unwrap();
    (0..nodes as u32)
        .map(|v| {
            engine
                .logits(&[v])
                .row(0)
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn served_logits_bit_identical_to_offline_single_node() {
    let (dir, reference) = tiny_bundle_with_trainer_rows("e2e", 11);
    let n = reference.len();
    // The engine, one node per pass, reproduces the trainer's batched
    // evaluation bit for bit; every served row below is checked against
    // the trainer's rows.
    let single = single_node_reference(&dir, n);
    for (v, (got, want)) in single.iter().zip(&reference).enumerate() {
        assert_eq!(
            got, want,
            "engine node {v}: bits differ from the trainer's own inference"
        );
    }

    // `bundle::offline_logits` (fresh engine per call) agrees with the
    // shared-engine reference — engine construction is deterministic.
    for &v in &[0u32, 1, (n as u32) / 2, n as u32 - 1] {
        let off: Vec<u32> = offline_logits(&dir, v)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(off, reference[v as usize], "offline_logits node {v}");
    }

    let engine = load_engine(&dir).unwrap();
    let classes = engine.classes();
    let server = serve(engine, ServeConfig::default()).unwrap();
    let addr = server.addr();

    // Concurrent clients, each issuing single- and multi-node queries with
    // deterministic but different id patterns.
    let workers: Vec<_> = (0..8u64)
        .map(|w| {
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..30u64 {
                    let k = 1 + ((w + round) % 5) as usize;
                    let nodes: Vec<u32> = (0..k)
                        .map(|j| ((w * 911 + round * 31 + j as u64 * 7) % reference.len() as u64) as u32)
                        .collect();
                    match client.query(&nodes).unwrap() {
                        Reply::Logits(m) => {
                            assert_eq!(m.shape(), (nodes.len(), classes));
                            for (r, &v) in nodes.iter().enumerate() {
                                let got: Vec<u32> =
                                    m.row(r).iter().map(|x| x.to_bits()).collect();
                                assert_eq!(
                                    got, reference[v as usize],
                                    "worker {w} round {round} node {v}: served bits differ from the trainer"
                                );
                            }
                        }
                        Reply::Error { code, msg, .. } => {
                            panic!("worker {w} round {round}: unexpected error {code:?}: {msg}")
                        }
                        Reply::Reloaded { .. } => {
                            panic!("worker {w} round {round}: unexpected Reloaded")
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batcher copies cached rows into the reply before it fills the
/// cache from the same batch's misses, and fills a reply's missed rows from
/// the transform, not the cache. One query whose distinct rows exceed the
/// cache — hits and misses interleaved, ids repeated — would expose either
/// rule breaking (an evicted hit, a miss evicted before it was read); a
/// disabled cache must serve the same bits.
#[test]
fn tiny_and_disabled_caches_serve_offline_bits() {
    let (dir, data, _cfg) = common::tiny_bundle("e2e-cap", 17);
    let n = data.nodes() as u32;
    let warm: Vec<u32> = (0..6).collect();
    // 6 cached ids, 30 uncached, every id twice, hits spread among misses.
    let mixed: Vec<u32> = (0..72u32)
        .map(|i| match i % 6 {
            0 => (i / 6) % 6,
            k => (100 + 7 * (i / 12) + k) % n,
        })
        .collect();
    let reference = |v: u32| -> Vec<u32> {
        let row = offline_logits(&dir, v).unwrap();
        row.iter().map(|x| x.to_bits()).collect()
    };
    for cache_cap in [8, 0] {
        let cfg = ServeConfig {
            cache_cap,
            ..ServeConfig::default()
        };
        let server = serve(load_engine(&dir).unwrap(), cfg).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for nodes in [&warm, &mixed, &warm] {
            let Reply::Logits(m) = client.query(nodes).unwrap() else {
                panic!("cache_cap {cache_cap}: expected logits");
            };
            assert_eq!(m.rows(), nodes.len());
            for (r, &v) in nodes.iter().enumerate() {
                let got: Vec<u32> = m.row(r).iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, reference(v), "cache_cap {cache_cap} row {r} node {v}");
            }
        }
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ping_reconnect_and_clean_shutdown() {
    let (dir, _data, _cfg) = common::tiny_bundle("e2e-ping", 13);
    let engine = load_engine(&dir).unwrap();
    let server = serve(engine, ServeConfig::default()).unwrap();
    let addr = server.addr();

    // Several short-lived connections in sequence: the server must keep
    // accepting after peers hang up.
    for _ in 0..3 {
        let mut c = Client::connect(addr).unwrap();
        c.ping().unwrap();
        assert!(matches!(c.query(&[0]).unwrap(), Reply::Logits(_)));
        drop(c);
    }
    server.shutdown();
    // After shutdown the port no longer accepts (give the OS a beat).
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        Client::connect_timeout(addr, Duration::from_millis(200)).is_err(),
        "server socket must be closed after shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
