//! Hot bundle reload: an atomic, validated, generation-tagged engine swap
//! with no restart — plus crash-safe rollback when the new bundle is bad.
//!
//! The invariants under test:
//! * after a reload, queries return the **new** bundle's logits
//!   bit-identically to offline inference on it (satellite: LRU
//!   invalidation across reload — no stale cached row survives the swap);
//! * a corrupt bundle is rejected (`Internal` reply, `serve.reload.failed`)
//!   and the previous engine keeps serving, still bit-identical;
//! * the `reload.request` marker file triggers the same swap without an
//!   admin connection.

mod common;

use std::time::{Duration, Instant};

use sgnn_serve::bundle::{load_engine, offline_logits, CKPT_FILE};
use sgnn_serve::server::RELOAD_MARKER;
use sgnn_serve::{serve, Client, ErrorCode, Reply, ServeConfig};

/// Counters are process-global; reload tests serialize and assert deltas.
static RELOAD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn query_bits(client: &mut Client, node: u32) -> Vec<u32> {
    match client.query(&[node]).unwrap() {
        Reply::Logits(m) => m.row(0).iter().map(|x| x.to_bits()).collect(),
        other => panic!("expected logits for node {node}, got {other:?}"),
    }
}

#[test]
fn reload_swaps_weights_and_invalidates_the_cache() {
    let _g = RELOAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = sgnn_obs::snapshot();

    let (dir, _data, _cfg) = common::tiny_bundle("reload-swap", 51);
    let node = 3u32;
    let old_ref = bits(&offline_logits(&dir, node).unwrap());

    let engine = load_engine(&dir).unwrap();
    let server = serve(
        engine,
        ServeConfig {
            bundle_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Serve node twice: the second answer comes from the LRU cache.
    assert_eq!(query_bits(&mut client, node), old_ref);
    assert_eq!(query_bits(&mut client, node), old_ref);

    // Replace the bundle on disk with a different training run (other
    // seed → other weights), then hot-swap.
    let (dir2, _d2, _c2) = common::tiny_bundle("reload-swap-new", 52);
    for f in [CKPT_FILE, sgnn_serve::bundle::TERMS_FILE] {
        std::fs::copy(dir2.join(f), dir.join(f)).unwrap();
    }
    let new_ref = bits(&offline_logits(&dir, node).unwrap());
    assert_ne!(old_ref, new_ref, "the two runs must have different weights");

    match client.reload().unwrap() {
        Reply::Reloaded { generation } => assert_eq!(generation, 1),
        other => panic!("reload must succeed, got {other:?}"),
    }

    // The very next query must be the *new* logits, bit-identical to
    // offline inference on the new bundle — a stale cache hit would
    // return `old_ref` here.
    assert_eq!(query_bits(&mut client, node), new_ref);

    server.shutdown();
    let after = sgnn_obs::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(delta("serve.reloads"), 1);
    assert!(
        delta("serve.cache.invalidated") >= 1,
        "the cached row for node {node} must have been invalidated"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn corrupt_bundle_is_rolled_back_and_old_engine_keeps_serving() {
    let _g = RELOAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = sgnn_obs::snapshot();

    let (dir, _data, _cfg) = common::tiny_bundle("reload-rollback", 53);
    let node = 1u32;
    let old_ref = bits(&offline_logits(&dir, node).unwrap());

    let engine = load_engine(&dir).unwrap();
    let server = serve(
        engine,
        ServeConfig {
            bundle_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(query_bits(&mut client, node), old_ref);

    // Corrupt the on-disk checkpoint, then ask for a reload: the swap
    // must be refused with a typed error, not crash the server or swap
    // in garbage.
    let ckpt = dir.join(CKPT_FILE);
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&ckpt, &bytes).unwrap();

    match client.reload().unwrap() {
        Reply::Error { code, msg, .. } => {
            assert_eq!(code, ErrorCode::Internal, "{msg}");
            assert!(
                msg.contains("previous engine kept"),
                "rollback must be explicit: {msg}"
            );
        }
        other => panic!("corrupt bundle must be rejected, got {other:?}"),
    }

    // The previous engine is still serving, still bit-identical.
    assert_eq!(query_bits(&mut client, node), old_ref);

    server.shutdown();
    let after = sgnn_obs::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(delta("serve.reloads"), 0, "no successful reload happened");
    assert_eq!(delta("serve.reload.failed"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn marker_file_triggers_reload_without_a_client() {
    let _g = RELOAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = sgnn_obs::snapshot();

    let (dir, _data, _cfg) = common::tiny_bundle("reload-marker", 54);
    let engine = load_engine(&dir).unwrap();
    let server = serve(
        engine,
        ServeConfig {
            bundle_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let marker = dir.join(RELOAD_MARKER);
    std::fs::write(&marker, b"").unwrap();
    // The batcher polls the marker while idle; give it a few beats.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reloads = sgnn_obs::snapshot().counter("serve.reloads").unwrap_or(0)
            - before.counter("serve.reloads").unwrap_or(0);
        if reloads >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "marker-file reload did not happen within 10s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!marker.exists(), "the marker must be consumed");

    // Server still answers (same bundle contents, new generation).
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(matches!(client.query(&[0]).unwrap(), Reply::Logits(_)));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_without_bundle_dir_is_a_typed_refusal() {
    let _g = RELOAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _data, _cfg) = common::tiny_bundle("reload-nodir", 55);
    let engine = load_engine(&dir).unwrap();
    let server = serve(engine, ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.reload().unwrap() {
        Reply::Error { code, msg, .. } => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(msg.contains("bundle directory"), "{msg}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // And the server is unbothered.
    assert!(matches!(client.query(&[0]).unwrap(), Reply::Logits(_)));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
