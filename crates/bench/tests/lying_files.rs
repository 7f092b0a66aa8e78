//! A count read from a file is checked against the bytes that are there
//! before anything is allocated for it — in every format. Each test builds
//! the smallest file that lied successfully before the formats shared one
//! count-checked cursor (correctly sealed where the format has a CRC, so
//! no checksum stands in the way) and requires a typed error with heap
//! growth no more than the file's own length plus slack: the oracle
//! `wire_props::lying_logits_shape_is_an_error` uses for the wire frame.

use std::path::PathBuf;
use std::sync::Mutex;

use sgnn_dense::sealed::{crc32, Format};
use sgnn_serve::artifact::{self, TermsError};
use sgnn_sparse::shard::{write_shards_from_csr, ShardError};
use sgnn_sparse::{Graph, ShardedCsr};
use sgnn_train::checkpoint::{self, CkptError, Snapshot, SnapshotStatus};
use sgnn_train::memory::{self, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const ALLOC_SLACK: usize = 1 << 20;

/// The heap counters are process-wide: one measurement at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn heap_growth<T>(decode: impl FnOnce() -> T) -> (T, usize) {
    let before = memory::ram_current();
    memory::ram_reset_peak();
    let out = decode();
    (out, memory::ram_peak().saturating_sub(before))
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sgnn-lying-{}-{name}", std::process::id()))
}

fn u64s(fields: &[u64]) -> Vec<u8> {
    fields.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// `magic | version 1 | len | crc | payload`, honestly sealed.
fn enveloped(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let format = Format {
        magic: *magic,
        version: 1,
    };
    format.seal(|w| w.bytes(payload))
}

/// 84 bytes: a bare `SGNNSHRD` header claiming `n = 2³² − 1` nodes over an
/// empty meta block. The header has no CRC and every check on it passed, so
/// `Vec::with_capacity(n)` asked for 17 179 869 180 bytes and the process
/// aborted.
#[test]
fn shard_header_claiming_four_billion_nodes_is_an_error() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut bytes = b"SGNNSHRD".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes()); // version
    bytes.extend_from_slice(&1u32.to_le_bytes()); // flags: symmetric
                                                  // n, nnz, shard_count, max rows / nnz / blob, meta_off, meta_len
    bytes.extend(u64s(&[u32::MAX as u64, 0, 0, 0, 0, 0, 84, 0]));
    bytes.extend_from_slice(&crc32(&[]).to_le_bytes());
    assert_eq!(bytes.len(), 84);
    let path = scratch("graph.shrd");
    std::fs::write(&path, &bytes).unwrap();
    let (got, grew) = heap_growth(|| ShardedCsr::open(&path, true));
    assert!(matches!(got, Err(ShardError::Truncated)), "{got:?}");
    assert!(grew <= bytes.len() + ALLOC_SLACK, "heap grew {grew} bytes");

    // The other counts that header vouches for alone: the decode ring is
    // allocated from its three maxima. A valid file with one of them
    // raised to 2⁴⁰ must not open (it used to reserve a terabyte).
    let g = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]);
    write_shards_from_csr(g.adjacency(), &path, 9, true).unwrap();
    let honest = std::fs::read(&path).unwrap();
    for max_field_at in [40, 48, 56] {
        let mut bytes = honest.clone();
        bytes[max_field_at..max_field_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (got, grew) = heap_growth(|| ShardedCsr::open(&path, true));
        assert!(matches!(got, Err(ShardError::Malformed(_))), "{got:?}");
        assert!(grew <= bytes.len() + ALLOC_SLACK, "heap grew {grew} bytes");
    }
    std::fs::remove_file(&path).unwrap();
}

/// 131 bytes: a sealed `SGNNTERM` file whose one term claims `2³¹ × 1`
/// floats and holds one. `2³³` bytes passed the old fixed bound and
/// 8 590 000 195 bytes were allocated before the read came up short.
#[test]
fn terms_file_claiming_two_billion_rows_is_an_error() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut payload = u64s(&[3]);
    payload.extend_from_slice(b"PPR");
    payload.extend(u64s(&[3, 16])); // hops, hidden
    payload.extend_from_slice(&0.5f32.to_le_bytes()); // dropout
                                                      // in_dim, classes, nodes, seed, tag; 1 channel of 1 term of 2³¹ × 1
    payload.extend(u64s(&[1, 2, 1 << 31, 42, 7, 1, 1, 1 << 31, 1]));
    payload.extend_from_slice(&1.0f32.to_le_bytes());
    let bytes = enveloped(b"SGNNTERM", &payload);
    assert_eq!(bytes.len(), 131);
    let path = scratch("terms.bin");
    std::fs::write(&path, &bytes).unwrap();
    let (got, grew) = heap_growth(|| artifact::load(&path));
    assert_eq!(got.unwrap_err(), TermsError::Truncated);
    assert!(grew <= bytes.len() + ALLOC_SLACK, "heap grew {grew} bytes");
    std::fs::remove_file(&path).unwrap();
}

/// 1 MB: a sealed `SGNNCKPT` whose parameter count is as large as the old
/// "no more than the payload length" bound allowed; 65 008 281 bytes were
/// reserved for the parameter table before the first name failed to parse.
#[test]
fn checkpoint_claiming_a_million_parameters_is_an_error() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let honest = checkpoint::encode(&Snapshot {
        seed: 1,
        config_tag: 2,
        status: SnapshotStatus::Periodic,
        epoch_next: 3,
        rng_state: [4; 4],
        best_valid: 0.5,
        best_test: 0.25,
        bad_epochs: 0,
        prop_hops: 0,
        device_peak: 0,
        train_idx: (0..253_900).collect(),
        params: Vec::new(),
        adam: sgnn_autograd::AdamState {
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        },
    });
    // Payload tail: n_params, adam.t, n_moments — all zero in `honest`.
    let mut payload = honest[24..].to_vec();
    let n_params_at = payload.len() - 24;
    let lie = (payload.len() as u64).to_le_bytes();
    payload[n_params_at..n_params_at + 8].copy_from_slice(&lie);
    let bytes = enveloped(b"SGNNCKPT", &payload);
    assert!(bytes.len() > 1_000_000);
    let (got, grew) = heap_growth(|| checkpoint::decode(&bytes));
    assert_eq!(got.unwrap_err(), CkptError::Truncated);
    assert!(grew <= bytes.len() + ALLOC_SLACK, "heap grew {grew} bytes");
}
