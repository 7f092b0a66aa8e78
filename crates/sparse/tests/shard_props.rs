//! Property tests for the sharded-CSR codec stack (mirrors the serving
//! codecs' `wire_props`): the gap-delta varint row codec must round-trip
//! arbitrary adjacency rows — uniform and hub-skewed — truncation at any
//! byte offset must surface as a typed error, and any single bit flip in a
//! shard file's payload must be rejected by CRC, never silently decoded
//! into wrong structure (the file-level properties are the shared codec
//! harness, fed with shard files). A golden-bytes test pins the `SGNNSHRD`
//! layout.

#[path = "../../dense/tests/support/codec_props.rs"]
mod codec_props;

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use sgnn_dense::DMat;
use sgnn_sparse::shard::varint::{decode_row, decode_row_with_diag, encode_row, VarintError};
use sgnn_sparse::shard::write_shards_from_csr;
use sgnn_sparse::{Backend, Dir, Graph, PropMatrix, ShardedCsr};

/// Shard files land in the OS temp dir, one per proptest case.
static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

fn tmp_path(tag: &str) -> PathBuf {
    let id = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sgnn-shard-props-{}-{tag}-{id}.shrd",
        std::process::id()
    ))
}

/// A uniform adjacency row: sorted deduplicated columns below `n`.
fn arb_row_uniform() -> impl Strategy<Value = (Vec<u32>, u32)> {
    (
        200u32..500_000,
        proptest::collection::vec(any::<u32>(), 0..64),
    )
        .prop_map(|(n, raw)| {
            let mut cols: Vec<u32> = raw.into_iter().map(|v| v % n).collect();
            cols.sort_unstable();
            cols.dedup();
            (cols, n)
        })
}

/// A hub-skewed row: long runs of tiny gaps (clustered neighborhoods)
/// punctuated by occasional huge jumps — the varint fast and slow paths
/// in one row.
fn arb_row_hub() -> impl Strategy<Value = (Vec<u32>, u32)> {
    (
        any::<u32>(),
        proptest::collection::vec((any::<u8>(), any::<u16>()), 1..128),
    )
        .prop_map(|(start, gaps)| {
            let mut c = (start % 1024) as u64;
            let mut cols = vec![c as u32];
            for (sel, raw) in gaps {
                let gap = if sel < 230 {
                    1 + (raw as u64 % 4)
                } else {
                    1 + (raw as u64) * 97
                };
                c += gap;
                cols.push(c as u32);
            }
            let n = (c + 1 + (start % 7) as u64) as u32;
            (cols, n)
        })
}

/// A small symmetric graph as (n, undirected edge list).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (
        8usize..40,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 1..120),
    )
        .prop_map(|(n, raw)| {
            let edges = raw
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            (n, edges)
        })
}

fn roundtrip(cols: &[u32], n: u32) {
    let mut buf = Vec::new();
    encode_row(&mut buf, cols);
    let mut out = Vec::new();
    let mut pos = 0;
    decode_row(&buf, &mut pos, cols.len(), n, &mut out).unwrap();
    assert_eq!(out, cols);
    assert_eq!(pos, buf.len(), "decode must consume the row exactly");
}

fn truncations_all_rejected(cols: &[u32], n: u32) {
    let mut buf = Vec::new();
    encode_row(&mut buf, cols);
    for cut in 0..buf.len() {
        let mut out = Vec::new();
        let mut pos = 0;
        assert_eq!(
            decode_row(&buf[..cut], &mut pos, cols.len(), n, &mut out),
            Err(VarintError::Truncated),
            "cut at byte {cut} of {} decoded",
            buf.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode(encode(row))` is the identity on uniform rows and consumes
    /// exactly the encoded bytes.
    #[test]
    fn uniform_row_round_trips(row in arb_row_uniform()) {
        let (cols, n) = row;
        roundtrip(&cols, n);
    }

    /// Same for hub-skewed rows (tiny-gap runs + huge jumps).
    #[test]
    fn hub_row_round_trips(row in arb_row_hub()) {
        let (cols, n) = row;
        roundtrip(&cols, n);
    }

    /// Truncating the encoded row at every byte offset is a typed
    /// `Truncated` error — never a panic, never a silent short row.
    #[test]
    fn uniform_row_truncation_rejected(row in arb_row_uniform()) {
        let (cols, n) = row;
        truncations_all_rejected(&cols, n);
    }

    #[test]
    fn hub_row_truncation_rejected(row in arb_row_hub()) {
        let (cols, n) = row;
        truncations_all_rejected(&cols, n);
    }

    /// Streaming diagonal injection equals decode-then-sorted-insert, and
    /// a stored diagonal column is a `DiagonalCollision`.
    #[test]
    fn diag_injection_matches_sorted_insert(row in arb_row_uniform()) {
        let (cols, n) = row;
        let diag = (0..n).find(|d| cols.binary_search(d).is_err()).unwrap();
        let mut buf = Vec::new();
        encode_row(&mut buf, &cols);
        let mut out = Vec::new();
        let mut pos = 0;
        decode_row_with_diag(&buf, &mut pos, cols.len(), n, diag, &mut out).unwrap();
        let mut expected = cols.clone();
        let ins = expected.partition_point(|&c| c < diag);
        expected.insert(ins, diag);
        prop_assert_eq!(out, expected);
        prop_assert_eq!(pos, buf.len());
        if let Some(&present) = cols.first() {
            let mut out = Vec::new();
            let mut pos = 0;
            prop_assert_eq!(
                decode_row_with_diag(&buf, &mut pos, cols.len(), n, present, &mut out),
                Err(VarintError::DiagonalCollision)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Write → open → stream returns the exact structure: the sharded
    /// operator without self-loops, times `I`, is nonzero exactly at the
    /// adjacency's entries and has the in-memory operator's bits in every
    /// cell.
    #[test]
    fn shard_file_round_trips_structure(graph in arb_graph()) {
        let (n, edges) = graph;
        let g = Graph::from_edges(n, &edges);
        let path = tmp_path("roundtrip");
        // Tiny shard target so multi-shard streaming is exercised.
        let summary = write_shards_from_csr(g.adjacency(), &path, 16, true).unwrap();
        prop_assert_eq!(summary.nnz as usize, g.adjacency().nnz());
        let csr = ShardedCsr::open(&path, false).unwrap();
        prop_assert_eq!(csr.degs(), g.degrees().as_slice());
        let eye = DMat::from_fn(n, n, |i, j| (i == j) as u8 as f32);
        let out = PropMatrix::from_sharded(Arc::new(csr), 0.5).hop(Dir::Forward, 1.0, 0.0, &eye);
        let mut dense = vec![false; n * n];
        for r in 0..n {
            for &c in g.adjacency().row(r).0 {
                dense[r * n + c as usize] = true;
            }
        }
        let stored: Vec<bool> = out.data().iter().map(|&v| v != 0.0).collect();
        prop_assert_eq!(stored, dense);
        let mem = PropMatrix::with_options(&g, 0.5, false, Backend::Csr);
        prop_assert_eq!(out.data(), mem.hop(Dir::Forward, 1.0, 0.0, &eye).data());
        let _ = std::fs::remove_file(&path);
    }

    /// Any single bit flip in the payload (blobs or meta, i.e. everything
    /// after the fixed header) is caught — either the file refuses to open
    /// or the streaming decode rejects the damaged shard. Never a clean
    /// propagation over wrong structure.
    #[test]
    fn payload_bit_flip_detected(graph in arb_graph(), flip in any::<usize>()) {
        let (n, edges) = graph;
        let g = Graph::from_edges(n, &edges);
        let path = tmp_path("bitflip");
        write_shards_from_csr(g.adjacency(), &path, 16, true).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        codec_props::rejects_bit_flip(&bytes, HEADER_LEN, flip, |bad| open_and_stream(bad, n));
        let _ = std::fs::remove_file(&path);
    }
}

const HEADER_LEN: usize = 84;

/// `bytes` as a shard file: opened, then streamed once over `n` rows — the
/// blobs are only CRC-checked when the decode ring loads them.
fn open_and_stream(bytes: &[u8], n: usize) -> Result<(), String> {
    let open = |path: &std::path::Path| ShardedCsr::open(path, true);
    let csr = codec_props::via_file(bytes, open).map_err(|e| e.to_string())?;
    let pm = PropMatrix::from_sharded(Arc::new(csr), 0.5);
    let x = DMat::from_fn(n, 2, |i, j| (i + j) as f32);
    let mut out = DMat::zeros(n, 2);
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        pm.hop_into(Dir::Forward, 1.0, 0.0, None, &x, &mut out)
    }))
    .map_err(|_| "streaming decode rejected a shard".to_string())
}

/// A 6-node path-with-a-triangle in two shards, byte for byte as the commit
/// before the formats shared their cursor and atomic writer wrote it. Around
/// the pin: the file opens, and no prefix of it and no extension of it does
/// (the header carries no CRC, so header bits are not all guarded — the
/// length equation `meta_off + meta_len == file length` is).
#[test]
fn shard_file_matches_golden_bytes() {
    let g = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let path = tmp_path("golden");
    let summary = write_shards_from_csr(g.adjacency(), &path, 9, true).unwrap();
    assert_eq!((summary.shards, summary.file_bytes), (2, 116));
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        bytes,
        b"SGNNSHRD\x01\x00\x00\x00\x01\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00\
          \x0c\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\
          \x03\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\
          \x07\x00\x00\x00\x00\x00\x00\x00\x60\x00\x00\x00\x00\x00\x00\x00\
          \x14\x00\x00\x00\x00\x00\x00\x00\x19E\xb4\x86\
          \x01\x00\x00\x01\x00\x00\x01\x02\x01\x03\x01\x04\
          \x02\x02\x03\x02\x02\x01\x03\x07\x079\x83\xa0\xf4\x03\x05\x05\x19\x88n\x18"
    );
    open_and_stream(&bytes, 6).unwrap();
    codec_props::rejects_every_truncation(&bytes, |cut| open_and_stream(cut, 6));
    codec_props::rejects_trailing_bytes(&bytes, 1, |long| open_and_stream(long, 6));
}
