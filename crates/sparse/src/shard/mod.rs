//! Out-of-core sharded CSR: paper-scale graphs in bounded RAM.
//!
//! Splits a symmetric adjacency structure into nnz-balanced row shards
//! (cut with the same [`crate::plan::SpmmPlan`] prefix-sum machinery that
//! schedules in-memory SpMM), compresses each shard's column indices with
//! gap-delta varints ([`varint`]), and stores them behind a CRC-disciplined
//! header ([`format`]). [`ShardedCsr`] streams the shards back through a
//! pinned decode ring with double-buffered prefetch (`sharded`), giving a
//! propagation kernel whose resident set is `O(n)` plus a constant number
//! of cache-sized buffers — never `O(m)`.
//!
//! The normalized-propagation integration lives in
//! [`crate::normalize::PropMatrix::from_sharded`]; graph generators write
//! shard files directly through [`ShardWriter`] without materializing an
//! edge list, and [`write_shards_from_csr`] converts an in-memory matrix
//! (the fits-in-RAM comparison path and the bit-identity tests).

pub(crate) mod format;
mod sharded;
pub mod varint;

use std::path::Path;

pub use format::{ShardError, ShardSummary, ShardWriter};
pub use sharded::{ShardedCsr, DEFAULT_SHARD_NNZ};

use crate::csr::CsrMat;
use crate::plan::SpmmPlan;

/// Writes an in-memory structure as a shard file, cutting shards to
/// `target_shard_nnz` stored entries (0 = [`DEFAULT_SHARD_NNZ`]) on
/// [`SpmmPlan`] boundaries. Values are dropped — the format stores {0,1}
/// structure — and the matrix must carry no diagonal entries (self-loops
/// are re-injected at decode). `symmetric` is recorded in the header and
/// gates adjoint propagation.
pub fn write_shards_from_csr(
    adj: &CsrMat,
    path: &Path,
    target_shard_nnz: usize,
    symmetric: bool,
) -> Result<ShardSummary, ShardError> {
    assert_eq!(adj.rows(), adj.cols(), "shard files hold square structures");
    let target = if target_shard_nnz == 0 {
        DEFAULT_SHARD_NNZ
    } else {
        target_shard_nnz
    };
    let rows = adj.rows();
    let weight = adj.nnz() + rows;
    let chunks = weight.div_ceil(target.max(1)).max(1);
    let plan = SpmmPlan::with_chunks(adj.indptr(), chunks);
    let mut w = ShardWriter::create(path, rows)?;
    for win in plan.boundaries().windows(2) {
        for r in win[0]..win[1] {
            w.push_row(adj.row(r).0)?;
        }
        w.cut()?;
    }
    w.finish(symmetric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::normalize::{Dir, PropMatrix};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sgnn_dense::DMat;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sgnn-shard-test-{name}-{}", std::process::id()));
        p
    }

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
            .collect();
        Graph::from_edges(n, &edges)
    }

    /// Decodes every shard through the public streaming kernel with unit
    /// scales and x = I-ish probes would be O(n²); instead reconstruct the
    /// structure row by row via a 1-column SpMM against indicator vectors
    /// only for small n, or compare propagation outputs — the tests below
    /// pin bit-identity, this one pins the file round-trip metadata.
    #[test]
    fn csr_round_trips_through_shard_file() {
        let g = random_graph(200, 600, 7);
        let adj = g.adjacency();
        let path = tmp_path("roundtrip");
        let summary = write_shards_from_csr(adj, &path, 64, true).unwrap();
        assert_eq!(summary.n, 200);
        assert_eq!(summary.nnz, adj.nnz() as u64);
        assert!(summary.shards > 1, "target 64 nnz must cut many shards");
        let sc = ShardedCsr::open(&path, true).unwrap();
        assert_eq!(sc.n(), 200);
        assert_eq!(sc.nnz_decoded(), adj.nnz() as u64 + 200);
        assert!(sc.symmetric());
        // Structural degrees match the in-memory rows.
        for r in 0..200 {
            assert_eq!(sc.degs()[r] as usize, adj.row(r).0.len());
        }
        // Compression: varint structure must beat 4-byte indices.
        assert!(
            (summary.file_bytes as usize) < adj.nnz() * 4,
            "file {} bytes vs {} raw index bytes",
            summary.file_bytes,
            adj.nnz() * 4
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streamed_kernel_matches_in_memory_fused_bitwise() {
        let g = random_graph(300, 1500, 21);
        let n = g.nodes();
        // Normalized weights with distinct row/col scales (rho != 1/2).
        let pm = PropMatrix::new(&g, 0.8);
        let path = tmp_path("bitident");
        write_shards_from_csr(g.adjacency(), &path, 256, true).unwrap();
        let ooc = PropMatrix::from_sharded(Arc::new(ShardedCsr::open(&path, true).unwrap()), 0.8);
        let x = DMat::from_fn(n, 7, |r, c| ((r * 7 + c) as f32 * 0.37).sin());
        let z = DMat::from_fn(n, 7, |r, c| ((r + c) as f32 * 0.11).cos());
        for (a, b, c) in [
            (1.0f32, 0.0f32, 0.0f32),
            (-1.0, 1.0, 0.0),
            (-2.0, 0.5, -1.0),
        ] {
            let cz = (c != 0.0).then_some((c, &z));
            let mut want = DMat::zeros(n, 7);
            pm.hop_into(Dir::Forward, a, b, cz, &x, &mut want);
            let mut got = DMat::zeros(n, 7);
            ooc.hop_into(Dir::Forward, a, b, cz, &x, &mut got);
            assert_eq!(
                want.data(),
                got.data(),
                "streamed kernel must be bit-identical at ({a}, {b}, {c})"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hub_skewed_graph_streams_correctly() {
        // One hub connected to everyone: shard cuts land mid-hub-row range
        // and the delta codec sees gap-1 runs of zeros.
        let n = 500;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
        let g = Graph::from_edges(n, &edges);
        let pm = PropMatrix::new(&g, 0.5);
        let path = tmp_path("hub");
        write_shards_from_csr(g.adjacency(), &path, 128, true).unwrap();
        let ooc = PropMatrix::from_sharded(Arc::new(ShardedCsr::open(&path, true).unwrap()), 0.5);
        let x = DMat::from_fn(n, 3, |r, c| (r + c) as f32 * 0.01);
        let want = pm.hop(Dir::Forward, 1.0, 0.0, &x);
        let got = ooc.hop(Dir::Forward, 1.0, 0.0, &x);
        assert_eq!(want.data(), got.data());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_blob_is_detected_at_decode() {
        let g = random_graph(100, 400, 3);
        let path = tmp_path("corrupt");
        write_shards_from_csr(g.adjacency(), &path, 64, true).unwrap();
        // Flip one bit inside the blob region (past the header).
        let mut bytes = std::fs::read(&path).unwrap();
        let target = format::HEADER_LEN as usize + 3;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let ooc = PropMatrix::from_sharded(Arc::new(ShardedCsr::open(&path, true).unwrap()), 0.5);
        let x = DMat::zeros(100, 1);
        let mut out = DMat::zeros(100, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ooc.hop_into(Dir::Forward, 1.0, 0.0, None, &x, &mut out)
        }));
        assert!(r.is_err(), "flipped blob bit must not decode silently");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_diagonal_and_wrong_row_count() {
        let path = tmp_path("reject");
        let tmp = std::path::PathBuf::from(format!("{}.tmp", path.display()));
        let mut w = ShardWriter::create(&path, 3).unwrap();
        assert!(w.push_row(&[1]).is_ok());
        assert!(
            w.push_row(&[1]).is_err(),
            "row 1 with column 1 is a diagonal entry"
        );
        drop(w);
        assert!(!tmp.exists(), "an abandoned writer removes its temporary");
        let mut w = ShardWriter::create(&path, 3).unwrap();
        w.push_row(&[1]).unwrap();
        assert!(tmp.exists());
        assert!(w.finish(true).is_err(), "finish before n rows must fail");
        assert!(
            !path.exists() && !tmp.exists(),
            "a failed finish leaves nothing"
        );
    }
}
