//! nnz-balanced SpMM scheduling plans.
//!
//! [`crate::csr::CsrMat`] distributes output rows over the worker pool. A
//! naive row-count split gives every lane the same number of rows, which
//! load-balances terribly on power-law graphs: the lane that owns the hub
//! rows does most of the edge work while the others idle. An [`SpmmPlan`]
//! instead splits rows so every chunk carries roughly the same number of
//! stored entries (plus a small per-row term for the output write), using
//! the CSR `indptr` array — which *is* the nnz prefix sum — and a binary
//! search per boundary. A plan is built per dispatch (a handful of binary
//! searches — sub-microsecond) and produces ~4 chunks per pool lane so
//! dynamic task claiming can still smooth residual imbalance.
//!
//! Because each output row is accumulated serially by exactly one task,
//! planned kernels are **bit-identical** to the width-1 serial kernel —
//! scheduling only changes *which* lane computes a row, never the order of
//! the floating-point operations within it.

/// Chunks generated per pool lane; >1 lets dynamic claiming absorb the
/// residual imbalance a fixed equal-nnz split cannot (hub rows are atomic).
const CHUNKS_PER_LANE: usize = 4;

/// An nnz-balanced row partition of one CSR sparsity pattern.
#[derive(Debug)]
pub struct SpmmPlan {
    /// Row boundaries, `chunks + 1` entries, `boundaries[0] == 0` and
    /// `boundaries[chunks] == rows`. Chunk `i` covers rows
    /// `boundaries[i]..boundaries[i + 1]`.
    boundaries: Vec<usize>,
    /// Largest per-chunk weight (`nnz + rows` units) — imbalance telemetry.
    max_chunk_weight: usize,
    /// Total weight (`nnz + rows`).
    total_weight: usize,
}

impl SpmmPlan {
    /// Builds a plan from a CSR row-pointer array for the given pool width.
    ///
    /// Produces ~`CHUNKS_PER_LANE` chunks per lane; see [`Self::with_chunks`]
    /// for the split itself.
    pub fn build(indptr: &[usize], threads: usize) -> Self {
        let rows = indptr.len().saturating_sub(1);
        let chunks = (threads.max(1) * CHUNKS_PER_LANE).min(rows.max(1));
        Self::with_chunks(indptr, chunks)
    }

    /// Splits rows into exactly `chunks` (clamped to the row count)
    /// equal-weight pieces.
    ///
    /// Each row is weighted `nnz(row) + 1` (edge work plus the output-row
    /// write), so the weight prefix sum is simply `indptr[r] + r` — no
    /// auxiliary array is materialized. Boundary `i` is found by binary
    /// search for the first row whose prefix reaches `i/chunks` of the total.
    /// Besides SpMM dispatch, this is the boundary machinery behind the
    /// out-of-core shard writer (`sgnn_sparse::shard`), which cuts shards to
    /// an nnz budget with the same prefix-sum search.
    pub fn with_chunks(indptr: &[usize], chunks: usize) -> Self {
        assert!(!indptr.is_empty(), "indptr must have at least one entry");
        let rows = indptr.len() - 1;
        let nnz = *indptr.last().unwrap();
        let total_weight = nnz + rows;
        let chunks = chunks.clamp(1, rows.max(1));
        let prefix = |r: usize| indptr[r] + r;
        let mut boundaries = Vec::with_capacity(chunks + 1);
        boundaries.push(0usize);
        for i in 1..chunks {
            // First row whose weight prefix reaches the i-th equal share.
            let target = (total_weight * i).div_ceil(chunks);
            let (mut lo, mut hi) = (*boundaries.last().unwrap(), rows);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if prefix(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            boundaries.push(lo);
        }
        boundaries.push(rows);
        let max_chunk_weight = boundaries
            .windows(2)
            .map(|w| prefix(w[1]) - prefix(w[0]))
            .max()
            .unwrap_or(0);
        Self {
            boundaries,
            max_chunk_weight,
            total_weight,
        }
    }

    /// Row boundaries (length `chunks + 1`).
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// Number of chunks.
    pub fn chunks(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// `max / mean` chunk weight — 1.0 is a perfect split. The weight of a
    /// chunk is its stored-entry count plus its row count.
    pub(crate) fn imbalance(&self) -> f64 {
        if self.total_weight == 0 || self.chunks() == 0 {
            return 1.0;
        }
        let mean = self.total_weight as f64 / self.chunks() as f64;
        (self.max_chunk_weight as f64 / mean).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indptr_of(row_nnz: &[usize]) -> Vec<usize> {
        let mut v = Vec::with_capacity(row_nnz.len() + 1);
        v.push(0);
        for &c in row_nnz {
            v.push(v.last().unwrap() + c);
        }
        v
    }

    #[test]
    fn boundaries_cover_all_rows_monotonically() {
        let indptr = indptr_of(&[3, 0, 7, 1, 1, 20, 0, 2, 2, 4]);
        let plan = SpmmPlan::build(&indptr, 3);
        let b = plan.boundaries();
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 10);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.chunks(), b.len() - 1);
    }

    #[test]
    fn chunks_are_nnz_balanced_up_to_one_row() {
        // A skewed pattern: one hub row with 1000 entries among 999 light
        // rows. Every chunk's weight must stay within one max-row weight of
        // the ideal share — the hub is atomic, everything else balances.
        let mut row_nnz = vec![2usize; 1000];
        row_nnz[0] = 1000;
        let indptr = indptr_of(&row_nnz);
        let plan = SpmmPlan::build(&indptr, 4);
        let total = *indptr.last().unwrap() + 1000;
        let ideal = total as f64 / plan.chunks() as f64;
        for w in plan.boundaries().windows(2) {
            let weight = (indptr[w[1]] + w[1]) - (indptr[w[0]] + w[0]);
            assert!(
                (weight as f64) <= ideal + 1002.0,
                "chunk {w:?} weight {weight} vs ideal {ideal}"
            );
        }
        assert!(plan.imbalance() >= 1.0);
    }

    #[test]
    fn uniform_rows_split_evenly() {
        let indptr = indptr_of(&[5; 64]);
        let plan = SpmmPlan::build(&indptr, 2);
        assert!(plan.imbalance() < 1.05, "imbalance {}", plan.imbalance());
    }

    #[test]
    fn empty_and_tiny_matrices() {
        let plan = SpmmPlan::build(&[0], 4);
        assert_eq!(plan.boundaries(), &[0, 0]);
        let plan = SpmmPlan::build(&[0, 0, 0], 4);
        assert_eq!(*plan.boundaries().last().unwrap(), 2);
        let plan = SpmmPlan::build(&[0, 3], 8);
        assert_eq!(plan.chunks(), 1);
    }

    #[test]
    fn with_chunks_honors_requested_count_and_clamps() {
        let indptr = indptr_of(&[3, 0, 7, 1, 1, 20, 0, 2, 2, 4]);
        let plan = SpmmPlan::with_chunks(&indptr, 5);
        assert_eq!(plan.chunks(), 5);
        // More chunks than rows clamps to one chunk per row.
        let plan = SpmmPlan::with_chunks(&indptr, 1000);
        assert_eq!(plan.chunks(), 10);
        // Zero clamps to a single chunk.
        let plan = SpmmPlan::with_chunks(&indptr, 0);
        assert_eq!(plan.boundaries(), &[0, 10]);
    }

    #[test]
    fn build_delegates_to_with_chunks() {
        let indptr = indptr_of(&[5; 64]);
        let built = SpmmPlan::build(&indptr, 2);
        let direct = SpmmPlan::with_chunks(&indptr, 8);
        assert_eq!(built.boundaries(), direct.boundaries());
    }
}
