//! Compressed-sparse-row matrix with a parallel SpMM kernel.
//!
//! This is the benchmark's "SP" propagation backend: `O(m)` storage, and each
//! `Ã · X` costs `O(mF)` with output rows distributed over the persistent
//! worker pool.
//! Column indices are `u32` (graphs beyond 4B nodes are out of scope) and
//! values `f32`, which matches the memory footprint assumptions in the
//! paper's complexity table.

use sgnn_dense::backend;
use sgnn_dense::runtime::{num_threads, run_plan};
use sgnn_dense::DMat;
use sgnn_obs as obs;

use crate::plan::SpmmPlan;

/// Stored entries visited across all CSR propagations (one per edge·hop),
/// in memory and streamed.
pub(crate) static SPMM_NNZ: obs::Counter = obs::Counter::new("spmm.nnz");
/// Arithmetic of CSR propagation: 2 flops per nnz per column, plus 2 per
/// row per column for each epilogue term (`b·x`, `c·z`) a hop applies.
pub(crate) static SPMM_FLOPS: obs::Counter = obs::Counter::new("spmm.flops");
/// Per-chunk SpMM execution time: one sample per plan chunk a lane executes
/// (one per dispatch on the serial path), so the distribution — not just a
/// scalar gauge — shows how well the nnz-balanced plan equalizes work.
static SPMM_CHUNK_NS: obs::Histogram = obs::Histogram::new("spmm.chunk_ns");

/// Work (in `nnz + rows` units, times columns) below which an SpMM runs
/// serially on the caller; mirrors the runtime's tiny-problem cutoff.
const PLAN_CUTOFF: usize = 1 << 14;

/// A sparse matrix in CSR form.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMat {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMat {
    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    /// Panics when the arrays are inconsistent (wrong `indptr` length,
    /// non-monotone `indptr`, index/value length mismatch, column overflow).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr must have rows+1 entries");
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr must end at nnz"
        );
        assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr must be monotone"
        );
        assert!(
            indices.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Heap bytes of the CSR arrays (memory instrumentation).
    pub(crate) fn nbytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
    }

    /// Row-pointer array (`rows + 1` entries — the nnz prefix sum that
    /// [`crate::plan::SpmmPlan`] and the shard writer cut against).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The row pointer, column and value arrays, capacities included.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&Vec<usize>, &Vec<u32>, &Vec<f32>) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// Value at `(r, c)` — linear scan of the row; the tests' probe.
    #[cfg(test)]
    pub(crate) fn get(&self, r: usize, c: usize) -> f32 {
        let (idx, val) = self.row(r);
        idx.iter()
            .position(|&j| j as usize == c)
            .map(|p| val[p])
            .unwrap_or(0.0)
    }

    /// The (column-indices, values) pair of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let s = self.indptr[r];
        let e = self.indptr[r + 1];
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Applies `f` to every stored value.
    #[cfg(test)]
    pub(crate) fn map_values(&mut self, f: impl Fn(f32) -> f32) {
        self.values.iter_mut().for_each(|v| *v = f(*v));
    }

    /// Iterates `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (idx, val) = self.row(r);
            idx.iter().zip(val).map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// `self + I` for a square matrix whose rows hold sorted, unique columns
    /// (what [`crate::Graph::from_edges`] builds): each row is copied with
    /// a unit diagonal merged into its sorted place — added to a stored
    /// diagonal entry, as coalescing the triplets would. One pass, no sort.
    ///
    /// # Panics
    /// If the matrix is not square or a row's columns are not strictly
    /// increasing.
    pub(crate) fn plus_identity(&self) -> CsrMat {
        assert_eq!(self.rows, self.cols, "diagonal requires a square matrix");
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(self.nnz() + self.rows);
        let mut values = Vec::with_capacity(self.nnz() + self.rows);
        indptr.push(0);
        for r in 0..self.rows {
            let (idx, val) = self.row(r);
            assert!(
                idx.windows(2).all(|w| w[0] < w[1]),
                "row {r}: columns must be sorted and unique"
            );
            let d = idx.partition_point(|&c| (c as usize) < r);
            let stored = idx.get(d) == Some(&(r as u32));
            indices.extend_from_slice(&idx[..d]);
            values.extend_from_slice(&val[..d]);
            indices.push(r as u32);
            values.push(if stored { val[d] + 1.0 } else { 1.0 });
            let rest = d + stored as usize;
            indices.extend_from_slice(&idx[rest..]);
            values.extend_from_slice(&val[rest..]);
            indptr.push(indices.len());
        }
        CsrMat {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Scales row `r` by `rs[r]` and column `c` by `cs[c]` in place:
    /// returns `diag(rs) · A · diag(cs)`.
    pub(crate) fn scale_rows_cols(mut self, rs: &[f32], cs: &[f32]) -> CsrMat {
        assert_eq!(rs.len(), self.rows, "row scale length");
        assert_eq!(cs.len(), self.cols, "col scale length");
        for (r, &rv) in rs.iter().enumerate() {
            let (s, e) = (self.indptr[r], self.indptr[r + 1]);
            for (v, &c) in self.values[s..e].iter_mut().zip(&self.indices[s..e]) {
                *v *= rv * cs[c as usize];
            }
        }
        self
    }

    /// Transposed copy (counting sort over columns, `O(nnz + cols)`).
    pub fn transpose(&self) -> CsrMat {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            indptr[i + 1] += indptr[i];
        }
        let mut next = indptr.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            let (idx, val) = self.row(r);
            for (&c, &v) in idx.iter().zip(val) {
                let p = next[c as usize];
                indices[p] = r as u32;
                values[p] = v;
                next[c as usize] += 1;
            }
        }
        CsrMat {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// The CSR hop, `out = a·(self·x) [+ b·x] [+ c·z]`, row-parallel, `out`
    /// fully overwritten; [`crate::PropMatrix::hop_into`] is its one caller.
    ///
    /// Each output row is zeroed, accumulated over its stored entries, then
    /// given its `b`- and `c`-terms — all serially by exactly one task, so
    /// results are bit-identical at every pool width. The `b`-term is
    /// skipped at `b = 0`. The term order matches the composition of the
    /// two-term hop followed by `DMat::axpy(c, z)` (FMA with an exact scalar
    /// is the same rounding), which is what the bit-identity tests pin down.
    ///
    /// `spmm.flops` counts what runs: `2·F` per stored entry, plus `2·F·rows`
    /// for each epilogue term applied (`b ≠ 0`, `c·z` given).
    pub(crate) fn fused_into(
        &self,
        a: f32,
        b: f32,
        x: &DMat,
        cz: Option<(f32, &DMat)>,
        out: &mut DMat,
    ) {
        assert_eq!(self.cols, x.rows(), "spmm dimension mismatch");
        assert_eq!(out.shape(), (self.rows, x.cols()), "output shape mismatch");
        if b != 0.0 {
            assert_eq!(
                self.rows, self.cols,
                "affine propagation requires square operator"
            );
        }
        if let Some((_, z)) = cz {
            assert_eq!(z.shape(), (self.rows, x.cols()), "z-term shape mismatch");
        }
        let f = x.cols();
        let _sp = obs::span!(
            "spmm.csr",
            nnz = self.nnz(),
            cols = f,
            affine = b != 0.0,
            fused = cz.is_some()
        );
        let epilogues = usize::from(b != 0.0) + usize::from(cz.is_some());
        SPMM_NNZ.add(self.nnz() as u64);
        SPMM_FLOPS.add(2 * ((self.nnz() + epilogues * self.rows) * f) as u64);
        let fs = f.max(1);
        let xdat = x.data();
        let zdat = cz.map(|(c, z)| (c, z.data()));
        // One dispatch per SpMM; each row is one call of the backend's
        // gather-accumulate microkernel (accumulators in registers under
        // AVX2, the zero / per-edge `axpy` / epilogue loop under scalar —
        // bit-exact either way).
        let be = backend::for_axpy();
        let kernel = |first: usize, chunk: &mut [f32]| {
            let t = std::time::Instant::now();
            for (local, orow) in chunk.chunks_exact_mut(fs).enumerate() {
                let r = first + local;
                let (idx, val) = self.row(r);
                let bx = (b != 0.0).then(|| (b, &xdat[r * f..(r + 1) * f]));
                let cz = zdat.map(|(c, zdat)| (c, &zdat[r * f..(r + 1) * f]));
                be.spmm_row(a, idx, val, xdat, bx, cz, orow);
            }
            SPMM_CHUNK_NS.record_duration(t.elapsed());
        };
        let threads = num_threads();
        let work = (self.nnz() + self.rows) * fs;
        if threads > 1 && work >= PLAN_CUTOFF {
            let plan = SpmmPlan::build(&self.indptr, threads);
            obs::gauge_set("spmm.plan.chunks", plan.chunks() as u64);
            // max/mean chunk weight (1.0 = perfectly balanced).
            obs::gauge_max_f64("spmm.plan.imbalance", plan.imbalance());
            run_plan(out.data_mut(), fs, plan.boundaries(), kernel);
        } else {
            kernel(0, out.data_mut());
        }
    }

    /// Row sums (out-degree for adjacency matrices).
    pub(crate) fn row_sums(&self) -> Vec<f32> {
        (0..self.rows).map(|r| self.row(r).1.iter().sum()).collect()
    }

    /// Checks every structural invariant the kernels rely on: `indptr`
    /// length/monotonicity/terminal, in-bounds column indices,
    /// sorted-unique columns per row, and finite values. Returns the first
    /// violation as a typed error — the non-panicking counterpart of
    /// `CsrMat::from_parts` for data crossing a load boundary.
    pub fn validate(&self) -> Result<(), crate::validate::ValidationError> {
        use crate::validate::ValidationError as E;
        if self.indptr.len() != self.rows + 1 {
            return Err(E::IndptrLength {
                expected: self.rows + 1,
                got: self.indptr.len(),
            });
        }
        if let Some(row) = self.indptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(E::IndptrNotMonotone { row });
        }
        let end = *self.indptr.last().unwrap_or(&0);
        if end != self.indices.len() || self.indices.len() != self.values.len() {
            return Err(E::IndptrEnd {
                expected: self.indices.len().max(self.values.len()),
                got: end,
            });
        }
        for r in 0..self.rows {
            let (idx, val) = self.row(r);
            for (&c, &v) in idx.iter().zip(val) {
                if (c as usize) >= self.cols {
                    return Err(E::ColumnOutOfBounds {
                        row: r,
                        col: c,
                        cols: self.cols,
                    });
                }
                if !v.is_finite() {
                    return Err(E::NonFiniteValue { row: r, col: c });
                }
            }
            if idx.windows(2).any(|w| w[0] >= w[1]) {
                return Err(E::ColumnsNotSortedUnique { row: r });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use sgnn_dense::pin;
    use sgnn_dense::runtime::set_threads;

    fn identity(n: usize) -> CsrMat {
        CsrMat::from_parts(
            n,
            n,
            (0..=n).collect(),
            (0..n as u32).collect(),
            vec![1.0; n],
        )
    }

    fn small() -> CsrMat {
        // [[0 2 0], [1 0 3], [0 4 0]]
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 2, 3.0);
        coo.push(2, 1, 4.0);
        coo.into_csr()
    }

    /// `a·(m·x) [+ b·x] [+ c·z]` into a fresh buffer.
    fn hop(m: &CsrMat, a: f32, b: f32, cz: Option<(f32, &DMat)>, x: &DMat) -> DMat {
        let mut out = DMat::filled(m.rows(), x.cols(), f32::NAN);
        m.fused_into(a, b, x, cz, &mut out);
        out
    }

    #[test]
    fn spmm_matches_dense() {
        let a = small();
        let x = DMat::from_fn(3, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        let y = hop(&a, 1.0, 0.0, None, &x);
        // Row 0 = 2 * x[1]; row 1 = 1*x[0] + 3*x[2]; row 2 = 4*x[1].
        assert_eq!(y.row(0), &[6.0, 8.0]);
        assert_eq!(y.row(1), &[16.0, 20.0]);
        assert_eq!(y.row(2), &[12.0, 16.0]);
    }

    #[test]
    fn affine_spmm_equals_manual_combination() {
        let a = small();
        let x = DMat::from_fn(3, 2, |r, c| (r + c) as f32);
        let mut want = hop(&a, 1.0, 0.0, None, &x);
        want.scale(-1.0);
        want.axpy(1.0, &x);
        assert_eq!(hop(&a, -1.0, 1.0, None, &x), want);
    }

    /// The kernel fully overwrites its output: into a dirty buffer it
    /// writes the bits it writes into a fresh zeroed one, for the plain,
    /// affine and three-term hops.
    #[test]
    fn into_variants_match_allocating_kernels_bitwise() {
        let a = small();
        let x = DMat::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.3 - 1.0);
        let z = DMat::from_fn(3, 2, |r, c| (r + 3 * c) as f32 * 0.7 - 2.0);
        for (fill, av, bv, cz) in [
            (f32::NAN, 1.0f32, 0.0f32, None),
            (7.5, -1.0, 0.5, None),
            (-3.25, -2.0, 0.0, Some((-1.0f32, &z))),
        ] {
            let mut want = DMat::zeros(3, 2);
            a.fused_into(av, bv, &x, cz, &mut want);
            let mut out = DMat::filled(3, 2, fill);
            a.fused_into(av, bv, &x, cz, &mut out);
            assert_eq!(out, want, "fill {fill}");
        }
    }

    #[test]
    fn three_term_kernel_matches_public_composition_bitwise() {
        let a = small();
        let x = DMat::from_fn(3, 4, |r, c| ((r * 5 + c) % 7) as f32 * 0.21 - 0.6);
        let z = DMat::from_fn(3, 4, |r, c| ((r + c) % 3) as f32 * 1.4 - 1.0);
        for &(av, bv, cv) in &[
            (-2.0f32, 0.0f32, -1.0f32),
            (0.7, -0.3, 0.9),
            (1.0, 1.0, 0.0),
        ] {
            let mut want = hop(&a, av, bv, None, &x);
            want.axpy(cv, &z);
            let got = hop(&a, av, bv, Some((cv, &z)), &x);
            assert_eq!(got, want, "a={av} b={bv} c={cv}");
        }
    }

    /// The plain and the three-term hop at widths 2–7 against the width-1
    /// serial kernel.
    fn assert_every_width_matches_serial(a: &CsrMat, x: &DMat, z: &DMat) {
        let _l = pin::lock();
        let _t = pin::threads(1);
        let plain = hop(a, 1.0, 0.0, None, x);
        let three = hop(a, -2.0, 0.1, Some((-1.0, z)), x);
        for threads in 2..=7 {
            set_threads(threads);
            assert_eq!(hop(a, 1.0, 0.0, None, x), plain, "spmm at width {threads}");
            assert_eq!(
                hop(a, -2.0, 0.1, Some((-1.0, z)), x),
                three,
                "three-term hop at width {threads}"
            );
        }
    }

    #[test]
    fn planned_dispatch_matches_serial_kernel_bitwise() {
        use sgnn_dense::rng as drng;
        // Hub-skewed rows, large enough to clear the plan cutoff.
        let n = 600;
        let mut coo = Coo::with_capacity(n, n, 8 * n);
        let mut rng = 12345u64;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        for r in 0..n {
            let deg = if r < 8 { 200 } else { 4 };
            for _ in 0..deg {
                coo.push(r as u32, (next() % n) as u32, (next() % 100) as f32 * 0.01);
            }
        }
        let x = drng::randn_mat(n, 32, 1.0, &mut drng::seeded(7));
        let z = drng::randn_mat(n, 32, 1.0, &mut drng::seeded(8));
        assert_every_width_matches_serial(&coo.into_csr(), &x, &z);

        // Below the cutoff a multi-lane pool still runs the serial kernel.
        let tiny = small();
        assert!((tiny.nnz() + tiny.rows()) * 2 < PLAN_CUTOFF);
        let x = DMat::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.3 - 1.0);
        let z = DMat::from_fn(3, 2, |r, c| (r + 3 * c) as f32 * 0.7 - 2.0);
        assert_every_width_matches_serial(&tiny, &x, &z);

        // More lanes than rows: wide features clear the cutoff with 5 rows,
        // and the plan clamps to one chunk per row.
        let mut coo = Coo::new(5, 5);
        for r in 0..5u32 {
            for c in 0..5u32 {
                coo.push(r, c, (r * 5 + c) as f32 * 0.1 - 1.0);
            }
        }
        let few = coo.into_csr();
        assert!((few.nnz() + few.rows()) * 1024 >= PLAN_CUTOFF);
        let x = drng::randn_mat(5, 1024, 1.0, &mut drng::seeded(9));
        let z = drng::randn_mat(5, 1024, 1.0, &mut drng::seeded(10));
        assert_every_width_matches_serial(&few, &x, &z);
    }

    #[test]
    fn transpose_round_trip() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(0, 1), 1.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let i = identity(4);
        let x = DMat::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(hop(&i, 1.0, 0.0, None, &x), x);
    }

    #[test]
    fn scale_rows_cols() {
        let a = small();
        let s = a.scale_rows_cols(&[1.0, 2.0, 3.0], &[1.0, 0.5, 1.0]);
        assert_eq!(s.get(0, 1), 1.0); // 2 * 1 * 0.5
        assert_eq!(s.get(1, 0), 2.0); // 1 * 2 * 1
        assert_eq!(s.get(2, 1), 6.0); // 4 * 3 * 0.5
    }

    #[test]
    fn row_sums_are_weighted_degrees() {
        assert_eq!(small().row_sums(), vec![2.0, 4.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "indptr must end at nnz")]
    fn from_parts_validates() {
        CsrMat::from_parts(1, 1, vec![0, 2], vec![0], vec![1.0]);
    }

    #[test]
    fn validate_accepts_well_formed_matrices() {
        assert_eq!(small().validate(), Ok(()));
        let zeros = CsrMat::from_parts(3, 3, vec![0; 4], Vec::new(), Vec::new());
        assert_eq!(zeros.validate(), Ok(()));
        assert_eq!(identity(5).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_each_broken_invariant() {
        use crate::validate::ValidationError as E;

        let mut nan = small();
        nan.map_values(|_| f32::NAN);
        assert_eq!(nan.validate(), Err(E::NonFiniteValue { row: 0, col: 1 }));

        // from_parts does not require sorted columns, so an unsorted row can
        // arrive through the public constructor.
        let unsorted = CsrMat::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert_eq!(
            unsorted.validate(),
            Err(E::ColumnsNotSortedUnique { row: 0 })
        );
        let duplicate = CsrMat::from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]);
        assert_eq!(
            duplicate.validate(),
            Err(E::ColumnsNotSortedUnique { row: 0 })
        );

        // The remaining invariants are unreachable through from_parts (it
        // panics), so forge the struct directly — validate() is exactly for
        // data that bypassed the checked constructor.
        let bad_col = CsrMat {
            rows: 1,
            cols: 2,
            indptr: vec![0, 1],
            indices: vec![9],
            values: vec![1.0],
        };
        assert_eq!(
            bad_col.validate(),
            Err(E::ColumnOutOfBounds {
                row: 0,
                col: 9,
                cols: 2
            })
        );
        let bad_len = CsrMat {
            rows: 2,
            cols: 2,
            indptr: vec![0, 0],
            indices: vec![],
            values: vec![],
        };
        assert_eq!(
            bad_len.validate(),
            Err(E::IndptrLength {
                expected: 3,
                got: 2
            })
        );
        let non_monotone = CsrMat {
            rows: 2,
            cols: 2,
            indptr: vec![0, 1, 0],
            indices: vec![0],
            values: vec![1.0],
        };
        assert_eq!(
            non_monotone.validate(),
            Err(E::IndptrNotMonotone { row: 1 })
        );
        let bad_end = CsrMat {
            rows: 1,
            cols: 2,
            indptr: vec![0, 2],
            indices: vec![0],
            values: vec![1.0],
        };
        assert_eq!(
            bad_end.validate(),
            Err(E::IndptrEnd {
                expected: 1,
                got: 2
            })
        );
    }
}
