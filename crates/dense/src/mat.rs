//! Row-major dense `f32` matrix.
//!
//! [`DMat`] is the single dense container used throughout the benchmark for
//! node-representation matrices (`n × F`), network weights (`F × F'`), and
//! gradients. It is deliberately simple: a `Vec<f32>` plus a shape, with the
//! hot kernels (matmul, SpMM) living in dedicated modules.

use std::borrow::Borrow;
use std::fmt;

use crate::pool;

/// A dense row-major matrix of `f32` values.
///
/// ```
/// use sgnn_dense::DMat;
/// let mut m = DMat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// m.axpy(0.5, &DMat::eye(2));           // m += 0.5·I
/// assert_eq!(m.get(0, 0), 1.5);
/// assert_eq!(m.row(1), &[3.0, 4.5]);
/// ```
///
/// Inside a [`pool::scope`] the value buffers of large matrices are recycled:
/// `Drop` parks the buffer and [`zeros`](Self::zeros),
/// [`scratch`](Self::scratch), `clone` and [`map`](Self::map) pick one of the
/// same length back up. Outside a scope nothing here differs from a plain
/// `Vec<f32>`.
#[derive(PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for DMat {
    fn clone(&self) -> Self {
        let data = match pool::take(self.data.len()) {
            Some(mut buf) => {
                buf.copy_from_slice(&self.data);
                buf
            }
            None => self.data.clone(),
        };
        Self { data, ..*self }
    }
}

impl Drop for DMat {
    #[inline]
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.data));
    }
}

impl fmt::Debug for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DMat({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl DMat {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let data = match pool::take(rows * cols) {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; rows * cols],
        };
        Self { rows, cols, data }
    }

    /// An `rows × cols` matrix whose contents are unspecified (but
    /// initialised): for outputs the caller overwrites in every entry, which
    /// then skip the zero fill of a recycled buffer.
    pub fn scratch(rows: usize, cols: usize) -> Self {
        let data = pool::take(rows * cols).unwrap_or_else(|| vec![0.0; rows * cols]);
        Self { rows, cols, data }
    }

    /// An `rows × cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must match shape");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Heap bytes held by the value buffer; used by the memory instrumentation.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Returns a new matrix with `f` applied to every entry.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let data = match pool::take(self.data.len()) {
            Some(mut buf) => {
                buf.iter_mut().zip(&self.data).for_each(|(o, &x)| *o = f(x));
                buf
            }
            None => self.data.iter().map(|&x| f(x)).collect(),
        };
        Self { data, ..*self }
    }

    /// `self += other`.
    pub fn add_assign_mat(&mut self, other: &DMat) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add");
        crate::backend::for_elementwise().add_assign(&mut self.data, &other.data);
    }

    /// `self -= other`.
    pub fn sub_assign_mat(&mut self, other: &DMat) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in sub");
        crate::backend::for_elementwise().sub_assign(&mut self.data, &other.data);
    }

    /// `self += alpha * other` (fused multiply–add over the buffer).
    pub fn axpy(&mut self, alpha: f32, other: &DMat) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpy");
        crate::backend::for_axpy().axpy(alpha, &other.data, &mut self.data);
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&mut self, s: f32) {
        crate::backend::for_elementwise().scale(s, &mut self.data);
    }

    /// Returns `self * s` without mutating.
    pub fn scaled(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// `Σ_k coeffs[k]·terms[k]` in one pass: the output is cut into
    /// 2048-float blocks (row chunks of them spread over the
    /// pool) and each block takes every term while it sits in L1, instead of
    /// the whole output being streamed through memory once per term.
    ///
    /// Per element the arithmetic is the serial formulation's: the first
    /// term as `first` says, then `acc = fma(terms[k], coeffs[k], acc)` for
    /// `k = 1, 2, …` in order — elements are independent, so the blocking
    /// and the pool width are invisible in the bits.
    ///
    /// # Panics
    /// If `terms` is empty, `coeffs` has a different length, or the terms'
    /// shapes differ.
    pub fn lin_comb<T: Borrow<DMat>>(terms: &[T], coeffs: &[f32], first: FirstTerm) -> DMat {
        assert!(!terms.is_empty(), "lin_comb needs at least one term");
        let (rows, cols) = terms[0].borrow().shape();
        let mut out = DMat::scratch(rows, cols);
        out.combine_blocked(terms, coeffs, Some(first));
        out
    }

    /// `self = fma(terms[k], coeffs[k], self)` for `k = 0, 1, …` in order:
    /// [`lin_comb`](Self::lin_comb)'s later terms, continued onto a sum
    /// already formed — a combination accumulated over several calls has the
    /// bits of one `lin_comb` over all its terms. Blocked and pooled alike.
    ///
    /// # Panics
    /// If `coeffs` has a different length than `terms`, or a term's shape
    /// differs from `self`'s.
    pub fn lin_comb_onto<T: Borrow<DMat>>(&mut self, terms: &[T], coeffs: &[f32]) {
        self.combine_blocked(terms, coeffs, None);
    }

    /// `lin_comb`'s body over `self`'s buffer; `first == None` accumulates
    /// every term onto the current contents.
    fn combine_blocked<T: Borrow<DMat>>(
        &mut self,
        terms: &[T],
        coeffs: &[f32],
        first: Option<FirstTerm>,
    ) {
        assert_eq!(terms.len(), coeffs.len(), "one coefficient per term");
        let (rows, cols) = self.shape();
        let terms: Vec<&[f32]> = terms
            .iter()
            .map(|t| {
                let t: &DMat = t.borrow();
                assert_eq!(t.shape(), (rows, cols), "shape mismatch in lin_comb");
                &t.data[..]
            })
            .collect();
        let be = crate::backend::for_axpy();
        crate::runtime::run_chunks(&mut self.data, rows, cols, |first_row, chunk| {
            let mut at = first_row * cols;
            for block in chunk.chunks_mut(LIN_COMB_BLOCK) {
                let span = at..at + block.len();
                combine_into(be, block, coeffs, first, |k| &terms[k][span.clone()]);
                at = span.end;
            }
        });
    }

    /// `Σ_k coeffs[k]·terms[k][ids[r]]` for every output row `r`: the rows
    /// [`lin_comb`](Self::lin_comb) would produce from
    /// [`gather_rows`](Self::gather_rows) of every term, read straight from
    /// the terms. Each output row stays in L1 while the matching row of
    /// every term streams through it; row chunks spread over the pool.
    ///
    /// Per element the arithmetic is `lin_comb`'s: the first term as `first`
    /// says, then `acc = fma(terms[k], coeffs[k], acc)` in term order.
    ///
    /// # Panics
    /// If `terms` is empty, `coeffs` has a different length, the terms'
    /// shapes differ, or an id is not a row of the terms.
    pub fn lin_comb_rows<T: Borrow<DMat>>(
        terms: &[T],
        ids: &[u32],
        coeffs: &[f32],
        first: FirstTerm,
    ) -> DMat {
        assert!(!terms.is_empty(), "lin_comb_rows needs at least one term");
        assert_eq!(terms.len(), coeffs.len(), "one coefficient per term");
        let (rows, cols) = terms[0].borrow().shape();
        let terms: Vec<&DMat> = terms
            .iter()
            .map(|t| {
                let t: &DMat = t.borrow();
                assert_eq!(t.shape(), (rows, cols), "shape mismatch in lin_comb_rows");
                t
            })
            .collect();
        assert!(
            ids.iter().all(|&i| (i as usize) < rows),
            "row id out of range in lin_comb_rows"
        );
        let mut out = DMat::scratch(ids.len(), cols);
        if cols == 0 {
            return out;
        }
        let be = crate::backend::for_axpy();
        crate::runtime::run_chunks(&mut out.data, ids.len(), cols, |first_row, chunk| {
            for (acc, &id) in chunk.chunks_exact_mut(cols).zip(&ids[first_row..]) {
                combine_into(be, acc, coeffs, Some(first), |k| terms[k].row(id as usize));
            }
        });
        out
    }

    /// Element-wise product, in place.
    pub fn hadamard_assign(&mut self, other: &DMat) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in hadamard");
        crate::backend::for_elementwise().hadamard(&mut self.data, &other.data);
    }

    /// Frobenius inner product `⟨self, other⟩`, accumulated in `f64`.
    pub fn dot(&self, other: &DMat) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in dot");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum()
    }

    /// `⟨terms[k], g⟩` for every `k`, each bit-identical to
    /// [`terms[k].dot(g)`](Self::dot), in one pass over `g` per group of
    /// four terms.
    ///
    /// A lone `dot` is one chain of dependent `f64` additions, so it runs at
    /// the adder's latency, not its throughput. Here a group of terms
    /// advances together, one accumulator each: the chains are independent,
    /// the adder stays busy and `g` is read once per group — while every
    /// accumulator still adds its own products in `dot`'s element order, so
    /// no sum is re-associated.
    pub fn dots<T: Borrow<DMat>>(terms: &[T], g: &DMat) -> Vec<f64> {
        let mut out = Vec::with_capacity(terms.len());
        for group in terms.chunks(DOTS_GROUP) {
            match group {
                [a, b, c, d] => out.extend(dot_group([a, b, c, d], g)),
                [a, b, c] => out.extend(dot_group([a, b, c], g)),
                [a, b] => out.extend(dot_group([a, b], g)),
                _ => out.extend(group.iter().map(|t| t.borrow().dot(g))),
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DMat {
        let mut out = DMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Gathers the listed rows into a new matrix (the mini-batch primitive).
    pub fn gather_rows(&self, idx: &[u32]) -> DMat {
        let mut out = DMat::zeros(idx.len(), self.cols);
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i as usize));
        }
        out
    }

    /// [`gather_rows`](Self::gather_rows) into a caller-owned buffer —
    /// repeated gathers (a serving hot path) reuse one allocation.
    pub fn gather_rows_into(&self, idx: &[u32], out: &mut DMat) {
        assert_eq!(out.rows(), idx.len(), "gather output row mismatch");
        assert_eq!(out.cols(), self.cols, "gather output column mismatch");
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i as usize));
        }
    }

    /// Scatter-adds `src` rows back into `self` at the listed positions
    /// (reverse of [`gather_rows`](Self::gather_rows)).
    pub fn scatter_add_rows(&mut self, idx: &[u32], src: &DMat) {
        assert_eq!(idx.len(), src.rows(), "index/source row mismatch");
        assert_eq!(self.cols, src.cols(), "column mismatch in scatter");
        for (o, &i) in idx.iter().enumerate() {
            let dst = self.row_mut(i as usize);
            for (d, s) in dst.iter_mut().zip(src.row(o)) {
                *d += s;
            }
        }
    }

    /// Sums each column into a length-`cols` vector (f64 accumulation).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.cols];
        for row in self.row_iter() {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v as f64;
            }
        }
        sums
    }

    /// Horizontally concatenates matrices with equal row counts.
    pub fn hcat(parts: &[&DMat]) -> DMat {
        assert!(!parts.is_empty(), "hcat of zero matrices");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "row mismatch in hcat");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = DMat::zeros(rows, cols);
        for r in 0..rows {
            let dst = out.row_mut(r);
            let mut off = 0;
            for p in parts {
                dst[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }
}

/// How [`DMat::lin_comb`] rounds its first term. The two differ only where
/// `c₀·T₀` is an exact negative zero — the product keeps `−0.0`, the FMA
/// onto `+0.0` returns `+0.0` — and each caller's historical bits depend on
/// which one it had.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirstTerm {
    /// `acc = c₀·T₀`: a scaled copy, then the FMA chain.
    Product,
    /// `acc = fma(T₀, c₀, +0.0)`: the FMA chain from a zeroed output.
    FmaOntoZero,
}

/// `acc = Σ_k coeffs[k]·src(k)` element-wise: the first term as `first`
/// says, then one `axpy` per later term, in term order. With no `first`,
/// every term is an `axpy` onto `acc` as it stands.
fn combine_into<'a>(
    be: &dyn crate::backend::Backend,
    acc: &mut [f32],
    coeffs: &[f32],
    first: Option<FirstTerm>,
    src: impl Fn(usize) -> &'a [f32],
) {
    match first {
        Some(FirstTerm::Product) => {
            acc.copy_from_slice(src(0));
            be.scale(coeffs[0], acc);
        }
        Some(FirstTerm::FmaOntoZero) => {
            acc.fill(0.0);
            be.axpy(coeffs[0], src(0), acc);
        }
        None => {}
    }
    let later = usize::from(first.is_some());
    for (k, &c) in coeffs.iter().enumerate().skip(later) {
        be.axpy(c, src(k), acc);
    }
}

/// Floats per block of [`DMat::lin_comb`]: 8 KiB of output stays in L1 while
/// the matching 8 KiB of each term streams through it.
const LIN_COMB_BLOCK: usize = 2048;

/// Terms [`DMat::dots`] advances together: enough independent chains to cover
/// the `f64` adder's latency, few enough to keep one accumulator per register.
const DOTS_GROUP: usize = 4;

/// One pass of [`DMat::dots`] over `K` terms.
fn dot_group<T: Borrow<DMat>, const K: usize>(terms: [&T; K], g: &DMat) -> [f64; K] {
    let terms = terms.map(|t| {
        let t: &DMat = t.borrow();
        assert_eq!(t.shape(), g.shape(), "shape mismatch in dots");
        &t.data[..g.data.len()]
    });
    // What `dot`'s `.sum()` starts from, so an empty product agrees too.
    let mut acc = [std::iter::empty::<f64>().sum::<f64>(); K];
    for (i, &gv) in g.data.iter().enumerate() {
        for (a, t) in acc.iter_mut().zip(&terms) {
            *a += t[i] as f64 * gv as f64;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin;

    #[test]
    fn construction_and_access() {
        let m = DMat::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn gather_rows_into_matches_gather_rows() {
        let m = DMat::from_fn(5, 3, |r, c| (r * 10 + c) as f32);
        let idx = [4u32, 0, 4, 2];
        let mut out = DMat::zeros(idx.len(), 3);
        m.gather_rows_into(&idx, &mut out);
        assert_eq!(out, m.gather_rows(&idx));
        // Reuse: a second gather overwrites every row of the same buffer.
        m.gather_rows_into(&[1, 1, 1, 1], &mut out);
        assert_eq!(out.row(3), m.row(1));
    }

    #[test]
    fn eye_is_identity_under_matmul_semantics() {
        let i = DMat::eye(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.data().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = DMat::filled(2, 2, 1.0);
        let b = DMat::from_fn(2, 2, |r, c| (r + c) as f32);
        a.axpy(2.0, &b);
        assert_eq!(a.get(1, 1), 1.0 + 2.0 * 2.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = DMat::from_fn(3, 4, |r, c| (r * 7 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), m.get(1, 2));
    }

    #[test]
    fn gather_then_scatter_accumulates() {
        let m = DMat::from_fn(4, 2, |r, _| r as f32);
        let g = m.gather_rows(&[3, 1]);
        assert_eq!(g.row(0), &[3.0, 3.0]);
        let mut acc = DMat::zeros(4, 2);
        acc.scatter_add_rows(&[3, 1], &g);
        acc.scatter_add_rows(&[3, 0], &g);
        assert_eq!(acc.get(3, 0), 6.0);
        assert_eq!(acc.get(0, 0), 1.0);
    }

    #[test]
    fn hcat_shapes_and_values() {
        let a = DMat::filled(2, 1, 1.0);
        let b = DMat::filled(2, 2, 2.0);
        let h = DMat::hcat(&[&a, &b]);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[1.0, 2.0, 2.0]);
    }

    #[test]
    fn dot_and_norm_agree() {
        let m = DMat::from_fn(2, 2, |r, c| (r + c) as f32 + 1.0);
        let d = m.dot(&m);
        assert!((d.sqrt() - m.norm()).abs() < 1e-9);
    }

    proptest::proptest! {
        /// Ragged and empty shapes; 0, 1 and up to three groups of terms,
        /// with every tail-group size.
        #[test]
        fn dots_is_bit_identical_to_dot(
            rows in 0usize..9,
            cols in 0usize..9,
            terms in 0usize..12,
            seed in 0u64..1_000,
        ) {
            let mut rng = crate::rng::seeded(seed);
            let g = crate::rng::randn_mat(rows, cols, 3.0, &mut rng);
            let ts: Vec<DMat> = (0..terms)
                .map(|_| crate::rng::randn_mat(rows, cols, 3.0, &mut rng))
                .collect();
            let got = DMat::dots(&ts, &g);
            proptest::prop_assert_eq!(got.len(), terms);
            for (t, d) in ts.iter().zip(&got) {
                proptest::prop_assert_eq!(d.to_bits(), t.dot(&g).to_bits());
            }
            // By reference, as the tape passes its node values.
            let refs: Vec<&DMat> = ts.iter().collect();
            proptest::prop_assert_eq!(DMat::dots(&refs, &g), got);
        }

        /// `lin_comb` against the two serial formulations it replaced — a
        /// scaled copy plus `axpy` passes (the full-batch combination), `axpy` passes
        /// onto zeros (`Tape::lin_comb`) — on shapes below and above the
        /// pool's dispatch cutoff, at pool widths 1 and 4, with coefficients
        /// that include both zeros; and the same sum formed in two calls,
        /// `lin_comb` of the first terms then `lin_comb_onto` of the rest.
        #[test]
        fn lin_comb_is_bit_identical_to_the_serial_formulations(
            rows in 0usize..9,
            tall in proptest::prelude::any::<bool>(),
            cols in 0usize..48,
            terms in 1usize..7,
            split in 1usize..7,
            wide in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let _l = pin::lock();
            let _t = pin::threads(if wide { 4 } else { 1 });
            let rows = rows + if tall { 600 } else { 0 };
            let mut rng = crate::rng::seeded(seed);
            let ts: Vec<DMat> = (0..terms)
                .map(|_| crate::rng::randn_mat(rows, cols, 3.0, &mut rng))
                .collect();
            let coeffs: Vec<f32> = (0..terms)
                .map(|k| match (seed as usize + k) % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => crate::rng::randn_mat(1, 1, 2.0, &mut rng).get(0, 0),
                })
                .collect();

            let mut product_first = ts[0].scaled(coeffs[0]);
            let mut onto_zero = DMat::zeros(rows, cols);
            onto_zero.axpy(coeffs[0], &ts[0]);
            for (t, &c) in ts.iter().zip(&coeffs).skip(1) {
                product_first.axpy(c, t);
                onto_zero.axpy(c, t);
            }
            for (first, want) in [
                (FirstTerm::Product, &product_first),
                (FirstTerm::FmaOntoZero, &onto_zero),
            ] {
                let got = DMat::lin_comb(&ts, &coeffs, first);
                proptest::prop_assert_eq!(got.shape(), want.shape());
                for (g, w) in got.data().iter().zip(want.data()) {
                    proptest::prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?}", first);
                }
            }
            let split = split.min(terms);
            let mut two_calls = DMat::lin_comb(&ts[..split], &coeffs[..split], FirstTerm::Product);
            two_calls.lin_comb_onto(&ts[split..], &coeffs[split..]);
            for (g, w) in two_calls.data().iter().zip(product_first.data()) {
                proptest::prop_assert_eq!(g.to_bits(), w.to_bits(), "split at {}", split);
            }
        }
    }

    proptest::proptest! {
        /// `lin_comb_rows` against `gather_rows` of every term followed by
        /// `lin_comb`: repeated ids, no ids at all, 1–11 terms, both first-term
        /// roundings, zero coefficients of both signs, at pool widths 1 and 4
        /// and on batches below and above the pool's dispatch cutoff.
        #[test]
        fn lin_comb_rows_matches_gather_then_lin_comb(
            rows in 1usize..40,
            cols in 0usize..70,
            batch in 0usize..24,
            tall in proptest::prelude::any::<bool>(),
            terms in 1usize..12,
            wide in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let _l = pin::lock();
            let _t = pin::threads(if wide { 4 } else { 1 });
            let batch = batch + if tall { 700 } else { 0 };
            let mut rng = crate::rng::seeded(seed);
            let ts: Vec<DMat> = (0..terms)
                .map(|_| crate::rng::randn_mat(rows, cols, 3.0, &mut rng))
                .collect();
            // `rows` is small, so a long batch repeats ids.
            let ids: Vec<u32> = (0..batch)
                .map(|i| ((i as u64 * 7 + seed) % rows as u64) as u32)
                .collect();
            let coeffs: Vec<f32> = (0..terms)
                .map(|k| match (seed as usize + k) % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => crate::rng::randn_mat(1, 1, 2.0, &mut rng).get(0, 0),
                })
                .collect();
            let gathered: Vec<DMat> = ts.iter().map(|t| t.gather_rows(&ids)).collect();
            for first in [FirstTerm::Product, FirstTerm::FmaOntoZero] {
                let want = DMat::lin_comb(&gathered, &coeffs, first);
                let got = DMat::lin_comb_rows(&ts, &ids, &coeffs, first);
                proptest::prop_assert_eq!(got.shape(), (ids.len(), cols));
                for (g, w) in got.data().iter().zip(want.data()) {
                    proptest::prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?}", first);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row id out of range")]
    fn lin_comb_rows_rejects_an_id_past_the_terms() {
        let t = DMat::zeros(3, 2);
        DMat::lin_comb_rows(&[&t], &[1, 3], &[1.0], FirstTerm::Product);
    }

    /// Why `FirstTerm` exists: on an exact negative-zero product the two
    /// roundings part, and the later terms carry the difference along.
    #[test]
    fn lin_comb_first_term_roundings_differ_only_in_the_sign_of_zero() {
        let t = DMat::from_vec(1, 3, vec![-0.0, 0.0, 2.0]);
        let product = DMat::lin_comb(&[&t], &[1.0], FirstTerm::Product);
        let fma = DMat::lin_comb(&[&t], &[1.0], FirstTerm::FmaOntoZero);
        assert_eq!(product, fma, "equal as numbers");
        let bits = |m: &DMat| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&product), bits(&t));
        assert_eq!(bits(&fma), bits(&DMat::from_vec(1, 3, vec![0.0, 0.0, 2.0])));
    }

    #[test]
    fn dots_keeps_the_sign_of_an_all_negative_zero_sum() {
        // Every product is −0.0, so the result shows what the sum started
        // from: it must be what `dot` starts from, at every group size.
        let g = DMat::filled(2, 3, 0.0);
        let ts = vec![DMat::filled(2, 3, -1.0); 7];
        for (t, d) in ts.iter().zip(DMat::dots(&ts, &g)) {
            assert_eq!(d.to_bits(), t.dot(&g).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn dots_rejects_a_mismatched_term() {
        let g = DMat::zeros(2, 3);
        DMat::dots(&[DMat::zeros(2, 3), DMat::zeros(3, 2)], &g);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let mut a = DMat::zeros(2, 2);
        a.add_assign_mat(&DMat::zeros(2, 3));
    }
}
