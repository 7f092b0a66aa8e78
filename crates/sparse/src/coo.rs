//! Coordinate-format triplet builder.
//!
//! `Coo` collects `(row, col, value)` triplets, sorts them row-major and
//! sums duplicates: the plain construction the tests build matrices with
//! and check the counting-sort [`Graph::from_edges`](crate::Graph) against.

#[cfg(test)]
use crate::csr::CsrMat;

/// A sparse matrix under construction, as coordinate triplets.
#[derive(Clone, Debug, Default)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f32)>,
}

impl Coo {
    /// An empty `rows × cols` builder.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// An empty builder with reserved capacity for `cap` triplets.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of triplets currently stored (duplicates included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no triplets are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a triplet.
    ///
    /// # Panics
    /// Panics (debug) when indices exceed the declared shape.
    #[inline]
    pub fn push(&mut self, r: u32, c: u32, v: f32) {
        debug_assert!((r as usize) < self.rows && (c as usize) < self.cols);
        self.entries.push((r, c, v));
    }

    /// Sorts triplets row-major and sums duplicates.
    pub fn coalesce(&mut self) {
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        let mut w = 0usize;
        for i in 0..self.entries.len() {
            if w > 0
                && self.entries[w - 1].0 == self.entries[i].0
                && self.entries[w - 1].1 == self.entries[i].1
            {
                self.entries[w - 1].2 += self.entries[i].2;
            } else {
                self.entries[w] = self.entries[i];
                w += 1;
            }
        }
        self.entries.truncate(w);
    }

    /// Converts to CSR, coalescing first.
    #[cfg(test)]
    pub(crate) fn into_csr(mut self) -> CsrMat {
        self.coalesce();
        let mut indptr = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            indptr[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            indptr[i + 1] += indptr[i];
        }
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        for (_, c, v) in self.entries {
            indices.push(c);
            values.push(v);
        }
        CsrMat::from_parts(self.rows, self.cols, indptr, indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_sums_duplicates() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.5);
        coo.push(2, 0, 1.0);
        coo.coalesce();
        assert_eq!(coo.len(), 2);
        let csr = coo.into_csr();
        assert_eq!(csr.get(0, 1), 3.5);
        assert_eq!(csr.get(2, 0), 1.0);
        assert_eq!(csr.get(1, 1), 0.0);
    }

    #[test]
    fn into_csr_sorted_rows() {
        let mut coo = Coo::new(2, 4);
        coo.push(1, 3, 1.0);
        coo.push(1, 0, 2.0);
        coo.push(0, 2, 3.0);
        let csr = coo.into_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row(1).0, &[0, 3]);
    }
}
