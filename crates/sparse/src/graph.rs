//! Undirected attributed-graph container.
//!
//! `Graph` stores the raw (unnormalized, self-loop-free) adjacency structure;
//! normalization and Laplacian construction live in [`crate::normalize`] so
//! the same graph can be re-normalized with different `ρ` (the Figure-10
//! experiment sweeps `ρ ∈ [0, 1]`).

use sgnn_dense::runtime::{num_threads, run_plan};

use crate::csr::CsrMat;
use crate::plan::SpmmPlan;

/// Stored entries below which [`sorted_rows`] sorts its rows on the caller:
/// a pool dispatch costs more than sorting them.
const PARALLEL_SORT_MIN: usize = 1 << 15;

/// The sorted, duplicate-free column lists of rows `row_lo..row_lo + rows`,
/// as a local `indptr` (`rows + 1` entries, from 0) and the flat columns,
/// built from directed `(row, col)` pairs by counting sort.
///
/// Two passes over `pairs` count each row's entries and scatter the
/// columns into place; the rows are then sorted on the worker pool (an
/// nnz-balanced [`SpmmPlan`] split, each row sorted by one task) and
/// deduplicated in one serial pass that compacts the array in place. The
/// result is what sorting the pairs row-major and dropping repeats gives,
/// at every pool width, and both arrays hold exactly their length. Every
/// pair's row must lie in the range. [`Graph::from_edges`] feeds it both
/// orientations of each edge; the streamed generator (`sgnn-data`) one
/// row-range bucket of directed pairs at a time.
pub fn sorted_rows<I>(row_lo: usize, rows: usize, pairs: I) -> (Vec<usize>, Vec<u32>)
where
    I: Iterator<Item = (u32, u32)> + Clone,
{
    // Row r's count goes to slot r + 2, so after the prefix sum slot r + 1
    // holds row r's start and serves as its scatter cursor, ending at the
    // row's end: slots 0..=rows are then the row pointer.
    let mut indptr = vec![0usize; rows + 2];
    for (r, _) in pairs.clone() {
        indptr[r as usize - row_lo + 2] += 1;
    }
    for i in 1..indptr.len() {
        indptr[i] += indptr[i - 1];
    }
    let mut cols = vec![0u32; indptr[rows + 1]];
    for (r, c) in pairs {
        let cursor = &mut indptr[r as usize - row_lo + 1];
        cols[*cursor] = c;
        *cursor += 1;
    }
    indptr.truncate(rows + 1);

    let chunks = if cols.len() < PARALLEL_SORT_MIN {
        1
    } else {
        num_threads() * 4
    };
    let bounds: Vec<usize> = SpmmPlan::with_chunks(&indptr, chunks)
        .boundaries()
        .iter()
        .map(|&r| indptr[r])
        .collect();
    run_plan(&mut cols, 1, &bounds, |first, chunk| {
        // The chunk begins at a row start; empty rows sharing it sort as no-ops.
        let mut r = indptr.partition_point(|&p| p < first);
        while r < rows && indptr[r] < first + chunk.len() {
            chunk[indptr[r] - first..indptr[r + 1] - first].sort_unstable();
            r += 1;
        }
    });

    let mut w = 0;
    let mut start = 0;
    for r in 0..rows {
        let end = indptr[r + 1];
        let row_start = w;
        for i in start..end {
            let c = cols[i];
            if w == row_start || cols[w - 1] != c {
                cols[w] = c;
                w += 1;
            }
        }
        start = end;
        indptr[r + 1] = w;
    }
    cols.truncate(w);
    cols.shrink_to_fit();
    indptr.shrink_to_fit();
    (indptr, cols)
}

/// An undirected graph over nodes `0..n`.
///
/// ```
/// use sgnn_sparse::Graph;
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// assert_eq!(g.nodes(), 3);
/// assert_eq!(g.directed_edges(), 4); // each undirected edge counted twice
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    adj: CsrMat,
}

impl Graph {
    /// Builds from an undirected edge list; duplicate and self-loop entries
    /// are coalesced/ignored respectively. Each row's neighbours come out
    /// sorted, with unit weights ([`sorted_rows`] over both orientations).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let pairs = edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .flat_map(|&(u, v)| [(u, v), (v, u)]);
        let (indptr, indices) = sorted_rows(0, n, pairs);
        let values = vec![1.0; indices.len()];
        Self {
            n,
            adj: CsrMat::from_parts(n, n, indptr, indices, values),
        }
    }

    /// Wraps an existing adjacency matrix: the tests' way to build a graph
    /// with self-loops or weights `from_edges` would drop.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    #[cfg(test)]
    pub(crate) fn from_adjacency(adj: CsrMat) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
        let n = adj.rows();
        Self { n, adj }
    }

    /// Number of nodes `n`.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Number of *directed* edges `m` (each undirected edge counted twice),
    /// matching the convention of Table 3 in the paper.
    pub fn directed_edges(&self) -> usize {
        self.adj.nnz()
    }

    /// The raw adjacency (no self-loops, unit weights).
    pub fn adjacency(&self) -> &CsrMat {
        &self.adj
    }

    /// Node degrees (neighbor counts, self-loops excluded).
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.n)
            .map(|r| self.adj.row(r).0.len() as u32)
            .collect()
    }

    /// Neighbor list of node `u`.
    pub fn neighbors(&self, u: usize) -> &[u32] {
        self.adj.row(u).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn undirected_edges_counted_twice() {
        let g = path3();
        assert_eq!(g.nodes(), 3);
        assert_eq!(g.directed_edges(), 4);
        assert_eq!(g.degrees(), vec![1, 2, 1]);
    }

    #[test]
    fn self_loops_and_duplicates_ignored() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 2)]);
        assert_eq!(g.directed_edges(), 2);
        assert_eq!(g.adjacency().get(0, 1), 1.0);
        assert_eq!(g.adjacency().get(2, 2), 0.0);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(4, &[(2, 3), (2, 0), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    /// The coordinate route `from_edges` took before the counting sort:
    /// both orientations as triplets, sorted and coalesced, weights reset
    /// to 1.
    fn coo_route(n: usize, edges: &[(u32, u32)]) -> CsrMat {
        let mut coo = crate::coo::Coo::new(n, n);
        for &(u, v) in edges.iter().filter(|(u, v)| u != v) {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
        let mut adj = coo.into_csr();
        adj.map_values(|_| 1.0);
        adj
    }

    #[test]
    fn arrays_hold_exactly_their_length() {
        let edges: Vec<(u32, u32)> = (0..5000u32).map(|i| (i % 97, (i * 31) % 89)).collect();
        let g = Graph::from_edges(100, &edges);
        let (indptr, indices, values) = g.adj.parts();
        assert_eq!(indptr.capacity(), 101);
        assert_eq!(indices.capacity(), g.directed_edges());
        assert_eq!(values.capacity(), g.directed_edges());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Duplicates, both orientations of one edge, self-loops and
        /// isolated nodes: the counting sort builds the coordinate route's
        /// matrix at every pool width, on the serial and the pooled sort.
        #[test]
        fn from_edges_matches_the_coo_route(
            n in 1usize..400,
            raw in proptest::collection::vec((0u32..400, 0u32..400), 0..3000),
            repeat in 0usize..40,
        ) {
            let mut edges: Vec<(u32, u32)> =
                raw.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect();
            let again: Vec<(u32, u32)> = edges.iter().take(repeat).map(|&(u, v)| (v, u)).collect();
            edges.extend(again);
            // Enough entries for the pooled sort; hubs on the low ids.
            let many: Vec<(u32, u32)> = edges
                .iter()
                .cycle()
                .take(if edges.is_empty() { 0 } else { super::PARALLEL_SORT_MIN })
                .map(|&(u, v)| (u / 4, v))
                .collect();
            let _l = sgnn_dense::pin::lock();
            for width in [1, 4] {
                let _t = sgnn_dense::pin::threads(width);
                for e in [&edges, &many] {
                    let g = Graph::from_edges(n, e);
                    proptest::prop_assert_eq!(g.adjacency(), &coo_route(n, e));
                }
            }
        }
    }
}
