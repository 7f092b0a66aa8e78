//! Undirected attributed-graph container.
//!
//! `Graph` stores the raw (unnormalized, self-loop-free) adjacency structure;
//! normalization and Laplacian construction live in [`crate::normalize`] so
//! the same graph can be re-normalized with different `ρ` (the Figure-10
//! experiment sweeps `ρ ∈ [0, 1]`).

use crate::coo::Coo;
use crate::csr::CsrMat;

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
    /// are coalesced/ignored respectively.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut coo = Coo::with_capacity(n, n, edges.len() * 2);
        for &(u, v) in edges {
            if u != v {
                coo.push_sym(u, v, 1.0);
            }
        }
        let mut adj = coo.into_csr();
        // Coalescing sums duplicate undirected edges; clamp back to simple graph.
        adj.map_values(|_| 1.0);
        Self { n, adj }
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
}
