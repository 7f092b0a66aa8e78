//! Generalized degree normalization and the propagation operator.
//!
//! Following Section 2.1 of the paper, the normalized adjacency is
//! `Ã = D̄^{ρ-1} Ā D̄^{-ρ}` where `Ā = A + I` (self-loops) and
//! `ρ ∈ [0, 1]` interpolates between row normalization (`ρ = 0`,
//! `D̄^{-1}Ā`... transposed conventions aside), the symmetric GCN
//! normalization (`ρ = 1/2`), and column normalization (`ρ = 1`). The
//! normalized Laplacian is `L̃ = I − Ã`, so *every* polynomial basis term
//! used by the 27 filters reduces to the affine primitive
//! `x ↦ a·Ã·x + b·x` exposed as [`PropMatrix::prop`].
//!
//! [`PropMatrix`] also carries the transposed operator (needed to
//! backpropagate through propagation when `ρ ≠ 1/2`) and can route
//! propagation through either the CSR ("SP") or the edge-list ("EI")
//! backend for the Table-6 comparison — or, via
//! [`PropMatrix::from_sharded`], through the out-of-core sharded kernel of
//! [`crate::shard`], which keeps only `O(n)` state resident: the stored
//! structure carries implied unit values, so `Ã`'s entries factor as
//! `row_scale[r] · col_scale[c]` and the streamed kernel recomputes them
//! per edge, bit-identical to the in-memory `scale_rows_cols` product.

use std::sync::Arc;

use crate::csr::CsrMat;
use crate::edgelist::EdgeList;
use crate::graph::Graph;
use crate::shard::ShardedCsr;
use sgnn_dense::DMat;

/// Which kernel executes propagation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// Compressed sparse rows — `O(m)` memory, the paper's "SP" backend.
    #[default]
    Csr,
    /// Gather/scatter over an edge list with an `m × F` message tensor —
    /// the paper's "EI" backend.
    EdgeList,
}

/// The concrete operator behind a [`PropMatrix`].
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // one per dataset; inline size is moot
enum Ops {
    /// Fully materialized `Ã` (and `Ãᵀ` when `ρ ≠ 1/2`).
    InMem {
        adj: CsrMat,
        adj_t: Option<CsrMat>,
        edges: Option<EdgeList>,
        backend: Backend,
    },
    /// Disk-resident structure; normalization weights factored into the
    /// two `O(n)` scale vectors and recomputed per edge while streaming.
    Sharded {
        csr: Arc<ShardedCsr>,
        row_scale: Arc<[f32]>,
        col_scale: Arc<[f32]>,
    },
}

/// The normalized propagation operator `Ã` of one graph.
///
/// ```
/// use sgnn_dense::DMat;
/// use sgnn_sparse::{Graph, PropMatrix};
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let pm = PropMatrix::new(&g, 0.5);          // symmetric normalization
/// let x = DMat::filled(3, 1, 1.0);
/// let lap = pm.prop(-1.0, 1.0, &x);           // L̃·x = x − Ã·x
/// assert!(lap.max_abs() < 0.5, "constant signals are near the kernel");
/// ```
#[derive(Clone, Debug)]
pub struct PropMatrix {
    ops: Ops,
}

/// `D̄^{ρ-1} Ā D̄^{-ρ}` of an already self-looped `Ā`, scaled in place.
fn normalized(base: CsrMat, rho: f32) -> CsrMat {
    // Degrees of Ā (weighted row sums; symmetric, so row == col degrees).
    let deg = base.row_sums();
    let row_scale: Vec<f32> = deg
        .iter()
        .map(|&d| if d > 0.0 { d.powf(rho - 1.0) } else { 0.0 })
        .collect();
    let col_scale: Vec<f32> = deg
        .iter()
        .map(|&d| if d > 0.0 { d.powf(-rho) } else { 0.0 })
        .collect();
    base.scale_rows_cols(&row_scale, &col_scale)
}

impl PropMatrix {
    /// Standard construction: self-loops on, CSR backend.
    pub fn new(graph: &Graph, rho: f32) -> Self {
        Self::with_options(graph, rho, true, Backend::Csr)
    }

    /// Full-control construction.
    pub fn with_options(graph: &Graph, rho: f32, self_loops: bool, backend: Backend) -> Self {
        assert!((0.0..=1.0).contains(&rho), "rho must lie in [0, 1]");
        let base = if self_loops {
            graph.adjacency().plus_identity()
        } else {
            graph.adjacency().clone()
        };
        let adj = normalized(base, rho);
        let symmetric = (rho - 0.5).abs() < 1e-9;
        let adj_t = if symmetric {
            None
        } else {
            Some(adj.transpose())
        };
        let edges = match backend {
            Backend::Csr => None,
            Backend::EdgeList => Some(EdgeList::from_csr(&adj)),
        };
        Self {
            ops: Ops::InMem {
                adj,
                adj_t,
                edges,
                backend,
            },
        }
    }

    /// Out-of-core construction over an opened shard file: the structure
    /// stays on disk, only the two `O(n)` scale vectors (plus the file's
    /// degree table and decode ring) are resident.
    ///
    /// Weights reproduce [`Self::with_options`] bit for bit: the in-memory
    /// degrees are serial f32 sums of exact unit values — equal to
    /// `(structural_degree + 1) as f32` for every degree below `2^24` —
    /// and `powf` on equal inputs yields equal bits, so the recomputed
    /// `row_scale[r] · col_scale[c]` matches the stored
    /// `1.0 · (row_scale[r] · col_scale[c])` exactly.
    ///
    /// Self-loops follow the file's decode mode
    /// (`ShardedCsr::add_diagonal`); the structure must be symmetric
    /// (recorded at write time) because one degree vector serves both
    /// scale directions and adjoint propagation swaps them.
    pub fn from_sharded(csr: Arc<ShardedCsr>, rho: f32) -> Self {
        assert!((0.0..=1.0).contains(&rho), "rho must lie in [0, 1]");
        assert!(
            csr.symmetric(),
            "sharded propagation requires a symmetric structure"
        );
        let loop_add: u32 = if csr.add_diagonal() { 1 } else { 0 };
        let max_deg = csr.degs().iter().copied().max().unwrap_or(0);
        assert!(
            (max_deg + loop_add) < (1 << 24),
            "degree too large for exact f32 normalization"
        );
        let scale = |exp: f32| -> Arc<[f32]> {
            csr.degs()
                .iter()
                .map(|&d| {
                    let d = (d + loop_add) as f32;
                    if d > 0.0 {
                        d.powf(exp)
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        let row_scale = scale(rho - 1.0);
        let col_scale = scale(-rho);
        Self {
            ops: Ops::Sharded {
                csr,
                row_scale,
                col_scale,
            },
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        match &self.ops {
            Ops::InMem { adj, .. } => adj.rows(),
            Ops::Sharded { csr, .. } => csr.n(),
        }
    }

    /// Stored edges of `Ã` (self-loops included when enabled).
    pub fn nnz(&self) -> usize {
        match &self.ops {
            Ops::InMem { adj, .. } => adj.nnz(),
            Ops::Sharded { csr, .. } => csr.nnz_decoded() as usize,
        }
    }

    /// Whether propagation streams from disk.
    pub fn is_sharded(&self) -> bool {
        matches!(self.ops, Ops::Sharded { .. })
    }

    /// Heap bytes of the stored operator(s). For the sharded operator this
    /// is the *resident* footprint (scales, degree table, decode ring) —
    /// the `O(m)` structure stays on disk.
    pub fn nbytes(&self) -> usize {
        match &self.ops {
            Ops::InMem {
                adj, adj_t, edges, ..
            } => {
                adj.nbytes()
                    + adj_t.as_ref().map_or(0, CsrMat::nbytes)
                    + edges.as_ref().map_or(0, EdgeList::nbytes)
            }
            Ops::Sharded { csr, .. } => csr.resident_bytes() + 2 * csr.n() * 4,
        }
    }

    /// The normalized adjacency `Ã`.
    ///
    /// # Panics
    ///
    /// For a sharded operator — the whole point is that `Ã` is never
    /// materialized. Callers that need entry access (spectra, validation,
    /// edge-list export) are in-memory-only paths.
    pub fn adj(&self) -> &CsrMat {
        match &self.ops {
            Ops::InMem { adj, .. } => adj,
            Ops::Sharded { .. } => {
                panic!("sharded operator has no in-memory adjacency; use prop* kernels")
            }
        }
    }

    #[cfg(test)]
    fn stores_transpose(&self) -> bool {
        matches!(&self.ops, Ops::InMem { adj_t: Some(_), .. })
    }

    /// `a·Ã·x + b·x` — one hop of propagation.
    ///
    /// Common instantiations: `Ãx` is `(1, 0)`; the Laplacian `L̃x = x − Ãx`
    /// is `(-1, 1)`; the GCN filter `(2I − L̃)x = x + Ãx` is `(1, 1)`.
    pub fn prop(&self, a: f32, b: f32, x: &DMat) -> DMat {
        match &self.ops {
            Ops::InMem {
                adj,
                edges,
                backend,
                ..
            } => match backend {
                Backend::Csr => adj.affine_spmm(a, b, x),
                Backend::EdgeList => {
                    let mut out = edges.as_ref().expect("edge backend").propagate(x);
                    out.scale(a);
                    if b != 0.0 {
                        out.axpy(b, x);
                    }
                    out
                }
            },
            Ops::Sharded { .. } => {
                let mut out = DMat::scratch(self.n(), x.cols());
                self.prop_into(a, b, x, &mut out);
                out
            }
        }
    }

    /// [`prop`](Self::prop) into a caller-provided buffer (fully
    /// overwritten) — the allocation-free hop used by the polynomial
    /// recurrences. The edge-list backend has no in-place kernel; it
    /// computes the hop and moves the result into `out`.
    pub fn prop_into(&self, a: f32, b: f32, x: &DMat, out: &mut DMat) {
        match &self.ops {
            Ops::InMem { adj, backend, .. } => match backend {
                Backend::Csr => adj.affine_spmm_into(a, b, x, out),
                Backend::EdgeList => *out = self.prop(a, b, x),
            },
            Ops::Sharded {
                csr,
                row_scale,
                col_scale,
            } => csr.fused_into(a, b, x, None, out, row_scale, col_scale),
        }
    }

    /// Fused three-term hop: `a·Ã·x + b·x + c·z` in one pass over the edges
    /// (the Chebyshev/Legendre/Jacobi recurrence step). Bit-identical to
    /// [`prop`](Self::prop) followed by `out.axpy(c, z)`.
    pub fn prop_axpy(&self, a: f32, b: f32, c: f32, x: &DMat, z: &DMat) -> DMat {
        let mut out = DMat::scratch(self.n(), x.cols());
        self.prop_axpy_into(a, b, c, x, z, &mut out);
        out
    }

    /// [`prop_axpy`](Self::prop_axpy) into a caller-provided buffer (fully
    /// overwritten): a recurrence writes each term over a retired one.
    pub fn prop_axpy_into(&self, a: f32, b: f32, c: f32, x: &DMat, z: &DMat, out: &mut DMat) {
        match &self.ops {
            Ops::InMem { adj, backend, .. } => match backend {
                Backend::Csr => adj.affine_spmm_axpy_into(a, b, c, x, z, out),
                Backend::EdgeList => {
                    *out = self.prop(a, b, x);
                    out.axpy(c, z);
                }
            },
            Ops::Sharded {
                csr,
                row_scale,
                col_scale,
            } => csr.fused_into(a, b, x, Some((c, z)), out, row_scale, col_scale),
        }
    }

    /// `a·Ãᵀ·x + b·x` — the adjoint hop used by backpropagation.
    ///
    /// For `ρ = 1/2` the operator is symmetric and this equals
    /// [`prop`](Self::prop). The sharded operator serves the adjoint from
    /// the same file by swapping the scale vectors: for a symmetric
    /// structure, `Ãᵀ[r][c] = row_scale[c] · col_scale[r]`, and f32
    /// multiplication is bitwise commutative — bit-identical to the
    /// in-memory transposed matrix.
    pub fn prop_t(&self, a: f32, b: f32, x: &DMat) -> DMat {
        match &self.ops {
            Ops::InMem { adj_t, .. } => match adj_t {
                None => self.prop(a, b, x),
                Some(t) => t.affine_spmm(a, b, x),
            },
            Ops::Sharded { .. } => {
                let mut out = DMat::scratch(self.n(), x.cols());
                self.prop_t_into(a, b, x, &mut out);
                out
            }
        }
    }

    /// [`prop_t`](Self::prop_t) into a caller-provided buffer.
    pub fn prop_t_into(&self, a: f32, b: f32, x: &DMat, out: &mut DMat) {
        match &self.ops {
            Ops::InMem { adj_t, .. } => match adj_t {
                None => self.prop_into(a, b, x, out),
                Some(t) => t.affine_spmm_into(a, b, x, out),
            },
            Ops::Sharded {
                csr,
                row_scale,
                col_scale,
            } => csr.fused_into(a, b, x, None, out, col_scale, row_scale),
        }
    }

    /// Adjoint counterpart of [`prop_axpy_into`](Self::prop_axpy_into).
    pub fn prop_t_axpy_into(&self, a: f32, b: f32, c: f32, x: &DMat, z: &DMat, out: &mut DMat) {
        match &self.ops {
            Ops::InMem { adj_t, .. } => match adj_t {
                None => self.prop_axpy_into(a, b, c, x, z, out),
                Some(t) => t.affine_spmm_axpy_into(a, b, c, x, z, out),
            },
            Ops::Sharded {
                csr,
                row_scale,
                col_scale,
            } => csr.fused_into(a, b, x, Some((c, z)), out, col_scale, row_scale),
        }
    }

    /// Per-propagation transient bytes of the backend (0 for CSR and the
    /// sharded ring, which is pinned and counted in [`Self::nbytes`]; the
    /// `m × F` message tensor for the edge-list backend).
    pub fn transient_bytes(&self, f: usize) -> usize {
        match &self.ops {
            Ops::InMem { edges, .. } => edges.as_ref().map_or(0, |e| e.message_bytes(f)),
            Ops::Sharded { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    /// The construction `plus_identity` replaced — every stored entry and
    /// the `n` diagonal triplets pushed through `Coo`, sorted and coalesced
    /// — kept as the oracle for the merged build.
    fn adj_via_coo(graph: &Graph, rho: f32) -> CsrMat {
        let n = graph.nodes();
        let mut coo = crate::coo::Coo::with_capacity(n, n, graph.adjacency().nnz() + n);
        for (r, c, v) in graph.adjacency().iter() {
            coo.push(r, c, v);
        }
        for i in 0..n as u32 {
            coo.push(i, i, 1.0);
        }
        normalized(coo.into_csr(), rho)
    }

    #[test]
    fn merged_self_loops_equal_the_sorted_coo_route() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        // Sparse enough that some of the 300 nodes stay isolated.
        let edges: Vec<(u32, u32)> = (0..400)
            .map(|_| (rng.random_range(0..300), rng.random_range(0..300)))
            .collect();
        let random = Graph::from_edges(300, &edges);
        assert!(random.degrees().contains(&0), "want an isolated node");
        // Weighted, with stored diagonal entries on some rows (first, middle
        // and last position of a row) and an empty row.
        let mut coo = crate::coo::Coo::new(5, 5);
        for &(r, c, v) in &[
            (0, 0, 0.5),
            (0, 3, 2.0),
            (1, 0, 1.5),
            (1, 1, -1.0),
            (1, 4, 0.25),
            (3, 0, 2.0),
            (3, 3, 3.0),
            (4, 1, 0.25),
        ] {
            coo.push(r, c, v);
        }
        let looped = Graph::from_adjacency(coo.into_csr());
        for g in [&path4(), &random, &looped] {
            for rho in [0.0f32, 0.5, 0.8, 1.0] {
                let pm = PropMatrix::new(g, rho);
                assert_eq!(pm.adj(), &adj_via_coo(g, rho), "rho {rho}");
            }
        }
    }

    #[test]
    fn symmetric_normalization_rows() {
        let p = PropMatrix::new(&path4(), 0.5);
        // Node 0 has self-looped degree 2, node 1 degree 3.
        let want = 1.0 / (2.0f32 * 3.0).sqrt();
        assert!((p.adj().get(0, 1) - want).abs() < 1e-6);
        assert!((p.adj().get(0, 0) - 0.5).abs() < 1e-6);
        assert!(!p.stores_transpose(), "rho=1/2 must not store a transpose");
    }

    #[test]
    fn row_normalization_sums_to_one() {
        let p = PropMatrix::with_options(&path4(), 1.0, true, Backend::Csr);
        // rho = 1: Ã = D̄^0 Ā D̄^{-1}; columns sum to 1.
        let col_sums: Vec<f32> = (0..4)
            .map(|c| (0..4).map(|r| p.adj().get(r, c)).sum())
            .collect();
        for s in col_sums {
            assert!((s - 1.0).abs() < 1e-6, "col sum {s}");
        }
        // rho = 0: rows sum to 1.
        let p0 = PropMatrix::with_options(&path4(), 0.0, true, Backend::Csr);
        for r in 0..4 {
            let s: f32 = (0..4).map(|c| p0.adj().get(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-6, "row sum {s}");
        }
    }

    #[test]
    fn laplacian_annihilates_constant_for_row_norm() {
        // With rho = 0, Ã·1 = 1, so L̃·1 = 0.
        let p = PropMatrix::with_options(&path4(), 0.0, true, Backend::Csr);
        let ones = DMat::filled(4, 1, 1.0);
        let lx = p.prop(-1.0, 1.0, &ones);
        assert!(lx.max_abs() < 1e-6);
    }

    #[test]
    fn transpose_propagation_consistent() {
        let p = PropMatrix::with_options(&path4(), 0.8, true, Backend::Csr);
        let x = DMat::from_fn(4, 2, |r, c| (r + 2 * c) as f32);
        let y = DMat::from_fn(4, 2, |r, c| (3 * r + c) as f32 * 0.5);
        // ⟨Ãx, y⟩ must equal ⟨x, Ãᵀy⟩.
        let lhs = p.prop(1.0, 0.0, &x).dot(&y);
        let rhs = x.dot(&p.prop_t(1.0, 0.0, &y));
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn backends_agree() {
        let g = path4();
        let sp = PropMatrix::with_options(&g, 0.5, true, Backend::Csr);
        let ei = PropMatrix::with_options(&g, 0.5, true, Backend::EdgeList);
        let x = DMat::from_fn(4, 3, |r, c| (r * 3 + c) as f32 - 5.0);
        let a = sp.prop(-1.0, 1.0, &x);
        let b = ei.prop(-1.0, 1.0, &x);
        for (u, v) in a.data().iter().zip(b.data()) {
            assert!((u - v).abs() < 1e-5);
        }
        assert!(ei.transient_bytes(3) > 0);
        assert_eq!(sp.transient_bytes(3), 0);
    }

    #[test]
    fn laplacian_spectrum_within_bounds() {
        // Eigenvalues of L̃ (with self-loops, rho=1/2) must lie in [0, 2].
        use sgnn_dense::eigen::sym_eigen;
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let p = PropMatrix::new(&g, 0.5);
        let n = 6;
        let mut dense = DMat::zeros(n, n);
        for (r, c, v) in p.adj().iter() {
            dense.set(r as usize, c as usize, -v);
        }
        for i in 0..n {
            dense.set(i, i, dense.get(i, i) + 1.0);
        }
        let e = sym_eigen(&dense);
        assert!(e.values[0] > -1e-5, "λ_min = {}", e.values[0]);
        assert!(*e.values.last().unwrap() < 2.0 + 1e-5);
    }

    /// End-to-end bit-identity of the full out-of-core path: write shards,
    /// reopen, and compare every propagation flavor against the in-memory
    /// operator — exact equality, not tolerance.
    #[test]
    fn sharded_propagation_is_bit_identical_to_in_memory() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let n = 257;
        let mut rng = SmallRng::seed_from_u64(42);
        let edges: Vec<(u32, u32)> = (0..900)
            .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
            .collect();
        let g = Graph::from_edges(n, &edges);
        let mut path = std::env::temp_dir();
        path.push(format!("sgnn-normalize-shard-{}", std::process::id()));
        crate::shard::write_shards_from_csr(g.adjacency(), &path, 200, true).unwrap();
        let x = DMat::from_fn(n, 5, |r, c| ((r * 5 + c) as f32 * 0.173).sin());
        let z = DMat::from_fn(n, 5, |r, c| ((r + 11 * c) as f32 * 0.071).cos());
        for rho in [0.5f32, 0.8, 0.0] {
            let mem = PropMatrix::new(&g, rho);
            let ooc =
                PropMatrix::from_sharded(Arc::new(ShardedCsr::open(&path, true).unwrap()), rho);
            assert_eq!(mem.nnz(), ooc.nnz(), "rho {rho}");
            assert_eq!(
                mem.prop(1.0, 0.0, &x).data(),
                ooc.prop(1.0, 0.0, &x).data(),
                "prop at rho {rho}"
            );
            assert_eq!(
                mem.prop_axpy(-2.0, 0.5, -1.0, &x, &z).data(),
                ooc.prop_axpy(-2.0, 0.5, -1.0, &x, &z).data(),
                "prop_axpy at rho {rho}"
            );
            assert_eq!(
                mem.prop_t(-1.0, 1.0, &x).data(),
                ooc.prop_t(-1.0, 1.0, &x).data(),
                "prop_t at rho {rho}"
            );
            let t_axpy = |pm: &PropMatrix| {
                let mut out = DMat::zeros(n, 5);
                pm.prop_t_axpy_into(0.7, 0.0, 2.0, &x, &z, &mut out);
                out
            };
            assert_eq!(
                t_axpy(&mem).data(),
                t_axpy(&ooc).data(),
                "prop_t_axpy_into at rho {rho}"
            );
            let mut a = DMat::zeros(n, 5);
            let mut b = DMat::zeros(n, 5);
            mem.prop_into(-1.0, 1.0, &x, &mut a);
            ooc.prop_into(-1.0, 1.0, &x, &mut b);
            assert_eq!(a.data(), b.data(), "prop_into at rho {rho}");
            assert!(ooc.is_sharded() && !mem.is_sharded());
            assert!(
                ooc.nbytes() < mem.nbytes(),
                "resident footprint must undercut the materialized operator"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Every `_into` hop overwrites all of its output: on either operator, a
    /// buffer pre-filled with NaN comes back with the in-memory result's
    /// bits, so the returning forms may start from `DMat::scratch`.
    #[test]
    fn into_hops_overwrite_a_nan_filled_output() {
        let n = 97;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i * 7 + 3) % n as u32)).collect();
        let g = Graph::from_edges(n, &edges);
        let mut path = std::env::temp_dir();
        path.push(format!("sgnn-normalize-nan-{}", std::process::id()));
        crate::shard::write_shards_from_csr(g.adjacency(), &path, 40, true).unwrap();
        let x = DMat::from_fn(n, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin());
        let z = DMat::from_fn(n, 3, |r, c| ((r + 5 * c) as f32 * 0.11).cos());
        let mem = PropMatrix::new(&g, 0.8);
        let ooc = PropMatrix::from_sharded(Arc::new(ShardedCsr::open(&path, true).unwrap()), 0.8);
        let bits = |m: &DMat| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // The four `_into` hops, each into a buffer filled with `fill`.
        let hops = |pm: &PropMatrix, fill: f32| {
            let mut out = std::array::from_fn::<_, 4, _>(|_| DMat::filled(n, 3, fill));
            pm.prop_into(-1.0, 0.5, &x, &mut out[0]);
            pm.prop_t_into(-1.0, 0.5, &x, &mut out[1]);
            pm.prop_axpy_into(-2.0, 0.5, -1.0, &x, &z, &mut out[2]);
            pm.prop_t_axpy_into(-2.0, 0.5, -1.0, &x, &z, &mut out[3]);
            out
        };
        let want = hops(&mem, 0.0);
        for pm in [&mem, &ooc] {
            let sharded = pm.is_sharded();
            for (i, (g, w)) in hops(pm, f32::NAN).iter().zip(&want).enumerate() {
                assert_eq!(bits(g), bits(w), "hop {i}, sharded {sharded}");
            }
            let returned = [
                pm.prop(-1.0, 0.5, &x),
                pm.prop_t(-1.0, 0.5, &x),
                pm.prop_axpy(-2.0, 0.5, -1.0, &x, &z),
            ];
            for (i, (r, w)) in returned.iter().zip(&want).enumerate() {
                assert_eq!(bits(r), bits(w), "returning hop {i}, sharded {sharded}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "no in-memory adjacency")]
    fn sharded_adj_access_panics_clearly() {
        let g = path4();
        let mut path = std::env::temp_dir();
        path.push(format!("sgnn-normalize-adjpanic-{}", std::process::id()));
        crate::shard::write_shards_from_csr(g.adjacency(), &path, 0, true).unwrap();
        let pm = PropMatrix::from_sharded(Arc::new(ShardedCsr::open(&path, true).unwrap()), 0.5);
        std::fs::remove_file(&path).unwrap();
        let _ = pm.adj();
    }
}
