//! Sparse graph substrate for the spectral GNN benchmark.
//!
//! Spectral filters never materialize dense graph operators: every basis term
//! `T^(k)(L̃)·X` is computed by repeated sparse-matrix × dense-matrix products
//! (*propagation* in the paper's terminology, `O(mF)` per hop). This crate
//! provides:
//!
//! * [`coo::Coo`] — a triplet builder that sums duplicates, the tests'
//!   reference construction,
//! * [`csr::CsrMat`] — compressed sparse rows with a parallel SpMM kernel
//!   (the paper's efficient `torch.sparse`-style "SP" backend),
//! * `edgelist::EdgeList` — a gather/scatter message-passing backend that
//!   materializes per-edge messages (the PyG `EdgeIndex`-style "EI" backend
//!   compared in Table 6),
//! * [`plan::SpmmPlan`] — nnz-balanced row partitions that keep SpMM
//!   load-balanced on power-law graphs (bit-identical outputs),
//! * [`graph::Graph`] — an undirected graph with degree utilities, built
//!   by the counting-sort [`sorted_rows`],
//! * [`normalize::PropMatrix`] — the generalized normalized adjacency
//!   `Ã = D̄^{ρ-1} Ā D̄^{-ρ}` together with the one hop every polynomial
//!   basis reduces to, `x ↦ a·Ã·x + b·x [+ c·z]` forward or adjoint
//!   ([`PropMatrix::hop_into`]),
//! * [`shard`] — an out-of-core sharded CSR (varint-compressed shards
//!   streamed through a pinned decode ring) so paper-scale graphs propagate
//!   in bounded RAM, bit-identical to the in-memory kernel,
//! * [`stats`] — homophily scores, degree distributions, and degree buckets.

pub mod coo;
mod csr;
mod edgelist;
mod graph;
mod normalize;
mod plan;
pub mod shard;
pub mod stats;
pub mod validate;

pub use csr::CsrMat;
pub use graph::{sorted_rows, Graph};
pub use normalize::{Backend, Dir, PropMatrix};
pub use plan::SpmmPlan;
pub use shard::{ShardError, ShardWriter, ShardedCsr};
