//! Sparse graph substrate for the spectral GNN benchmark.
//!
//! Spectral filters never materialize dense graph operators: every basis term
//! `T^(k)(L̃)·X` is computed by repeated sparse-matrix × dense-matrix products
//! (*propagation* in the paper's terminology, `O(mF)` per hop). This crate
//! provides:
//!
//! * [`coo::Coo`] — an edge-triplet builder with symmetrization and dedup,
//! * [`csr::CsrMat`] — compressed sparse rows with a parallel SpMM kernel
//!   (the paper's efficient `torch.sparse`-style "SP" backend),
//! * [`edgelist::EdgeList`] — a gather/scatter message-passing backend that
//!   materializes per-edge messages (the PyG `EdgeIndex`-style "EI" backend
//!   compared in Table 6),
//! * [`plan::SpmmPlan`] — nnz-balanced row partitions that keep SpMM
//!   load-balanced on power-law graphs (bit-identical outputs),
//! * [`graph::Graph`] — an undirected graph with degree utilities,
//! * [`normalize::PropMatrix`] — the generalized normalized adjacency
//!   `Ã = D̄^{ρ-1} Ā D̄^{-ρ}` together with the affine propagation
//!   `x ↦ a·Ã·x + b·x` every polynomial basis reduces to,
//! * [`shard`] — an out-of-core sharded CSR (varint-compressed shards
//!   streamed through a pinned decode ring) so paper-scale graphs propagate
//!   in bounded RAM, bit-identical to the in-memory kernel,
//! * [`stats`] — homophily scores, degree distributions, and degree buckets.

pub mod coo;
pub mod csr;
pub mod edgelist;
pub mod graph;
pub mod normalize;
pub mod plan;
pub mod shard;
pub mod stats;
pub mod validate;

pub use csr::CsrMat;
pub use graph::Graph;
pub use normalize::{Backend, PropMatrix};
pub use plan::SpmmPlan;
pub use shard::{ShardError, ShardWriter, ShardedCsr};
