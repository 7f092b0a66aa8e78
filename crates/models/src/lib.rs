//! Model zoo for the spectral GNN benchmark.
//!
//! * `mlp` — the transformation stacks `φ0` / `φ1` (linear layers, ReLU,
//!   dropout) shared by all decoupled models,
//! * [`decoupled`] — the paper's main architecture
//!   `φ1(g(L̃)·φ0(X))`: any of the 27 filters plugged between two MLPs,
//!   with both full-batch and mini-batch forward paths,
//! * [`baselines`] — the iterative message-passing models of Table 6 (GCN,
//!   GraphSAGE-mean, ChebNet), runnable on both the CSR
//!   ("SP") and the edge-list ("EI") propagation backends,
//! * [`transformer`] — lightweight graph transformers for Table 6:
//!   NAGphormer-lite (hop2token + per-node hop attention) and GtSample (an
//!   ANS-GT stand-in with sampled global attention),
//! * [`linkpred`] — the Hadamard-MLP link-prediction head of Section 6.1.2.

pub mod baselines;
pub mod decoupled;
pub mod linkpred;
mod mlp;
pub mod transformer;
