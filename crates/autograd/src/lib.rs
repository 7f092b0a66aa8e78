//! Tape-based reverse-mode automatic differentiation.
//!
//! There is no GPU tensor library in this reproduction, so model training is
//! driven by a small define-by-run autograd engine over [`sgnn_dense::DMat`]:
//!
//! * [`param::ParamStore`] — named parameters with gradients and per-group
//!   hyperparameters (the paper tunes learning rate / weight decay separately
//!   for network weights `φ` and filter parameters `θ, γ` — Table 4),
//! * [`tape::Tape`] — an eagerly-evaluated operation tape with a fixed op
//!   vocabulary (matmul, a dense-layer node with its bias, ReLU and
//!   dropout, activations, sparse propagation, gather, linear combination,
//!   losses) plus a [`custom::CustomOp`] extension point used by the filter
//!   operator in `sgnn-core`,
//! * [`optim`] — Adam with parameter groups,
//! * [`gradcheck`] — finite-difference gradient verification used throughout
//!   the test suite.
//!
//! The tape doubles as the benchmark's **device-memory model**: everything
//! resident on a tape during a training step (activations, gradients,
//! parameters, optimizer state) is what a GPU implementation would hold in
//! device memory, and [`tape::Tape::resident_bytes`] reports exactly that —
//! a dense layer as the `matmul → add_bias → relu → dropout` nodes such an
//! implementation records, though this tape keeps it as one node.

mod custom;
pub mod gradcheck;
pub mod optim;
pub mod param;
mod tape;

pub use custom::CustomOp;
pub use optim::{clip_global_norm, Adam, AdamState, Optimizer};
pub use param::{ParamGroup, ParamId, ParamStore};
pub use tape::{NodeId, Tape};
