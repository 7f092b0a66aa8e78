//! Umbrella crate re-exporting the spectral GNN benchmark stack. The
//! README below is its documentation; its Rust quickstart is a doctest.
#![doc = include_str!("../README.md")]
pub use sgnn_analysis as analysis;
pub use sgnn_autograd as autograd;
pub use sgnn_core as core;
pub use sgnn_data as data;
pub use sgnn_dense as dense;
pub use sgnn_models as models;
pub use sgnn_sparse as sparse;
pub use sgnn_train as train;
