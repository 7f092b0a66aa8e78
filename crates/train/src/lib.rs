//! Learning schemes, trainers, and efficiency instrumentation.
//!
//! This crate drives the paper's two learning pipelines end-to-end. Both are
//! steps of one crate-private epoch driver (resume, guard, early stopping,
//! checkpoints, final inference, report); [`Scheme`] names them as a value:
//!
//! * [`full_batch`] — everything (graph operator, activations, gradients) on
//!   the device tape, matching Figure 1(a); its graph step also trains the
//!   Table 6 baselines ([`full_batch::try_train_graph_model`]),
//! * [`mini_batch`] — the decoupled scheme of Figure 1(b): a timed CPU
//!   precomputation stage materializes the filter's basis terms into RAM,
//!   then training touches only gathered batch rows,
//! * [`regression`] — the Table-7 spectral signal-fitting task,
//! * [`metrics`] — accuracy, ROC AUC, F1, and R²,
//! * [`memory`] — the two-tier memory model (tracking allocator for RAM,
//!   tape residency for device memory) substituting for the paper's
//!   GPU/host split,
//! * [`timer`] — per-stage wall-clock aggregation,
//! * [`hardware`] — the thread/device-speed scaling used to reproduce the
//!   Figure-5 hardware-sensitivity study.

pub mod checkpoint;
pub mod config;
mod driver;
pub mod error;
pub mod full_batch;
pub mod hardware;
pub mod memory;
pub mod metrics;
pub mod mini_batch;
pub mod regression;
pub mod scheme;
pub mod timer;

pub use checkpoint::{peek_resumable, Checkpointer, CkptError, Snapshot, SnapshotStatus};
pub use config::{TrainConfig, TrainReport};
pub use error::{Killed, TrainError};
pub use full_batch::{train_full_batch, try_train_full_batch};
pub use mini_batch::{
    infer_mb, train_mini_batch, try_train_mini_batch, try_train_mini_batch_trained,
    try_train_mini_batch_with, MbTrained,
};
pub use scheme::Scheme;
