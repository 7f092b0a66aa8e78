//! Learning schemes, trainers, and efficiency instrumentation.
//!
//! This crate drives the paper's two learning pipelines end-to-end. Both are
//! steps of one crate-private epoch driver (resume, guard, early stopping,
//! checkpoints, final inference, report); [`Scheme`] names them as a value,
//! and [`Scheme::try_train`] is the one entry that trains the decoupled
//! model under either, returning a [`Trained`]:
//!
//! * full-batch — everything (graph operator, activations, gradients) on
//!   the device tape, matching Figure 1(a); its graph step also trains the
//!   Table 6 baselines ([`try_train_graph_model`]),
//! * mini-batch — the decoupled scheme of Figure 1(b): a timed CPU
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
mod config;
mod driver;
mod error;
mod full_batch;
pub mod hardware;
pub mod memory;
pub mod metrics;
mod mini_batch;
pub mod regression;
mod scheme;
pub mod timer;

pub use checkpoint::{peek_resumable, CkptError, Snapshot, SnapshotStatus};
pub use config::{TrainConfig, TrainReport};
pub use error::{Killed, TrainError};
pub use full_batch::{try_train_graph_model, GraphModel};
pub use scheme::{Scheme, Trained};

use std::sync::Arc;

use sgnn_core::SpectralFilter;
use sgnn_data::Dataset;

/// [`Scheme::FullBatch`]'s [`Scheme::try_train`], report only. Kept for the
/// frozen benchmark crate; deleted when ROADMAP item 7 thaws it.
pub fn try_train_full_batch(
    filter: Arc<dyn SpectralFilter>,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    Scheme::FullBatch
        .try_train(filter, data, None, cfg)
        .map(|t| t.report)
}

/// [`Scheme::MiniBatch`]'s [`Scheme::try_train`], report only. Kept for the
/// frozen benchmark crate; deleted when ROADMAP item 7 thaws it.
pub fn try_train_mini_batch(
    filter: Arc<dyn SpectralFilter>,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    Scheme::MiniBatch
        .try_train(filter, data, None, cfg)
        .map(|t| t.report)
}

/// [`Scheme::MiniBatch`]'s [`Scheme::try_train`]. Kept for the frozen
/// benchmark crate; deleted when ROADMAP item 7 thaws it.
pub fn try_train_mini_batch_trained(
    filter: Arc<dyn SpectralFilter>,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Result<Trained, TrainError> {
    Scheme::MiniBatch.try_train(filter, data, None, cfg)
}
