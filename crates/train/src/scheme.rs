//! The paper's two learning schemes as one value, and the one entry that
//! trains the decoupled model under either: [`Scheme::try_train`], returning
//! a [`Trained`].

use std::sync::Arc;

use sgnn_autograd::ParamStore;
use sgnn_core::SpectralFilter;
use sgnn_data::Dataset;
use sgnn_dense::DMat;
use sgnn_models::decoupled::DecoupledModel;
use sgnn_sparse::PropMatrix;

use crate::checkpoint::Snapshot;
use crate::config::{TrainConfig, TrainReport};
use crate::error::TrainError;
use crate::{full_batch, mini_batch};

/// A learning scheme of Figure 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Everything on the device tape, every epoch: Figure 1(a).
    FullBatch,
    /// Precompute the filter's basis terms once, then train on gathered
    /// batch rows: Figure 1(b).
    MiniBatch,
}

impl Scheme {
    /// Both schemes, in the order the paper's figures list them.
    pub const ALL: [Scheme; 2] = [Scheme::FullBatch, Scheme::MiniBatch];

    /// The two-letter tag tables print and [`TrainReport::scheme`], run
    /// stores and checkpoints record: `"FB"` or `"MB"`.
    pub fn tag(self) -> &'static str {
        match self {
            Scheme::FullBatch => "FB",
            Scheme::MiniBatch => "MB",
        }
    }

    /// Whether the scheme can train `filter` (Table 10 omits the
    /// iterative-only designs).
    pub fn supports(self, filter: &dyn SpectralFilter) -> bool {
        match self {
            Scheme::FullBatch => true,
            Scheme::MiniBatch => filter.mb_compatible(),
        }
    }

    /// The registered filters the scheme [`supports`](Scheme::supports).
    pub fn filter_names(self) -> Vec<&'static str> {
        let mut names = sgnn_core::all_filter_names();
        names.retain(|n| self.supports(sgnn_core::make_filter(n, 2).expect("registered").as_ref()));
        names
    }

    /// Trains one filter on one dataset under this scheme.
    ///
    /// The graph operator is `op`, or `data.graph` normalised at
    /// [`TrainConfig::rho`] when `op` is `None`. A caller-supplied operator
    /// may be a [`PropMatrix::from_sharded`] streaming one: the mini-batch
    /// scheme then never touches `data.graph` (typically an edgeless
    /// placeholder from [`sgnn_data::generate_sharded`]) and precomputes in
    /// the operator's bounded resident footprint.
    ///
    /// A non-finite loss or an expired [`TrainConfig::time_budget_s`]
    /// returns a typed [`TrainError`] instead of poisoning the run.
    ///
    /// # Panics
    /// Under [`Scheme::MiniBatch`], if `filter` is an iterative-only design
    /// (see [`Scheme::supports`] and Table 10 of the paper).
    pub fn try_train(
        self,
        filter: Arc<dyn SpectralFilter>,
        data: &Dataset,
        op: Option<Arc<PropMatrix>>,
        cfg: &TrainConfig,
    ) -> Result<Trained, TrainError> {
        let op = op.unwrap_or_else(|| Arc::new(PropMatrix::new(&data.graph, cfg.rho)));
        match self {
            Scheme::FullBatch => full_batch::train(filter, op, data, cfg),
            Scheme::MiniBatch => mini_batch::train(filter, &op, data, cfg),
        }
    }

    /// Infallible [`Scheme::try_train`] for call sites outside the cell
    /// runner; panics on divergence/timeout.
    pub fn train(
        self,
        filter: Arc<dyn SpectralFilter>,
        data: &Dataset,
        op: Option<Arc<PropMatrix>>,
        cfg: &TrainConfig,
    ) -> Trained {
        self.try_train(filter, data, op, cfg)
            .unwrap_or_else(|e| panic!("{} training: {e}", self.tag()))
    }
}

/// Everything a training run leaves behind: the report, the trained model
/// and its parameters, the mini-batch scheme's precomputed terms and a
/// final-state snapshot. `sgnn-serve` exports the snapshot (in the
/// `SGNNCKPT` codec) with the terms as its serving artifacts.
pub struct Trained {
    pub report: TrainReport,
    /// The model bound to the parameter handles in `store`.
    pub model: DecoupledModel,
    /// Final trained parameter values.
    pub store: ParamStore,
    /// Mini-batch: the precomputed propagated terms, `channels × terms`,
    /// each `n × F`. Empty under full-batch.
    pub terms: Vec<Vec<DMat>>,
    /// Final-state snapshot (status
    /// [`SnapshotStatus::Periodic`](crate::SnapshotStatus::Periodic));
    /// `seed`/`config_tag` pair it with a terms artifact exported from the
    /// same run.
    pub snapshot: Snapshot,
    /// How the scheme's own inference pass reaches every node.
    pub(crate) infer: Infer,
}

/// The input of a scheme's evaluation-mode pass beside the model.
pub(crate) enum Infer {
    /// Full-batch: the graph operator the model propagates over.
    Graph(Arc<PropMatrix>),
    /// Mini-batch: `terms` in consecutive-node batches of this size.
    Batches(usize),
}

impl Trained {
    /// Evaluation-mode logits of every node of `data` (the dataset the run
    /// trained on), through the scheme's own inference pass — the pass
    /// the run's final metric was read from, bit for bit.
    pub fn logits(&self, data: &Dataset) -> DMat {
        match &self.infer {
            Infer::Graph(op) => full_batch::infer(&self.model, op, data, &self.store),
            Infer::Batches(batch_size) => mini_batch::infer(
                &self.model,
                &self.terms,
                data.nodes(),
                *batch_size,
                &self.store,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_sets_match_tables_5_and_10() {
        assert_eq!(Scheme::FullBatch.filter_names().len(), 27);
        assert_eq!(Scheme::MiniBatch.filter_names().len(), 21);
    }
}
