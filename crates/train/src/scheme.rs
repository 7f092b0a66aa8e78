//! The paper's two learning schemes as one value, for callers that sweep
//! both.

use std::sync::Arc;

use sgnn_core::SpectralFilter;
use sgnn_data::Dataset;

use crate::config::{TrainConfig, TrainReport};
use crate::error::TrainError;

/// A learning scheme of Figure 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Everything on the device tape, every epoch ([`crate::full_batch`]).
    FullBatch,
    /// Precompute once, then train on gathered batch rows
    /// ([`crate::mini_batch`]).
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

    /// Predicts the device-memory-model bytes of one training step *before*
    /// running it, so a harness can mark OOM rows (as the paper's Tables 5/9
    /// do) instead of exhausting the machine. `None` when the scheme's
    /// device memory does not grow with the graph (mini-batch: it is
    /// proportional to the batch).
    ///
    /// Accounts for the graph operator, input attributes, the filter's saved
    /// basis terms, MLP activations/gradients, and parameters — the same
    /// items [`crate::memory::DeviceMeter`] measures.
    pub fn device_estimate(
        self,
        filter: &dyn SpectralFilter,
        data: &Dataset,
        hidden: usize,
    ) -> Option<usize> {
        if self == Scheme::MiniBatch {
            return None;
        }
        let (n, m_directed) = (data.nodes(), data.edges());
        let (f_in, classes) = (data.features.cols(), data.num_classes);
        let spec = filter.spec(hidden);
        let terms = spec.total_terms().max(1);
        let f32b = 4usize;
        let graph = (m_directed + n) * 12; // CSR indptr + indices + values
        let input = n * f_in * f32b;
        // φ0 output + grad, saved filter terms, filter output + grad, logits.
        let activations = n * hidden * f32b * (2 + terms + 2) + n * classes * f32b * 2;
        let params = (f_in * hidden + hidden * classes + terms) * f32b * 4; // value+grad+Adam m,v
        Some((graph + input + activations + params) * 13 / 10)
    }

    /// Trains one filter on one dataset under this scheme.
    pub fn try_train(
        self,
        filter: Arc<dyn SpectralFilter>,
        data: &Dataset,
        cfg: &TrainConfig,
    ) -> Result<TrainReport, TrainError> {
        match self {
            Scheme::FullBatch => crate::try_train_full_batch(filter, data, cfg),
            Scheme::MiniBatch => crate::try_train_mini_batch(filter, data, cfg),
        }
    }

    /// Infallible [`Scheme::try_train`] for call sites outside the cell
    /// runner; panics on divergence/timeout.
    pub fn train(
        self,
        filter: Arc<dyn SpectralFilter>,
        data: &Dataset,
        cfg: &TrainConfig,
    ) -> TrainReport {
        self.try_train(filter, data, cfg)
            .unwrap_or_else(|e| panic!("{} training: {e}", self.tag()))
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
