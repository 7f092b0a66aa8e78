//! Full-batch training (Figure 1(a) of the paper).
//!
//! The whole attributed graph lives on the device for every step: the model
//! is `φ1(g(L̃)·φ0(X))` with `φ0 = φ1 = 1` linear layer (Table 4), trained
//! with Adam over separate network/filter parameter groups. Its device
//! memory ([`crate::memory::device`]) holds `O(nF)` activations beside the
//! graph operator: the shape of Table 9 (OOM of heavy variable filters at
//! scale) follows directly.

use std::sync::Arc;

use sgnn_autograd::{NodeId, ParamStore, Tape};
use sgnn_core::SpectralFilter;
use sgnn_data::{Dataset, Metric};
use sgnn_dense::DMat;
use sgnn_models::decoupled::{DecoupledConfig, DecoupledModel};
use sgnn_sparse::PropMatrix;

use crate::checkpoint::{Snapshot, SnapshotStatus};
use crate::config::{TrainConfig, TrainReport};
use crate::driver::{self, Learner, Step};
use crate::error::TrainError;
use crate::memory::{self, StepShape};
use crate::metrics::{accuracy, binary_scores, roc_auc};
use crate::scheme::{Infer, Scheme, Trained};
use crate::timer::StageTimer;

/// Evaluates a logits matrix under the dataset's metric.
pub(crate) fn evaluate(logits: &DMat, data: &Dataset, idx: &[u32]) -> f64 {
    match data.metric {
        Metric::Accuracy => accuracy(logits, &data.labels, idx),
        Metric::RocAuc => roc_auc(&binary_scores(logits), &data.labels, idx),
    }
}

/// Trains one filter on one dataset with the full-batch scheme over `pm`.
pub(crate) fn train(
    filter: Arc<dyn SpectralFilter>,
    pm: Arc<PropMatrix>,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Result<Trained, TrainError> {
    let name = filter.name().to_string();
    let step = StepShape::decoupled(Scheme::FullBatch, filter.as_ref(), data, &pm, cfg);
    let device_bytes = memory::device(&step).total();
    let (model, mut store, rng) = driver::decoupled(filter, DecoupledConfig::full_batch, data, cfg);
    let train_idx = Arc::new(data.splits.train.clone());
    let graph_model = GraphModel {
        name: &name,
        tag: Scheme::FullBatch.tag(),
        train_logits: &|tape, store| {
            let x = tape.constant(data.features.clone());
            let logits = model.forward_fb(tape, &pm, x, store);
            tape.gather_rows(logits, Arc::clone(&train_idx))
        },
        infer: &|store| infer(&model, &pm, data, store),
        // The RNG is only consumed during model initialization.
        rng_state: rng.state(),
        tape_seed: cfg.seed.wrapping_mul(7919),
        device_bytes,
        ram_bytes: pm.nbytes() + data.features.nbytes(),
        hops: model.filter.filter().hops(),
    };
    let (report, snapshot) = train_graph(graph_model, &mut store, data, cfg)?;
    Ok(Trained {
        report,
        model,
        store,
        terms: Vec::new(),
        snapshot,
        infer: Infer::Graph(pm),
    })
}

/// A model trained with one step over the whole graph per epoch — forward,
/// training-row logits, softmax cross-entropy, backward, optimizer step —
/// as the full-batch scheme and the Table 6 baselines are.
pub struct GraphModel<'a> {
    /// [`TrainReport::filter`].
    pub name: &'a str,
    /// [`TrainReport::scheme`]; with the config it keys the run's
    /// checkpoints.
    pub tag: &'a str,
    /// Training-mode logits of the training rows, in split order.
    pub train_logits: &'a dyn Fn(&mut Tape, &ParamStore) -> NodeId,
    /// Evaluation-mode logits of every node.
    pub infer: &'a dyn Fn(&ParamStore) -> DMat,
    /// RNG state after initialization (what a snapshot records; training
    /// itself draws only from the per-epoch tape seed).
    pub rng_state: [u64; 4],
    /// Tape seed of epoch 0; epoch `e` runs on `tape_seed + e`.
    pub tape_seed: u64,
    /// [`TrainReport::device_bytes`]: [`crate::memory::device`]'s total
    /// for the model's step.
    pub device_bytes: usize,
    /// [`TrainReport::ram_bytes`]: the graph operator and attributes the
    /// step reads.
    pub ram_bytes: usize,
    /// Propagation hops of one forward pass, counted into
    /// [`TrainReport::prop_hops`]; 0 when the caller reports no hop count.
    pub hops: usize,
}

/// Trains a [`GraphModel`] whose parameters live in `store`, with Adam at
/// `cfg`'s learning rates, through the same loop — guard, early stopping,
/// checkpoints, report — as the two learning schemes.
pub fn try_train_graph_model(
    model: GraphModel<'_>,
    store: &mut ParamStore,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    train_graph(model, store, data, cfg).map(|(report, _)| report)
}

/// [`try_train_graph_model`] with the run's final-state snapshot, taken
/// once the cell's pool is emptied so it never sits on the cell's peak.
fn train_graph(
    model: GraphModel<'_>,
    store: &mut ParamStore,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Result<(TrainReport, Snapshot), TrainError> {
    // One recycling scope per cell: epoch 1 allocates its tape, every later
    // epoch, the periodic validation and the final inference run on the same
    // pages, and the pool is emptied when the cell returns (or unwinds).
    let pool = sgnn_dense::pool::scope();
    let known = TrainReport {
        filter: model.name.to_string(),
        scheme: model.tag.to_string(),
        device_bytes: model.device_bytes,
        ram_bytes: model.ram_bytes,
        ..TrainReport::default()
    };
    let mut step = GraphStep {
        targets: Arc::new(data.targets_of(&data.splits.train)),
        model,
    };
    let mut on = Learner::new(cfg, store);
    let (report, at) = driver::run(&mut step, known, &mut on, data)?;
    drop(pool);
    Ok((report, at.snapshot(SnapshotStatus::Periodic, &step, &on)))
}

struct GraphStep<'a> {
    model: GraphModel<'a>,
    targets: Arc<Vec<u32>>,
}

impl Step for GraphStep<'_> {
    fn epoch(&mut self, epoch: usize, on: &mut Learner<'_>, train: &mut StageTimer) -> f64 {
        on.store.zero_grads();
        let (tape, loss_val) = train.time(|| {
            let mut tape = Tape::new(true, self.model.tape_seed.wrapping_add(epoch as u64));
            let logits = (self.model.train_logits)(&mut tape, on.store);
            let loss = tape.softmax_cross_entropy(logits, Arc::clone(&self.targets));
            let loss_val = on.descend(&mut tape, loss);
            (tape, loss_val)
        });
        // Dropped outside the timed step: validation and the next epoch
        // reuse its pages.
        drop(tape);
        loss_val
    }

    fn infer(&self, store: &ParamStore) -> DMat {
        (self.model.infer)(store)
    }

    fn pass_hops(&self) -> usize {
        self.model.hops
    }

    fn extras(&self) -> ([u64; 4], &[u32]) {
        (self.model.rng_state, &[])
    }

    fn restore(&mut self, _rng_state: [u64; 4], _order: Vec<u32>) {
        // Nothing after initialization draws from the RNG or reorders the
        // split, and initialization already replayed identically.
    }
}

/// Evaluation-mode forward over all nodes.
pub(crate) fn infer(
    model: &DecoupledModel,
    pm: &Arc<PropMatrix>,
    data: &Dataset,
    store: &ParamStore,
) -> DMat {
    let mut tape = Tape::new(false, 0);
    let x = tape.constant(data.features.clone());
    let logits = model.forward_fb(&mut tape, pm, x, store);
    tape.into_value(logits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_core::make_filter;
    use sgnn_data::{dataset_spec, GenScale};

    #[test]
    fn fb_learns_homophilous_tiny_graph() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
        let cfg = TrainConfig::fast_test(0);
        let report = Scheme::FullBatch
            .train(make_filter("PPR", cfg.hops).unwrap(), &data, None, &cfg)
            .report;
        assert!(report.test_metric > 0.5, "{}", report.summary());
        assert!(report.train_epoch_s > 0.0);
        assert!(report.device_bytes > 0);
        assert_eq!(report.scheme, "FB");
    }

    #[test]
    fn heterophily_favors_high_frequency_filters() {
        // On a strongly heterophilous graph the pure low-pass Impulse filter
        // must not beat the identity-capable Monomial-variable filter.
        let data = dataset_spec("roman-empire")
            .unwrap()
            .generate(GenScale::Tiny, 1);
        let cfg = TrainConfig::fast_test(1);
        let lp = Scheme::FullBatch
            .train(make_filter("Impulse", cfg.hops).unwrap(), &data, None, &cfg)
            .report;
        let var = Scheme::FullBatch
            .train(
                make_filter("VarMonomial", cfg.hops).unwrap(),
                &data,
                None,
                &cfg,
            )
            .report;
        assert!(
            var.test_metric >= lp.test_metric - 0.02,
            "variable {} vs impulse {}",
            var.test_metric,
            lp.test_metric
        );
    }

    #[test]
    fn injected_nan_surfaces_as_diverged_with_epoch() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 3);
        let mut cfg = TrainConfig::fast_test(3);
        cfg.inject_nan_after_epoch = Some(2);
        let err = Scheme::FullBatch
            .try_train(make_filter("PPR", cfg.hops).unwrap(), &data, None, &cfg)
            .map(|t| t.report)
            .expect_err("injected NaN must abort training");
        assert_eq!(
            err,
            TrainError::Diverged {
                epoch: 2,
                param: None
            },
            "loss injection leaves gradients finite — no parameter to blame"
        );
    }

    #[test]
    fn tiny_time_budget_times_out_between_epochs() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 3);
        let mut cfg = TrainConfig::fast_test(3);
        cfg.time_budget_s = 1e-9;
        match Scheme::FullBatch
            .try_train(make_filter("PPR", cfg.hops).unwrap(), &data, None, &cfg)
            .map(|t| t.report)
        {
            Err(TrainError::Timeout { epoch, budget_s }) => {
                assert_eq!(epoch, 0, "first deadline check fires after epoch 0");
                assert!(budget_s > 0.0);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn roc_auc_dataset_reports_sane_metric() {
        let data = dataset_spec("minesweeper")
            .unwrap()
            .generate(GenScale::Tiny, 2);
        let cfg = TrainConfig::fast_test(2);
        let report = Scheme::FullBatch
            .train(make_filter("Linear", cfg.hops).unwrap(), &data, None, &cfg)
            .report;
        assert!((0.0..=1.0).contains(&report.test_metric));
    }
}
