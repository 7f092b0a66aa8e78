//! Decoupled mini-batch training (Figure 1(b) of the paper).
//!
//! Stage 1 (**precompute**, timed separately): the filter's basis terms are
//! materialized over the raw attributes — this is the only place the graph
//! is touched, and the result lives in RAM. Stage 2 (**training**): every
//! step gathers batch rows of the terms, recombines them with the learnable
//! `θ`/`γ` on the device, and applies the two-layer `φ1`. Device memory is
//! proportional to the batch size, not the graph — the structural source of
//! the scheme's scalability (RQ2).

use std::sync::Arc;

use rand::rngs::SmallRng;
use sgnn_autograd::{ParamStore, Tape};
use sgnn_core::SpectralFilter;
use sgnn_data::Dataset;
use sgnn_dense::{rng as drng, DMat};
use sgnn_models::decoupled::{gather_terms, DecoupledConfig, DecoupledModel};
use sgnn_sparse::PropMatrix;

use crate::checkpoint::SnapshotStatus;
use crate::config::{TrainConfig, TrainReport};
use crate::driver::{self, Learner, Step};
use crate::error::TrainError;
use crate::scheme::{Infer, Scheme, Trained};
use crate::timer::StageTimer;

/// Trains one filter on one dataset with the decoupled mini-batch scheme,
/// precomputing its terms over `pm`.
pub(crate) fn train(
    filter: Arc<dyn SpectralFilter>,
    pm: &PropMatrix,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Result<Trained, TrainError> {
    assert!(
        filter.mb_compatible(),
        "{} is an iterative-only design; the paper evaluates it full-batch only",
        filter.name()
    );
    let name = filter.name().to_string();
    let (model, mut store, rng) = driver::decoupled(filter, DecoupledConfig::mini_batch, data, cfg);

    // Stage 1: CPU precomputation — the only place the graph is touched.
    let mut pre_timer = StageTimer::named("precompute");
    let terms = pre_timer.time(|| model.precompute_mb(pm, &data.features));
    let known = TrainReport {
        filter: name,
        scheme: Scheme::MiniBatch.tag().to_string(),
        precompute_s: pre_timer.total(),
        ram_bytes: sgnn_core::FilterModule::precompute_bytes(&terms) + data.features.nbytes(),
        prop_hops: model.filter.filter().hops(),
        ..TrainReport::default()
    };

    // Stage 2: batched training on the device.
    let mut step = BatchStep {
        model: &model,
        terms: &terms,
        data,
        batch_size: cfg.batch_size,
        rng,
        order: data.splits.train.clone(),
    };
    let mut on = Learner::new(cfg, &mut store);
    let (report, at) = driver::run(&mut step, known, &mut on, data)?;
    let snapshot = at.snapshot(SnapshotStatus::Periodic, &step, &on);
    Ok(Trained {
        report,
        model,
        store,
        terms,
        snapshot,
        infer: Infer::Batches(cfg.batch_size),
    })
}

/// One epoch = one pass over the reshuffled training rows in batches. Unlike
/// full-batch, the RNG advances every epoch and the order is cumulative, so
/// a resume restores both.
struct BatchStep<'a> {
    model: &'a DecoupledModel,
    terms: &'a [Vec<DMat>],
    data: &'a Dataset,
    batch_size: usize,
    rng: SmallRng,
    order: Vec<u32>,
}

impl Step for BatchStep<'_> {
    fn epoch(&mut self, epoch: usize, on: &mut Learner<'_>, train: &mut StageTimer) -> f64 {
        drng::shuffle(&mut self.order, &mut self.rng);
        // The largest batch loss of the epoch feeds the divergence guard: a
        // single NaN/Inf batch is enough to poison the parameters.
        let mut worst = 0.0f64;
        train.time(|| {
            for (b, chunk) in self.order.chunks(self.batch_size).enumerate() {
                on.store.zero_grads();
                let batch_terms = gather_terms(self.terms, chunk);
                let mut tape = Tape::new(
                    true,
                    on.cfg
                        .seed
                        .wrapping_mul(6151)
                        .wrapping_add(epoch as u64 * 131)
                        .wrapping_add(b as u64),
                );
                let logits = self.model.forward_mb(&mut tape, batch_terms, on.store);
                let targets = Arc::new(self.data.targets_of(chunk));
                let loss = tape.softmax_cross_entropy(logits, targets);
                let loss_val = on.descend(&mut tape, loss);
                if !loss_val.is_finite() {
                    worst = loss_val;
                } else if worst.is_finite() {
                    worst = worst.max(loss_val);
                }
                on.meter(&tape, 0);
            }
        });
        worst
    }

    fn infer(&self, store: &ParamStore) -> DMat {
        let n = self.data.nodes();
        infer(self.model, self.terms, n, self.batch_size, store)
    }

    fn pass_hops(&self) -> usize {
        0
    }

    fn extras(&self) -> ([u64; 4], &[u32]) {
        (self.rng.state(), &self.order)
    }

    fn restore(&mut self, rng_state: [u64; 4], order: Vec<u32>) {
        self.rng.set_state(rng_state);
        self.order = order;
    }
}

/// Batched evaluation-mode inference over all nodes, each batch of
/// `batch_size` consecutive nodes through [`DecoupledModel::infer_rows`].
pub(crate) fn infer(
    model: &DecoupledModel,
    terms: &[Vec<DMat>],
    n: usize,
    batch_size: usize,
    store: &ParamStore,
) -> DMat {
    let mut logits: Option<DMat> = None;
    let all: Vec<u32> = (0..n as u32).collect();
    for chunk in all.chunks(batch_size) {
        let val = model.infer_rows(terms, chunk, store);
        let logits = logits.get_or_insert_with(|| DMat::zeros(n, val.cols()));
        // The batch is the node range starting at `chunk[0]`.
        let at = chunk[0] as usize * val.cols();
        logits.data_mut()[at..at + val.len()].copy_from_slice(val.data());
    }
    logits.expect("graph has at least one node")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_core::make_filter;
    use sgnn_data::{dataset_spec, GenScale};

    #[test]
    fn mb_learns_and_reports_precompute() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 4);
        let mut cfg = TrainConfig::fast_test(4);
        cfg.batch_size = 256;
        let report = Scheme::MiniBatch
            .train(
                make_filter("Monomial", cfg.hops).unwrap(),
                &data,
                None,
                &cfg,
            )
            .report;
        assert!(report.test_metric > 0.5, "{}", report.summary());
        assert!(report.precompute_s > 0.0, "precompute stage must be timed");
        assert_eq!(report.scheme, "MB");
        assert!(report.ram_bytes > data.features.nbytes());
    }

    #[test]
    fn mb_device_memory_scales_with_batch_not_graph() {
        let data = dataset_spec("pubmed").unwrap().generate(GenScale::Tiny, 5);
        let mut small = TrainConfig::fast_test(5);
        small.epochs = 2;
        small.patience = 0;
        small.batch_size = 64;
        let mut large = small.clone();
        large.batch_size = 1024;
        let rs = Scheme::MiniBatch
            .train(make_filter("PPR", 4).unwrap(), &data, None, &small)
            .report;
        let rl = Scheme::MiniBatch
            .train(make_filter("PPR", 4).unwrap(), &data, None, &large)
            .report;
        assert!(
            rl.device_bytes > rs.device_bytes,
            "bigger batches must use more device memory: {} vs {}",
            rl.device_bytes,
            rs.device_bytes
        );
    }

    #[test]
    fn mb_injected_nan_surfaces_as_diverged() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 8);
        let mut cfg = TrainConfig::fast_test(8);
        cfg.inject_nan_after_epoch = Some(1);
        let err = Scheme::MiniBatch
            .try_train(
                make_filter("Monomial", cfg.hops).unwrap(),
                &data,
                None,
                &cfg,
            )
            .map(|t| t.report)
            .expect_err("injected NaN must abort training");
        assert_eq!(
            err,
            TrainError::Diverged {
                epoch: 1,
                param: None
            }
        );
    }

    #[test]
    #[should_panic(expected = "iterative-only")]
    fn mb_rejects_incompatible_filters() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 6);
        let cfg = TrainConfig::fast_test(6);
        let _ = Scheme::MiniBatch
            .train(make_filter("AdaGNN", cfg.hops).unwrap(), &data, None, &cfg)
            .report;
    }

    #[test]
    fn variable_filter_mb_stores_k_terms_in_ram() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 7);
        let mut cfg = TrainConfig::fast_test(7);
        cfg.epochs = 2;
        cfg.patience = 0;
        let fixed = Scheme::MiniBatch
            .train(make_filter("PPR", 6).unwrap(), &data, None, &cfg)
            .report;
        let var = Scheme::MiniBatch
            .train(make_filter("Chebyshev", 6).unwrap(), &data, None, &cfg)
            .report;
        // Variable filters keep K+1 term matrices resident; fixed keep one.
        assert!(
            var.ram_bytes > 3 * fixed.ram_bytes / 2,
            "variable {} vs fixed {}",
            var.ram_bytes,
            fixed.ram_bytes
        );
    }
}
