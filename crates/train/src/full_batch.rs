//! Full-batch training (Figure 1(a) of the paper).
//!
//! The whole attributed graph lives on the device for every step: the model
//! is `φ1(g(L̃)·φ0(X))` with `φ0 = φ1 = 1` linear layer (Table 4), trained
//! with Adam over separate network/filter parameter groups. Device memory is
//! metered as tape residency + parameters + optimizer state + the graph
//! operator; the shape of Table 9 (OOM of heavy variable filters at scale)
//! follows directly from this accounting.

use std::sync::Arc;

use sgnn_autograd::optim::GroupHyper;
use sgnn_autograd::{Adam, Optimizer, ParamStore, Tape};
use sgnn_core::SpectralFilter;
use sgnn_data::{Dataset, Metric};
use sgnn_dense::{rng as drng, DMat};
use sgnn_models::decoupled::{DecoupledConfig, DecoupledModel};
use sgnn_obs as obs;
use sgnn_sparse::PropMatrix;

use crate::checkpoint::{Checkpointer, Snapshot, SnapshotStatus};
use crate::config::{TrainConfig, TrainReport};
use crate::error::TrainError;
use crate::memory::DeviceMeter;
use crate::metrics::{accuracy, binary_scores, roc_auc};
use crate::timer::StageTimer;

/// The per-epoch failure checks both schemes share: fault-injected kills and
/// NaNs, a non-finite loss (divergence), and the cooperative wall-clock
/// budget. Called after epoch `epoch` (0-based) completed with training loss
/// `loss`; `store` is scanned on divergence to name the parameter whose
/// gradient went non-finite.
pub(crate) fn epoch_guard(
    cfg: &TrainConfig,
    epoch: usize,
    mut loss: f64,
    started: std::time::Instant,
    store: &ParamStore,
) -> Result<(), TrainError> {
    if cfg.inject_kill_after_epoch == Some(epoch) {
        std::panic::panic_any(crate::error::Killed(format!(
            "injected kill after epoch {epoch}"
        )));
    }
    if cfg.inject_nan_after_epoch.is_some_and(|e| epoch >= e) {
        loss = f64::NAN;
    }
    if !loss.is_finite() {
        crate::error::DIVERGED.incr();
        return Err(TrainError::Diverged {
            epoch,
            param: store.first_nonfinite_grad().map(String::from),
        });
    }
    if cfg.time_budget_s > 0.0 && started.elapsed().as_secs_f64() > cfg.time_budget_s {
        crate::error::TIMEOUTS.incr();
        return Err(TrainError::Timeout {
            epoch,
            budget_s: cfg.time_budget_s,
        });
    }
    Ok(())
}

/// Evaluates a logits matrix under the dataset's metric.
pub fn evaluate(logits: &DMat, data: &Dataset, idx: &[u32]) -> f64 {
    match data.metric {
        Metric::Accuracy => accuracy(logits, &data.labels, idx),
        Metric::RocAuc => roc_auc(&binary_scores(logits), &data.labels, idx),
    }
}

/// Trains one filter on one dataset with the full-batch scheme.
///
/// Infallible wrapper over [`try_train_full_batch`] for call sites that run
/// outside the cell runner (unit tests, analyses); panics on
/// divergence/timeout.
pub fn train_full_batch(
    filter: Arc<dyn SpectralFilter>,
    data: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    try_train_full_batch(filter, data, cfg).unwrap_or_else(|e| panic!("full-batch training: {e}"))
}

/// Fallible full-batch training: a non-finite loss or an expired
/// [`TrainConfig::time_budget_s`] returns a typed [`TrainError`] instead of
/// poisoning the run.
pub fn try_train_full_batch(
    filter: Arc<dyn SpectralFilter>,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    try_train_full_batch_model(filter, data, cfg).map(|(r, _, _)| r)
}

/// Like [`train_full_batch`] but also returns the trained model and its
/// parameters, for post-hoc analyses (degree gaps, response inspection).
pub fn train_full_batch_model(
    filter: Arc<dyn SpectralFilter>,
    data: &Dataset,
    cfg: &TrainConfig,
) -> (TrainReport, DecoupledModel, ParamStore) {
    try_train_full_batch_model(filter, data, cfg)
        .unwrap_or_else(|e| panic!("full-batch training: {e}"))
}

/// Fallible variant of [`train_full_batch_model`].
pub fn try_train_full_batch_model(
    filter: Arc<dyn SpectralFilter>,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Result<(TrainReport, DecoupledModel, ParamStore), TrainError> {
    // One recycling scope per cell: epoch 1 allocates its tape, every later
    // epoch, the periodic validation and the final inference run on the same
    // pages, and the pool is emptied when the cell returns (or unwinds).
    let _pool = sgnn_dense::pool::scope();
    let filter_name = filter.name().to_string();
    let pm = Arc::new(PropMatrix::new(&data.graph, cfg.rho));
    let mut rng = drng::seeded(cfg.seed);
    let mut store = ParamStore::new();
    let model = DecoupledModel::new(
        filter,
        data.features.cols(),
        data.num_classes,
        DecoupledConfig {
            hidden: cfg.hidden,
            phi0_layers: 1,
            phi1_layers: 1,
            dropout: cfg.dropout,
        },
        &mut store,
        &mut rng,
    );
    let mut opt = Adam::with_groups(
        GroupHyper {
            lr: cfg.lr,
            weight_decay: cfg.weight_decay,
        },
        GroupHyper {
            lr: cfg.lr_filter,
            weight_decay: cfg.weight_decay_filter,
        },
    );

    let train_idx = Arc::new(data.splits.train.clone());
    let targets = Arc::new(data.targets_of(&train_idx));
    let fixed_bytes = pm.nbytes() + data.features.nbytes();

    let mut device = DeviceMeter::new();
    let mut train_timer = StageTimer::named("train");
    let started = std::time::Instant::now();
    let mut best_valid = f64::NEG_INFINITY;
    let mut best_test = 0.0f64;
    let mut bad_epochs = 0usize;
    let mut epochs_run = 0usize;
    let mut prop_hops = 0usize;

    // Checkpointing: resume from the newest good snapshot for this exact
    // run (seed + structural config), if one exists.
    let tag = cfg.structural_tag("FB");
    let ckpt = cfg
        .ckpt_dir
        .as_deref()
        .map(|d| Checkpointer::create(d).unwrap_or_else(|e| panic!("checkpoint dir {d}: {e}")));
    let mut start_epoch = 0usize;
    if let Some(ck) = &ckpt {
        if let Some(snap) = ck.load_good(cfg.seed, tag) {
            if snap.apply_model(&mut store, &mut opt).is_ok() {
                start_epoch = snap.epoch_next;
                epochs_run = snap.epoch_next;
                best_valid = snap.best_valid;
                best_test = snap.best_test;
                bad_epochs = snap.bad_epochs;
                prop_hops = snap.prop_hops;
                device.record_bytes(snap.device_peak);
                // The FB RNG is only consumed during model initialization,
                // which already replayed identically above; nothing to
                // restore from `snap.rng_state`.
            }
        }
    }
    let snapshot = |status: SnapshotStatus,
                    epoch_next: usize,
                    rng: &rand::rngs::SmallRng,
                    store: &ParamStore,
                    opt: &Adam,
                    best_valid: f64,
                    best_test: f64,
                    bad_epochs: usize,
                    prop_hops: usize,
                    device_peak: usize| Snapshot {
        seed: cfg.seed,
        config_tag: tag,
        status,
        epoch_next,
        rng_state: rng.state(),
        best_valid,
        best_test,
        bad_epochs,
        prop_hops,
        device_peak,
        train_idx: Vec::new(),
        params: store.export_values(),
        adam: opt.state(),
    };

    for epoch in start_epoch..cfg.epochs {
        epochs_run = epoch + 1;
        store.zero_grads();
        let (tape, loss_val) = train_timer.time(|| {
            let mut tape = Tape::new(true, cfg.seed.wrapping_mul(7919).wrapping_add(epoch as u64));
            let x = tape.constant(data.features.clone());
            let logits = model.forward_fb(&mut tape, &pm, x, &store);
            let tl = tape.gather_rows(logits, Arc::clone(&train_idx));
            let loss = tape.softmax_cross_entropy(tl, Arc::clone(&targets));
            let loss_val = tape.value(loss).get(0, 0) as f64;
            {
                let _sp = obs::span!("epoch.backward");
                tape.backward(loss, &mut store);
            }
            if cfg.clip_norm > 0.0 {
                sgnn_autograd::clip_global_norm(&mut store, cfg.clip_norm);
            }
            {
                let _sp = obs::span!("epoch.step");
                opt.step(&mut store);
            }
            (tape, loss_val)
        });
        crate::EPOCHS.incr();
        device.record_step(&tape, &store, Some(&opt), fixed_bytes);
        // Metered; what follows (validation, the next epoch) reuses its pages.
        drop(tape);
        prop_hops += 2 * model.filter.filter().hops(); // forward + adjoint
        if let Err(e) = epoch_guard(cfg, epoch, loss_val, started, &store) {
            // Keep a final snapshot for post-mortems: out of the periodic
            // rotation, so a diverged (possibly poisoned) state never evicts
            // a good resume point.
            if let Some(ck) = &ckpt {
                let status = match &e {
                    TrainError::Diverged { .. } => SnapshotStatus::FinalDiverged,
                    TrainError::Timeout { .. } => SnapshotStatus::FinalTimeout,
                };
                let _ = ck.write_final(&snapshot(
                    status,
                    epoch + 1,
                    &rng,
                    &store,
                    &opt,
                    best_valid,
                    best_test,
                    bad_epochs,
                    prop_hops,
                    device.peak(),
                ));
            }
            return Err(e);
        }

        // Periodic validation for early stopping.
        if cfg.patience > 0 && (epoch % 5 == 4 || epoch + 1 == cfg.epochs) {
            let logits = infer(&model, &pm, data, &store);
            let vm = evaluate(&logits, data, &data.splits.valid);
            if vm > best_valid {
                best_valid = vm;
                best_test = evaluate(&logits, data, &data.splits.test);
                bad_epochs = 0;
            } else {
                bad_epochs += 5;
                if bad_epochs >= cfg.patience {
                    break;
                }
            }
        }

        // Periodic snapshot — after validation, so the captured best-metric
        // state includes this epoch and a resume replays bit-for-bit.
        if let Some(ck) = &ckpt {
            if cfg.ckpt_every > 0 && (epoch + 1) % cfg.ckpt_every == 0 && epoch + 1 < cfg.epochs {
                ck.write(&snapshot(
                    SnapshotStatus::Periodic,
                    epoch + 1,
                    &rng,
                    &store,
                    &opt,
                    best_valid,
                    best_test,
                    bad_epochs,
                    prop_hops,
                    device.peak(),
                ))
                .unwrap_or_else(|e| panic!("write checkpoint: {e}"));
            }
        }
    }
    if let Some(ck) = &ckpt {
        // Training finished: nothing left to resume.
        ck.clear();
    }

    // Final inference (timed separately, evaluation mode).
    let mut infer_timer = StageTimer::named("infer");
    let logits = infer_timer.time(|| infer(&model, &pm, data, &store));
    prop_hops += model.filter.filter().hops();
    let test = evaluate(&logits, data, &data.splits.test);
    let valid = evaluate(&logits, data, &data.splits.valid);
    let (test_metric, valid_metric) = if cfg.patience > 0 && best_valid >= valid {
        (best_test, best_valid)
    } else {
        (test, valid)
    };

    let report = TrainReport {
        filter: filter_name,
        dataset: data.name.clone(),
        scheme: "FB".into(),
        test_metric,
        valid_metric,
        epochs_run,
        precompute_s: 0.0,
        train_epoch_s: train_timer.mean(),
        train_total_s: train_timer.total(),
        infer_s: infer_timer.mean(),
        device_bytes: device.peak(),
        ram_bytes: fixed_bytes,
        prop_hops,
    };
    Ok((report, model, store))
}

/// Evaluation-mode forward over all nodes.
pub fn infer(
    model: &DecoupledModel,
    pm: &Arc<PropMatrix>,
    data: &Dataset,
    store: &ParamStore,
) -> DMat {
    let mut tape = Tape::new(false, 0);
    let x = tape.constant(data.features.clone());
    let logits = model.forward_fb(&mut tape, pm, x, store);
    tape.value(logits).clone()
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
        let report = train_full_batch(make_filter("PPR", cfg.hops).unwrap(), &data, &cfg);
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
        let lp = train_full_batch(make_filter("Impulse", cfg.hops).unwrap(), &data, &cfg);
        let var = train_full_batch(make_filter("VarMonomial", cfg.hops).unwrap(), &data, &cfg);
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
        let err = try_train_full_batch(make_filter("PPR", cfg.hops).unwrap(), &data, &cfg)
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
        match try_train_full_batch(make_filter("PPR", cfg.hops).unwrap(), &data, &cfg) {
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
        let report = train_full_batch(make_filter("Linear", cfg.hops).unwrap(), &data, &cfg);
        assert!((0.0..=1.0).contains(&report.test_metric));
    }
}
