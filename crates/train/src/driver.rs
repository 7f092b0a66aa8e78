//! The one training loop.
//!
//! The paper's two learning schemes (Figure 1) and the Table 6 baselines run
//! one protocol: resume from a checkpoint if there is one, then per epoch
//! train, guard, validate every fifth epoch for early stopping and snapshot
//! periodically; finally infer over all nodes, pick the best-validation or
//! final metric and report. [`run`] is that protocol, written once. A scheme
//! is a [`Step`]: how it trains one epoch, how it infers, and the two things
//! beyond the model a resume must restore. [`run`] never asks which scheme
//! it serves.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use sgnn_autograd::optim::GroupHyper;
use sgnn_autograd::{Adam, NodeId, Optimizer, ParamStore, Tape};
use sgnn_core::SpectralFilter;
use sgnn_data::Dataset;
use sgnn_dense::{rng as drng, DMat};
use sgnn_models::decoupled::{DecoupledConfig, DecoupledModel};
use sgnn_obs as obs;

use crate::checkpoint::{Checkpointer, Snapshot, SnapshotStatus};
use crate::config::{TrainConfig, TrainReport};
use crate::error::TrainError;
use crate::full_batch::evaluate;
use crate::timer::StageTimer;

/// Training epochs completed, whatever the scheme.
static EPOCHS: obs::Counter = obs::Counter::new("train.epochs");

/// What differs between learning schemes.
pub(crate) trait Step {
    /// Runs training epoch `epoch` (0-based), every gradient step of it
    /// through [`Learner::descend`], and returns the loss the divergence
    /// guard checks. The step's gradient work goes under `train` — one
    /// sample an epoch, the `train_epoch_s` a report carries.
    fn epoch(&mut self, epoch: usize, on: &mut Learner<'_>, train: &mut StageTimer) -> f64;

    /// Evaluation-mode logits of every node.
    fn infer(&self, store: &ParamStore) -> DMat;

    /// Propagation hops of one pass over the graph: an epoch runs two
    /// (forward and adjoint), an inference one. Zero when training never
    /// touches the graph.
    fn pass_hops(&self) -> usize;

    /// What a snapshot records beside the model: the RNG state and the
    /// training order (empty when the scheme never reorders its split).
    fn extras(&self) -> ([u64; 4], &[u32]);

    /// Takes the extras back from a snapshot whose order has this step's
    /// length.
    fn restore(&mut self, rng_state: [u64; 4], order: Vec<u32>);
}

/// Where a run stands at an epoch boundary: the scalar half of a
/// [`Snapshot`].
pub(crate) struct Progress {
    seed: u64,
    config_tag: u64,
    /// The step's device bytes ([`crate::memory::device`]).
    device_peak: usize,
    /// First epoch that has not run yet — the epochs run so far.
    epoch_next: usize,
    best_valid: f64,
    best_test: f64,
    bad_epochs: usize,
    prop_hops: usize,
}

impl Progress {
    /// The complete snapshot at this boundary.
    pub(crate) fn snapshot(
        &self,
        status: SnapshotStatus,
        step: &dyn Step,
        on: &Learner<'_>,
    ) -> Snapshot {
        let (rng_state, order) = step.extras();
        Snapshot {
            seed: self.seed,
            config_tag: self.config_tag,
            status,
            epoch_next: self.epoch_next,
            rng_state,
            best_valid: self.best_valid,
            best_test: self.best_test,
            bad_epochs: self.bad_epochs,
            prop_hops: self.prop_hops,
            device_peak: self.device_peak,
            train_idx: order.to_vec(),
            params: on.store.export_values(),
            adam: on.opt.state(),
        }
    }
}

/// A decoupled model `φ1(g(L̃)·φ0(X))` with `layout`'s layer split and the
/// run's width and dropout, its parameters, and the RNG that initialised it.
pub(crate) fn decoupled(
    filter: Arc<dyn SpectralFilter>,
    layout: fn(usize) -> DecoupledConfig,
    data: &Dataset,
    cfg: &TrainConfig,
) -> (DecoupledModel, ParamStore, SmallRng) {
    let mut rng = drng::seeded(cfg.seed);
    let mut store = ParamStore::new();
    let config = DecoupledConfig {
        dropout: cfg.dropout,
        ..layout(cfg.hidden)
    };
    let (f_in, classes) = (data.features.cols(), data.num_classes);
    let model = DecoupledModel::new(filter, f_in, classes, config, &mut store, &mut rng);
    (model, store, rng)
}

/// What a gradient step works on: the run's config, the parameters, and
/// Adam over their network / filter groups.
pub(crate) struct Learner<'a> {
    pub cfg: &'a TrainConfig,
    pub store: &'a mut ParamStore,
    opt: Adam,
}

impl<'a> Learner<'a> {
    pub(crate) fn new(cfg: &'a TrainConfig, store: &'a mut ParamStore) -> Self {
        let group = |lr, weight_decay| GroupHyper { lr, weight_decay };
        let opt = Adam::with_groups(
            group(cfg.lr, cfg.weight_decay),
            group(cfg.lr_filter, cfg.weight_decay_filter),
        );
        Self { cfg, store, opt }
    }

    /// The tail of every gradient step: read the loss, backward, clip,
    /// optimizer step.
    pub(crate) fn descend(&mut self, tape: &mut Tape, loss: NodeId) -> f64 {
        let loss_val = tape.value(loss).get(0, 0) as f64;
        {
            let _sp = obs::span!("epoch.backward");
            tape.backward(loss, self.store);
        }
        if self.cfg.clip_norm > 0.0 {
            sgnn_autograd::clip_global_norm(self.store, self.cfg.clip_norm);
        }
        {
            let _sp = obs::span!("epoch.step");
            self.opt.step(self.store);
        }
        loss_val
    }
}

/// The per-epoch failure checks: fault-injected kills and NaNs, a
/// non-finite loss (divergence), and the cooperative wall-clock budget.
/// Called after epoch `epoch` (0-based) completed with training loss
/// `loss`; `store` is scanned on divergence to name the parameter whose
/// gradient went non-finite.
fn epoch_guard(
    cfg: &TrainConfig,
    epoch: usize,
    mut loss: f64,
    started: Instant,
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

/// Trains `step` to completion.
///
/// `known` carries what the scheme knows before the first epoch — `filter`,
/// `scheme` (the tag that, with the config, keys the run's checkpoints),
/// `precompute_s`, `device_bytes`, `ram_bytes` and the hops already
/// executed in `prop_hops`; the returned report is `known` with every other
/// field filled in.
pub(crate) fn run(
    step: &mut dyn Step,
    known: TrainReport,
    on: &mut Learner<'_>,
    data: &Dataset,
) -> Result<(TrainReport, Progress), TrainError> {
    let cfg = on.cfg;
    let mut at = Progress {
        seed: cfg.seed,
        config_tag: cfg.structural_tag(&known.scheme),
        device_peak: known.device_bytes,
        epoch_next: 0,
        best_valid: f64::NEG_INFINITY,
        best_test: 0.0,
        bad_epochs: 0,
        prop_hops: known.prop_hops,
    };
    obs::gauge_max("device.peak_bytes", known.device_bytes as u64);
    let mut train_timer = StageTimer::named("train");
    let started = Instant::now();

    // Resume from the newest good snapshot of this exact run (seed +
    // structural config), if one exists; one that does not fit the model is
    // ignored and the run trains from scratch.
    let ckpt = cfg
        .ckpt_dir
        .as_deref()
        .map(|d| Checkpointer::create(d).unwrap_or_else(|e| panic!("checkpoint dir {d}: {e}")));
    let resumable = ckpt
        .as_ref()
        .and_then(|ck| ck.load_good(at.seed, at.config_tag));
    if let Some(snap) = resumable {
        if snap.train_idx.len() == step.extras().1.len()
            && snap.apply_model(on.store, &mut on.opt).is_ok()
        {
            at.epoch_next = snap.epoch_next;
            at.best_valid = snap.best_valid;
            at.best_test = snap.best_test;
            at.bad_epochs = snap.bad_epochs;
            at.prop_hops = snap.prop_hops;
            step.restore(snap.rng_state, snap.train_idx);
        }
    }

    for epoch in at.epoch_next..cfg.epochs {
        at.epoch_next = epoch + 1;
        let loss = step.epoch(epoch, on, &mut train_timer);
        EPOCHS.incr();
        at.prop_hops += 2 * step.pass_hops();
        if let Err(e) = epoch_guard(cfg, epoch, loss, started, on.store) {
            // Keep a final snapshot for post-mortems: out of the periodic
            // rotation, so a diverged (possibly poisoned) state never evicts
            // a good resume point.
            if let Some(ck) = &ckpt {
                let status = match &e {
                    TrainError::Diverged { .. } => SnapshotStatus::FinalDiverged,
                    TrainError::Timeout { .. } => SnapshotStatus::FinalTimeout,
                };
                let _ = ck.write_final(&at.snapshot(status, step, on));
            }
            return Err(e);
        }

        // Periodic validation for early stopping.
        if cfg.patience > 0 && (epoch % 5 == 4 || epoch + 1 == cfg.epochs) {
            let logits = step.infer(on.store);
            let vm = evaluate(&logits, data, &data.splits.valid);
            if vm > at.best_valid {
                at.best_valid = vm;
                at.best_test = evaluate(&logits, data, &data.splits.test);
                at.bad_epochs = 0;
            } else {
                at.bad_epochs += 5;
                if at.bad_epochs >= cfg.patience {
                    break;
                }
            }
        }

        // Periodic snapshot — after validation, so the captured best-metric
        // state includes this epoch and a resume replays bit-for-bit.
        if let Some(ck) = &ckpt {
            if cfg.ckpt_every > 0 && (epoch + 1) % cfg.ckpt_every == 0 && epoch + 1 < cfg.epochs {
                ck.write(&at.snapshot(SnapshotStatus::Periodic, step, on))
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
    let logits = infer_timer.time(|| step.infer(on.store));
    at.prop_hops += step.pass_hops();
    let test = evaluate(&logits, data, &data.splits.test);
    let valid = evaluate(&logits, data, &data.splits.valid);
    let (test_metric, valid_metric) = if cfg.patience > 0 && at.best_valid >= valid {
        (at.best_test, at.best_valid)
    } else {
        (test, valid)
    };

    let report = TrainReport {
        dataset: data.name.clone(),
        test_metric,
        valid_metric,
        epochs_run: at.epoch_next,
        train_epoch_s: train_timer.mean(),
        train_total_s: train_timer.total(),
        infer_s: infer_timer.mean(),
        prop_hops: at.prop_hops,
        ..known
    };
    Ok((report, at))
}
