//! Fault-tolerant execution of one training cell.
//!
//! [`CellRunner`] is the one path by which an `experiments` target trains a
//! cell. Every cell passes the same preamble, then the recovery stack:
//!
//! 1. **Preamble** — a [`Job`] names the cell by its [`CellKey`] and
//!    carries the [`StepShape`] it trains. A step whose [`device`] bytes
//!    exceed `--device-budget-mb` is `(OOM)`: never trained or stored, and
//!    no executed-cell index claimed. Otherwise one `cell` span carrying
//!    the key's fields covers the rest.
//! 2. **Resume** — if a [`RunStore`] is attached (`--resume <dir>`) and
//!    already holds the cell, the stored outcome is returned without
//!    executing anything (counter `cell.skipped`).
//! 3. **Fault hooks** — [`crate::faults`] fires any injected fault for the
//!    cell's executed-index before training starts.
//! 4. **Panic capture** — `catch_unwind` turns a panicking cell into
//!    `DNF(panic: ...)` instead of killing the grid. The deliberate
//!    exceptions are [`faults::FatalFault`] and [`sgnn_train::Killed`]
//!    (an injected mid-training kill), which are re-raised to simulate a
//!    crash/kill.
//! 5. **Bounded retry** — a diverged attempt is retried up to `retries`
//!    times, climbing the recovery ladder: **warm restart** from the last
//!    good checkpoint with a halved learning rate and gradient clipping
//!    (counter `retry.warm`) when a snapshot exists, else a **fresh-seed**
//!    restart (counter `retry.fresh`); timeouts and panics are not retried
//!    (they would fail identically).
//! 6. **Durability** — [`CellRunner::run_report`]'s outcome (done *or*
//!    DNF) is appended to the store and flushed before the next cell
//!    starts; training checkpoints go to a per-cell directory under the
//!    policy's `ckpt_root`. [`CellRunner::run_value`] stores nothing.
//!
//! The done/skip/DNF/retry tallies are `sgnn-obs` counters: they feed the
//! `experiments` exit code via [`counts`] / [`failure_summary`], and a trace
//! records them.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use sgnn_core::SpectralFilter;
use sgnn_data::Dataset;
use sgnn_obs as obs;
use sgnn_sparse::PropMatrix;
use sgnn_train::memory::{device, StepShape};
use sgnn_train::{Scheme, TrainConfig, TrainError, TrainReport, Trained};

use crate::faults::{self, FatalFault, Injection};
use crate::harness::{progress, Opts};
use crate::store::{CellKey, CellOutcome, RunStore};
use crate::table::Cell;

/// Retry/timeout/checkpoint policy of one run (from `--retries`,
/// `--cell-timeout-s`, `--ckpt-every`, `--ckpt-dir`).
#[derive(Clone, Debug)]
pub struct CellPolicy {
    /// Extra attempts after a diverged first attempt.
    pub retries: usize,
    /// Per-attempt wall-clock budget in seconds (0 = unlimited).
    pub time_budget_s: f64,
    /// Checkpoint cadence in epochs (0 = off).
    pub ckpt_every: usize,
    /// Root directory for per-cell checkpoint directories (None = off).
    pub ckpt_root: Option<String>,
}

impl Default for CellPolicy {
    fn default() -> Self {
        Self {
            retries: 1,
            time_budget_s: 0.0,
            ckpt_every: 0,
            ckpt_root: None,
        }
    }
}

/// Per-attempt context handed to the cell closure.
#[derive(Clone, Debug)]
pub struct CellCtx {
    /// Seed for this attempt. Warm restarts keep the base seed (the
    /// checkpoint belongs to it); fresh restarts decorrelate.
    pub seed: u64,
    /// 0-based attempt number.
    pub attempt: u64,
    /// Remaining wall-clock budget (0 = unlimited).
    pub time_budget_s: f64,
    /// True when this attempt resumes from a checkpoint with recovery
    /// hyperparameters (halved learning rate, clipping on).
    pub warm: bool,
    /// Checkpoint cadence for this cell (0 = off).
    pub ckpt_every: usize,
    /// This cell's checkpoint directory, when checkpointing is enabled.
    pub ckpt_dir: Option<String>,
    cell_index: u64,
}

impl CellCtx {
    /// Applies this attempt to a training config: seed, cooperative
    /// deadline, checkpointing, warm-restart recovery hyperparameters, and
    /// any scheduled fault injections.
    pub fn apply(&self, cfg: &mut TrainConfig) {
        cfg.seed = self.seed;
        cfg.time_budget_s = self.time_budget_s;
        cfg.ckpt_every = self.ckpt_every;
        cfg.ckpt_dir = self.ckpt_dir.clone();
        cfg.inject_nan_after_epoch = faults::nan_after_epoch(self.cell_index, self.attempt);
        cfg.inject_kill_after_epoch = faults::kill_after_epoch(self.cell_index);
        if self.warm {
            // Recovery ladder rung 1: resume the diverged trajectory from
            // its last good snapshot, but gentler — halve the learning
            // rates per warm attempt and clip exploding gradients.
            let scale = 0.5f32.powi(self.attempt as i32);
            cfg.lr *= scale;
            cfg.lr_filter *= scale;
            if cfg.clip_norm == 0.0 {
                cfg.clip_norm = 1.0;
            }
        }
    }
}

/// A cell as the runner takes it: its key, and the training step whose
/// device bytes decide whether it runs at all.
pub struct Job<'a> {
    key: CellKey,
    step: Option<StepShape<'a>>,
}

impl CellKey {
    /// This cell, training `step`.
    pub fn training(self, step: StepShape<'_>) -> Job<'_> {
        Job {
            key: self,
            step: Some(step),
        }
    }
}

/// A cell outside every table, named by `label` alone, with no modelled
/// step: never over the budget.
impl From<&str> for Job<'_> {
    fn from(label: &str) -> Self {
        let key = CellKey::new(label, "", "", "", "", 0);
        Job { key, step: None }
    }
}

static DONE: obs::Counter = obs::Counter::new("cell.done");
static SKIPPED: obs::Counter = obs::Counter::new("cell.skipped");
/// Cells that did not finish, a stored DNF served on resume included.
static DNF: obs::Counter = obs::Counter::new("cell.dnf");
static RETRY_WARM: obs::Counter = obs::Counter::new("retry.warm");
static RETRY_FRESH: obs::Counter = obs::Counter::new("retry.fresh");
static WARM_RESTARTS: obs::Counter = obs::Counter::new("train.warm_restarts");

/// Point-in-time copy of the process-wide cell tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCounts {
    pub done: u64,
    pub skipped: u64,
    pub dnf: u64,
    /// Retries resumed from a checkpoint (recovery ladder rung 1).
    pub retries_warm: u64,
    /// Retries restarted from scratch with a fresh seed (rung 2).
    pub retries_fresh: u64,
}

/// Reads the process-wide tallies.
pub fn counts() -> RunCounts {
    RunCounts {
        done: DONE.get(),
        skipped: SKIPPED.get(),
        dnf: DNF.get(),
        retries_warm: RETRY_WARM.get(),
        retries_fresh: RETRY_FRESH.get(),
    }
}

/// One-line failure summary when any cell did not finish, else `None`.
pub fn failure_summary() -> Option<String> {
    let c = counts();
    if c.dnf == 0 {
        return None;
    }
    Some(format!(
        "{} cell(s) DNF ({} done, {} resumed from store, {} warm + {} fresh retries)",
        c.dnf, c.done, c.skipped, c.retries_warm, c.retries_fresh
    ))
}

/// Where a decoupled-model cell trains: the data, its operator, and the
/// config before each attempt's settings.
pub(crate) struct Setting {
    pub(crate) data: Dataset,
    pub(crate) op: Arc<PropMatrix>,
    pub(crate) cfg: TrainConfig,
}

impl Setting {
    /// Dataset `name` generated with `seed` at `opts`' scale, and its
    /// operator at `cfg.rho`.
    pub(crate) fn load(opts: &Opts, name: &str, seed: u64, cfg: TrainConfig) -> Self {
        let data = opts.load_dataset(name, seed);
        let op = Arc::new(PropMatrix::new(&data.graph, cfg.rho));
        Self { data, op, cfg }
    }

    /// One attempt of `filter` under `scheme`, at the config `ctx` sets.
    fn train(
        &self,
        scheme: Scheme,
        filter: Arc<dyn SpectralFilter>,
        ctx: &CellCtx,
    ) -> Result<Trained, TrainError> {
        let mut cfg = self.cfg.clone();
        ctx.apply(&mut cfg);
        let op = Some(Arc::clone(&self.op));
        scheme.try_train(filter, &self.data, op, &cfg)
    }
}

/// A stored or fresh outcome as [`CellRunner::run_report`] returns it.
fn verdict(outcome: CellOutcome) -> Result<TrainReport, Cell> {
    match outcome {
        CellOutcome::Done(report) => Ok(report),
        CellOutcome::Dnf { reason } => Err(Cell::Dnf(reason)),
    }
}

/// Runs grid cells with resume, retry, timeout, and panic capture.
pub struct CellRunner {
    store: Option<RunStore>,
    policy: CellPolicy,
    /// Device bytes a cell's step may take (`--device-budget-mb`).
    device_budget: usize,
}

impl CellRunner {
    /// A runner configured from the shared experiment options: opens the
    /// resume store when `--resume <dir>` was given.
    ///
    /// # Panics
    /// Panics if the store directory cannot be opened — silently running
    /// without durability would defeat the point of `--resume`.
    pub fn for_opts(opts: &Opts) -> Self {
        let store = opts.resume.as_ref().map(|dir| {
            let store = RunStore::open(std::path::Path::new(dir), &opts.fingerprint())
                .unwrap_or_else(|e| panic!("cannot open run store {dir}: {e}"));
            let stats = store.load_stats();
            if stats.loaded + stats.stale + stats.dropped > 0 {
                progress(&format!(
                    "[store] {}: {} usable cell(s), {} stale, {} torn",
                    store.path().display(),
                    stats.loaded,
                    stats.stale,
                    stats.dropped
                ));
            }
            store
        });
        Self {
            store,
            policy: opts.policy(),
            device_budget: opts.device_budget,
        }
    }

    /// A store-less runner with an explicit policy and no device budget.
    pub fn with_policy(policy: CellPolicy) -> Self {
        Self {
            store: None,
            policy,
            device_budget: usize::MAX,
        }
    }

    /// Runs one report-producing cell through the preamble and the full
    /// stack. Returns the stored outcome unexecuted on a resume hit. `Err`
    /// is the cell's table marker: `(OOM)` or `DNF(reason)`.
    pub fn run_report<'a>(
        &mut self,
        job: impl Into<Job<'a>>,
        base_seed: u64,
        f: impl FnMut(&CellCtx) -> Result<TrainReport, TrainError>,
    ) -> Result<TrainReport, Cell> {
        let job = job.into();
        let _sp = self.admit(&job)?;
        if let Some(stored) = self.store.as_ref().and_then(|s| s.get(&job.key)) {
            SKIPPED.incr();
            if let CellOutcome::Dnf { .. } = stored {
                // A stored DNF still counts as a failure of this run's grid.
                DNF.incr();
            }
            return verdict(stored.clone());
        }
        let outcome = match self.attempts(&job.key, base_seed, f) {
            Ok(report) => CellOutcome::Done(report),
            Err(reason) => CellOutcome::Dnf { reason },
        };
        if let Some(store) = self.store.as_mut() {
            if let Err(e) = store.put(job.key, outcome.clone()) {
                progress(&format!("warning: cannot persist cell: {e}"));
            }
        }
        verdict(outcome)
    }

    /// Runs one cell producing an arbitrary value `T` (logit matrices,
    /// baseline rows) through the same preamble and fault/retry/panic
    /// handling, but the result is not persisted — only report-shaped
    /// cells resume.
    pub fn run_value<'a, T>(
        &mut self,
        job: impl Into<Job<'a>>,
        base_seed: u64,
        f: impl FnMut(&CellCtx) -> Result<T, TrainError>,
    ) -> Result<T, Cell> {
        let job = job.into();
        let _sp = self.admit(&job)?;
        self.attempts(&job.key, base_seed, f).map_err(Cell::Dnf)
    }

    /// Trains `filter()` under `scheme` at `at` as the cell `key`, stored
    /// for resume.
    pub(crate) fn train_report(
        &mut self,
        key: CellKey,
        scheme: Scheme,
        at: &Setting,
        filter: impl Fn() -> Arc<dyn SpectralFilter>,
    ) -> Result<TrainReport, Cell> {
        let shaped = filter();
        let step = StepShape::decoupled(scheme, shaped.as_ref(), &at.data, &at.op, &at.cfg);
        let seed = key.seed;
        self.run_report(key.training(step), seed, |ctx| {
            at.train(scheme, filter(), ctx).map(|t| t.report)
        })
    }

    /// Trains `filter()` full-batch at `at` as the cell `key`, not stored,
    /// and returns `then` of the trained model.
    pub(crate) fn train_value<T>(
        &mut self,
        key: CellKey,
        at: &Setting,
        filter: impl Fn() -> Arc<dyn SpectralFilter>,
        then: impl Fn(Trained) -> T,
    ) -> Result<T, Cell> {
        let (shaped, scheme) = (filter(), Scheme::FullBatch);
        let step = StepShape::decoupled(scheme, shaped.as_ref(), &at.data, &at.op, &at.cfg);
        let seed = key.seed;
        self.run_value(key.training(step), seed, |ctx| {
            at.train(scheme, filter(), ctx).map(&then)
        })
    }

    /// The preamble of every cell: over the device budget it is `(OOM)`
    /// and runs nothing; otherwise its `cell` span opens.
    fn admit(&self, job: &Job<'_>) -> Result<Option<obs::SpanGuard>, Cell> {
        let over = |step: StepShape<'_>| device(&step).total() > self.device_budget;
        if job.step.is_some_and(over) {
            return Err(Cell::Oom);
        }
        let k = &job.key;
        Ok(obs::span!(
            "cell",
            exp = k.exp.as_str(),
            filter = k.filter.as_str(),
            dataset = k.dataset.as_str(),
            scheme = k.scheme.as_str(),
            variant = k.variant.as_str(),
            seed = k.seed,
        ))
    }

    /// The attempt loop shared by both entry points.
    fn attempts<T, F>(&mut self, key: &CellKey, base_seed: u64, mut f: F) -> Result<T, String>
    where
        F: FnMut(&CellCtx) -> Result<T, TrainError>,
    {
        let label = &key.label();
        let cell_index = faults::next_cell_index();
        // Each cell reports its own RAM high-water mark: without this reset
        // the tracking allocator's peak carries over from whichever earlier
        // cell was largest, and every subsequent span records that stale
        // value. The process-wide peak survives in `ram_lifetime_peak`.
        sgnn_train::memory::ram_reset_peak();
        let started = std::time::Instant::now();
        // Per-cell checkpoint directory, derived from the label so a resumed
        // run maps each cell back to the same snapshots.
        let ckpt_dir = self.policy.ckpt_root.as_ref().map(|root| {
            let slug: String = label
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect();
            format!("{root}/{slug}")
        });
        let mut attempt: u64 = 0;
        let mut warm = false;
        loop {
            let ctx = CellCtx {
                // Warm restarts keep the grid's own seed — the snapshot is
                // tied to it. Fresh retries decorrelate via a large odd
                // stride; attempt 0 keeps the base seed so resumed tables
                // match clean runs.
                seed: if warm {
                    base_seed
                } else {
                    base_seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                },
                attempt,
                time_budget_s: self.policy.time_budget_s,
                warm,
                ckpt_every: self.policy.ckpt_every,
                ckpt_dir: ckpt_dir.clone(),
                cell_index,
            };
            // The fault hook runs inside the catch so an injected `panic`
            // is captured like any real cell panic; only `fail` (the
            // FatalFault payload) is re-raised below.
            let budget = self.policy.time_budget_s;
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                match faults::on_cell_start(cell_index, attempt) {
                    Some(Injection::Diverge) => Err(TrainError::Diverged {
                        epoch: 0,
                        param: None,
                    }),
                    None if budget > 0.0 && started.elapsed().as_secs_f64() > budget => {
                        // The budget expired before training could start
                        // (e.g. an injected or real stall in setup).
                        Err(TrainError::Timeout {
                            epoch: 0,
                            budget_s: budget,
                        })
                    }
                    None => f(&ctx),
                }
            }));
            match result {
                Ok(Ok(value)) => {
                    DONE.incr();
                    return Ok(value);
                }
                Ok(Err(err @ TrainError::Diverged { .. })) => {
                    if attempt < self.policy.retries as u64 {
                        attempt += 1;
                        // An injected `corrupt` clause fires between the
                        // failed attempt and the resumability check so the
                        // CRC fallback to the previous snapshot is exercised.
                        if let Some(dir) = ckpt_dir.as_deref() {
                            faults::maybe_corrupt_checkpoint(cell_index, std::path::Path::new(dir));
                        }
                        warm = ckpt_dir.as_deref().is_some_and(|dir| {
                            sgnn_train::peek_resumable(std::path::Path::new(dir), base_seed)
                        });
                        if warm {
                            RETRY_WARM.incr();
                            WARM_RESTARTS.incr();
                            progress(&format!(
                                "[retry] {label}: {err}; warm restart {attempt} from checkpoint \
                                 (lr halved, clipping on)"
                            ));
                        } else {
                            RETRY_FRESH.incr();
                            progress(&format!(
                                "[retry] {label}: {err}; attempt {attempt} with fresh seed"
                            ));
                        }
                        continue;
                    }
                    return Err(self.dnf(label, format!("{err} (after {} attempts)", attempt + 1)));
                }
                Ok(Err(err @ TrainError::Timeout { .. })) => {
                    return Err(self.dnf(label, err.to_string()));
                }
                Err(payload) => {
                    if payload.is::<FatalFault>() || payload.is::<sgnn_train::Killed>() {
                        std::panic::resume_unwind(payload);
                    }
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    return Err(self.dnf(label, format!("panic: {msg}")));
                }
            }
        }
    }

    fn dnf(&self, label: &str, reason: String) -> String {
        DNF.incr();
        progress(&format!("[dnf] {label}: {reason}"));
        reason
    }
}
