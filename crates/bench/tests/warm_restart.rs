//! End-to-end recovery-ladder test: a cell that diverges on its first
//! attempt, whose **latest** checkpoint is then corrupted by an injected
//! `corrupt` fault, must fall back to the previous good snapshot (CRC catch)
//! and finish via a **warm restart** — no DNF, no fresh-seed restart. This
//! exercises the full chain: trainer-side periodic snapshots → fault-plan
//! byte flip → `peek_resumable` fallback → halved-lr resume inside the cell
//! runner, with the `retry.warm` / `ckpt.*` counters as the audit trail.
//!
//! The fault plan, runner tallies, and obs registry are process globals, so
//! the tests serialize on one lock, clear the plan on entry and exit, and
//! read tallies and counters as deltas.

use std::sync::{Mutex, MutexGuard};

use sgnn_bench::faults;
use sgnn_bench::runner::{CellPolicy, CellRunner};
use sgnn_core::make_filter;
use sgnn_data::{dataset_spec, GenScale};
use sgnn_train::{Scheme, TrainConfig};

static GLOBALS: Mutex<()> = Mutex::new(());

struct Isolated(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Isolated {
    fn drop(&mut self) {
        faults::clear();
    }
}

fn isolate() -> Isolated {
    let guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear();
    Isolated(guard)
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sgnn_warm_restart_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn counter_delta(after: &sgnn_obs::Snapshot, before: &sgnn_obs::Snapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// Runner tallies added since `before`: (done, dnf, warm, fresh retries).
fn tallies(before: &sgnn_obs::Snapshot) -> (u64, u64, u64, u64) {
    let after = sgnn_obs::snapshot();
    let delta = |name| counter_delta(&after, before, name);
    (
        delta("cell.done"),
        delta("cell.dnf"),
        delta("retry.warm"),
        delta("retry.fresh"),
    )
}

#[test]
fn corrupted_latest_checkpoint_falls_back_to_prev_and_warm_restarts() {
    let _iso = isolate();
    let before = sgnn_obs::snapshot();

    // Attempt 0 diverges after epoch 2 (attempt-gated, so the warm restart
    // is clean); the corrupt clause then bit-flips the newest snapshot.
    faults::install(faults::parse("nan after-epoch=2 cell=0 fails=1; corrupt cell=0").unwrap());

    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
    let ckpt_root = fresh_dir("fallback");
    let mut runner = CellRunner::with_policy(CellPolicy {
        retries: 2,
        time_budget_s: 0.0,
        ckpt_every: 1,
        ckpt_root: Some(ckpt_root.to_string_lossy().into_owned()),
    });

    let mut cfg = TrainConfig::fast_test(0);
    cfg.epochs = 8;
    let base_lr = cfg.lr;
    let mut warm_lrs = Vec::new();
    let report = runner
        .run_value("warm/cora", 0, |ctx| {
            let mut cfg = cfg.clone();
            ctx.apply(&mut cfg);
            if ctx.warm {
                warm_lrs.push((cfg.lr, cfg.clip_norm));
            }
            Scheme::FullBatch
                .try_train(make_filter("PPR", cfg.hops).unwrap(), &data, None, &cfg)
                .map(|t| t.report)
        })
        .expect("warm restart must recover the cell without a DNF");
    assert_eq!(report.epochs_run, 8);

    assert_eq!(
        tallies(&before),
        (1, 0, 1, 0),
        "exactly one warm retry, never the fresh-seed rung"
    );
    // The recovery hyperparameters reached the trainer: halved lr, clip on.
    assert_eq!(warm_lrs, vec![(base_lr * 0.5, 1.0)]);

    let after = sgnn_obs::snapshot();
    assert_eq!(counter_delta(&after, &before, "train.warm_restarts"), 1);
    // The flipped byte was detected (corrupt tally) and the previous
    // snapshot was the one actually loaded.
    assert!(counter_delta(&after, &before, "ckpt.corrupt") >= 1);
    assert_eq!(counter_delta(&after, &before, "ckpt.loaded"), 1);
    assert!(counter_delta(&after, &before, "ckpt.written") >= 2);

    let _ = std::fs::remove_dir_all(&ckpt_root);
}

#[test]
fn diverged_cell_without_checkpoints_still_takes_the_fresh_rung() {
    let _iso = isolate();
    let before = sgnn_obs::snapshot();
    // Same divergence, but checkpointing is off: the ladder must skip the
    // warm rung and land on a fresh-seed restart.
    faults::install(faults::parse("nan after-epoch=2 cell=0 fails=1").unwrap());

    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
    let mut runner = CellRunner::with_policy(CellPolicy {
        retries: 2,
        ..Default::default()
    });
    let mut cfg = TrainConfig::fast_test(0);
    cfg.epochs = 8;
    let mut seeds = Vec::new();
    runner
        .run_value("fresh/cora", 7, |ctx| {
            let mut cfg = cfg.clone();
            ctx.apply(&mut cfg);
            assert!(!ctx.warm, "no snapshots exist, so no warm restart");
            seeds.push(cfg.seed);
            Scheme::FullBatch
                .try_train(make_filter("PPR", cfg.hops).unwrap(), &data, None, &cfg)
                .map(|t| t.report)
        })
        .expect("fresh restart must recover");
    assert_eq!(seeds[0], 7);
    assert_ne!(seeds[1], 7, "the fresh rung decorrelates the seed");
    assert_eq!(tallies(&before), (1, 0, 0, 1));
}
