//! End-to-end crash-resume determinism: a training run killed mid-flight
//! (injected [`sgnn_train::Killed`] panic) and then resumed from its
//! checkpoints must produce final metrics **bit-for-bit identical** to the
//! same run never having been interrupted — for both learning schemes. This
//! is the property that makes warm restarts and `--resume` trustworthy:
//! recovery never silently changes the science.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use sgnn_core::make_filter;
use sgnn_data::{dataset_spec, Dataset, GenScale};
use sgnn_train::{Killed, Scheme, TrainConfig, TrainError, TrainReport};

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sgnn_ckpt_resume_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cora() -> Dataset {
    dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0)
}

fn base_cfg(seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::fast_test(seed);
    cfg.epochs = 12;
    // Exercise the best-validation state across the kill boundary too.
    cfg.patience = 30;
    cfg
}

/// The deterministic subset of a report — wall-clock fields necessarily
/// differ between runs.
fn deterministic_fields(r: &TrainReport) -> (u64, u64, usize, usize, usize) {
    (
        r.test_metric.to_bits(),
        r.valid_metric.to_bits(),
        r.epochs_run,
        r.prop_hops,
        r.device_bytes,
    )
}

fn run_killed_then_resumed<F>(dir: &std::path::Path, cfg: &TrainConfig, train: F) -> TrainReport
where
    F: Fn(&TrainConfig) -> Result<TrainReport, TrainError>,
{
    // Leg 1: killed right after epoch 6 completes. Periodic snapshots exist
    // for epochs 2, 4, and 6 by then (ckpt_every = 2).
    let mut killed_cfg = cfg.clone();
    killed_cfg.ckpt_every = 2;
    killed_cfg.ckpt_dir = Some(dir.to_string_lossy().into_owned());
    killed_cfg.inject_kill_after_epoch = Some(6);
    let payload = catch_unwind(AssertUnwindSafe(|| train(&killed_cfg)))
        .expect_err("the injected kill must unwind out of the trainer");
    let killed = payload
        .downcast_ref::<Killed>()
        .expect("panic payload must be the typed Killed marker");
    assert!(killed.0.contains("epoch 6"), "{}", killed.0);

    // Leg 2: same config, kill disarmed — must resume from the snapshots
    // instead of starting over.
    let mut resume_cfg = killed_cfg.clone();
    resume_cfg.inject_kill_after_epoch = None;
    train(&resume_cfg).expect("resumed run must finish")
}

#[test]
fn fb_kill_and_resume_is_bit_identical_to_uninterrupted() {
    let data = cora();
    let cfg = base_cfg(11);
    let hops = cfg.hops;
    let train = |c: &TrainConfig| {
        Scheme::FullBatch
            .try_train(make_filter("PPR", hops).unwrap(), &data, None, c)
            .map(|t| t.report)
    };

    let uninterrupted = train(&cfg).expect("clean run");
    let dir = fresh_dir("fb");
    let resumed = run_killed_then_resumed(&dir, &cfg, train);
    assert_eq!(
        deterministic_fields(&resumed),
        deterministic_fields(&uninterrupted),
        "resumed {resumed:?} vs uninterrupted {uninterrupted:?}"
    );
    // A finished run leaves nothing to resume: the trainer cleared its
    // snapshots, so a re-run trains from scratch, not from stale state.
    assert!(!sgnn_train::peek_resumable(&dir, cfg.seed));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mb_kill_and_resume_is_bit_identical_to_uninterrupted() {
    let data = cora();
    let mut cfg = base_cfg(13);
    // Several batches per epoch so the resumed shuffled order matters.
    cfg.batch_size = 512;
    let hops = cfg.hops;
    let train = |c: &TrainConfig| {
        Scheme::MiniBatch
            .try_train(make_filter("PPR", hops).unwrap(), &data, None, c)
            .map(|t| t.report)
    };

    let uninterrupted = train(&cfg).expect("clean run");
    let dir = fresh_dir("mb");
    let resumed = run_killed_then_resumed(&dir, &cfg, train);
    assert_eq!(
        deterministic_fields(&resumed),
        deterministic_fields(&uninterrupted),
        "resumed {resumed:?} vs uninterrupted {uninterrupted:?}"
    );
    assert!(!sgnn_train::peek_resumable(&dir, cfg.seed));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointing_itself_does_not_change_the_trajectory() {
    // Snapshots are observers: a run with ckpt_every on must equal a run
    // with checkpointing off, bit for bit.
    let data = cora();
    let cfg = base_cfg(17);
    let plain = Scheme::FullBatch
        .try_train(
            make_filter("Monomial", cfg.hops).unwrap(),
            &data,
            None,
            &cfg,
        )
        .map(|t| t.report)
        .unwrap();
    let dir = fresh_dir("observer");
    let mut ck_cfg = cfg.clone();
    ck_cfg.ckpt_every = 3;
    ck_cfg.ckpt_dir = Some(dir.to_string_lossy().into_owned());
    let observed = Scheme::FullBatch
        .try_train(
            make_filter("Monomial", cfg.hops).unwrap(),
            &data,
            None,
            &ck_cfg,
        )
        .map(|t| t.report)
        .unwrap();
    assert_eq!(
        deterministic_fields(&observed),
        deterministic_fields(&plain)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
