//! Unit tests of the fault-tolerant cell runner: panic capture, bounded
//! retry (fresh-seed rung — the warm rung is covered by `warm_restart.rs`),
//! wall-clock timeout, store-backed resume, the process-wide tallies that
//! drive the `experiments` exit code, and the Table 6 baselines running
//! under all of it.
//!
//! The fault plan and tallies are process globals, so every test serializes
//! on one lock, clears the plan on entry and (via the guard's `Drop`) on
//! exit, and reads the tallies as deltas from its entry.

use std::sync::{Mutex, MutexGuard};

use sgnn_bench::faults;
use sgnn_bench::runner::{counts, failure_summary, CellPolicy, CellRunner, RunCounts};
use sgnn_bench::table::Cell;
use sgnn_train::{TrainError, TrainReport};

static GLOBALS: Mutex<()> = Mutex::new(());

/// The lock, and the tallies at entry.
struct Isolated(#[allow(dead_code)] MutexGuard<'static, ()>, RunCounts);

impl Isolated {
    /// The tallies this test has added since entry.
    fn counts(&self) -> RunCounts {
        let (now, b) = (counts(), self.1);
        RunCounts {
            done: now.done - b.done,
            skipped: now.skipped - b.skipped,
            dnf: now.dnf - b.dnf,
            retries_warm: now.retries_warm - b.retries_warm,
            retries_fresh: now.retries_fresh - b.retries_fresh,
        }
    }
}

impl Drop for Isolated {
    fn drop(&mut self) {
        faults::clear();
    }
}

fn isolate() -> Isolated {
    let guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear();
    Isolated(guard, counts())
}

/// The reason of a `DNF` marker.
fn reason(marker: Cell) -> String {
    match marker {
        Cell::Dnf(reason) => reason,
        other => panic!("not a DNF: {other:?}"),
    }
}

fn report(seed: u64) -> TrainReport {
    TrainReport {
        filter: "PPR".into(),
        dataset: "cora".into(),
        scheme: "FB".into(),
        test_metric: 0.5 + seed as f64 * 1e-6,
        ..Default::default()
    }
}

#[test]
fn panicking_cell_becomes_dnf_not_a_crash() {
    // Untraced on purpose: the exit code must not depend on tracing.
    let iso = isolate();
    sgnn_obs::disable();
    let dnf = || sgnn_obs::snapshot().counter("cell.dnf").unwrap_or(0);
    let dnf_before = dnf();
    let mut runner = CellRunner::with_policy(CellPolicy::default());
    let err = runner
        .run_value::<TrainReport>("t/panic", 0, |_ctx| panic!("boom at cell"))
        .unwrap_err();
    let err = reason(err);
    assert!(err.contains("panic: boom at cell"), "{err}");
    let c = iso.counts();
    assert_eq!((c.done, c.dnf, c.retries_fresh), (0, 1, 0));
    assert_eq!(dnf() - dnf_before, 1, "`cell.dnf` counts with tracing off");
    assert!(failure_summary().is_some(), "a DNF cell fails the run");
}

#[test]
fn diverged_cell_retries_with_a_fresh_seed_and_succeeds() {
    let iso = isolate();
    let mut runner = CellRunner::with_policy(CellPolicy {
        retries: 2,
        time_budget_s: 0.0,
        ..Default::default()
    });
    let mut seeds_seen = Vec::new();
    let base = 7u64;
    let got = runner
        .run_value("t/flaky", base, |ctx| {
            seeds_seen.push(ctx.seed);
            if ctx.attempt == 0 {
                Err(TrainError::Diverged {
                    epoch: 3,
                    param: None,
                })
            } else {
                Ok(report(ctx.seed))
            }
        })
        .unwrap();
    assert_eq!(seeds_seen.len(), 2, "one retry after the diverged attempt");
    assert_eq!(seeds_seen[0], base, "attempt 0 keeps the grid's seed");
    assert_ne!(seeds_seen[1], base, "the retry must decorrelate");
    assert_eq!(got.test_metric, report(seeds_seen[1]).test_metric);
    let c = iso.counts();
    assert_eq!((c.done, c.dnf, c.retries_fresh), (1, 0, 1));
    assert_eq!(c.retries_warm, 0, "no checkpoint dir, so no warm rung");
}

#[test]
fn diverged_cell_exhausts_retries_into_dnf_with_epoch() {
    let iso = isolate();
    let mut runner = CellRunner::with_policy(CellPolicy {
        retries: 1,
        time_budget_s: 0.0,
        ..Default::default()
    });
    let err = runner
        .run_value::<TrainReport>("t/dnf", 0, |_ctx| {
            Err(TrainError::Diverged {
                epoch: 5,
                param: None,
            })
        })
        .unwrap_err();
    let err = reason(err);
    assert!(
        err.contains("diverged at epoch 5") && err.contains("after 2 attempts"),
        "{err}"
    );
    let c = iso.counts();
    assert_eq!((c.done, c.dnf, c.retries_fresh), (0, 1, 1));
}

#[test]
fn injected_slow_cell_trips_the_wall_clock_budget() {
    let iso = isolate();
    faults::install(faults::parse("slow cell=0 dur=0.15").unwrap());
    let mut runner = CellRunner::with_policy(CellPolicy {
        retries: 3,
        time_budget_s: 0.05,
        ..Default::default()
    });
    let err = runner
        .run_value("t/slow", 0, |ctx| Ok(report(ctx.seed)))
        .unwrap_err();
    let err = reason(err);
    assert!(err.contains("timeout"), "{err}");
    let c = iso.counts();
    assert_eq!(
        (c.done, c.dnf, c.retries_fresh),
        (0, 1, 0),
        "timeouts never retry"
    );
}

#[test]
fn flaky_fault_injection_drives_the_retry_path() {
    let iso = isolate();
    faults::install(faults::parse("flaky cell=0 fails=1").unwrap());
    let mut runner = CellRunner::with_policy(CellPolicy::default());
    let got = runner
        .run_value("t/inj", 3, |ctx| Ok(report(ctx.seed)))
        .unwrap();
    assert_ne!(
        got.test_metric,
        report(3).test_metric,
        "succeeded on retry seed"
    );
    let c = iso.counts();
    assert_eq!((c.done, c.retries_fresh, c.dnf), (1, 1, 0));
}

#[test]
fn store_hit_skips_execution_and_counts_resume() {
    let iso = isolate();
    let dir = std::env::temp_dir().join(format!("sgnn_runner_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = sgnn_bench::Opts::tiny();
    opts.resume = Some(dir.to_string_lossy().into_owned());
    let key = "t/PPR/cora/FB";

    let mut first = CellRunner::for_opts(&opts);
    let out = first.run_report(key, 0, |ctx| Ok(report(ctx.seed)));
    assert!(out.is_ok());
    assert_eq!(iso.counts().done, 1);

    // A second runner over the same directory must serve the stored outcome
    // without running the closure at all.
    let mut second = CellRunner::for_opts(&opts);
    let resumed = second.run_report(key, 0, |_ctx| {
        panic!("must not execute: the store already holds this cell")
    });
    assert_eq!(resumed.unwrap().test_metric, report(0).test_metric);
    let c = iso.counts();
    assert_eq!((c.done, c.skipped, c.dnf), (1, 1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stored_dnf_is_skipped_but_still_fails_the_run() {
    let mut iso = isolate();
    let dir = std::env::temp_dir().join(format!("sgnn_runner_dnf_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = sgnn_bench::Opts::tiny();
    opts.resume = Some(dir.to_string_lossy().into_owned());
    opts.retries = 0;
    let key = "t/PPR/cora/FB/s1";

    let mut first = CellRunner::for_opts(&opts);
    let out = first.run_report(key, 1, |_ctx| {
        Err::<TrainReport, _>(TrainError::Diverged {
            epoch: 0,
            param: None,
        })
    });
    assert!(matches!(out, Err(Cell::Dnf(_))));
    iso.1 = counts();

    let mut second = CellRunner::for_opts(&opts);
    let resumed = second.run_report(key, 1, |ctx| Ok(report(ctx.seed)));
    assert!(
        matches!(resumed, Err(Cell::Dnf(_))),
        "stored DNF is not re-run"
    );
    let c = iso.counts();
    assert_eq!((c.skipped, c.dnf, c.done), (1, 1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table6_cell_with_an_injected_nan_is_a_dnf_row_and_fails_the_run() {
    // The baselines train through the same epoch driver as the two schemes,
    // so the fault that poisons a Table 5 cell poisons a Table 6 cell: the
    // first one (GCN on SP) diverges on every attempt, the others finish.
    let iso = isolate();
    faults::install(faults::parse("nan cell=0 after-epoch=1").unwrap());
    let mut opts = sgnn_bench::Opts::tiny();
    opts.datasets = vec!["cora".into()];
    opts.epochs = 3;
    let out = sgnn_bench::exp_table6::run(&opts);
    let gcn_sp = out.lines().find(|l| l.starts_with("GCN ")).unwrap();
    assert!(
        gcn_sp.contains("DNF(diverged at epoch 1 (after 2 attempts))"),
        "{out}"
    );
    assert_eq!(out.matches("DNF(").count(), 1, "{out}");
    let c = iso.counts();
    assert_eq!((c.done, c.dnf, c.retries_fresh), (6, 1, 1));
    assert!(failure_summary().is_some(), "a DNF cell fails the run");
}
