//! Deterministic fault injection for the experiment harness.
//!
//! The recovery machinery (store, retries, timeouts, exit codes) is only
//! trustworthy if CI can exercise it on demand, so every failure mode the
//! cell runner handles can be injected deterministically via the
//! `--faults` flag. The spec is a `;`-separated list of clauses:
//!
//! ```text
//! fail cell=K [after-epoch=E]
//!                        simulated crash: cell K aborts the whole run
//!                        (nothing recorded — models a kill/OOM; the store
//!                        keeps cells 0..K-1). With after-epoch=E the kill
//!                        fires *mid-training* once epoch E completes, so
//!                        any periodic checkpoints survive for a resume.
//! panic cell=K           cell K panics; captured as DNF(panic: ...)
//! flaky cell=K fails=N   cell K diverges on its first N attempts, then
//!                        succeeds (exercises retry-with-fresh-seed)
//! slow cell=K dur=S      cell K sleeps S seconds before training
//!                        (trips the cell wall-clock budget)
//! nan after-epoch=E [cell=K] [fails=N]
//!                        training loss turns NaN after epoch E (all cells,
//!                        or just cell K) — surfaces as TrainError::Diverged.
//!                        With fails=N only the first N attempts are
//!                        poisoned, so retries can recover.
//! corrupt cell=K         one-shot: at cell K's next retry boundary, flip a
//!                        byte in its latest checkpoint — the CRC must
//!                        reject it and fall back to the previous snapshot
//! ```
//!
//! Cell indices count cells *executed* by this process, 0-based, in grid
//! order; cells satisfied from the resume store never start and therefore
//! do not consume indices. Attempts of one cell share its index.
//!
//! The grammar's tokenizer and the process-global plan holder are
//! [`sgnn_obs::faults`]'s, shared with the serving domain; this module is
//! the harness's clause table and hooks. The `experiments` binary installs
//! the plan before dispatching. With no plan installed every hook is a
//! no-op, so production runs pay one mutex-free atomic load per cell.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sgnn_obs::faults::Plan;

/// One injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// Abort the entire run when this cell starts — or, with `after_epoch`
    /// set, mid-training once that epoch completes (simulated crash/kill).
    FailCell {
        cell: u64,
        after_epoch: Option<usize>,
    },
    /// Panic inside this cell (captured by the runner as a DNF).
    PanicCell { cell: u64 },
    /// Fail this cell's first `fails` attempts with a divergence.
    FlakyCell { cell: u64, fails: u64 },
    /// Sleep `dur` when this cell starts.
    SlowCell { cell: u64, dur: Duration },
    /// Turn the training loss NaN after the given epoch (optionally only in
    /// one cell, optionally only on the first `fails` attempts).
    NanAfterEpoch {
        epoch: usize,
        cell: Option<u64>,
        fails: Option<u64>,
    },
    /// One-shot: flip a byte in this cell's latest checkpoint file at its
    /// next retry boundary, exercising the CRC fallback path.
    CorruptCkpt { cell: u64 },
}

/// Panic payload of [`FaultSpec::FailCell`]. The cell runner recognizes it
/// and re-raises instead of capturing, so the injected "crash" propagates
/// exactly like a real one.
#[derive(Debug)]
pub struct FatalFault(pub String);

static PLAN: Plan<FaultSpec> = Plan::new();
static CELL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Injected faults that actually fired.
static INJECTED: sgnn_obs::Counter = sgnn_obs::Counter::new("faults.injected");

/// Parses a fault spec string (see the module docs for the grammar).
pub fn parse(spec: &str) -> Result<Vec<FaultSpec>, String> {
    sgnn_obs::faults::parse(spec, |c| {
        Ok(match c.kind {
            "fail" => FaultSpec::FailCell {
                cell: c.num("cell")?,
                after_epoch: c.opt_num("after-epoch")?.map(|e| e as usize),
            },
            "panic" => FaultSpec::PanicCell {
                cell: c.num("cell")?,
            },
            "flaky" => FaultSpec::FlakyCell {
                cell: c.num("cell")?,
                fails: c.num("fails")?,
            },
            "slow" => FaultSpec::SlowCell {
                cell: c.num("cell")?,
                dur: c.secs("dur")?,
            },
            "nan" => FaultSpec::NanAfterEpoch {
                epoch: c.num("after-epoch")? as usize,
                cell: c.opt_num("cell")?,
                fails: c.opt_num("fails")?,
            },
            "corrupt" => FaultSpec::CorruptCkpt {
                cell: c.num("cell")?,
            },
            other => return Err(c.error(format!("unknown fault kind `{other}`"))),
        })
    })
}

/// Installs a fault plan (replacing any previous one) and resets the cell
/// sequence.
pub fn install(specs: Vec<FaultSpec>) {
    CELL_SEQ.store(0, Ordering::Relaxed);
    PLAN.install(specs);
}

/// Removes the plan; all hooks become no-ops again.
pub fn clear() {
    CELL_SEQ.store(0, Ordering::Relaxed);
    PLAN.clear();
}

/// Claims the next executed-cell index. Called by the runner once per cell
/// that actually starts (store hits never claim an index).
pub(crate) fn next_cell_index() -> u64 {
    CELL_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Injected outcome of a cell-start hook.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Injection {
    /// Fail this attempt as if training diverged (retryable).
    Diverge,
}

/// Fires any faults scheduled for (`cell`, `attempt`). May sleep (`slow`),
/// panic (`panic`/`fail` — the latter with a [`FatalFault`] payload), or
/// request a retryable failure (`flaky`).
pub(crate) fn on_cell_start(cell: u64, attempt: u64) -> Option<Injection> {
    // Copied out: the clauses below sleep and panic, which must not happen
    // under the plan's lock.
    let plan = PLAN.with(|plan| plan.clone())?;
    let mut injection = None;
    for spec in &plan {
        match *spec {
            FaultSpec::FailCell {
                cell: c,
                after_epoch: None,
            } if c == cell => {
                INJECTED.incr();
                std::panic::panic_any(FatalFault(format!("injected fatal fault at cell {cell}")));
            }
            FaultSpec::PanicCell { cell: c } if c == cell => {
                INJECTED.incr();
                panic!("injected panic at cell {cell}");
            }
            FaultSpec::SlowCell { cell: c, dur } if c == cell => {
                INJECTED.incr();
                std::thread::sleep(dur);
            }
            FaultSpec::FlakyCell { cell: c, fails } if c == cell && attempt < fails => {
                INJECTED.incr();
                injection = Some(Injection::Diverge);
            }
            _ => {}
        }
    }
    injection
}

/// The NaN-injection epoch for (`cell`, `attempt`), if the plan schedules
/// one. A clause with `fails=N` only poisons the first N attempts, so the
/// recovery ladder can be exercised end-to-end.
pub(crate) fn nan_after_epoch(cell: u64, attempt: u64) -> Option<usize> {
    PLAN.with(|plan| {
        plan.iter().find_map(|spec| match *spec {
            FaultSpec::NanAfterEpoch {
                epoch,
                cell: c,
                fails,
            } if (c.is_none() || c == Some(cell)) && fails.is_none_or(|n| attempt < n) => {
                Some(epoch)
            }
            _ => None,
        })
    })?
}

/// The mid-training kill epoch for `cell`, if the plan schedules one
/// (`fail cell=K after-epoch=E`). The trainer raises a
/// [`sgnn_train::Killed`] panic at that epoch boundary, which the runner
/// re-raises like a real crash.
pub(crate) fn kill_after_epoch(cell: u64) -> Option<usize> {
    let hit = PLAN.with(|plan| {
        plan.iter().find_map(|spec| match *spec {
            FaultSpec::FailCell {
                cell: c,
                after_epoch: Some(epoch),
            } if c == cell => Some(epoch),
            _ => None,
        })
    })?;
    if hit.is_some() {
        INJECTED.incr();
    }
    hit
}

/// One-shot corruption hook: if the plan holds a `corrupt` clause for
/// `cell`, flips one byte in `dir`'s latest checkpoint file and removes the
/// clause (a second flip would restore the byte). Returns `true` when a
/// byte was actually flipped. Called by the runner at retry boundaries,
/// before the warm-restart peek.
pub(crate) fn maybe_corrupt_checkpoint(cell: u64, dir: &std::path::Path) -> bool {
    PLAN.with(|plan| {
        let Some(pos) = plan
            .iter()
            .position(|s| matches!(*s, FaultSpec::CorruptCkpt { cell: c } if c == cell))
        else {
            return false;
        };
        let path = dir.join(sgnn_train::checkpoint::LATEST_FILE);
        let Ok(mut bytes) = std::fs::read(&path) else {
            // No checkpoint yet — keep the clause armed for a later boundary.
            return false;
        };
        if bytes.is_empty() {
            return false;
        }
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        if std::fs::write(&path, &bytes).is_err() {
            return false;
        }
        plan.remove(pos);
        INJECTED.incr();
        true
    })
    .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_clause_kind() {
        let specs = parse("fail cell=2; nan after-epoch=3; slow cell=1 dur=0.25; panic cell=0; flaky cell=4 fails=2; nan after-epoch=1 cell=7 fails=1; fail cell=5 after-epoch=9; corrupt cell=6").unwrap();
        assert_eq!(
            specs,
            vec![
                FaultSpec::FailCell {
                    cell: 2,
                    after_epoch: None
                },
                FaultSpec::NanAfterEpoch {
                    epoch: 3,
                    cell: None,
                    fails: None
                },
                FaultSpec::SlowCell {
                    cell: 1,
                    dur: Duration::from_millis(250)
                },
                FaultSpec::PanicCell { cell: 0 },
                FaultSpec::FlakyCell { cell: 4, fails: 2 },
                FaultSpec::NanAfterEpoch {
                    epoch: 1,
                    cell: Some(7),
                    fails: Some(1)
                },
                FaultSpec::FailCell {
                    cell: 5,
                    after_epoch: Some(9)
                },
                FaultSpec::CorruptCkpt { cell: 6 },
            ]
        );
        assert!(parse("").unwrap().is_empty());
    }

    /// Serializes the tests that install a global plan.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn attempt_gated_nan_only_poisons_early_attempts() {
        let _g = TEST_LOCK.lock().unwrap();
        install(parse("nan after-epoch=2 cell=0 fails=1").unwrap());
        assert_eq!(nan_after_epoch(0, 0), Some(2));
        assert_eq!(nan_after_epoch(0, 1), None, "attempt 1 must run clean");
        assert_eq!(nan_after_epoch(1, 0), None, "other cells untouched");
        clear();
        assert_eq!(nan_after_epoch(0, 0), None);
    }

    #[test]
    fn corrupt_clause_flips_one_byte_once() {
        let _g = TEST_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("sgnn_fault_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(sgnn_train::checkpoint::LATEST_FILE);

        install(parse("corrupt cell=3").unwrap());
        // No checkpoint on disk yet: the clause stays armed.
        assert!(!maybe_corrupt_checkpoint(3, &dir));
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        // Wrong cell: untouched.
        assert!(!maybe_corrupt_checkpoint(2, &dir));
        assert!(maybe_corrupt_checkpoint(3, &dir), "clause fires");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.iter().filter(|&&b| b != 0).count(), 1);
        // One-shot: a second call must not flip the byte back.
        assert!(!maybe_corrupt_checkpoint(3, &dir));
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(parse("frobnicate cell=1")
            .unwrap_err()
            .contains("unknown fault kind"));
        assert!(parse("fail").unwrap_err().contains("missing cell="));
        assert!(parse("slow cell=1").unwrap_err().contains("missing dur="));
        assert!(parse("fail cell=x").unwrap_err().contains("cell"));
        assert!(parse("panic foo").unwrap_err().contains("key=value"));
    }

    /// A misspelled key used to be ignored — `cel=1` parsed to `cell: None`
    /// and poisoned every cell — and a negative or NaN `dur` parsed, then
    /// panicked in `Duration::from_secs_f64` when the cell started.
    #[test]
    fn rejects_unknown_keys_and_unusable_durations() {
        let e = parse("nan after-epoch=3 cel=1").unwrap_err();
        assert!(e.contains("unknown key `cel`"), "{e}");
        assert!(parse("fail cell=1 dur=2").unwrap_err().contains("`dur`"));
        for dur in ["-1", "nan", "inf"] {
            let e = parse(&format!("slow cell=0 dur={dur}")).unwrap_err();
            assert!(e.contains("dur"), "{e}");
        }
    }
}
