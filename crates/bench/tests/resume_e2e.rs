//! End-to-end resume: kill a grid mid-run with an injected fatal fault,
//! verify the store kept every finished cell, rerun with `--resume`, and
//! check the final table is byte-identical to an uninterrupted run while
//! only the missing cell actually executes. The killed half runs on one
//! pool lane and the resumed half on four: a cell's bits do not depend on
//! the core count.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sgnn_obs::json::{self, Value};

const GRID: &[&str] = &[
    "table5",
    "--scale",
    "tiny",
    "--seeds",
    "1",
    "--epochs",
    "3",
    "--hops",
    "2",
    "--hidden",
    "16",
    "--filters",
    "PPR,Chebyshev,Linear",
    "--datasets",
    "cora",
];

/// Runs the grid with `extra` flags at pool width `threads` (the host's
/// default when `None`), with no ambient trace config from the caller.
fn run(extra: &[&str], threads: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(GRID)
        .args(extra)
        .env_remove("SGNN_TRACE")
        .env_remove("SGNN_THREADS");
    if let Some(n) = threads {
        cmd.env("SGNN_THREADS", n);
    }
    cmd.output().expect("spawn experiments")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgnn_resume_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn store_lines(dir: &Path) -> Vec<String> {
    std::fs::read_to_string(dir.join("cells.jsonl"))
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

/// Final value of each counter in a JSONL trace (flushes are cumulative, so
/// the last event per name wins).
fn final_counters(trace: &Path) -> std::collections::BTreeMap<String, u64> {
    let mut out = std::collections::BTreeMap::new();
    for line in std::fs::read_to_string(trace).unwrap().lines() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).unwrap();
        if v.get("kind").and_then(Value::as_str) == Some("counter") {
            let name = v.get("name").and_then(Value::as_str).unwrap().to_string();
            out.insert(name, v.get("value").and_then(Value::as_u64).unwrap_or(0));
        }
    }
    out
}

#[test]
fn killed_run_resumes_to_a_byte_identical_table() {
    // 1. Uninterrupted reference run (no store, no faults).
    let clean = run(&[], None);
    assert!(clean.status.success(), "clean run must pass");
    let clean_stdout = String::from_utf8(clean.stdout).unwrap();
    assert!(clean_stdout.contains("Table 5"), "{clean_stdout}");

    // 2. Same grid, but cell 2 (the third of PPR, Chebyshev, Linear on one
    //    seed) hits an injected fatal fault — the process aborts nonzero and
    //    the store keeps exactly the two finished cells.
    let store = fresh_dir("store");
    let interrupted = run(
        &[
            "--resume",
            store.to_str().unwrap(),
            "--faults",
            "fail cell=2",
        ],
        Some("1"),
    );
    assert!(
        !interrupted.status.success(),
        "injected crash must exit nonzero"
    );
    let stderr = String::from_utf8_lossy(&interrupted.stderr);
    assert!(stderr.contains("[aborted]"), "{stderr}");
    let lines = store_lines(&store);
    assert_eq!(lines.len(), 2, "cells 0-1 persisted, in-flight cell lost");
    assert!(lines.iter().all(|l| l.contains("\"status\":\"done\"")));

    // 3. Resume without faults on four lanes: only the lost cell runs, the
    //    other two are served from the store, and stdout matches the clean
    //    run exactly.
    let trace = store.join("resume.jsonl");
    let resumed = run(
        &[
            "--resume",
            store.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ],
        Some("4"),
    );
    assert!(
        resumed.status.success(),
        "resumed run must pass: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_stdout = String::from_utf8(resumed.stdout).unwrap();
    assert_eq!(
        resumed_stdout, clean_stdout,
        "resumed table must be byte-identical to the uninterrupted run"
    );
    assert_eq!(store_lines(&store).len(), 3, "store now complete");

    let counters = final_counters(&trace);
    assert_eq!(counters.get("cell.skipped"), Some(&2), "{counters:?}");
    assert_eq!(counters.get("cell.done"), Some(&1), "{counters:?}");
    assert_eq!(counters.get("cell.dnf").copied().unwrap_or(0), 0);

    // 4. A second resume re-executes nothing at all.
    let rerun = run(&["--resume", store.to_str().unwrap()], None);
    assert!(rerun.status.success());
    assert_eq!(String::from_utf8(rerun.stdout).unwrap(), clean_stdout);
    assert_eq!(store_lines(&store).len(), 3, "nothing new appended");

    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn captured_cell_failure_renders_dnf_and_exits_nonzero() {
    // An ordinary injected panic (not a fatal fault) is captured: the run
    // finishes the whole grid, renders DNF for the broken cell, and exits
    // nonzero with a failure summary.
    let out = run(&["--faults", "panic cell=1"], None);
    assert!(!out.status.success(), "DNF must fail the run");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("DNF(panic: injected panic at cell 1)"),
        "{stdout}"
    );
    // The other two cells still produced metrics.
    assert!(
        stdout.contains("PPR") && stdout.contains("Linear"),
        "{stdout}"
    );
    assert!(stderr.contains("1 cell(s) DNF"), "{stderr}");
}
