//! Every training target reaches its cells through one path, the cell
//! runner: a step over the device budget is `(OOM)` and never trains, and
//! an injected fault hits the target's first cell and becomes a `DNF` row
//! while the target still returns its table.
//!
//! The fault plan and the cell tallies are process globals, so the tests
//! serialize on one lock, clear the plan on entry and exit, and read the
//! tallies as deltas.

use std::sync::{Mutex, MutexGuard};

use sgnn_bench::runner::counts;
use sgnn_bench::*;
use sgnn_train::Scheme;

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

/// A training target at [`opts`]: its name, its driver, and how many
/// marker cells it prints when no cell runs.
type Target = (&'static str, fn(&Opts) -> String, usize);

/// Every training target. Table 6 ignores `--filters` and prints its seven
/// baselines; Figure 5 prints three hosts per scheme; Figure 7 one cell per
/// hop count; Figure 10 one per `ρ`; the ablations five `α` and one row of
/// responses.
const TARGETS: &[Target] = &[
    (
        "table5",
        |o| exp_table5::run_scheme(o, Scheme::FullBatch),
        1,
    ),
    ("table6", exp_table6::run, 7),
    ("table7", exp_table7::run, 1),
    (
        "table9",
        |o| exp_table9::run_scheme(o, Scheme::FullBatch),
        1,
    ),
    (
        "table10",
        |o| exp_table5::run_scheme(o, Scheme::MiniBatch),
        1,
    ),
    (
        "table11",
        |o| exp_table9::run_scheme(o, Scheme::MiniBatch),
        1,
    ),
    ("fig2", exp_fig2::run, 2),
    ("fig3", exp_fig3::run, 1),
    ("fig4", exp_fig4::run, 1),
    ("fig5", exp_fig5::run, 6),
    ("fig6", exp_fig6::run, 1),
    ("fig7", exp_fig7::run, 2),
    ("fig9", exp_fig9::run, 1),
    ("fig10", exp_fig10::run, 5),
    ("ablation", exp_ablation::run, 6),
];

/// One filter on one dataset, trained briefly.
fn opts() -> Opts {
    let mut opts = Opts::tiny();
    opts.datasets = vec!["cora".into()];
    opts.filters = vec!["PPR".into()];
    opts.epochs = 2;
    opts
}

/// The first row line of a rendered table: after the title, and after the
/// header when the table is a grid (its sections start with `--`).
fn first_row(out: &str) -> &str {
    let mut lines = out.lines().skip(1).peekable();
    if lines.peek().is_some_and(|l| !l.starts_with("--")) {
        lines.next();
    }
    lines.find(|l| !l.starts_with("--")).unwrap_or_default()
}

/// Runs every target, each under a fresh fault `plan` (its cells count
/// from 0), and fails listing every target whose output `check` finds
/// wrong, given its marker count and its done and DNF cells.
fn every_target(
    opts: &Opts,
    plan: Option<&str>,
    check: impl Fn(&str, &str, usize, u64, u64) -> Option<String>,
) {
    let failures: Vec<String> = TARGETS
        .iter()
        .filter_map(|&(name, run, markers)| {
            faults::clear();
            if let Some(spec) = plan {
                faults::install(faults::parse(spec).unwrap());
            }
            let before = counts();
            let out = run(opts);
            let (done, dnf) = (counts().done - before.done, counts().dnf - before.dnf);
            check(name, &out, markers, done, dnf)
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn over_budget_cells_are_oom_and_never_train() {
    let _iso = isolate();
    let mut opts = opts();
    opts.device_budget = 1;
    every_target(&opts, None, |name, out, markers, done, dnf| {
        let ooms = out.matches("(OOM)").count();
        (ooms != markers || done + dnf > 0).then(|| {
            format!("{name}: {ooms} of {markers} (OOM), {done} cell(s) done, {dnf} DNF:\n{out}")
        })
    });
}

#[test]
fn an_injected_panic_is_the_first_cells_dnf_row() {
    let _iso = isolate();
    every_target(&opts(), Some("panic cell=0"), |name, out, _, _, dnf| {
        let row = first_row(out);
        let first = row.contains("DNF(panic: injected panic at cell 0)");
        (!first || dnf != 1).then(|| format!("{name}: first row {row:?}, {dnf} DNF:\n{out}"))
    });
}
