//! `experiments` — regenerates every table and figure of the paper. The
//! command line is [`USAGE`], which the binary prints on every usage error.

use sgnn_bench::harness::{parse_opts, progress, Opts};
use sgnn_bench::*;
use sgnn_train::memory::TrackingAlloc;
use sgnn_train::Scheme;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// A target's driver: the rendered table(s).
type Run = fn(&Opts) -> String;

/// Every target, in the order `all` runs them: its name and its driver.
const TARGETS: &[(&str, Run)] = &[
    ("table1", exp_table1::run),
    ("table3", exp_table3::run),
    ("table5", |o| exp_table5::run_scheme(o, Scheme::FullBatch)),
    ("table6", exp_table6::run),
    ("table7", exp_table7::run),
    ("table9", |o| exp_table9::run_scheme(o, Scheme::FullBatch)),
    ("table10", |o| exp_table5::run_scheme(o, Scheme::MiniBatch)),
    ("table11", |o| exp_table9::run_scheme(o, Scheme::MiniBatch)),
    ("fig2", exp_fig2::run),
    ("fig3", exp_fig3::run),
    ("fig4", exp_fig4::run),
    ("fig5", exp_fig5::run),
    ("fig6", exp_fig6::run),
    ("fig7", exp_fig7::run),
    ("fig8", exp_fig8::run),
    ("fig9", exp_fig9::run),
    ("fig10", exp_fig10::run),
    ("ablation", exp_ablation::run),
];

/// The whole command line: every target, subcommand and flag. Printed on
/// every usage error (exit code 2).
const USAGE: &str = "\
usage:
experiments <target> [flags]
experiments trace-summary <trace.jsonl> [--require span1,span2]
                                        [--require-counter c1,c2]
experiments trace-flame <trace.jsonl>      collapsed-stack flamegraph
                                           (self-time ns) on stdout
experiments bench-regress [--baseline P] [--dir D] [--tolerance F]
                                           gate BENCH_*.json against
                                           results/bench_baseline.json
experiments serve --dir DIR [--train] [--duration-s S] [--faults SPEC]
                  [--max-batch N] [--linger-us U] [--max-conns N]
                  [--no-shed]
                                           boot the online inference
                                           server from a bundle dir
experiments serve-load <addr> [--clients N] [--duration-s S]
                  [--nodes-per-query K] [--node-range N]
                  [--deadline-ms D] [--seed S]
                                           closed-loop load against a
                                           running server
experiments serve-chaos [--duration-s S] [--clients N] [--faults SPEC]
                                           self-contained chaos smoke:
                                           storm + hot reloads under an
                                           injected fault plan,
                                           robustness counters verified

targets: table1 table3 table5 table6 table7 table9 table10 table11
         fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 ablation   all
flags:
  --scale tiny|bench|full     graph scale (default bench)
  --seeds N                   random seeds per cell (default 3)
  --epochs N                  training epochs (default 60)
  --hops K                    filter order (default 10)
  --hidden F                  hidden width (default 64)
  --filters a,b,c             restrict filters
  --datasets a,b,c            restrict datasets
  --device-budget-mb N        modeled device memory budget (default 2048)
  --json                      dump raw rows under results/
  --trace PATH                stream a JSONL trace (SGNN_TRACE fallback)
  --resume DIR                durable run store: persist finished cells
                              under DIR and skip them on the next run
  --retries N                 extra attempts after a diverged cell
                              (default 1): warm restart from the last
                              good checkpoint when one exists, else a
                              fresh-seed restart
  --cell-timeout-s S          per-cell wall-clock budget (default off)
  --ckpt-every N              snapshot training state every N epochs
                              (default 0 = off)
  --ckpt-dir DIR              checkpoint root (default <resume>/ckpt
                              when --resume is set)
  --faults SPEC               deterministic fault injection — see
                              sgnn_bench::faults
  --full-scale                with table5: the out-of-core run, graph
                              generated straight to shards

exit codes: 0 all cells finished; 1 at least one cell DNF'd or the run
aborted; 2 usage error
";

/// Prints `error` (if any) and [`USAGE`], then exits with the usage-error
/// code.
fn usage_error(error: Option<&str>) -> ! {
    if let Some(e) = error {
        progress(&format!("error: {e}"));
    }
    progress(USAGE);
    std::process::exit(2);
}

/// `trace-summary <file.jsonl> [--require a,b,c] [--require-counter c,d]`:
/// re-aggregate a recorded trace; exits nonzero on malformed lines, missing
/// required spans, or missing/zero required counters.
fn trace_summary(args: &[String]) -> Result<String, String> {
    let Some(path) = args.first() else {
        return Err(
            "usage: experiments trace-summary <trace.jsonl> [--require a,b,c] [--require-counter c,d]"
                .into(),
        );
    };
    let mut require: Vec<String> = Vec::new();
    let mut require_counters: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--require" => {
                i += 1;
                let list = args.get(i).ok_or("--require needs a value")?;
                require.extend(list.split(',').map(str::to_string));
            }
            "--require-counter" => {
                i += 1;
                let list = args.get(i).ok_or("--require-counter needs a value")?;
                require_counters.extend(list.split(',').map(str::to_string));
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    trace::summarize_file(std::path::Path::new(path), &require, &require_counters)
}

/// `trace-flame <file.jsonl>`: collapsed-stack flamegraph (frames joined
/// root-first by `;`, weight = self-time ns) on stdout; pipe into any
/// flamegraph renderer.
fn trace_flame(args: &[String]) -> Result<String, String> {
    let Some(path) = args.first() else {
        return Err("usage: experiments trace-flame <trace.jsonl>".into());
    };
    if let Some(flag) = args.get(1) {
        return Err(format!("unknown flag {flag}"));
    }
    flame::collapse_file(std::path::Path::new(path))
}

/// `bench-regress [--baseline PATH] [--dir DIR] [--tolerance F]`: gate the
/// current bench artifacts against the checked-in baseline. `Err` = could
/// not gate (missing files, bad baseline); `Ok((report, true))` = gated
/// and regressed.
fn bench_regress(args: &[String]) -> Result<(String, bool), String> {
    let mut baseline = std::path::PathBuf::from("results/bench_baseline.json");
    let mut dir = std::path::PathBuf::from(".");
    let mut tolerance = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline = args.get(i).ok_or("--baseline needs a value")?.into();
            }
            "--dir" => {
                i += 1;
                dir = args.get(i).ok_or("--dir needs a value")?.into();
            }
            "--tolerance" => {
                i += 1;
                let raw = args.get(i).ok_or("--tolerance needs a value")?;
                tolerance = Some(
                    raw.parse::<f64>()
                        .map_err(|_| format!("bad tolerance `{raw}`"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    regress::check(&baseline, &dir, tolerance)
}

/// Runs the subcommand `name` beside the targets, if it is one: its
/// stdout, or the error that fails it with exit code 1. A `bench-regress`
/// that finds a regression prints its report and exits 1 itself.
fn command(name: &str, args: &[String]) -> Option<Result<String, String>> {
    let line = |out: String| out + "\n";
    Some(match name {
        "trace-summary" => trace_summary(args).map(line),
        "trace-flame" => trace_flame(args),
        "serve" => serve_cli::serve_cmd(args).map(line),
        "serve-load" => serve_cli::serve_load(args).map(line),
        "serve-chaos" => serve_cli::serve_chaos(args).map(line),
        "bench-regress" => bench_regress(args).map(|(report, regressed)| {
            if regressed {
                println!("{report}");
                std::process::exit(1);
            }
            line(report)
        }),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(target) = args.first().cloned() else {
        usage_error(None);
    };
    if let Some(ran) = command(&target, &args[1..]) {
        match ran {
            Ok(out) => print!("{out}"),
            Err(e) => {
                progress(&format!("error: {e}"));
                std::process::exit(1);
            }
        }
        return;
    }
    let opts = parse_opts(&args[1..]).unwrap_or_else(|e| usage_error(Some(&e)));
    let runs: Vec<_> = TARGETS
        .iter()
        .filter(|(name, _)| target == "all" || target == *name)
        .collect();
    if runs.is_empty() {
        usage_error(Some(&format!("unknown target {target}")));
    }
    if let Some(path) = opts.trace_path() {
        if let Err(e) = sgnn_obs::init_trace(std::path::Path::new(&path)) {
            progress(&format!("error: cannot open trace {path}: {e}"));
            std::process::exit(2);
        }
        sgnn_train::memory::install_obs_sampler();
    }
    if let Some(spec) = &opts.faults {
        match faults::parse(spec) {
            Ok(plan) => {
                progress(&format!("[faults] armed: {spec}"));
                faults::install(plan);
            }
            Err(e) => {
                progress(&format!("error: bad fault spec: {e}"));
                std::process::exit(2);
            }
        }
    }
    let started = std::time::Instant::now();
    // An injected `fail cell=K` / mid-training kill (or any panic escaping
    // the cell runner) unwinds to here: flush what the trace has, report,
    // and exit nonzero — the run store already holds every cell finished
    // before the abort, and checkpoints hold the killed cell's progress.
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for (_, run) in runs {
            println!("{}", run(&opts));
        }
    }));
    if let Err(payload) = ran {
        let reason = payload
            .downcast_ref::<faults::FatalFault>()
            .map(|f| f.0.clone())
            .or_else(|| {
                payload
                    .downcast_ref::<sgnn_train::Killed>()
                    .map(|k| k.0.clone())
            })
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into());
        progress(&format!("[aborted] {reason}"));
        if let Some(summary) = runner::failure_summary() {
            progress(&format!("[failed] {summary}"));
        }
        sgnn_obs::flush();
        sgnn_obs::disable();
        std::process::exit(1);
    }
    progress(&format!(
        "[done in {:.1}s, peak RAM {}]",
        started.elapsed().as_secs_f64(),
        sgnn_train::memory::fmt_bytes(sgnn_train::memory::ram_lifetime_peak())
    ));
    let failed = runner::failure_summary();
    if let Some(summary) = &failed {
        progress(&format!("[failed] {summary}"));
    }
    sgnn_obs::flush();
    sgnn_obs::disable();
    if failed.is_some() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The subcommands `main` runs beside the paper targets.
    const SIDE_COMMANDS: &[&str] = &[
        "trace-summary",
        "trace-flame",
        "bench-regress",
        "serve",
        "serve-load",
        "serve-chaos",
    ];

    #[test]
    fn usage_names_every_target_subcommand_and_flag() {
        let words: Vec<&str> = USAGE
            .split(|c: char| c.is_whitespace() || "[]|".contains(c))
            .collect();
        // Every flag `parse_opts` matches on (its `"--flag" =>` arms), read
        // from its source.
        let flags: Vec<&str> = include_str!("../harness.rs")
            .lines()
            .filter_map(|l| l.trim().strip_prefix('"')?.split_once("\" =>"))
            .map(|(flag, _)| flag)
            .filter(|flag| flag.starts_with("--"))
            .collect();
        assert!(
            flags.contains(&"--full-scale") && flags.len() >= 17,
            "{flags:?}"
        );
        let targets = TARGETS.iter().map(|(name, _)| name);
        for name in targets.chain(SIDE_COMMANDS).chain(&flags) {
            assert!(words.contains(name), "{name} is missing from USAGE");
        }
    }
}
