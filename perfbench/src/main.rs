//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --seed 7
//! ```
//! runs the five workloads, each in its own child process, checks their
//! outputs and prints every end-to-end metric with its unit. `--workload
//! NAME` runs one in this process and ends with the one-line JSON result;
//! `--trace 1` is the separate traced run that fills the per-layer ledger.

mod aa;
mod host;
mod ledger;
mod offline;
mod online;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sgnn_train::memory::TrackingAlloc;

use crate::ledger::PER_LAYER;
use crate::trace::Tracer;
use crate::workloads::{Opts, Outcome, WORKLOADS};

// `peak_ram_mib` and every heap-growth figure read this allocator's counters.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const USAGE: &str = "usage: sgnn-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--aa N]
  no --workload   run all five workloads, each in a child process
  --workload      one of: fb_cheb mb_wide ooc_stream serve_uniform serve_hot
  --seed          workload seed (default 7): graph, splits, training and id streams
  --seconds       length of the timed phase (default 15); the serving workloads scale their fixed query count by it
  --trace         the traced run: prints the per-layer ledger, writes out/trace-<workload>.jsonl
  --smoke         tiny sizes, for the test suite
  --aa N          A/A mode: two alternating sets of N runs of every workload";

struct Args {
    workload: Option<&'static str>,
    opts: Opts,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Opts {
            seed: 7,
            seconds: workloads::NOMINAL_SECONDS,
            trace: false,
            smoke: false,
        },
        aa: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().map(|(w, _)| *w).find(|w| *w == name);
                args.workload = Some(known.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace 0|1`.
                args.opts.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.opts.smoke = true,
            "--aa" => {
                let n: usize = value("a run count")?
                    .parse()
                    .map_err(|e| format!("--aa: {e}"))?;
                if n < 2 {
                    return Err("--aa needs at least 2 runs per set".into());
                }
                args.aa = Some(n);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where this crate lives; all files the benchmark writes go under `out/`.
pub fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch directory of one run, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(workload: &str) -> std::io::Result<Self> {
        let dir = crate_dir()
            .join("out")
            .join(format!("run-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(name: &'static str, o: &Opts, scratch: &Path, tr: &mut Tracer) -> Outcome {
    let specs = if o.smoke {
        &workloads::SMOKE
    } else {
        &workloads::FULL
    };
    match name {
        "fb_cheb" => offline::cells(name, &specs.fb_cheb, true, o, tr),
        "mb_wide" => offline::cells(name, &specs.mb_wide, false, o, tr),
        "ooc_stream" => offline::ooc_stream(&specs.ooc_stream, o, scratch, tr),
        "serve_uniform" => online::serve_workload(name, &specs.serve_uniform, o, scratch, tr),
        "serve_hot" => online::serve_workload(name, &specs.serve_hot, o, scratch, tr),
        _ => unreachable!("workload names are checked when arguments are parsed"),
    }
}

/// Success exactly when every check passed.
pub fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number with all its digits; a non-finite value is a bug upstream.
fn json_number(name: &str, v: f64) -> String {
    assert!(v.is_finite(), "metric {name} is not finite");
    format!("{v}")
}

/// Runs one workload in this process and prints its report; the last line of
/// standard output is the one-object JSON result.
fn run_one(name: &'static str, o: &Opts) -> ExitCode {
    println!("{}", host::Fingerprint::detect().line());
    let scratch = match Scratch::create(name) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(false, Instant::now(), 0);
    let mut out = run_workload(name, o, &scratch.0, &mut tr);
    drop(scratch);

    let e = &out.e2e;
    println!(
        "workload {name} seed {} seconds {} mode {}: units {} ops {} {} failed {}",
        o.seed,
        o.seconds,
        if o.trace { "traced" } else { "untraced" },
        e.units,
        e.ops,
        out.work_unit,
        out.failed
    );
    let p = stats::highest_supported(e.units);
    println!(
        "  highest percentile with ten samples beyond it: p{} = {:.4} ms; slowest unit {:.4} ms",
        (p * 1000.0).round() / 10.0,
        e.tail_ms.0,
        e.tail_ms.1
    );
    for (metric, value, unit) in e.metrics() {
        println!("  {metric:<18} {value:>14.4} {unit}");
    }
    for (metric, value, unit) in e.unbounded() {
        println!("  {metric:<18} {value:>14.4} {unit}  (no bound)");
        if o.trace {
            out.ledger.set(metric, value);
        }
    }
    let metrics: Vec<(&str, f64, &str)> = if o.trace {
        let path = crate_dir().join("out").join(format!("trace-{name}.jsonl"));
        let tracers: Vec<&Tracer> = std::iter::once(&tr).chain(&out.worker_tracers).collect();
        match trace::write_jsonl(&path, name, &tracers) {
            Ok(()) => println!("  trace written to {}", path.display()),
            Err(e) => out
                .errors
                .push(format!("trace file {}: {e}", path.display())),
        }
        println!("  per-layer ledger (0 = layer not reached by this workload):");
        PER_LAYER
            .iter()
            .map(|&(n, unit, _)| {
                let v = out.ledger.get(n);
                println!("  {n:<32} {v:>16.4} {unit}");
                (n, v, unit)
            })
            .collect()
    } else {
        e.metrics().to_vec()
    };
    for err in &out.errors {
        println!("  CHECK FAILED: {err}");
    }
    let correct = out.errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(n, *v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        e.units,
        out.failed,
        body.join(", ")
    );
    exit_code(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.aa {
        return aa::run(runs, &args.opts);
    }
    match args.workload {
        Some(name) => run_one(name, &args.opts),
        None => aa::run_all(&args.opts),
    }
}
