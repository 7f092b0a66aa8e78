//! Modes that run workloads as child processes of this executable: the
//! default all-workloads run, and the A/A comparison that sizes the bounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use sgnn_obs::json::{self, Value};

use crate::stats;
use crate::workloads::{Opts, WORKLOADS};

/// The parsed JSON line of one child run.
pub struct ChildResult {
    pub correct: bool,
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a fresh process. With `echo`, the child's report is
/// passed through to standard output.
pub fn run_child(workload: &str, o: &Opts, echo: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    let last = text.lines().last().unwrap_or("");
    let parsed = json::parse(last)
        .map_err(|e| format!("{workload}: no result line ({e}), exit {}", out.status))?;
    let metrics = match parsed.get("metrics") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{workload}: result has no metrics")),
    };
    Ok(ChildResult {
        correct: matches!(parsed.get("correct"), Some(Value::Bool(true))) && out.status.success(),
        failed: parsed.get("failed").and_then(Value::as_u64).unwrap_or(0),
        metrics,
    })
}

/// The default mode: every workload once, each in its own process.
pub fn run_all(o: &Opts) -> ExitCode {
    let mut ok = true;
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        match run_child(workload, o, true) {
            Ok(r) => ok &= r.correct,
            Err(e) => {
                println!("  RUN FAILED: {e}");
                ok = false;
            }
        }
    }
    println!(
        "== {}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    crate::exit_code(ok)
}

/// Name, bound and "lower is better" of each end-to-end metric, read from
/// the `BENCHMARK.json` above this crate so the table cannot drift from it.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let path = crate::crate_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = json::parse(&text)?;
    let Some(Value::Arr(list)) = parsed.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
                m.get("better")?.as_str()? == "lower",
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// A/A mode: two sets of `runs` runs of every workload on the same code,
/// alternating which set goes first, run `i` of both sets on seed
/// `seed + i`. Prints, per workload and metric, both medians, how much worse
/// the second is than the first, each set's quartile spread, and the bound.
pub fn run(runs: usize, o: &Opts) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut notes = Vec::new();
    println!("# A/A: two sets of {runs} runs of the same code\n");
    println!("{}\n", crate::host::Fingerprint::detect().line());
    println!(
        "`worse` is how much worse the median of set B is than that of set A, as a share of A."
    );
    println!("`spread` is the interquartile distance over the median (Python `statistics.quantiles`, n=4).\n");
    println!("| workload | metric | median A | median B | worse | spread A | spread B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (workload, _) in WORKLOADS {
        // sets[0] = A, sets[1] = B; metric name → one value per run.
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for i in 0..runs {
            let opts = Opts {
                seed: o.seed + i as u64,
                ..*o
            };
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                match run_child(workload, &opts, false) {
                    Ok(r) => {
                        if !r.correct || r.failed > 0 {
                            notes.push(format!(
                                "{workload} seed {} set {}: correct {} failed {}",
                                opts.seed,
                                ["A", "B"][set],
                                r.correct,
                                r.failed
                            ));
                        }
                        for (name, v) in r.metrics {
                            sets[set].entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => notes.push(e),
                }
            }
        }
        for (name, bound, lower) in &bounds {
            let (Some(a), Some(b)) = (sets[0].get(name), sets[1].get(name)) else {
                continue;
            };
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let (ma, mb) = (stats::median(a), stats::median(b));
            let worse = if *lower {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let (sa, sb) = (stats::spread(a), stats::spread(b));
            // The driver's acceptance rule: spreads within the bound (set-up
            // time exempt), and the second median no worse than the bound.
            let spread_ok = name == "setup_s" || sa.max(sb) <= *bound;
            let pass = worse <= *bound && spread_ok;
            ok &= pass;
            println!(
                "| {workload} | {name} | {ma:.4} | {mb:.4} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "OVER" }
            );
        }
    }
    println!();
    for note in &notes {
        println!("- RUN FAILED: {note}");
    }
    if ok && notes.is_empty() {
        println!("All metrics within their bounds; no run failed a check.");
    } else if !ok {
        println!("SOME METRIC IS OVER ITS BOUND.");
    }
    crate::exit_code(ok && notes.is_empty())
}
