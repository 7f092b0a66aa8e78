//! Perf-regression gate (`experiments bench-regress`) over the figures
//! `perfbench` cannot take (DESIGN.md § Benchmarks).
//!
//! Diffs the headline metrics of freshly measured `BENCH_*.json` files
//! against the checked-in `results/bench_baseline.json` and fails (nonzero
//! exit in the binary) when any metric regresses beyond the tolerance, so a
//! PR that disables the SIMD GEMM path shows up as a red check instead of a
//! silently shrinking number.
//!
//! The baseline is restricted to **measured same-process ratios** (SIMD /
//! scalar): a ratio compares two measurements from the same host and run,
//! so it transfers across machines in a way absolute wall-clock numbers
//! never would — those, and every training, propagation, streaming or
//! serving time, are `perfbench`'s. The default tolerance is generous (50%)
//! — it catches order-of-magnitude regressions, not 5% noise — and a ratio
//! whose smoke runs cannot hold it is recorded in its artifact, not gated.
//!
//! Baseline schema (`results/bench_baseline.json`):
//!
//! ```json
//! {
//!   "tolerance": 0.5,
//!   "metrics": [
//!     {"name": "gemm.speedup", "file": "BENCH_gemm.json",
//!      "key": "speedup", "better": "higher", "value": 108.4}
//!   ]
//! }
//! ```

use std::fmt::Write as _;
use std::path::Path;

use sgnn_obs::json::{self, Value};

/// One gated metric from the baseline file.
#[derive(Clone, Debug)]
struct Metric {
    name: String,
    file: String,
    key: String,
    higher_is_better: bool,
    baseline: f64,
}

/// Result of gating one metric.
#[derive(Clone, Debug)]
pub(crate) struct Verdict {
    pub name: String,
    pub baseline: f64,
    pub current: f64,
    pub ratio: f64,
    pub regressed: bool,
}

fn load_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path:?}: {e}"))
}

/// Walks a dotted `key` path (`"overload.p99_outcome_noshed_over_shed"`)
/// through nested objects.
fn lookup<'v>(root: &'v Value, key: &str) -> Option<&'v Value> {
    let mut cur = root;
    for part in key.split('.') {
        cur = cur.get(part)?;
    }
    Some(cur)
}

fn parse_baseline(v: &Value) -> Result<(f64, Vec<Metric>), String> {
    let tolerance = v
        .get("tolerance")
        .and_then(Value::as_f64)
        .ok_or("baseline missing `tolerance`")?;
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("tolerance {tolerance} outside [0, 1)"));
    }
    let Some(Value::Arr(items)) = v.get("metrics") else {
        return Err("baseline missing `metrics` array".into());
    };
    let mut metrics = Vec::new();
    for (i, m) in items.iter().enumerate() {
        let field = |k: &str| {
            m.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("metric {i}: missing `{k}`"))
        };
        let better = field("better")?;
        if better != "higher" && better != "lower" {
            return Err(format!("metric {i}: `better` must be higher|lower"));
        }
        metrics.push(Metric {
            name: field("name")?,
            file: field("file")?,
            key: field("key")?,
            higher_is_better: better == "higher",
            baseline: m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {i}: missing numeric `value`"))?,
        });
    }
    if metrics.is_empty() {
        return Err("baseline gates no metrics".into());
    }
    Ok((tolerance, metrics))
}

/// Gates the bench files in `dir` against `baseline_path`: one verdict per
/// baseline metric, and the tolerance applied.
///
/// `tolerance_override` replaces the baseline's tolerance when given (CLI
/// `--tolerance`). Missing bench files or keys are hard errors — a gate
/// that silently skips its inputs is worse than no gate.
fn verdicts(
    baseline_path: &Path,
    dir: &Path,
    tolerance_override: Option<f64>,
) -> Result<(f64, Vec<Verdict>), String> {
    let (file_tol, metrics) = parse_baseline(&load_json(baseline_path)?)?;
    let tolerance = tolerance_override.unwrap_or(file_tol);

    let mut verdicts = Vec::new();
    for m in &metrics {
        let current = lookup(&load_json(&dir.join(&m.file))?, &m.key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{}: key `{}` missing from {}", m.name, m.key, m.file))?;
        if !(current.is_finite() && m.baseline.is_finite() && m.baseline != 0.0) {
            return Err(format!(
                "{}: non-finite or zero values (baseline {}, current {current})",
                m.name, m.baseline
            ));
        }
        let ratio = current / m.baseline;
        let regressed = if m.higher_is_better {
            ratio < 1.0 - tolerance
        } else {
            ratio > 1.0 + tolerance
        };
        verdicts.push(Verdict {
            name: m.name.clone(),
            baseline: m.baseline,
            current,
            ratio,
            regressed,
        });
    }
    Ok((tolerance, verdicts))
}

/// `verdicts` rendered as the report the CLI prints, and whether any
/// metric regressed.
pub fn check(
    baseline_path: &Path,
    dir: &Path,
    tolerance_override: Option<f64>,
) -> Result<(String, bool), String> {
    let (tolerance, verdicts) = verdicts(baseline_path, dir, tolerance_override)?;
    let any_regressed = verdicts.iter().any(|v| v.regressed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== bench regress: {} metrics, tolerance {:.0}% ==",
        verdicts.len(),
        tolerance * 100.0
    );
    let _ = writeln!(
        out,
        "{:<20} {:>12} {:>12} {:>8}  verdict",
        "metric", "baseline", "current", "ratio"
    );
    for v in &verdicts {
        let _ = writeln!(
            out,
            "{:<20} {:>12.4} {:>12.4} {:>8.3}  {}",
            v.name,
            v.baseline,
            v.current,
            v.ratio,
            if v.regressed { "REGRESSED" } else { "ok" }
        );
    }
    Ok((out, any_regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
        "tolerance": 0.15,
        "metrics": [
            {"name": "gemm.speedup", "file": "BENCH_gemm.json",
             "key": "speedup", "better": "higher", "value": 86.2},
            {"name": "serve.shed_outcome_x", "file": "BENCH_serve.json",
             "key": "overload.p99_outcome_noshed_over_shed",
             "better": "higher", "value": 2.3}
        ]
    }"#;

    fn fixture(tag: &str, gemm_speedup: f64, shed_outcome: f64) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sgnn_regress_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("baseline.json"), BASELINE).unwrap();
        std::fs::write(
            dir.join("BENCH_gemm.json"),
            format!("{{\"speedup\": {gemm_speedup}, \"kernels\": []}}"),
        )
        .unwrap();
        std::fs::write(
            dir.join("BENCH_serve.json"),
            format!("{{\"overload\": {{\"p99_outcome_noshed_over_shed\": {shed_outcome}}}}}"),
        )
        .unwrap();
        dir
    }

    #[test]
    fn matching_numbers_pass() {
        let dir = fixture("pass", 86.2, 2.3);
        let (report, regressed) = check(&dir.join("baseline.json"), &dir, None).unwrap();
        assert!(!regressed, "{report}");
        assert!(report.contains("gemm.speedup"));
        assert!(report.matches(" ok").count() >= 2, "{report}");
    }

    #[test]
    fn twenty_percent_gemm_slowdown_fails_the_gate() {
        // The acceptance fixture: GEMM headline 20% below baseline at 15%
        // tolerance must regress; the nested serve ratio at baseline stays ok.
        let dir = fixture("slow", 86.2 * 0.8, 2.3);
        let (report, regressed) = check(&dir.join("baseline.json"), &dir, None).unwrap();
        assert!(regressed, "{report}");
        let gemm = report.lines().find(|l| l.starts_with("gemm")).unwrap();
        assert!(gemm.contains("REGRESSED"), "{report}");
        let serve = report.lines().find(|l| l.starts_with("serve")).unwrap();
        assert!(serve.ends_with("ok"), "{report}");
    }

    #[test]
    fn improvements_and_within_tolerance_noise_pass() {
        let dir = fixture("noise", 86.2 * 1.4, 2.3 * 0.9);
        let (report, regressed) = check(&dir.join("baseline.json"), &dir, None).unwrap();
        assert!(!regressed, "{report}");
    }

    #[test]
    fn tolerance_override_tightens_the_gate() {
        let dir = fixture("tight", 86.2 * 0.9, 2.3);
        let (_, at_default) = check(&dir.join("baseline.json"), &dir, None).unwrap();
        assert!(!at_default);
        let (_, at_5pct) = check(&dir.join("baseline.json"), &dir, Some(0.05)).unwrap();
        assert!(at_5pct);
    }

    #[test]
    fn missing_bench_file_or_key_is_a_hard_error() {
        let dir = fixture("missing", 86.2, 2.3);
        std::fs::remove_file(dir.join("BENCH_gemm.json")).unwrap();
        assert!(check(&dir.join("baseline.json"), &dir, None).is_err());
        std::fs::write(dir.join("BENCH_gemm.json"), "{\"other\": 1}").unwrap();
        let err = check(&dir.join("baseline.json"), &dir, None).unwrap_err();
        assert!(err.contains("key `speedup` missing"), "{err}");
    }

    #[test]
    fn committed_repo_baseline_passes_on_committed_bench_files() {
        // The real gate CI runs, two-sided: the checked-in baseline must sit
        // within 15% of the checked-in bench artifacts in *either* direction,
        // so re-measuring a file without re-seeding the baseline (86x gated
        // under a file that said 108x) fails here.
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let baseline = repo.join("results/bench_baseline.json");
        let (_, verdicts) = verdicts(&baseline, &repo, None).unwrap();
        for v in &verdicts {
            assert!(
                (v.ratio - 1.0).abs() <= 0.15,
                "{}: baseline {} vs committed artifact {}",
                v.name,
                v.baseline,
                v.current
            );
        }
    }

    #[test]
    fn lower_is_better_metrics_gate_upward() {
        let dir = std::env::temp_dir().join("sgnn_regress_lower");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("baseline.json"),
            r#"{"tolerance": 0.5, "metrics": [
                {"name": "x.cost", "file": "BENCH_x.json",
                 "key": "cost", "better": "lower", "value": 1.0}
            ]}"#,
        )
        .unwrap();
        for (cost, expect) in [(0.9, false), (1.6, true)] {
            std::fs::write(dir.join("BENCH_x.json"), format!("{{\"cost\": {cost}}}")).unwrap();
            let (_, regressed) = check(&dir.join("baseline.json"), &dir, None).unwrap();
            assert_eq!(regressed, expect, "cost {cost}");
        }
    }
}
