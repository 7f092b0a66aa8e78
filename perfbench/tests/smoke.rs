//! Drives the built benchmark end to end at `--smoke` sizes and checks its
//! output against the contract in `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use sgnn_obs::json::{self, Value};

const EXE: &str = env!("CARGO_BIN_EXE_sgnn-benchmark");

/// The JSON result lines of a run over all workloads, in workload order.
fn results(stdout: &str) -> Vec<Value> {
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| json::parse(l).expect("result line parses"))
        .collect()
}

/// Names and units of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
    let parsed = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Value::Arr(items)) = parsed.get(list) else {
        panic!("BENCHMARK.json has no {list}");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Asserts that `result` holds exactly the declared metrics, with their units.
fn assert_metrics(result: &Value, want: &[(String, String)]) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{result:?}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no numeric value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn smoke_pass_of_all_five_workloads_is_correct_and_quick() {
    let t0 = Instant::now();
    let out = Command::new(EXE)
        .args(["--smoke", "--seed", "11"])
        .output()
        .unwrap();
    let took = t0.elapsed();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(took.as_secs() < 20, "smoke pass took {took:?}");
    let results = results(&stdout);
    assert_eq!(results.len(), 5);
    let want = declared("end_to_end");
    assert_eq!(want.len(), 3);
    for r in &results {
        assert_metrics(r, &want);
    }
    for line in ["host: nproc=", "ops", "failed 0"] {
        assert!(
            stdout.matches(line).count() >= 5,
            "every workload prints {line}"
        );
    }
}

#[test]
fn traced_smoke_pass_fills_every_declared_layer_metric() {
    let out = Command::new(EXE)
        .args(["--smoke", "--trace", "1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    let results = results(&stdout);
    assert_eq!(results.len(), 5);
    let want = declared("per_layer");
    for r in &results {
        assert_metrics(r, &want);
    }
    // The trace files hold one JSON object per span.
    for workload in [
        "fb_cheb",
        "mb_wide",
        "ooc_stream",
        "serve_uniform",
        "serve_hot",
    ] {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.jsonl"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let spans: Vec<Value> = text
            .lines()
            .map(|l| json::parse(l).expect("span parses"))
            .collect();
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some("unit")
                || s.get("name").and_then(Value::as_str) == Some("client.query")));
        assert!(spans
            .iter()
            .all(|s| s.get("self_s").and_then(Value::as_f64).is_some()));
    }
}

#[test]
fn one_workload_run_honours_the_driver_arguments() {
    let args = [
        "--workload",
        "serve_hot",
        "--seed",
        "3",
        "--seconds",
        "2",
        "--trace",
        "0",
        "--smoke",
    ];
    let run = || String::from_utf8(Command::new(EXE).args(args).output().unwrap().stdout).unwrap();
    let (a, b) = (run(), run());
    let last = |s: &str| json::parse(s.lines().last().unwrap()).unwrap();
    assert_metrics(&last(&a), &declared("end_to_end"));
    // Same seed, same query count: the memory the server grew to repeats, up
    // to the transient buffers of whichever threads happened to overlap.
    let peak = |v: &Value| {
        let m = v.get("metrics").unwrap().get("peak_ram_mib").unwrap();
        m.get("value").unwrap().as_f64().unwrap()
    };
    assert_eq!(last(&a).get("attempted"), last(&b).get("attempted"));
    let (pa, pb) = (peak(&last(&a)), peak(&last(&b)));
    assert!((pa - pb).abs() <= 0.02 * pa, "{pa} vs {pb}");
    assert!(!Command::new(EXE)
        .args(["--workload", "nope"])
        .output()
        .unwrap()
        .status
        .success());
}
