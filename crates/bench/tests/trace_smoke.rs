//! End-to-end trace smoke test: run a real full-batch training with the
//! JSONL sink open, then verify every line parses, the span taxonomy is
//! present, and the traced per-stage totals agree with the report the
//! trainer returned. Lives in its own test binary because the sink and
//! registries are process-global.

use std::collections::BTreeMap;

use sgnn_bench::trace;
use sgnn_core::make_filter;
use sgnn_data::{dataset_spec, GenScale};
use sgnn_obs as obs;
use sgnn_obs::json::{self, Value};
use sgnn_train::{Scheme, TrainConfig};

#[test]
fn traced_run_streams_parseable_events_matching_the_report() {
    let path = std::env::temp_dir().join("sgnn_trace_smoke.jsonl");
    obs::init_trace(&path).expect("open trace sink");
    sgnn_train::memory::install_obs_sampler();

    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
    let mut cfg = TrainConfig::fast_test(0);
    cfg.epochs = 3;
    cfg.patience = 0;
    let report = Scheme::FullBatch
        .train(make_filter("PPR", cfg.hops).unwrap(), &data, None, &cfg)
        .report;

    obs::flush();
    obs::disable();

    // Every line must parse; collect per-span duration sums as we go.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut span_totals: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let event = json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        let kind = event.get("kind").and_then(Value::as_str).unwrap();
        let name = event.get("name").and_then(Value::as_str).unwrap();
        if kind == "span" {
            let dur = event.get("dur_s").and_then(Value::as_f64).unwrap();
            let slot = span_totals.entry(name.to_string()).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += dur;
        } else if kind == "counter" {
            counters.insert(
                name.to_string(),
                event.get("value").and_then(Value::as_u64).unwrap(),
            );
        }
    }

    for required in [
        "train",
        "infer",
        "epoch.propagate",
        "epoch.transform",
        "epoch.backward",
        "epoch.step",
        "filter.propagate",
        "filter.combine",
        "filter.theta_grad",
        "spmm.csr",
        "matmul",
    ] {
        assert!(
            span_totals.contains_key(required),
            "span `{required}` missing; have {:?}",
            span_totals.keys().collect::<Vec<_>>()
        );
    }

    // The StageTimer mirror makes the traced stage totals the *same*
    // measurements as the report's; require agreement within 1%.
    let (train_count, train_total) = span_totals["train"];
    assert_eq!(train_count as usize, report.epochs_run);
    let rel = (train_total - report.train_total_s).abs() / report.train_total_s.max(1e-12);
    assert!(
        rel < 0.01,
        "traced train total {train_total} vs report {} ({}%)",
        report.train_total_s,
        rel * 100.0
    );
    let (_, infer_total) = span_totals["infer"];
    let rel = (infer_total - report.infer_s).abs() / report.infer_s.max(1e-12);
    assert!(
        rel < 0.01,
        "traced infer {infer_total} vs report {}",
        report.infer_s
    );

    // Counters flushed at the end reflect the run.
    assert_eq!(
        counters.get("train.epochs"),
        Some(&(report.epochs_run as u64))
    );
    assert!(counters.get("spmm.nnz").copied().unwrap_or(0) > 0);

    // The offline summarizer accepts the same file and requirements.
    let require: Vec<String> = ["train", "infer", "epoch.propagate", "spmm.csr"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let summary =
        trace::summarize_file(&path, &require, &["train.epochs".to_string()]).expect("summary");
    assert!(summary.contains("train"));
    assert!(summary.contains("counter train.epochs"));
}
