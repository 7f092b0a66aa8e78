//! Overload-control benchmark: shed vs no-shed, the one serving
//! measurement that runs with `ServeConfig::shed` off. Trains a tiny model,
//! exports its serving bundle through the real codecs, boots the TCP server
//! on an ephemeral port under an injected `slow` fault that pins capacity
//! below what 64 closed-loop clients offer, and drives the same storm once
//! with admission shedding on and once with it off. (What a served request
//! costs — throughput, latency, scaling with clients — is `perfbench`'s
//! `serve_uniform` / `serve_hot` on a 100k-node bundle; the bundle here only
//! has to exist, since the fault, not the engine, sets the batch time.)
//!
//! Shedding converts silent queue-and-expire into typed `Overloaded`
//! refusals; the comparison metric is `p99_reply_us` — **time-to-outcome**
//! over every typed reply — because the successful-request p99 is bounded
//! by the deadline check in both modes and cannot differentiate them, while
//! a shed client learns its fate in microseconds where a no-shed client
//! waits a full queue-drain. `BENCH_serve.json` records both points (QPS,
//! latency percentiles, and the `shed` / `timeouts` / `backpressure` /
//! `retries` breakdown) and their ratio, `p99_outcome_noshed_over_shed`.
//!
//! Environment:
//! * `SGNN_BENCH_FAST=1` — short load windows for CI smoke.
//! * `SGNN_BENCH_OUT` — override the output path (default
//!   `<workspace>/BENCH_serve.json`).
//! * `SGNN_TRACE` — forwarded to the obs layer; the request-path spans and
//!   counters (`serve.batch`, `serve.requests`, …) land in the trace.

use std::time::Duration;

use sgnn_core::make_filter;
use sgnn_data::{dataset_spec, GenScale};
use sgnn_serve::bundle::{load_engine, train_and_export};
use sgnn_serve::{serve, LoadConfig, LoadReport, ServeConfig};
use sgnn_train::TrainConfig;

fn main() {
    sgnn_obs::init_from_env();

    let fast = std::env::var("SGNN_BENCH_FAST").is_ok();
    let window = if fast {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(2)
    };

    // Train once, serve both points. The bundle round-trips through the
    // on-disk codecs so the bench boots the same load path as production.
    let dir = std::env::temp_dir().join(format!("sgnn-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 42);
    let mut cfg = TrainConfig::fast_test(42);
    cfg.epochs = 5;
    cfg.patience = 0;
    cfg.hops = 3;
    cfg.hidden = 32;
    cfg.batch_size = 256;
    train_and_export(
        &dir,
        make_filter("Monomial", cfg.hops).unwrap(),
        &data,
        &cfg,
    )
    .unwrap_or_else(|e| panic!("bundle export: {e}"));
    let nodes = data.nodes();

    // A genuine capacity deficit: an injected `slow`
    // fault pins every batch at ≥5ms, capping the server at ~200 batches
    // per second — far below what 64 closed-loop clients offer — while
    // clients demand a 25ms turnaround. Without admission control (the
    // pre-shedding behavior) requests queue, expire at dequeue, and the
    // batcher burns its 5ms rounds on already-dead work; with it, the
    // hopeless requests are refused at enqueue as typed `Overloaded`
    // replies and the admitted ones keep their deadlines.
    let overload_cfg = |seed: u64| LoadConfig {
        clients: 64,
        duration: window,
        nodes_per_query: 4,
        node_range: nodes as u32,
        deadline_ms: 25,
        seed,
        // Well-behaved clients: jittered exponential backoff (seeded, at
        // least the server's `retry_after_ms` hint) on typed refusals.
        max_attempts: 3,
    };
    sgnn_serve::faults::install(sgnn_serve::faults::parse("slow dur=0.005").expect("slow spec"));
    let mut overload = Vec::new();
    for (i, (label, shed)) in [("shed", true), ("no_shed", false)].into_iter().enumerate() {
        let engine = load_engine(&dir).expect("reload bundle for overload point");
        // Both points run the same slowed server; the only difference is
        // the admission gate.
        let server = serve(
            engine,
            ServeConfig {
                shed,
                max_batch_rows: 8,
                cache_cap: 0,
                ..ServeConfig::default()
            },
        )
        .expect("boot overload server");
        // Warm the admission estimator (32 batches × 5ms ≈ 160ms) with
        // deadline-free load before the measured storm — both modes get
        // the identical warmup, so the comparison isn't polluted by the
        // cold-start window in which shedding is disabled by design.
        sgnn_serve::loadgen::run(
            server.addr(),
            &LoadConfig {
                clients: 4,
                duration: Duration::from_millis(300),
                nodes_per_query: 4,
                node_range: nodes as u32,
                seed: 0xACED + i as u64,
                ..LoadConfig::default()
            },
        );
        let report = sgnn_serve::loadgen::run(server.addr(), &overload_cfg(0xD0A + i as u64));
        println!(
            "overload {label:>8}: {:>8.0} qps | outcome p50 {:>6} p99 {:>6} us | ok {} shed {} timeouts {}",
            report.qps,
            report.p50_reply_us,
            report.p99_reply_us,
            report.ok,
            report.shed,
            report.timeouts
        );
        server.shutdown();
        overload.push(report);
    }
    sgnn_serve::faults::clear();
    let _ = std::fs::remove_dir_all(&dir);

    let p99_ratio = if overload[0].p99_reply_us > 0.0 {
        overload[1].p99_reply_us / overload[0].p99_reply_us
    } else {
        0.0
    };
    let overload_json = |r: &LoadReport| {
        format!(
            "{{\"qps\": {:.1}, \"p99_us\": {}, \"p99_reply_us\": {}, \"requests\": {}, \
             \"errors\": {}, \"shed\": {}, \"timeouts\": {}, \"backpressure\": {}, \
             \"retries\": {}}}",
            r.qps,
            r.p99_us,
            r.p99_reply_us,
            r.ok,
            r.errors,
            r.shed,
            r.timeouts,
            r.backpressure,
            r.retries
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"serve_overload\",\n  \"dataset\": \"cora-tiny\",\n  \
         \"nodes\": {nodes},\n  \"window_s\": {:.2},\n  \
         \"headline\": \"p99 time-to-outcome, no-shed / shed\",\n  \
         \"overload\": {{\n    \"clients\": 64,\n    \"deadline_ms\": 25,\n    \
         \"comment\": \"5ms/batch slow fault caps capacity below offered load; shed vs no-shed\",\n    \
         \"shed\": {},\n    \"no_shed\": {},\n    \
         \"p99_outcome_noshed_over_shed\": {p99_ratio:.4}\n  }}\n}}\n",
        window.as_secs_f64(),
        overload_json(&overload[0]),
        overload_json(&overload[1]),
    );
    let out_path = std::env::var("SGNN_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
    });
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!(
        "serve_overload: time-to-outcome no-shed/shed {p99_ratio:.2}x; BENCH_serve.json written"
    );
    sgnn_obs::flush();

    // The storm must actually overload: shedding measurably engaged, since
    // that is the behavior under benchmark.
    if overload[0].shed == 0 {
        eprintln!("serve bench: overload point shed nothing — admission gate not engaged");
        std::process::exit(1);
    }
}
