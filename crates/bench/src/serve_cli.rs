//! `experiments serve` / `experiments serve-load` / `experiments
//! serve-chaos`: boot the online inference server from a bundle
//! directory, drive closed-loop load against a running server, and run
//! the self-contained network-chaos smoke. All three parse their own
//! flags (like `trace-summary`) because they share nothing with the
//! table/figure harness options.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sgnn_core::make_filter;
use sgnn_data::{dataset_spec, GenScale};
use sgnn_serve::bundle::{load_engine, train_and_export, CKPT_FILE, TERMS_FILE};
use sgnn_serve::{faults, serve, Backoff, Client, LoadConfig, Reply, ServeConfig};
use sgnn_train::TrainConfig;

/// `serve --dir DIR [--train] [--duration-s S] [--faults SPEC]
/// [--max-batch N] [--linger-us U] [--max-conns N] [--no-shed]`
///
/// Loads the bundle in `DIR` (training a tiny demo bundle first when the
/// files are absent or `--train` is passed), boots the server on an
/// ephemeral port with hot reload armed on `DIR`, prints the address,
/// and serves for `--duration-s` (default 10) before a clean shutdown.
pub fn serve_cmd(args: &[String]) -> Result<String, String> {
    let mut dir: Option<PathBuf> = None;
    let mut train = false;
    let mut duration = Duration::from_secs(10);
    let mut faults_spec: Option<String> = None;
    let mut cfg = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                dir = Some(args.get(i).ok_or("--dir needs a value")?.into());
            }
            "--train" => train = true,
            "--duration-s" => {
                i += 1;
                let raw = args.get(i).ok_or("--duration-s needs a value")?;
                duration = Duration::from_secs_f64(
                    raw.parse().map_err(|_| format!("bad duration `{raw}`"))?,
                );
            }
            "--faults" => {
                i += 1;
                faults_spec = Some(args.get(i).ok_or("--faults needs a value")?.clone());
            }
            "--max-batch" => {
                i += 1;
                let raw = args.get(i).ok_or("--max-batch needs a value")?;
                cfg.max_batch_rows = raw.parse().map_err(|_| format!("bad batch `{raw}`"))?;
            }
            "--linger-us" => {
                i += 1;
                let raw = args.get(i).ok_or("--linger-us needs a value")?;
                cfg.linger =
                    Duration::from_micros(raw.parse().map_err(|_| format!("bad linger `{raw}`"))?);
            }
            "--max-conns" => {
                i += 1;
                let raw = args.get(i).ok_or("--max-conns needs a value")?;
                cfg.max_conns = raw.parse().map_err(|_| format!("bad conns `{raw}`"))?;
            }
            "--no-shed" => cfg.shed = false,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    let dir = dir.ok_or("usage: experiments serve --dir DIR [--train] [--duration-s S]")?;
    // The table/figure path arms tracing via `--trace`; this subcommand
    // returns before those options parse, so honor SGNN_TRACE here.
    sgnn_obs::init_from_env();

    if train || !bundle_present(&dir) {
        let acc = train_demo_bundle(&dir)?;
        println!(
            "[serve] trained demo bundle into {} (test acc {acc:.3})",
            dir.display()
        );
    }

    if let Some(spec) = &faults_spec {
        let plan = faults::parse(spec)?;
        println!("[serve] faults armed: {spec}");
        faults::install(plan);
    }

    let engine = load_engine(&dir).map_err(|e| e.to_string())?;
    let (nodes, classes) = (engine.nodes(), engine.classes());
    // Serving from a directory enables hot reload from that directory:
    // `Client::reload()` or `touch reload.request` swaps in whatever
    // bundle the files now hold.
    cfg.bundle_dir = Some(dir.clone());
    let server = serve(engine, cfg).map_err(|e| e.to_string())?;
    println!(
        "[serve] listening on {} ({nodes} nodes, {classes} classes) for {:.1}s",
        server.addr(),
        duration.as_secs_f64()
    );
    std::thread::sleep(duration);
    server.shutdown();
    faults::clear();
    sgnn_obs::flush();
    Ok(format!(
        "[serve] shut down after {:.1}s",
        duration.as_secs_f64()
    ))
}

fn bundle_present(dir: &Path) -> bool {
    dir.join(CKPT_FILE).is_file() && dir.join(TERMS_FILE).is_file()
}

/// Trains the tiny cora demo model and exports its serving bundle into
/// `dir`; returns the test accuracy.
fn train_demo_bundle(dir: &Path) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let data = dataset_spec("cora")
        .ok_or("dataset registry missing cora")?
        .generate(GenScale::Tiny, 42);
    let mut tc = TrainConfig::fast_test(42);
    tc.epochs = 5;
    tc.patience = 0;
    tc.hops = 3;
    tc.hidden = 32;
    tc.batch_size = 256;
    let filter = make_filter("Monomial", tc.hops).ok_or("unknown filter Monomial")?;
    let report = train_and_export(dir, filter, &data, &tc).map_err(|e| e.to_string())?;
    Ok(report.test_metric)
}

/// `serve-chaos [--duration-s S] [--clients N] [--faults SPEC]`
///
/// Self-contained chaos smoke, the CI counterpart of the
/// `serve_chaos.rs` e2e test: trains a demo bundle, arms a fault plan
/// (from `--faults`, always backfilled with a
/// `slow` batch fault and a `panic` so overload shedding and the batcher's
/// panic catch both engage), boots the server with hot reload enabled,
/// drives a deadline-bearing storm while an admin connection performs two
/// hot reloads mid-run, and then verifies the robustness counters and the
/// request conservation law before flushing the trace — so a CI step can
/// follow up with `trace-summary --require-counter
/// serve.shed,serve.reloads,serve.batcher_restarts`.
pub fn serve_chaos(args: &[String]) -> Result<String, String> {
    let mut storm = Duration::from_secs(2);
    let mut clients = 32usize;
    let mut faults_spec: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--duration-s" => {
                i += 1;
                let raw = args.get(i).ok_or("--duration-s needs a value")?;
                storm = Duration::from_secs_f64(
                    raw.parse().map_err(|_| format!("bad duration `{raw}`"))?,
                );
            }
            "--clients" => {
                i += 1;
                let raw = args.get(i).ok_or("--clients needs a value")?;
                clients = raw.parse().map_err(|_| format!("bad clients `{raw}`"))?;
            }
            "--faults" => {
                i += 1;
                faults_spec = Some(args.get(i).ok_or("--faults needs a value")?.clone());
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    sgnn_obs::init_from_env();

    let dir = std::env::temp_dir().join(format!("sgnn-serve-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let acc = train_demo_bundle(&dir)?;
    println!(
        "[serve-chaos] demo bundle in {} (test acc {acc:.3})",
        dir.display()
    );

    // Fault plan: the caller's `--faults` spec, backfilled so the
    // smoke always exercises what it asserts — a `slow` fault to cap
    // capacity below the storm's offered load (else nothing sheds) and a
    // `panic` for the batcher to catch (else no restart to count).
    let mut spec = faults_spec.unwrap_or_default();
    if !spec.contains("slow") {
        if !spec.is_empty() {
            spec.push_str("; ");
        }
        spec.push_str("slow dur=0.004");
    }
    if !spec.contains("panic") {
        spec.push_str("; panic batch=100");
    }
    let plan = faults::parse(&spec)?;
    println!("[serve-chaos] faults armed: {spec}");
    faults::install(plan);

    let engine = load_engine(&dir).map_err(|e| e.to_string())?;
    let nodes = engine.nodes() as u32;
    let server = serve(
        engine,
        ServeConfig {
            bundle_dir: Some(dir.clone()),
            max_batch_rows: 8,
            linger: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let addr = server.addr();
    println!("[serve-chaos] listening on {addr}");

    // Warm the admission estimator with deadline-free load so the storm
    // starts past the shedding warmup floor.
    sgnn_serve::loadgen::run(
        addr,
        &LoadConfig {
            clients: 4,
            duration: Duration::from_millis(300),
            nodes_per_query: 4,
            node_range: nodes,
            seed: 0xACE,
            ..LoadConfig::default()
        },
    );

    // Two hot reloads from an admin connection while the storm runs. The
    // bundle bytes are unchanged, but the swap machinery (generation
    // bump, cache invalidation, in-flight isolation) is fully exercised.
    let reloader = std::thread::spawn(move || -> Result<u32, String> {
        let mut acked = 0u32;
        let mut backoff = Backoff::for_seed(0xC4A05);
        for _attempt in 0..20 {
            if acked >= 2 {
                break;
            }
            std::thread::sleep(storm / 5);
            let Ok(mut admin) = Client::connect_retry(addr, 8, &mut backoff) else {
                return Err("reloader could not connect".into());
            };
            match admin.reload() {
                Ok(Reply::Reloaded { .. }) => acked += 1,
                Ok(other) => return Err(format!("reload answered {other:?}")),
                // Transport chaos (disconnect/torn-write may hit the
                // admin conn too) — reconnect and try again.
                Err(_) => {}
            }
        }
        Ok(acked)
    });

    let report = sgnn_serve::loadgen::run(
        addr,
        &LoadConfig {
            clients,
            duration: storm,
            nodes_per_query: 4,
            node_range: nodes,
            deadline_ms: 20,
            seed: 0x57012,
            max_attempts: 3,
        },
    );
    let acked = reloader.join().map_err(|_| "reloader panicked")??;

    // Post-storm probe on a clean line: the same server, faults
    // disarmed, must still serve.
    faults::clear();
    let mut probe = Client::connect(addr).map_err(|e| format!("post-storm connect: {e:?}"))?;
    match probe.query(&[0]) {
        Ok(Reply::Logits(_)) => {}
        other => return Err(format!("post-storm probe: {other:?}")),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let snap = sgnn_obs::snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    println!(
        "[serve-chaos] storm: {:.0} qps | ok {} errors {} shed {} timeouts {} reconnects {}",
        report.qps, report.ok, report.errors, report.shed, report.timeouts, report.reconnects
    );
    println!(
        "[serve-chaos] counters: requests {} batches {} coalesced {} shed {} rejected {} \
         reloads {} restarts {} faults {}",
        c("serve.requests"),
        c("serve.batches"),
        c("serve.batch.coalesced"),
        c("serve.shed"),
        c("serve.rejected"),
        c("serve.reloads"),
        c("serve.batcher_restarts"),
        c("serve.faults.injected"),
    );
    if report.ok == 0 {
        return Err("storm produced zero successful replies".into());
    }
    if c("serve.shed") == 0 {
        return Err("nothing shed — overload control never engaged".into());
    }
    if acked < 2 || c("serve.reloads") < 2 {
        return Err(format!(
            "expected 2 acked hot reloads, got {acked} acked / {} counted",
            c("serve.reloads")
        ));
    }
    if c("serve.batcher_restarts") == 0 {
        return Err("batcher caught no panic — the panic fault did not fire".into());
    }
    let (lhs, rhs) = (
        c("serve.requests"),
        c("serve.batches") + c("serve.batch.coalesced") + c("serve.shed") + c("serve.rejected"),
    );
    if lhs != rhs {
        return Err(format!(
            "conservation law violated: requests {lhs} != batches+coalesced+shed+rejected {rhs}"
        ));
    }
    sgnn_obs::flush();
    Ok(format!(
        "[serve-chaos] survived: {} requests conserved, {} shed, {} reloads, {} batcher restart(s)",
        lhs,
        c("serve.shed"),
        c("serve.reloads"),
        c("serve.batcher_restarts")
    ))
}

/// `serve-load <addr> [--clients N] [--duration-s S] [--nodes-per-query K]
/// [--node-range N] [--deadline-ms D] [--seed S]`
///
/// Closed-loop load against an already-running server; prints QPS and
/// latency percentiles. Errors (including failed connects) make the
/// command exit nonzero via the returned `Err`.
pub fn serve_load(args: &[String]) -> Result<String, String> {
    let Some(raw_addr) = args.first() else {
        return Err("usage: experiments serve-load <addr> [--clients N] [--duration-s S]".into());
    };
    let addr: SocketAddr = raw_addr
        .parse()
        .map_err(|_| format!("bad address `{raw_addr}`"))?;
    let mut cfg = LoadConfig {
        node_range: 256,
        ..LoadConfig::default()
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--clients" => {
                i += 1;
                let raw = args.get(i).ok_or("--clients needs a value")?;
                cfg.clients = raw.parse().map_err(|_| format!("bad clients `{raw}`"))?;
            }
            "--duration-s" => {
                i += 1;
                let raw = args.get(i).ok_or("--duration-s needs a value")?;
                cfg.duration = Duration::from_secs_f64(
                    raw.parse().map_err(|_| format!("bad duration `{raw}`"))?,
                );
            }
            "--nodes-per-query" => {
                i += 1;
                let raw = args.get(i).ok_or("--nodes-per-query needs a value")?;
                cfg.nodes_per_query = raw.parse().map_err(|_| format!("bad count `{raw}`"))?;
            }
            "--node-range" => {
                i += 1;
                let raw = args.get(i).ok_or("--node-range needs a value")?;
                cfg.node_range = raw.parse().map_err(|_| format!("bad range `{raw}`"))?;
            }
            "--deadline-ms" => {
                i += 1;
                let raw = args.get(i).ok_or("--deadline-ms needs a value")?;
                cfg.deadline_ms = raw.parse().map_err(|_| format!("bad deadline `{raw}`"))?;
            }
            "--seed" => {
                i += 1;
                let raw = args.get(i).ok_or("--seed needs a value")?;
                cfg.seed = raw.parse().map_err(|_| format!("bad seed `{raw}`"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    let report = sgnn_serve::loadgen::run(addr, &cfg);
    if report.errors > 0 && report.ok == 0 {
        return Err(format!(
            "load run failed: {} errors, 0 successful replies",
            report.errors
        ));
    }
    Ok(format!(
        "serve-load {addr}: clients {} | {:.0} qps | p50 {} us | p99 {} us | ok {} err {}",
        report.clients, report.qps, report.p50_us, report.p99_us, report.ok, report.errors
    ))
}
