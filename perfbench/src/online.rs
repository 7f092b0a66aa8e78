//! The two serving workloads: a real bundle, the real server on a loopback
//! socket, and a closed-loop load generator of `clients` threads in this
//! process (one connection each).

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sgnn_core::make_filter;
use sgnn_obs as obs;
use sgnn_serve::lru::LruCache;
use sgnn_serve::wire::{self, Request, Response};
use sgnn_serve::{artifact, bundle, serve, Client, Reply, ServeConfig, ServeEngine, ServerHandle};
use sgnn_train::{checkpoint, memory, try_train_mini_batch_trained, TrainConfig};

use crate::ledger::{self, Ledger};
use crate::offline::generate;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{
    measure, process_layers, repeat_setup, EndToEnd, Opts, Outcome, Phase, ServeSpec, MIB,
};

/// The node ids of one client's queries: a function of the workload seed and
/// the client index alone.
pub struct IdStream {
    rng: SmallRng,
    range: u32,
    rows: usize,
}

impl IdStream {
    pub fn new(seed: u64, client: usize, range: u32, rows: usize) -> Self {
        let mixed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(client as u64 + 1);
        Self {
            rng: SmallRng::seed_from_u64(mixed),
            range,
            rows,
        }
    }

    /// Overwrites `ids` with the next query (drawn with replacement).
    pub fn next_query(&mut self, ids: &mut Vec<u32>) {
        ids.clear();
        ids.extend((0..self.rows).map(|_| self.rng.random_range(0..self.range)));
    }
}

/// One load-generator thread: its connection, id stream and spans.
struct Worker {
    client: Client,
    ids: IdStream,
    tracer: Tracer,
}

/// The load one phase puts on the server, per worker.
#[derive(Clone, Copy)]
struct Load {
    queries: usize,
    /// Rows and columns a good reply has.
    shape: (usize, usize),
    limit_ms: f64,
    slo_ms: f64,
}

/// What one worker saw in one phase.
#[derive(Default)]
struct Tally {
    lat_ms: Vec<f64>,
    /// Error replies, transport errors and wrongly shaped logits.
    wrong: u64,
    /// Good replies slower than the hard limit: failed, but not incorrect.
    late: u64,
    /// Good replies slower than the latency objective.
    slow: u64,
}

impl Worker {
    fn run(&mut self, load: Load, unit0: u64) -> Tally {
        let mut tally = Tally::default();
        let mut ids = Vec::with_capacity(load.shape.0);
        for q in 0..load.queries {
            self.ids.next_query(&mut ids);
            self.tracer.set_unit(unit0 + q as u64);
            let client = &mut self.client;
            let t0 = Instant::now();
            let reply = self.tracer.span("client.query", |_| client.query(&ids));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            tally.lat_ms.push(ms);
            match reply {
                Ok(Reply::Logits(m)) if m.shape() == load.shape => {
                    tally.late += u64::from(ms > load.limit_ms);
                    tally.slow += u64::from(ms > load.slo_ms);
                }
                _ => tally.wrong += 1,
            }
        }
        tally
    }
}

/// Runs `load` on every worker, all workers starting together.
fn drive(workers: &mut [Worker], load: Load) -> Vec<Tally> {
    let barrier = Barrier::new(workers.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(w, worker)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    worker.run(load, (w * load.queries) as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    })
}

struct Served {
    handle: ServerHandle,
    workers: Vec<Worker>,
    /// The warm-up load; the timed phases change only its query count.
    load: Load,
    /// Sampled nodes and their offline logits, row-major.
    verify_ids: Vec<u32>,
    verify_rows: Vec<f32>,
}

impl Served {
    /// Queries the sampled nodes and compares the reply bit for bit.
    fn verify(&mut self) -> Result<(), String> {
        match self.workers[0].client.query(&self.verify_ids) {
            Ok(Reply::Logits(m)) => {
                let same = m.data().len() == self.verify_rows.len()
                    && m.data()
                        .iter()
                        .zip(&self.verify_rows)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                same.then_some(())
                    .ok_or_else(|| "served logits differ from offline logits".into())
            }
            other => Err(format!("verification query failed: {other:?}")),
        }
    }
}

/// One timed phase of `load` per worker; the unit samples are every worker's
/// round-trip times.
fn timed_drive(workers: &mut [Worker], load: Load) -> (Phase, Vec<Tally>) {
    let mut tallies = Vec::new();
    let phase = measure(|| {
        tallies = drive(workers, load);
        tallies
            .iter()
            .flat_map(|t| t.lat_ms.iter().copied())
            .collect()
    });
    (phase, tallies)
}

/// `serve_uniform` and `serve_hot`: the unit is one query round trip.
pub fn serve_workload(
    name: &'static str,
    spec: &ServeSpec,
    o: &Opts,
    dir: &Path,
    tr: &mut Tracer,
) -> Outcome {
    let cfg = TrainConfig {
        hops: spec.hops,
        hidden: spec.hidden,
        epochs: 1,
        patience: 0,
        seed: o.seed,
        ..TrainConfig::default()
    };
    let mut errors = Vec::new();
    tr.set_enabled(o.trace);
    let (setup_s, mut served) = repeat_setup(spec.setup_repeats, tr, |tr| {
        let data = generate(name, &spec.graph, o.seed, tr);
        let filter = make_filter("Chebyshev", spec.hops).expect("known filter");
        let trained = tr
            .span("train.mini_batch", |_| {
                try_train_mini_batch_trained(filter, &data, &cfg)
            })
            .expect("bundle trains");
        tr.span("serve.bundle.export", |_| {
            bundle::export(dir, &trained, &cfg, &data)
        })
        .expect("bundle exports");
        drop((trained, data));
        let mut engine = tr
            .span("serve.bundle.load_engine", |_| bundle::load_engine(dir))
            .expect("bundle loads");
        let classes = engine.classes();

        // Offline references: one node at a time on the loaded engine, which
        // is what `offline_logits` does after loading; one real call shows
        // the two agree.
        let mut rng = SmallRng::seed_from_u64(o.seed ^ 0x5eed_0ff1);
        let verify_ids: Vec<u32> = (0..spec.verify_nodes)
            .map(|_| rng.random_range(0..spec.id_range))
            .collect();
        let verify_rows: Vec<f32> = tr.span("reference", |_| {
            verify_ids
                .iter()
                .flat_map(|&v| engine.logits(&[v]).row(0).to_vec())
                .collect()
        });
        let first = bundle::offline_logits(dir, verify_ids[0]).expect("offline reference");
        if first
            .iter()
            .zip(&verify_rows)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            errors.push("engine.logits disagrees with bundle::offline_logits".to_string());
        }

        let handle = tr
            .span("serve.server.boot", |_| {
                serve(engine, ServeConfig::default())
            })
            .expect("server boots");
        let mut workers: Vec<Worker> = (0..spec.clients)
            .map(|w| Worker {
                client: Client::connect(handle.addr()).expect("client connects"),
                ids: IdStream::new(o.seed, w, spec.id_range, spec.rows_per_query),
                tracer: tr.sibling(w as u32 + 1),
            })
            .collect();
        let load = Load {
            queries: spec.warmup_queries,
            shape: (spec.rows_per_query, classes),
            limit_ms: spec.limit_ms,
            slo_ms: spec.slo_ms,
        };
        let warm = tr.span("warmup", |_| drive(&mut workers, load));
        if warm.iter().any(|t| t.wrong > 0) {
            errors.push("warm-up queries failed".to_string());
        }
        Served {
            handle,
            workers,
            load,
            verify_ids,
            verify_rows,
        }
    });
    tr.set_enabled(false);
    errors.extend(served.verify().err());

    let load = Load {
        queries: o.queries(spec.queries),
        ..served.load
    };
    let (untraced, tallies) = timed_drive(&mut served.workers, load);
    let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
    let (wrong, late, slow) = (sum(|t| t.wrong), sum(|t| t.late), sum(|t| t.slow));
    let sent = (load.queries * spec.clients) as u64;

    let mut ledger = Ledger::default();
    if o.trace {
        obs::enable_aggregation();
        obs::reset();
        for w in &mut served.workers {
            w.tracer.set_enabled(true);
        }
        let (traced, _) = timed_drive(&mut served.workers, load);
        let counters = obs::snapshot();
        let count = |name: &str| counters.counter(name).unwrap_or(0);
        let reached = count("serve.batches") + count("serve.batch.coalesced");
        if count("serve.requests") != reached + count("serve.shed") + count("serve.rejected")
            || count("serve.requests") != sent
        {
            errors.push(format!(
                "conservation law broken: requests {} sent {sent} batches {} coalesced {} shed {} rejected {}",
                count("serve.requests"),
                count("serve.batches"),
                count("serve.batch.coalesced"),
                count("serve.shed"),
                count("serve.rejected"),
            ));
        }
        let (hit, miss) = (
            count("serve.cache.hit") as f64,
            count("serve.cache.miss") as f64,
        );
        let hit_ratio = hit / (hit + miss).max(1.0);
        ledger.set("serve.cache.hit_ratio", hit_ratio);
        ledger.set("serve.batches", count("serve.batches") as f64);
        ledger.set("serve.coalesced", count("serve.batch.coalesced") as f64);
        ledger.set("data.csbm.generate_s", tr.median_s("data.csbm.generate"));
        ledger.set(
            "serve.server.boot_ms",
            tr.median_s("serve.server.boot") * 1e3,
        );
        process_layers(&mut ledger, &untraced, &traced);
        let lat = stats::sorted(&untraced.samples_ms);
        ledger.set("loadgen.lat_p99_ms", stats::nearest_rank(&lat, 0.99));
        ledger.set("loadgen.sent", sent as f64);
        ledger.set("loadgen.failed", (wrong + late) as f64);
        ledger.set("loadgen.slo_miss", slow as f64);
        replay_serving(&mut ledger, spec, o, dir, served.handle.addr());
        // Estimate: the isolated transform, scaled by the share of rows that
        // missed the cache, over the measured round trip.
        let share = ledger.get("serve.engine.logits_ms") * (1.0 - hit_ratio) / stats::median(&lat);
        ledger.set("serve.engine.share_of_unit", share);
    }
    errors.extend(served.verify().err());

    let Served {
        handle, workers, ..
    } = served;
    let t0 = Instant::now();
    handle.shutdown();
    if o.trace {
        ledger.set("serve.server.shutdown_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    if wrong > 0 {
        errors.push(format!(
            "{wrong} queries got an error or a wrongly shaped reply"
        ));
    }
    Outcome {
        e2e: EndToEnd::new(setup_s, &untraced, (sent - wrong) as f64),
        work_unit: "queries",
        failed: wrong + late,
        errors,
        ledger,
        worker_tracers: workers.into_iter().map(|w| w.tracer).collect(),
    }
}

/// Replays the serving layers in isolation against the bundle in `dir` and
/// the idle live server at `addr`.
fn replay_serving(
    l: &mut Ledger,
    spec: &ServeSpec,
    o: &Opts,
    dir: &Path,
    addr: std::net::SocketAddr,
) {
    let ckpt_bytes = std::fs::read(dir.join(bundle::CKPT_FILE)).expect("bundle checkpoint");
    let snapshot = checkpoint::decode(&ckpt_bytes).expect("checkpoint decodes");
    l.set(
        "train.checkpoint.decode_ms",
        ledger::median_ms(9, || {
            drop(std::hint::black_box(checkpoint::decode(&ckpt_bytes)))
        }),
    );
    l.set(
        "train.checkpoint.encode_ms",
        ledger::median_ms(9, || {
            drop(std::hint::black_box(checkpoint::encode(&snapshot)))
        }),
    );
    let terms_path = dir.join(bundle::TERMS_FILE);
    let file_mib = std::fs::metadata(&terms_path).map_or(0.0, |m| m.len() as f64 / MIB);
    let t0 = Instant::now();
    let art = artifact::load(&terms_path).expect("terms load");
    let load_s = t0.elapsed().as_secs_f64();
    l.set("serve.artifact.load_s", load_s);
    l.set("serve.artifact.mib_per_s", file_mib / load_s);
    let copy = dir.join("terms-replay.bin");
    let t0 = Instant::now();
    artifact::save(&copy, &art.meta, &art.terms).expect("terms save");
    l.set("serve.artifact.save_s", t0.elapsed().as_secs_f64());
    let _ = std::fs::remove_file(&copy);

    // The engine without a socket: uniform ids, deduplicated as the batcher
    // deduplicates its miss list.
    let mut engine = ServeEngine::new(snapshot, art).expect("engine builds");
    let classes = engine.classes();
    let mut stream = IdStream::new(
        o.seed,
        usize::MAX - 1,
        spec.graph.nodes as u32,
        spec.rows_per_query,
    );
    let mut ids = Vec::new();
    let miss_lists: Vec<Vec<u32>> = (0..21)
        .map(|_| {
            stream.next_query(&mut ids);
            let mut seen = HashSet::new();
            ids.iter().copied().filter(|id| seen.insert(*id)).collect()
        })
        .collect();
    let mut next = miss_lists.iter();
    let logits_ms = ledger::median_ms(miss_lists.len(), || {
        std::hint::black_box(engine.logits(next.next().expect("one list per call")));
    });
    let rows = miss_lists.iter().map(Vec::len).sum::<usize>() as f64 / miss_lists.len() as f64;
    l.set("serve.engine.logits_ms", logits_ms);
    l.set("serve.engine.rows_per_s", rows / (logits_ms / 1e3));
    drop(engine);

    // The LRU at the server's capacity and row width.
    let cap = ServeConfig::default().cache_cap;
    let row: Arc<[f32]> = Arc::from(vec![0.5f32; classes].into_boxed_slice());
    let mut cache = LruCache::new(cap);
    for key in 0..cap as u32 {
        cache.put(key, Arc::clone(&row));
    }
    let gets = 1_000_000usize;
    let heap0 = memory::ram_current() as f64;
    let get_ns = ledger::mean_ns(gets, |i| {
        drop(std::hint::black_box(cache.get((i % cap) as u32)))
    });
    l.set("serve.lru.get_ns", get_ns);
    l.set(
        "serve.lru.heap_b_per_hit",
        (memory::ram_current() as f64 - heap0) / gets as f64,
    );
    l.set(
        "serve.lru.put_ns",
        ledger::mean_ns(10 * cap, |i| cache.put((cap + i) as u32, Arc::clone(&row))),
    );
    drop(cache);

    // The codecs at this workload's frame sizes.
    stream.next_query(&mut ids);
    let request = Request::Query {
        nonce: 7,
        deadline_ms: 0,
        nodes: ids.clone(),
    };
    let reply = Response::Logits {
        nonce: 7,
        rows: ids.len() as u32,
        cols: classes as u32,
        data: vec![0.25; ids.len() * classes],
    };
    let frame = wire::encode_response(&reply);
    // A frame is `len | body | crc`; the decoder takes the body with its crc.
    let body = &frame[4..];
    l.set(
        "serve.wire.encode_request_us",
        ledger::mean_ns(2_000, |_| {
            drop(std::hint::black_box(wire::encode_request(&request)))
        }) / 1e3,
    );
    l.set(
        "serve.wire.encode_reply_us",
        ledger::mean_ns(2_000, |_| {
            drop(std::hint::black_box(wire::encode_response(&reply)))
        }) / 1e3,
    );
    l.set(
        "serve.wire.decode_reply_us",
        ledger::mean_ns(2_000, |_| {
            drop(std::hint::black_box(wire::decode_response(body)))
        }) / 1e3,
    );

    // Socket and framing without the batcher.
    let mut client = Client::connect(addr).expect("ping client connects");
    let mut pings: Vec<f64> = (0..2_000)
        .map(|_| {
            let t0 = Instant::now();
            client.ping().expect("ping");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    pings.sort_by(f64::total_cmp);
    l.set("serve.conn.ping_us", stats::nearest_rank(&pings, 0.5));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: usize, queries: usize) -> Vec<Vec<u32>> {
        let mut s = IdStream::new(seed, client, 1000, 16);
        (0..queries)
            .map(|_| {
                let mut ids = Vec::new();
                s.next_query(&mut ids);
                ids
            })
            .collect()
    }

    #[test]
    fn id_streams_are_a_function_of_seed_and_client() {
        assert_eq!(take(7, 0, 5), take(7, 0, 5));
        assert_ne!(take(7, 0, 5), take(8, 0, 5), "another seed, other ids");
        assert_ne!(take(7, 0, 5), take(7, 1, 5), "clients draw different ids");
        assert!(take(7, 0, 50).iter().flatten().all(|&id| id < 1000));
        assert!(take(7, 0, 5).iter().all(|q| q.len() == 16));
    }
}
