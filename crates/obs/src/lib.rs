//! Structured tracing + metrics for the benchmark stack: a low-overhead
//! hierarchical profiler.
//!
//! The paper's contribution is *measurement* — per-stage wall-clock,
//! device-vs-RAM memory, propagation-vs-transformation splits — so every
//! number the harness reports should be auditable, and the profiler itself
//! must not distort the hot paths it measures. This crate provides the
//! primitives the rest of the workspace instruments itself with:
//!
//! * **Spans** — RAII guards created with [`span!`] (or recorded post-hoc
//!   with [`record_span`]). Every span carries a process-unique id and the
//!   id of its parent (the innermost span open on the same thread), so
//!   drains can compute **self-time** (exclusive time) and export
//!   flamegraphs. Span closes are buffered in per-thread lock-free ring
//!   buffers and drained by a single collector — a close never takes a
//!   shared lock.
//! * **Counters, gauges, histograms** — monotonic [`Counter`]s and
//!   log-bucketed latency [`Histogram`]s declared as statics at the
//!   instrumentation site (both lock-free to record), plus named gauges
//!   ([`gauge_set`]/[`gauge_max`], float-capable via [`gauge_set_f64`]/
//!   [`gauge_max_f64`]) for sampled quantities such as current/peak RAM.
//!   These are **always live**, traced or not ([`snapshot`] reads them).
//! * **A JSONL event sink** — when tracing is initialized with a path
//!   ([`init_trace`], or `SGNN_TRACE=path` via [`init_from_env`]), the
//!   collector appends one JSON line per drained span and [`flush`] dumps
//!   counter/gauge/histogram totals, suitable for offline analysis with
//!   `experiments trace-summary` / `experiments trace-flame`.
//!
//! # Overhead contract
//!
//! Metrics cost what their atomics cost: a [`Counter::add`] is one relaxed
//! `fetch_add`, a [`Histogram::record`] four (bucket, count, sum, max), and
//! neither ever blocks; a gauge write takes one mutex, so gauges stay off
//! per-row and per-request paths. With span tracing **off** (the default)
//! a span site costs a single relaxed atomic load: [`span!`] evaluates
//! neither its attributes nor `Instant::now`. With tracing **on**, the hot
//! path stays lock-free: a span close is a thread-local stack pop, an
//! optional memory sample, and one push into this thread's SPSC ring
//! buffer. The only mutex a recording thread ever acquires is the one-time
//! ring registration at its first event. File writes, registry updates,
//! and self-time resolution all happen in the collector, which drains the
//! rings at [`flush`]/[`snapshot`] boundaries (plus an opportunistic
//! non-blocking drain when a ring passes half full). A full ring drops the
//! event and counts it in `obs.dropped` — never blocks, never loses events
//! silently.
//!
//! # Levels
//!
//! The level governs spans, [`message`]s and the sink, never metrics.
//!
//! * `Off` — default; no spans are recorded.
//! * `Aggregate` ([`enable_aggregation`]) — spans aggregate in-process;
//!   read back with [`snapshot`]/[`report`]. Used by tests that read spans.
//! * `Stream` ([`init_trace`]) — spans aggregate and stream to the JSONL
//!   sink, which [`flush`] also fills with every metric.
//!
//! The span taxonomy, event schema, and environment variables are
//! documented in the "Observability" section of `DESIGN.md`.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod faults;
mod hist;
pub mod json;
mod ring;
mod sink;
mod tree;

pub use hist::{Buckets, HistStat, Histogram};
pub use tree::thread_ord;

const OFF: u8 = 0;
const AGGREGATE: u8 = 1;
const STREAM: u8 = 2;

static LEVEL: AtomicU8 = AtomicU8::new(OFF);

/// True when span tracing is on (either level). This is the single relaxed
/// load a span site pays when tracing is off; metrics never check it.
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != OFF
}

/// True when events are streamed to the JSONL sink.
#[inline]
pub fn streaming() -> bool {
    LEVEL.load(Ordering::Relaxed) == STREAM
}

/// Process-relative epoch all event timestamps are measured against.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since instrumentation was first enabled.
pub fn ts_rel() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// Turns on in-process span aggregation (no sink). Keeps the stream level
/// if a sink is already open.
pub fn enable_aggregation() {
    let _ = epoch();
    let _ = LEVEL.compare_exchange(OFF, AGGREGATE, Ordering::Relaxed, Ordering::Relaxed);
}

/// Opens `path` as the JSONL sink (truncating) and enables span streaming.
pub fn init_trace(path: &Path) -> std::io::Result<()> {
    let _ = epoch();
    sink::open(path)?;
    LEVEL.store(STREAM, Ordering::Relaxed);
    Ok(())
}

/// Enables streaming when `SGNN_TRACE` names a writable path. Returns
/// whether tracing was turned on.
pub fn init_from_env() -> bool {
    match std::env::var("SGNN_TRACE") {
        Ok(p) if !p.is_empty() => init_trace(Path::new(&p)).is_ok(),
        _ => false,
    }
}

/// Flushes any open sink and turns span tracing off. Metrics keep
/// recording.
pub fn disable() {
    flush();
    sink::close();
    LEVEL.store(OFF, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Attributes
// ---------------------------------------------------------------------------

/// A span attribute value (the JSON-representable scalars).
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl AttrValue {
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::F64(v) => json::push_f64(out, *v),
            AttrValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Str(s) => {
                out.push('"');
                json::escape_into(out, s);
                out.push('"');
            }
        }
    }
}

macro_rules! attr_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$ty> for AttrValue {
            fn from(v: $ty) -> Self {
                AttrValue::$variant(v as $conv)
            }
        })*
    };
}

attr_from!(
    usize => U64 as u64,
    u64 => U64 as u64,
    u32 => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
    f32 => F64 as f64,
);

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Aggregated statistics of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    pub count: u64,
    pub total_s: f64,
    pub max_s: f64,
    /// Exclusive time: total minus the time spent in child spans (spans
    /// opened on the same thread while this one was innermost). Equals
    /// `total_s` for leaf spans. Child time lost to ring drops is not
    /// subtracted, so `self_s` over-reports by exactly the dropped share.
    pub self_s: f64,
}

impl SpanStat {
    /// Mean seconds per execution (0 when the span never closed).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }
}

fn span_registry() -> &'static Mutex<HashMap<&'static str, SpanStat>> {
    static SPANS: OnceLock<Mutex<HashMap<&'static str, SpanStat>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Events dropped because a thread's ring buffer was full (mirrors the
/// per-ring accounting so drops are visible in traces and snapshots).
static DROPPED: Counter = Counter::new("obs.dropped");

/// An open span; closing (dropping) it buffers the span close — id,
/// parent id, elapsed wall-clock, memory delta — on this thread's ring.
///
/// Construct through [`span!`] so attribute evaluation is skipped when
/// span tracing is off.
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    id: u64,
    parent: u64,
    depth: u32,
    mem_start: Option<u64>,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanGuard {
    pub fn new(name: &'static str, attrs: Vec<(&'static str, AttrValue)>) -> Self {
        let (id, parent, depth) = tree::open_span();
        let mem_start = sample_mem().map(|(cur, _)| cur);
        Self {
            name,
            start: Instant::now(),
            id,
            parent,
            depth,
            mem_start,
            attrs,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_s = self.start.elapsed().as_secs_f64();
        tree::close_span(self.id);
        let mem = sample_mem().map(|(cur, peak)| ring::MemInfo {
            cur,
            peak,
            delta: self.mem_start.map(|start| cur as i64 - start as i64),
        });
        buffer_event(ring::SpanEvent {
            name: self.name,
            id: self.id,
            parent: self.parent,
            seq: 0, // assigned by the ring on successful push
            thread: tree::thread_ord(),
            depth: self.depth,
            ts_rel: ts_rel(),
            dur_s,
            mem,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// Opens a span that closes when the returned guard drops.
///
/// ```
/// let _sp = sgnn_obs::span!("spmm.csr", nnz = 1234usize, cols = 64usize);
/// ```
///
/// Expands to a single relaxed atomic load when span tracing is off —
/// neither the attribute expressions nor `Instant::now` are evaluated.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            Some($crate::SpanGuard::new($name, Vec::new()))
        } else {
            None
        }
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            Some($crate::SpanGuard::new(
                $name,
                vec![$((stringify!($key), $crate::AttrValue::from($value))),+],
            ))
        } else {
            None
        }
    };
}

/// Records an externally measured duration under `name` (the path
/// `StageTimer` uses so trace totals agree exactly with reported tables).
/// The recorded span is a leaf child of the innermost span open on this
/// thread.
#[inline]
pub fn record_span(name: &'static str, dur_s: f64) {
    if !enabled() {
        return;
    }
    let (parent, depth) = tree::record_position();
    let mem = sample_mem().map(|(cur, peak)| ring::MemInfo {
        cur,
        peak,
        delta: None,
    });
    buffer_event(ring::SpanEvent {
        name,
        id: tree::leaf_id(),
        parent,
        seq: 0,
        thread: tree::thread_ord(),
        depth,
        ts_rel: ts_rel(),
        dur_s,
        mem,
        attrs: Vec::new(),
    });
}

/// Pushes one span close onto this thread's ring, accounts drops, and
/// opportunistically drains when the ring passes its watermark. Never
/// blocks: the drain attempt is a `try_lock`.
fn buffer_event(ev: ring::SpanEvent) {
    if !ring::push(ev) {
        DROPPED.incr();
    }
    if ring::over_watermark() {
        try_collect();
    }
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// Self-time bookkeeping that survives across drains: span id → total
/// duration of its already-drained children. Children always drain before
/// their parent (they close first and share the parent's ring), so by the
/// time a span's own event arrives its accumulated child time is complete.
struct Collector {
    pending_child_s: HashMap<u64, f64>,
}

fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR.get_or_init(|| {
        Mutex::new(Collector {
            pending_child_s: HashMap::new(),
        })
    })
}

/// Drains every thread's ring into the aggregate registries (and the sink
/// when streaming). Blocking; called by [`flush`] and [`snapshot`].
pub fn collect() {
    let mut c = collector().lock().unwrap();
    collect_locked(&mut c);
}

/// Non-blocking drain attempt; skips silently when another thread is
/// already collecting (the watermark path — events just wait for the next
/// drain).
fn try_collect() {
    if let Ok(mut c) = collector().try_lock() {
        collect_locked(&mut c);
    }
}

fn collect_locked(c: &mut Collector) {
    let mut latest_mem: Option<(f64, u64)> = None;
    let mut peak: u64 = 0;
    {
        let mut spans = span_registry().lock().unwrap();
        ring::drain_all(&mut |ev| {
            let child_s = c.pending_child_s.remove(&ev.id).unwrap_or(0.0);
            let self_s = (ev.dur_s - child_s).max(0.0);
            if ev.parent != 0 {
                *c.pending_child_s.entry(ev.parent).or_insert(0.0) += ev.dur_s;
            }
            let stat = spans.entry(ev.name).or_default();
            stat.count += 1;
            stat.total_s += ev.dur_s;
            stat.max_s = stat.max_s.max(ev.dur_s);
            stat.self_s += self_s;
            if let Some(m) = ev.mem {
                peak = peak.max(m.peak);
                if latest_mem.is_none_or(|(ts, _)| ev.ts_rel >= ts) {
                    latest_mem = Some((ev.ts_rel, m.cur));
                }
            }
            if streaming() {
                sink::span_event(&ev, self_s);
            }
        });
    }
    if let Some((_, cur)) = latest_mem {
        gauge_set("ram.current_bytes", cur);
    }
    if peak > 0 {
        gauge_max("ram.peak_bytes", peak);
    }
}

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// A monotonic counter, declared as a `static` at the instrumentation site:
///
/// ```
/// static DISPATCHES: sgnn_obs::Counter = sgnn_obs::Counter::new("pool.dispatches");
/// DISPATCHES.add(1);
/// ```
///
/// Counters self-register in the global registry on their first `add`, so
/// declaring one costs nothing until it fires. They count whether or not a
/// trace is being collected.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n` (one relaxed `fetch_add`).
    #[inline]
    pub fn add(&'static self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            counter_registry().lock().unwrap().push(self);
        }
    }

    /// Shorthand for `add(1)`.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

fn counter_registry() -> &'static Mutex<Vec<&'static Counter>> {
    static COUNTERS: OnceLock<Mutex<Vec<&'static Counter>>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new(Vec::new()))
}

/// A gauge value: integer (byte counts, element counts) or float (ratios,
/// imbalance factors). Integer gauges stay exact u64 end-to-end, including
/// through `obs::json`'s `Value::Int`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GaugeValue {
    U64(u64),
    F64(f64),
}

impl GaugeValue {
    /// The value as a float (lossy above 2^53 for `U64`).
    pub fn as_f64(&self) -> f64 {
        match self {
            GaugeValue::U64(v) => *v as f64,
            GaugeValue::F64(v) => *v,
        }
    }

    /// The value as a u64 (`F64` truncates; negative/NaN becomes 0).
    pub fn as_u64(&self) -> u64 {
        match self {
            GaugeValue::U64(v) => *v,
            GaugeValue::F64(v) => {
                if v.is_finite() && *v > 0.0 {
                    *v as u64
                } else {
                    0
                }
            }
        }
    }
}

impl std::fmt::Display for GaugeValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GaugeValue::U64(v) => write!(f, "{v}"),
            GaugeValue::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for GaugeValue {
    fn from(v: u64) -> Self {
        GaugeValue::U64(v)
    }
}

impl From<f64> for GaugeValue {
    fn from(v: f64) -> Self {
        GaugeValue::F64(v)
    }
}

fn gauge_registry() -> &'static Mutex<BTreeMap<&'static str, GaugeValue>> {
    static GAUGES: OnceLock<Mutex<BTreeMap<&'static str, GaugeValue>>> = OnceLock::new();
    GAUGES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Sets gauge `name` to `value` (last write wins).
pub fn gauge_set(name: &'static str, value: u64) {
    gauge_store(name, GaugeValue::U64(value), false);
}

/// Raises gauge `name` to `value` if larger (peak tracking).
pub fn gauge_max(name: &'static str, value: u64) {
    gauge_store(name, GaugeValue::U64(value), true);
}

/// Sets a float gauge (ratios, imbalance factors, rates).
pub fn gauge_set_f64(name: &'static str, value: f64) {
    gauge_store(name, GaugeValue::F64(value), false);
}

/// Raises a float gauge to `value` if larger.
pub fn gauge_max_f64(name: &'static str, value: f64) {
    gauge_store(name, GaugeValue::F64(value), true);
}

fn gauge_store(name: &'static str, value: GaugeValue, max: bool) {
    let mut gauges = gauge_registry().lock().unwrap();
    match gauges.entry(name) {
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(value);
        }
        std::collections::btree_map::Entry::Occupied(mut e) => {
            if !max || value.as_f64() > e.get().as_f64() {
                e.insert(value);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Memory sampler
// ---------------------------------------------------------------------------

static MEM_SAMPLER: OnceLock<fn() -> (u64, u64)> = OnceLock::new();

/// Installs the process memory sampler returning `(current, peak)` heap
/// bytes; sampled at every span open/close so span events carry memory
/// deltas and high-water marks. `sgnn-train`'s tracking allocator provides
/// the canonical implementation.
pub fn set_mem_sampler(f: fn() -> (u64, u64)) {
    let _ = MEM_SAMPLER.set(f);
}

fn sample_mem() -> Option<(u64, u64)> {
    MEM_SAMPLER.get().map(|f| f())
}

// ---------------------------------------------------------------------------
// Events, flush, snapshot
// ---------------------------------------------------------------------------

/// Emits a free-form message event to the sink (no-op unless streaming).
pub fn message(name: &'static str, text: &str) {
    if streaming() {
        sink::msg_event(ts_rel(), name, text);
    }
}

/// Drains all span buffers, streams every counter/gauge/histogram value to
/// the sink, and flushes it. Call once at the end of a traced run (and at
/// checkpoints if desired).
pub fn flush() {
    collect();
    if !streaming() {
        return;
    }
    let ts = ts_rel();
    for c in counter_registry().lock().unwrap().iter() {
        sink::counter_event(ts, c.name(), c.get());
    }
    for (name, value) in gauge_registry().lock().unwrap().iter() {
        sink::gauge_event(ts, name, *value);
    }
    for (name, stat) in hist::snapshot_all() {
        sink::hist_event(ts, &name, &stat);
    }
    sink::flush();
}

/// Clears span aggregates (discarding any un-drained buffered events),
/// zeroes counters and histograms, and clears gauges. Test support; the
/// sink and level are untouched.
pub fn reset() {
    let mut c = collector().lock().unwrap();
    ring::drain_all(&mut |_| {});
    c.pending_child_s.clear();
    drop(c);
    span_registry().lock().unwrap().clear();
    for cnt in counter_registry().lock().unwrap().iter() {
        cnt.value.store(0, Ordering::Relaxed);
    }
    gauge_registry().lock().unwrap().clear();
    hist::reset_all();
}

/// A point-in-time copy of every aggregate.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Span aggregates, sorted by total time descending.
    pub spans: Vec<(String, SpanStat)>,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, GaugeValue)>,
    /// Histogram statistics, sorted by name.
    pub hists: Vec<(String, HistStat)>,
    /// Span events dropped on full rings since the last [`reset`]
    /// (also visible as the `obs.dropped` counter).
    pub dropped: u64,
}

impl Snapshot {
    /// The aggregate for one span name, if it ever closed.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The value of one counter, if it ever fired.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The statistics of one histogram, if it ever recorded.
    pub fn hist(&self, name: &str) -> Option<&HistStat> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The value of one gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<GaugeValue> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Drains all span buffers and copies the current aggregates out of the
/// registries.
pub fn snapshot() -> Snapshot {
    collect();
    let mut spans: Vec<(String, SpanStat)> = span_registry()
        .lock()
        .unwrap()
        .iter()
        .map(|(n, s)| (n.to_string(), *s))
        .collect();
    spans.sort_by(|a, b| b.1.total_s.total_cmp(&a.1.total_s).then(a.0.cmp(&b.0)));
    let mut counters: Vec<(String, u64)> = counter_registry()
        .lock()
        .unwrap()
        .iter()
        .map(|c| (c.name().to_string(), c.get()))
        .collect();
    counters.sort();
    let gauges = gauge_registry()
        .lock()
        .unwrap()
        .iter()
        .map(|(n, v)| (n.to_string(), *v))
        .collect();
    Snapshot {
        spans,
        counters,
        gauges,
        hists: hist::snapshot_all(),
        dropped: DROPPED.get(),
    }
}

/// Renders the in-process aggregates as a plain-text table.
pub fn report() -> String {
    use std::fmt::Write as _;
    let snap = snapshot();
    let mut out = String::new();
    let _ = writeln!(out, "== obs report ==");
    if !snap.spans.is_empty() {
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "span", "count", "total(s)", "self(s)", "mean(s)", "max(s)"
        );
        for (name, s) in &snap.spans {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                name,
                s.count,
                s.total_s,
                s.self_s,
                s.mean_s(),
                s.max_s
            );
        }
    }
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "counter {name:<28} {v}");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "gauge   {name:<28} {v}");
    }
    for (name, h) in &snap.hists {
        let _ = writeln!(
            out,
            "hist    {name:<28} count={} p50={} p90={} p99={} max={}",
            h.count, h.p50, h.p90, h.p99, h.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// All tests mutate process-global instrumentation state; serialize.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable_aggregation();
        reset();
        guard
    }

    #[test]
    fn spans_aggregate_count_total_max() {
        let _g = lock();
        for _ in 0..3 {
            let _s = span!("test.unit");
        }
        record_span("test.unit", 2.5);
        let snap = snapshot();
        let stat = snap.span("test.unit").expect("span recorded");
        assert_eq!(stat.count, 4);
        assert!(stat.total_s >= 2.5);
        assert!(stat.max_s >= 2.5);
        assert!(stat.mean_s() > 0.0 && stat.mean_s() <= stat.max_s);
    }

    #[test]
    fn span_macro_skips_attrs_when_disabled() {
        let _g = lock();
        disable();
        let mut evaluated = false;
        {
            let _s = span!(
                "test.off",
                flag = {
                    evaluated = true;
                    1usize
                }
            );
        }
        // Metrics are not spans: they record with tracing off.
        static OFF_COUNTER: Counter = Counter::new("test.off_counter");
        static OFF_HIST: Histogram = Histogram::new("test.off_hist");
        OFF_COUNTER.add(2);
        OFF_HIST.record(7);
        gauge_set("test.off_gauge", 5);
        let snap = snapshot();
        enable_aggregation();
        assert!(!evaluated, "attrs must not evaluate when off");
        assert!(snap.span("test.off").is_none());
        assert_eq!(snap.counter("test.off_counter"), Some(2));
        assert_eq!(snap.gauge("test.off_gauge"), Some(GaugeValue::U64(5)));
        assert_eq!(snap.hist("test.off_hist").map(|h| h.count), Some(1));
    }

    #[test]
    fn counters_register_on_first_add_and_reset() {
        let _g = lock();
        static C: Counter = Counter::new("test.counter");
        C.add(5);
        C.incr();
        assert_eq!(snapshot().counter("test.counter"), Some(6));
        reset();
        assert_eq!(snapshot().counter("test.counter"), Some(0));
    }

    #[test]
    fn gauges_set_and_max() {
        let _g = lock();
        gauge_set("test.gauge", 10);
        gauge_max("test.gauge", 7);
        let snap = snapshot();
        assert_eq!(snap.gauge("test.gauge"), Some(GaugeValue::U64(10)));
        gauge_max("test.gauge", 20);
        assert_eq!(snapshot().gauge("test.gauge"), Some(GaugeValue::U64(20)));
    }

    #[test]
    fn float_gauges_set_and_max() {
        let _g = lock();
        gauge_set_f64("test.fgauge", 1.25);
        assert_eq!(snapshot().gauge("test.fgauge"), Some(GaugeValue::F64(1.25)));
        gauge_max_f64("test.fgauge", 0.5);
        assert_eq!(snapshot().gauge("test.fgauge"), Some(GaugeValue::F64(1.25)));
        gauge_max_f64("test.fgauge", 2.0);
        assert_eq!(snapshot().gauge("test.fgauge"), Some(GaugeValue::F64(2.0)));
        // Mixed-type max compares numerically.
        gauge_max("test.fgauge", 3);
        assert_eq!(snapshot().gauge("test.fgauge"), Some(GaugeValue::U64(3)));
    }

    #[test]
    fn concurrent_spans_from_many_threads_sum_deterministically() {
        let _g = lock();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for i in 0..50 {
                        let _s = span!("test.mt", idx = i as usize);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(snapshot().span("test.mt").unwrap().count, 200);
    }

    #[test]
    fn nested_spans_compute_self_time() {
        let _g = lock();
        std::thread::spawn(|| {
            let _outer = span!("test.self.outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            for _ in 0..2 {
                let _inner = span!("test.self.inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        })
        .join()
        .unwrap();
        let snap = snapshot();
        let outer = snap.span("test.self.outer").unwrap();
        let inner = snap.span("test.self.inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        // Inner spans are leaves: self == total.
        assert!((inner.self_s - inner.total_s).abs() < 1e-12);
        // Outer self excludes the inner time and stays positive (the 4ms
        // sleep before the children).
        assert!(outer.self_s > 0.0);
        assert!(outer.self_s < outer.total_s);
        // Children self-time sums to no more than the parent's total.
        assert!(inner.self_s <= outer.total_s + 1e-9);
        // total = self + children time, within clock noise.
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-3);
    }

    #[test]
    fn self_time_resolves_across_partial_drains() {
        let _g = lock();
        std::thread::spawn(|| {
            let _outer = span!("test.drain.outer");
            {
                let _inner = span!("test.drain.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            // Drain while the outer span is still open: its pending child
            // time must survive to the next collect.
            collect();
            std::thread::sleep(std::time::Duration::from_millis(1));
        })
        .join()
        .unwrap();
        let snap = snapshot();
        let outer = snap.span("test.drain.outer").unwrap();
        let inner = snap.span("test.drain.inner").unwrap();
        assert!(outer.self_s < outer.total_s - inner.total_s + 1e-3);
    }

    #[test]
    fn report_renders_all_sections() {
        let _g = lock();
        record_span("test.report", 0.25);
        static RC: Counter = Counter::new("test.report_counter");
        RC.add(3);
        gauge_set("test.report_gauge", 9);
        static RH: Histogram = Histogram::new("test.report_hist");
        RH.record(42);
        let text = report();
        assert!(text.contains("test.report"));
        assert!(text.contains("test.report_counter"));
        assert!(text.contains("test.report_gauge"));
        assert!(text.contains("test.report_hist"));
        assert!(text.contains("self(s)"));
    }

    #[test]
    fn snapshot_reports_drop_accounting() {
        let _g = lock();
        assert_eq!(snapshot().dropped, 0);
        // Overflow one thread's ring without draining: collector stays
        // locked so the watermark try_collect cannot empty it.
        let c = collector().lock().unwrap();
        std::thread::spawn(|| {
            for _ in 0..(ring_capacity() + 10) {
                record_span("test.dropped", 0.0);
            }
        })
        .join()
        .unwrap();
        drop(c);
        let snap = snapshot();
        assert_eq!(snap.dropped, 10);
        assert_eq!(snap.counter("obs.dropped"), Some(10));
        let stat = snap.span("test.dropped").unwrap();
        assert_eq!(stat.count + snap.dropped, ring_capacity() as u64 + 10);
    }

    fn ring_capacity() -> usize {
        crate::ring::CAPACITY
    }
}
