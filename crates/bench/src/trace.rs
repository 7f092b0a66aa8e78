//! Offline analysis of JSONL traces (`experiments trace-summary`).
//!
//! Reads a trace produced with `--trace`/`SGNN_TRACE`, re-aggregates the
//! span events, and renders: the top spans by total time with **self-time**
//! (exclusive of child spans), per-name duration quantiles (p50/p99,
//! rebuilt through the same log-bucket scheme the live histograms use),
//! net memory delta and peak RAM per span name; pool utilization; the
//! counters, gauges, and latency histograms from the final flush. Every
//! line must parse; a malformed line, a missing required span name, or a
//! missing/zero required counter is an error (the CI smoke steps rely on
//! all three).
//!
//! `for_each_event` and `SpanLine` are the one reader of trace lines,
//! shared with the flamegraph export ([`crate::flame`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use sgnn_obs::json::{self, Value};
use sgnn_obs::Buckets;

/// Aggregate of one span name reconstructed from the trace.
#[derive(Debug, Default)]
struct SpanAgg {
    total_s: f64,
    self_s: f64,
    max_s: f64,
    /// Net allocation across all closes (`mem_delta` sums; 0 = no sampler).
    mem_delta: i64,
    /// Largest `ram_peak` sampled at any close of this span (0 = no sampler).
    ram_peak: u64,
    /// Duration distribution in nanoseconds (log-bucketed), with the count
    /// of closes.
    dur_ns: Buckets,
}

/// One `hist` event from the flush (last write wins).
#[derive(Clone, Copy, Debug, Default)]
struct HistLine {
    count: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
}

/// Calls `f(lineno, event)` for every event of the trace at `path`, in file
/// order (`lineno` is 1-based; blank lines are skipped). A line that is not
/// JSON, or that `f` rejects, stops the read with an error naming it.
pub(crate) fn for_each_event(
    path: &Path,
    mut f: impl FnMut(usize, &Value) -> Result<(), String>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read trace: {e}"))?;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        f(i + 1, &event)?;
    }
    Ok(())
}

/// The fields the collector writes on every `kind:"span"` line; a span line
/// without one is malformed.
pub(crate) struct SpanLine<'a> {
    pub name: &'a str,
    pub dur_s: f64,
    /// Time not covered by child spans, as the collector measured it.
    pub self_s: f64,
    pub id: u64,
    /// The enclosing span's id; 0 at a root.
    pub parent: u64,
}

impl<'a> SpanLine<'a> {
    /// Reads the span event on line `lineno`.
    pub(crate) fn read(event: &'a Value, lineno: usize) -> Result<Self, String> {
        let field = |key: &str| {
            event
                .get(key)
                .ok_or_else(|| format!("line {lineno}: span without {key}"))
        };
        let wrong = |key: &str| format!("line {lineno}: span with a malformed {key}");
        let float = |key: &str| field(key)?.as_f64().ok_or_else(|| wrong(key));
        let int = |key: &str| field(key)?.as_u64().ok_or_else(|| wrong(key));
        Ok(Self {
            name: field("name")?.as_str().ok_or_else(|| wrong("name"))?,
            dur_s: float("dur_s")?,
            self_s: float("self_s")?,
            id: int("id")?,
            parent: int("parent")?,
        })
    }
}

/// Summarizes `path`, failing if any line is malformed, any name in
/// `require` never closed as a span, or any name in `require_counters` was
/// never flushed with a nonzero value.
pub fn summarize_file(
    path: &Path,
    require: &[String],
    require_counters: &[String],
) -> Result<String, String> {
    let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, String> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistLine> = BTreeMap::new();
    let mut messages = 0usize;
    let mut lines = 0usize;

    for_each_event(path, |lineno, event| {
        lines += 1;
        let kind = event
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {lineno}: missing kind"))?;
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {lineno}: missing name"))?;
        match kind {
            "span" => {
                let span = SpanLine::read(event, lineno)?;
                let agg = spans.entry(name.to_string()).or_default();
                agg.total_s += span.dur_s;
                agg.self_s += span.self_s;
                agg.max_s = agg.max_s.max(span.dur_s);
                agg.dur_ns
                    .record((span.dur_s.max(0.0) * 1e9).round().min(u64::MAX as f64) as u64);
                if let Some(peak) = event.get("ram_peak").and_then(Value::as_u64) {
                    agg.ram_peak = agg.ram_peak.max(peak);
                }
                if let Some(delta) = event.get("mem_delta").and_then(Value::as_i64) {
                    agg.mem_delta += delta;
                }
            }
            // Counters/gauges/hists are flushed cumulatively; last wins.
            "counter" => {
                let v = event.get("value").and_then(Value::as_u64).unwrap_or(0);
                counters.insert(name.to_string(), v);
            }
            "gauge" => {
                // Gauges may be integers (exact u64) or floats; keep the
                // source formatting either way.
                let rendered = match event.get("value") {
                    Some(Value::Int(v)) => v.to_string(),
                    Some(Value::Num(v)) => v.to_string(),
                    _ => "0".to_string(),
                };
                gauges.insert(name.to_string(), rendered);
            }
            "hist" => {
                let field = |k: &str| event.get(k).and_then(Value::as_u64).unwrap_or(0);
                hists.insert(
                    name.to_string(),
                    HistLine {
                        count: field("count"),
                        p50: field("p50"),
                        p90: field("p90"),
                        p99: field("p99"),
                        max: field("max"),
                    },
                );
            }
            "msg" => messages += 1,
            other => return Err(format!("line {lineno}: unknown kind `{other}`")),
        }
        Ok(())
    })?;

    for want in require {
        if !spans.contains_key(want) {
            return Err(format!(
                "required span `{want}` absent from trace (have: {})",
                spans.keys().cloned().collect::<Vec<_>>().join(", ")
            ));
        }
    }
    for want in require_counters {
        if counters.get(want).copied().unwrap_or(0) == 0 {
            return Err(format!(
                "required counter `{want}` absent or zero in trace (have: {})",
                counters.keys().cloned().collect::<Vec<_>>().join(", ")
            ));
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "== trace summary: {} events ==", lines);
    let mut by_total: Vec<(&String, &SpanAgg)> = spans.iter().collect();
    by_total.sort_by(|a, b| b.1.total_s.total_cmp(&a.1.total_s).then(a.0.cmp(b.0)));
    if !by_total.is_empty() {
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12} {:>12} {:>11} {:>11} {:>12} {:>11} {:>11}",
            "span",
            "count",
            "total(s)",
            "self(s)",
            "p50(s)",
            "p99(s)",
            "max(s)",
            "Δmem",
            "peak RAM"
        );
        for (name, agg) in &by_total {
            let p50 = agg.dur_ns.quantile(0.50) as f64 / 1e9;
            let p99 = agg.dur_ns.quantile(0.99) as f64 / 1e9;
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>12.6} {:>12.6} {:>11.6} {:>11.6} {:>12.6} {:>11} {:>11}",
                name,
                agg.dur_ns.count(),
                agg.total_s,
                agg.self_s,
                p50,
                p99,
                agg.max_s,
                fmt_delta(agg.mem_delta),
                if agg.ram_peak > 0 {
                    sgnn_train::memory::fmt_bytes(agg.ram_peak as usize)
                } else {
                    "-".into()
                }
            );
        }
    }
    if let Some(util) = pool_utilization(&counters) {
        let _ = writeln!(
            out,
            "pool utilization: {:.1}% busy across {} dispatches",
            util * 100.0,
            counters.get("pool.dispatches").copied().unwrap_or(0)
        );
    }
    if let Some(line) = shard_streaming(&counters, &hists) {
        let _ = writeln!(out, "{line}");
    }
    for (name, v) in &counters {
        let _ = writeln!(out, "counter {name:<28} {v}");
    }
    for (name, v) in &gauges {
        let _ = writeln!(out, "gauge   {name:<28} {v}");
    }
    for (name, h) in &hists {
        let _ = writeln!(
            out,
            "hist    {name:<28} count={} p50={} p90={} p99={} max={}",
            h.count, h.p50, h.p90, h.p99, h.max
        );
    }
    if messages > 0 {
        let _ = writeln!(out, "({messages} progress messages)");
    }
    Ok(out)
}

/// Signed byte delta for the span table (`-` when no sampler contributed).
fn fmt_delta(delta: i64) -> String {
    if delta == 0 {
        return "-".into();
    }
    let sign = if delta < 0 { "-" } else { "+" };
    format!(
        "{sign}{}",
        sgnn_train::memory::fmt_bytes(delta.unsigned_abs() as usize)
    )
}

/// Busy fraction of the pool's dispatch lanes, when the run dispatched.
fn pool_utilization(counters: &BTreeMap<String, u64>) -> Option<f64> {
    let busy = *counters.get("pool.busy_ns")?;
    let lane = *counters.get("pool.lane_ns")?;
    (lane > 0).then(|| busy as f64 / lane as f64)
}

/// Out-of-core streaming digest, when the run decoded shards: bytes read
/// from disk, decode count, prefetch hit rate, and the stall quantiles
/// (time propagation waited for a shard that was not prefetched yet).
fn shard_streaming(
    counters: &BTreeMap<String, u64>,
    hists: &BTreeMap<String, HistLine>,
) -> Option<String> {
    let bytes = *counters.get("shard.bytes_read")?;
    let decoded = counters.get("shard.decoded").copied().unwrap_or(0);
    let hits = counters.get("shard.prefetch_hit").copied().unwrap_or(0);
    let hit_pct = if decoded + hits > 0 {
        100.0 * hits as f64 / (decoded + hits) as f64
    } else {
        0.0
    };
    let stall = hists
        .get("shard.prefetch_stall_ns")
        .map(|h| format!("stall p50={}ns p99={}ns", h.p50, h.p99))
        .unwrap_or_else(|| "no stall histogram".into());
    Some(format!(
        "shard streaming: {} read across {} decodes, {} prefetch hits ({hit_pct:.1}%), {stall}",
        sgnn_train::memory::fmt_bytes(bytes as usize),
        decoded,
        hits,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn summarizes_spans_counters_and_utilization() {
        let path = write_temp(
            "sgnn_trace_summary_ok.jsonl",
            concat!(
                "{\"ts_rel\":0.1,\"kind\":\"span\",\"name\":\"spmm.csr\",\"dur_s\":0.5,\"self_s\":0.5,\"id\":1,\"parent\":0,\"thread\":0,\"depth\":0,\"ram_peak\":2097152}\n",
                "{\"ts_rel\":0.2,\"kind\":\"span\",\"name\":\"spmm.csr\",\"dur_s\":1.5,\"self_s\":1.5,\"id\":2,\"parent\":0,\"thread\":0,\"depth\":0}\n",
                "{\"ts_rel\":0.3,\"kind\":\"msg\",\"name\":\"progress\",\"text\":\"done\"}\n",
                "{\"ts_rel\":0.4,\"kind\":\"counter\",\"name\":\"pool.busy_ns\",\"value\":750}\n",
                "{\"ts_rel\":0.4,\"kind\":\"counter\",\"name\":\"pool.lane_ns\",\"value\":1000}\n",
                "{\"ts_rel\":0.4,\"kind\":\"gauge\",\"name\":\"device.peak_bytes\",\"value\":42}\n",
            ),
        );
        let out = summarize_file(
            &path,
            &["spmm.csr".to_string()],
            &["pool.busy_ns".to_string()],
        )
        .unwrap();
        assert!(out.contains("spmm.csr"));
        assert!(out.contains("pool utilization: 75.0%"));
        assert!(out.contains("device.peak_bytes"));
        assert!(out.contains("2.00 MiB"));
        assert!(out.contains("(1 progress messages)"));
    }

    #[test]
    fn self_time_comes_from_the_field() {
        let path = write_temp(
            "sgnn_trace_summary_self.jsonl",
            concat!(
                "{\"ts_rel\":0.1,\"kind\":\"span\",\"name\":\"inner\",\"dur_s\":0.75,\"self_s\":0.75,\"id\":2,\"parent\":1,\"seq\":0,\"thread\":0,\"depth\":1}\n",
                "{\"ts_rel\":0.2,\"kind\":\"span\",\"name\":\"outer\",\"dur_s\":1.0,\"self_s\":0.25,\"id\":1,\"parent\":0,\"seq\":1,\"thread\":0,\"depth\":0}\n",
            ),
        );
        let out = summarize_file(&path, &[], &[]).unwrap();
        let outer = out.lines().find(|l| l.starts_with("outer")).unwrap();
        assert!(outer.contains("1.000000"), "{outer}");
        assert!(outer.contains("0.250000"), "{outer}");
        // inner is a leaf: self == total.
        let inner = out.lines().find(|l| l.starts_with("inner")).unwrap();
        assert!(inner.contains("0.750000"), "{inner}");
    }

    #[test]
    fn mem_delta_and_hist_events_render() {
        let path = write_temp(
            "sgnn_trace_summary_hist.jsonl",
            concat!(
                "{\"ts_rel\":0.1,\"kind\":\"span\",\"name\":\"alloc\",\"dur_s\":0.5,\"self_s\":0.5,\"id\":1,\"parent\":0,\"thread\":0,\"depth\":0,\"ram_cur\":4096,\"ram_peak\":2097152,\"mem_delta\":1048576}\n",
                "{\"ts_rel\":0.2,\"kind\":\"span\",\"name\":\"alloc\",\"dur_s\":0.5,\"self_s\":0.5,\"id\":2,\"parent\":0,\"thread\":0,\"depth\":0,\"ram_cur\":0,\"ram_peak\":2097152,\"mem_delta\":-524288}\n",
                "{\"ts_rel\":0.4,\"kind\":\"hist\",\"name\":\"pool.dispatch_ns\",\"count\":17,\"sum\":82000,\"max\":9216,\"p50\":4096,\"p90\":8192,\"p99\":9216}\n",
                "{\"ts_rel\":0.4,\"kind\":\"gauge\",\"name\":\"spmm.plan.imbalance\",\"value\":1.062}\n",
            ),
        );
        let out = summarize_file(&path, &[], &[]).unwrap();
        // Net delta: +1 MiB - 512 KiB = +0.50 MiB.
        assert!(out.contains("+0.50 MiB"), "{out}");
        assert!(out.contains("hist    pool.dispatch_ns"), "{out}");
        assert!(out.contains("p50=4096"), "{out}");
        assert!(out.contains("p99=9216"), "{out}");
        // Float gauges keep their fractional value.
        assert!(out.contains("1.062"), "{out}");
    }

    #[test]
    fn span_duration_quantiles_from_bucketed_durations() {
        // 30 spans of ~1µs and one of 1ms: p50 stays µs-scale, while the
        // nearest-rank p99 (rank ceil(0.99·31) = 31) picks up the outlier's
        // bucket (within the 12.5% bucket width).
        let mut content = String::new();
        for i in 0..30 {
            content.push_str(&format!(
                "{{\"ts_rel\":0.1,\"kind\":\"span\",\"name\":\"q\",\"dur_s\":1e-6,\"self_s\":1e-6,\"id\":{},\"parent\":0,\"thread\":0,\"depth\":0}}\n",
                i + 1
            ));
        }
        content.push_str(
            "{\"ts_rel\":0.2,\"kind\":\"span\",\"name\":\"q\",\"dur_s\":0.001,\"self_s\":0.001,\"id\":31,\"parent\":0,\"thread\":0,\"depth\":0}\n",
        );
        let path = write_temp("sgnn_trace_summary_quant.jsonl", &content);
        let out = summarize_file(&path, &[], &[]).unwrap();
        let line = out.lines().find(|l| l.starts_with("q ")).unwrap();
        let cols: Vec<&str> = line.split_whitespace().collect();
        // span count total self p50 p99 max Δmem peak
        let p50: f64 = cols[4].parse().unwrap();
        let p99: f64 = cols[5].parse().unwrap();
        assert!((8e-7..=1.1e-6).contains(&p50), "p50={p50}");
        assert!((8e-4..=1.1e-3).contains(&p99), "p99={p99}");
    }

    #[test]
    fn shard_streaming_line_renders_from_counters_and_hist() {
        let path = write_temp(
            "sgnn_trace_summary_shard.jsonl",
            concat!(
                "{\"ts_rel\":0.1,\"kind\":\"counter\",\"name\":\"shard.bytes_read\",\"value\":3145728}\n",
                "{\"ts_rel\":0.1,\"kind\":\"counter\",\"name\":\"shard.decoded\",\"value\":6}\n",
                "{\"ts_rel\":0.1,\"kind\":\"counter\",\"name\":\"shard.prefetch_hit\",\"value\":18}\n",
                "{\"ts_rel\":0.2,\"kind\":\"hist\",\"name\":\"shard.prefetch_stall_ns\",\"count\":24,\"sum\":9000,\"max\":4096,\"p50\":0,\"p90\":2048,\"p99\":4096}\n",
            ),
        );
        let out = summarize_file(&path, &[], &["shard.bytes_read".to_string()]).unwrap();
        assert!(
            out.contains("shard streaming: 3.00 MiB read across 6 decodes"),
            "{out}"
        );
        assert!(out.contains("18 prefetch hits (75.0%)"), "{out}");
        assert!(out.contains("stall p50=0ns p99=4096ns"), "{out}");
        // The raw histogram still renders generically too.
        assert!(out.contains("hist    shard.prefetch_stall_ns"), "{out}");
    }

    #[test]
    fn missing_or_zero_required_counter_is_an_error() {
        let path = write_temp(
            "sgnn_trace_summary_counter.jsonl",
            concat!(
                "{\"ts_rel\":0.1,\"kind\":\"counter\",\"name\":\"cell.done\",\"value\":3}\n",
                "{\"ts_rel\":0.2,\"kind\":\"counter\",\"name\":\"cell.retry\",\"value\":0}\n",
            ),
        );
        assert!(summarize_file(&path, &[], &["cell.done".to_string()]).is_ok());
        let absent = summarize_file(&path, &[], &["cell.dnf".to_string()]).unwrap_err();
        assert!(absent.contains("required counter `cell.dnf`"), "{absent}");
        let zero = summarize_file(&path, &[], &["cell.retry".to_string()]).unwrap_err();
        assert!(zero.contains("required counter `cell.retry`"), "{zero}");
    }

    #[test]
    fn missing_required_span_is_an_error() {
        let path = write_temp(
            "sgnn_trace_summary_missing.jsonl",
            "{\"ts_rel\":0.1,\"kind\":\"span\",\"name\":\"a\",\"dur_s\":0.5,\"self_s\":0.5,\"id\":1,\"parent\":0}\n",
        );
        let err = summarize_file(&path, &["train".to_string()], &[]).unwrap_err();
        assert!(err.contains("required span `train`"), "{err}");
    }

    /// A line that is not JSON, or a span without `self_s` or `id` (as
    /// traces were before the collector wrote them), is malformed.
    #[test]
    fn malformed_line_is_an_error_with_line_number() {
        let ok = "{\"ts_rel\":0.1,\"kind\":\"span\",\"name\":\"a\",\"dur_s\":0.5,\"self_s\":0.5,\"id\":1,\"parent\":0}\n";
        for (bad, want) in [
            ("not json", "line 2:"),
            ("{\"ts_rel\":0.3,\"kind\":\"span\",\"name\":\"inner\",\"dur_s\":0.5,\"id\":4,\"parent\":3,\"thread\":0,\"depth\":1}", "line 2: span without self_s"),
            ("{\"ts_rel\":0.4,\"kind\":\"span\",\"name\":\"outer\",\"dur_s\":2.0,\"id\":3,\"parent\":0,\"thread\":0,\"depth\":0}", "line 2: span without self_s"),
            ("{\"ts_rel\":0.4,\"kind\":\"span\",\"name\":\"outer\",\"dur_s\":2.0,\"self_s\":1.5,\"parent\":0}", "line 2: span without id"),
        ] {
            let path = write_temp("sgnn_trace_summary_bad.jsonl", &format!("{ok}{bad}\n"));
            let err = summarize_file(&path, &[], &[]).unwrap_err();
            assert!(err.starts_with(want), "{err}");
        }
    }
}
