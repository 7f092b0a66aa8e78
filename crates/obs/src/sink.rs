//! The JSONL event sink.
//!
//! One JSON object per line. Span events are written by the **collector**
//! while it drains the per-thread rings — never by the instrumented thread
//! itself — so the writer mutex is uncontended on hot paths. Event kinds:
//!
//! ```json
//! {"ts_rel":0.01,"kind":"span","name":"spmm.csr","dur_s":1.2e-4,"self_s":9.0e-5,"id":3,"parent":2,"seq":7,"thread":0,"depth":1,"ram_cur":1024,"ram_peak":4096,"mem_delta":512,"attrs":{"nnz":52}}
//! {"ts_rel":0.02,"kind":"counter","name":"pool.dispatches","value":17}
//! {"ts_rel":0.02,"kind":"gauge","name":"spmm.plan.imbalance","value":1.062}
//! {"ts_rel":0.02,"kind":"hist","name":"pool.dispatch_ns","count":17,"sum":82000,"max":9216,"p50":4096,"p90":8192,"p99":9216}
//! {"ts_rel":0.03,"kind":"msg","name":"progress","text":"table1 done"}
//! ```
//!
//! `id` is the process-unique span id, `parent` the enclosing span on the
//! same thread (0 for roots), `seq` the per-thread sequence number
//! (strictly consecutive; a gap means the documented `obs.dropped`
//! accounting fired). `ram_cur`/`ram_peak`/`mem_delta` appear only when a
//! memory sampler is installed (see [`crate::set_mem_sampler`]); `attrs`
//! only when the span has any.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use crate::hist::HistStat;
use crate::json::{escape_into, push_f64};
use crate::ring::SpanEvent;
use crate::GaugeValue;

fn writer() -> &'static Mutex<Option<BufWriter<File>>> {
    static WRITER: OnceLock<Mutex<Option<BufWriter<File>>>> = OnceLock::new();
    WRITER.get_or_init(|| Mutex::new(None))
}

pub(crate) fn open(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *writer().lock().unwrap() = Some(BufWriter::new(file));
    Ok(())
}

pub(crate) fn flush() {
    if let Some(w) = writer().lock().unwrap().as_mut() {
        let _ = w.flush();
    }
}

pub(crate) fn close() {
    *writer().lock().unwrap() = None; // drop flushes
}

fn write_line(line: &str) {
    if let Some(w) = writer().lock().unwrap().as_mut() {
        let _ = writeln!(w, "{line}");
    }
}

fn event_head(kind: &str, ts_rel: f64, name: &str) -> String {
    let mut s = String::with_capacity(200);
    s.push_str("{\"ts_rel\":");
    push_f64(&mut s, ts_rel);
    let _ = write!(s, ",\"kind\":\"{kind}\",\"name\":\"");
    escape_into(&mut s, name);
    s.push('"');
    s
}

/// Writes one drained span close. Collector-only.
pub(crate) fn span_event(ev: &SpanEvent, self_s: f64) {
    let mut s = event_head("span", ev.ts_rel, ev.name);
    s.push_str(",\"dur_s\":");
    push_f64(&mut s, ev.dur_s);
    s.push_str(",\"self_s\":");
    push_f64(&mut s, self_s);
    let _ = write!(
        s,
        ",\"id\":{},\"parent\":{},\"seq\":{},\"thread\":{},\"depth\":{}",
        ev.id, ev.parent, ev.seq, ev.thread, ev.depth
    );
    if let Some(m) = ev.mem {
        let _ = write!(s, ",\"ram_cur\":{},\"ram_peak\":{}", m.cur, m.peak);
        if let Some(d) = m.delta {
            let _ = write!(s, ",\"mem_delta\":{d}");
        }
    }
    if !ev.attrs.is_empty() {
        s.push_str(",\"attrs\":{");
        for (i, (k, v)) in ev.attrs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":");
            v.write_json(&mut s);
        }
        s.push('}');
    }
    s.push('}');
    write_line(&s);
}

pub(crate) fn counter_event(ts_rel: f64, name: &str, value: u64) {
    let mut s = event_head("counter", ts_rel, name);
    let _ = write!(s, ",\"value\":{value}}}");
    write_line(&s);
}

pub(crate) fn gauge_event(ts_rel: f64, name: &str, value: GaugeValue) {
    let mut s = event_head("gauge", ts_rel, name);
    s.push_str(",\"value\":");
    match value {
        GaugeValue::U64(v) => {
            let _ = write!(s, "{v}");
        }
        GaugeValue::F64(v) => push_f64(&mut s, v),
    }
    s.push('}');
    write_line(&s);
}

pub(crate) fn hist_event(ts_rel: f64, name: &str, stat: &HistStat) {
    let mut s = event_head("hist", ts_rel, name);
    let _ = write!(
        s,
        ",\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        stat.count, stat.sum, stat.max, stat.p50, stat.p90, stat.p99
    );
    write_line(&s);
}

pub(crate) fn msg_event(ts_rel: f64, name: &str, text: &str) {
    let mut s = event_head("msg", ts_rel, name);
    s.push_str(",\"text\":\"");
    escape_into(&mut s, text);
    s.push_str("\"}");
    write_line(&s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_and_controls() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{1}e");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001e");
    }

    #[test]
    fn push_f64_handles_non_finite() {
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        push_f64(&mut out, 1.5e-7);
        assert!(out.parse::<f64>().unwrap() == 1.5e-7, "{out}");
    }
}
