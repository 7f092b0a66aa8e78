//! Benchmark-side spans: one per call into a layer, recorded from this
//! crate's own files (no span is added inside `crates/`).
//!
//! A [`Tracer`] belongs to one thread. Spans stay in memory and are written
//! as JSON lines when the run ends. Disabled, `span` only calls its closure,
//! which is how the untraced run measures the end-to-end metrics.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Unit (cell, cycle, request) the span belongs to; spans of one unit
    /// share it. `u64::MAX` outside the timed phase.
    pub unit: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    unit: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// All tracers of one run share `epoch` so their spans line up.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            enabled,
            epoch,
            thread,
            unit: u64::MAX,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A disabled tracer for another thread of the same run, on the same epoch.
    pub fn sibling(&self, thread: u32) -> Self {
        Self::new(false, self.epoch, thread)
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans that follow with a unit id.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Median duration in seconds of the spans named `name`; 0 if there are none.
    pub fn median_s(&self, name: &str) -> f64 {
        let secs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect();
        if secs.is_empty() {
            0.0
        } else {
            crate::stats::median(&secs)
        }
    }
}

/// Self time of each span: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s.max(spans[p].start_s), s.end_s.min(spans[p].end_s)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_s() - covered
        })
        .collect()
}

/// Writes the spans of every tracer of one run as JSON lines. Parent links
/// are per thread: `{thread, id}` names a span.
pub fn write_jsonl(path: &Path, workload: &str, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for tr in tracers {
        let selfs = self_times(&tr.spans);
        for (id, (s, own)) in tr.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let unit = if s.unit == u64::MAX {
                "null".to_string()
            } else {
                s.unit.to_string()
            };
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"thread\":{},\"id\":{id},\"parent\":{parent},\
                 \"unit\":{unit},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{:.9}}}",
                tr.thread, s.name, s.start_s, s.end_s, own
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_s,
            end_s,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0.0, 10.0, None),   // root: children cover [1,4] ∪ [3,6] ∪ [8,9] = 6
            span(1.0, 4.0, Some(0)), // its own child covers [2,3]
            span(3.0, 6.0, Some(0)), // overlaps the previous sibling
            span(8.0, 9.0, Some(0)),
            span(2.0, 3.0, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![4.0, 2.0, 3.0, 1.0, 1.0]);
    }

    #[test]
    fn child_coverage_is_clipped_to_the_parent() {
        let spans = vec![span(2.0, 4.0, None), span(1.0, 3.0, Some(0))];
        assert_eq!(self_times(&spans), vec![1.0, 2.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_links_parents() {
        let mut off = Tracer::new(false, Instant::now(), 0);
        assert_eq!(off.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(off.spans.is_empty());

        let mut on = Tracer::new(true, Instant::now(), 0);
        on.set_unit(3);
        on.span("a", |t| {
            t.span("b", |_| ());
            t.span("c", |_| ());
        });
        let names: Vec<_> = on.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("a", None), ("b", Some(0)), ("c", Some(0))]);
        assert!(on.spans.iter().all(|s| s.unit == 3 && s.end_s >= s.start_s));
        assert!(self_times(&on.spans)[0] <= on.spans[0].duration_s());
        assert_eq!(on.median_s("b"), on.spans[1].duration_s());
        assert_eq!(on.median_s("nope"), 0.0);
    }
}
