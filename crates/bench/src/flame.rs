//! Flamegraph export (`experiments trace-flame`).
//!
//! Converts a JSONL trace into the **collapsed-stack** format consumed by
//! `flamegraph.pl`, speedscope, and most flame renderers: one line per
//! unique call path, frames joined by `;` root-first, followed by the
//! path's weight — here the summed **self-time in nanoseconds** of the
//! innermost frame:
//!
//! ```text
//! cell;epoch.propagate;spmm.csr 184211
//! cell;epoch.propagate 1507
//! cell;epoch.transform;matmul 92180
//! ```
//!
//! Paths are rebuilt from the span events' `id`/`parent` links (parents are
//! always spans on the same thread). A parent that never closed — still
//! open when the trace ended, or lost to the accounted ring drops — simply
//! truncates the path at the deepest known ancestor. Because weights are
//! self-times, the children of any frame sum to at most the frame's total
//! time, so the rendered flame widths are consistent by construction. Span
//! lines are read by [`crate::trace`]'s reader: a line that is not JSON, or
//! a span without its `id` or `self_s`, is an error naming the line.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

use sgnn_obs::json::Value;

use crate::trace::{for_each_event, SpanLine};

#[derive(Clone, Debug)]
struct SpanRec {
    name: String,
    parent: u64,
    self_ns: u64,
}

/// Renders the collapsed-stack view of `path`. Lines are sorted for
/// deterministic output; zero-weight paths (self-time under 1ns) are
/// dropped.
pub fn collapse_file(path: &Path) -> Result<String, String> {
    let mut spans: HashMap<u64, SpanRec> = HashMap::new();
    for_each_event(path, |lineno, event| {
        if event.get("kind").and_then(Value::as_str) == Some("span") {
            let span = SpanLine::read(event, lineno)?;
            let self_ns = (span.self_s.max(0.0) * 1e9).round().min(u64::MAX as f64) as u64;
            spans.insert(
                span.id,
                SpanRec {
                    name: span.name.to_string(),
                    parent: span.parent,
                    self_ns,
                },
            );
        }
        Ok(())
    })?;

    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for rec in spans.values() {
        if rec.self_ns == 0 {
            continue;
        }
        // Walk ancestors root-ward; a parent that never closed truncates
        // the chain. Depth-capped as defense against a corrupted trace
        // containing a parent cycle.
        let mut frames = vec![rec.name.as_str()];
        let mut cursor = rec.parent;
        for _ in 0..64 {
            match (cursor != 0).then(|| spans.get(&cursor)).flatten() {
                Some(p) => {
                    frames.push(p.name.as_str());
                    cursor = p.parent;
                }
                None => break,
            }
        }
        frames.reverse();
        *folded.entry(frames.join(";")).or_insert(0) += rec.self_ns;
    }

    let mut out = String::new();
    for (stack, ns) in &folded {
        let _ = writeln!(out, "{stack} {ns}");
    }
    Ok(out)
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
    fn nested_frames_fold_with_self_time_weights() {
        // epoch.propagate (1.0s total) with two spmm.csr children (0.3s
        // each) and a sibling matmul under epoch.transform.
        let path = write_temp(
            "sgnn_flame_nested.jsonl",
            concat!(
                "{\"ts_rel\":0.1,\"kind\":\"span\",\"name\":\"spmm.csr\",\"dur_s\":0.3,\"self_s\":0.3,\"id\":2,\"parent\":1,\"thread\":0,\"depth\":1}\n",
                "{\"ts_rel\":0.2,\"kind\":\"span\",\"name\":\"spmm.csr\",\"dur_s\":0.3,\"self_s\":0.3,\"id\":3,\"parent\":1,\"thread\":0,\"depth\":1}\n",
                "{\"ts_rel\":0.3,\"kind\":\"span\",\"name\":\"epoch.propagate\",\"dur_s\":1.0,\"self_s\":0.4,\"id\":1,\"parent\":0,\"thread\":0,\"depth\":0}\n",
                "{\"ts_rel\":0.4,\"kind\":\"span\",\"name\":\"matmul\",\"dur_s\":0.2,\"self_s\":0.2,\"id\":5,\"parent\":4,\"thread\":0,\"depth\":1}\n",
                "{\"ts_rel\":0.5,\"kind\":\"span\",\"name\":\"epoch.transform\",\"dur_s\":0.25,\"self_s\":0.05,\"id\":4,\"parent\":0,\"thread\":0,\"depth\":0}\n",
                "{\"ts_rel\":0.6,\"kind\":\"counter\",\"name\":\"train.epochs\",\"value\":1}\n",
            ),
        );
        let out = collapse_file(&path).unwrap();
        let get = |stack: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(&format!("{stack} ")))
                .unwrap_or_else(|| panic!("missing stack `{stack}` in:\n{out}"))
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        // Both identical child paths merge into one line.
        assert_eq!(get("epoch.propagate;spmm.csr"), 600_000_000);
        assert_eq!(get("epoch.propagate"), 400_000_000);
        assert_eq!(get("epoch.transform;matmul"), 200_000_000);
        assert_eq!(get("epoch.transform"), 50_000_000);

        // The flamegraph invariant the profiler guarantees: for any frame,
        // the self-weights of its subtree's deeper lines sum to no more
        // than the frame's *total* time (children closed inside it).
        let children_self = get("epoch.propagate;spmm.csr");
        let parent_total_ns = 1_000_000_000u64;
        assert!(children_self <= parent_total_ns);
        assert!(get("epoch.propagate") + children_self <= parent_total_ns);
    }

    #[test]
    fn missing_parent_truncates_the_chain() {
        // Parent id 9 never closed (still open / dropped): the child roots
        // its own stack instead of erroring.
        let path = write_temp(
            "sgnn_flame_orphan.jsonl",
            "{\"ts_rel\":0.1,\"kind\":\"span\",\"name\":\"spmm.csr\",\"dur_s\":0.3,\"self_s\":0.3,\"id\":2,\"parent\":9,\"thread\":0,\"depth\":1}\n",
        );
        let out = collapse_file(&path).unwrap();
        assert_eq!(out.trim(), "spmm.csr 300000000");
    }

    /// A span without `id` or `self_s` (as traces were before the collector
    /// wrote them) cannot be placed in a stack: it is an error naming the
    /// line.
    #[test]
    fn v1_traces_without_ids_are_an_error() {
        let path = write_temp(
            "sgnn_flame_v1.jsonl",
            concat!(
                "{\"ts_rel\":0.1,\"kind\":\"span\",\"name\":\"a\",\"dur_s\":0.5,\"thread\":0,\"depth\":0}\n",
                "{\"ts_rel\":0.2,\"kind\":\"span\",\"name\":\"a\",\"dur_s\":0.25,\"thread\":0,\"depth\":0}\n",
            ),
        );
        assert_eq!(
            collapse_file(&path).unwrap_err(),
            "line 1: span without self_s"
        );
    }

    #[test]
    fn malformed_line_is_an_error() {
        let path = write_temp("sgnn_flame_bad.jsonl", "not json\n");
        assert!(collapse_file(&path).is_err());
    }
}
