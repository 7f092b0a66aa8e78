//! Durable per-cell result store (`--resume <dir>`).
//!
//! The paper's grids run 27 filters × 22 datasets × seeds; one killed
//! process must not discard hours of finished cells. [`RunStore`] persists
//! every completed `(exp, filter, dataset, scheme, variant, seed)` cell as
//! one append-only JSONL record in `<dir>/cells.jsonl`, flushed as soon as
//! the cell finishes — a crash loses at most the in-flight cell.
//!
//! Each record carries a **config fingerprint** ([`crate::harness::Opts::fingerprint`]):
//! records whose fingerprint differs from the resuming run's are ignored
//! (the hyperparameters changed, so the cached metrics are meaningless) but
//! left in the file — the store is append-only, never rewritten.
//!
//! Crash tolerance on the read side: a truncated final line (the classic
//! mid-write kill) is detected by its parse failure and dropped; the same
//! applies to any corrupt interior line, with a warning. Records are written
//! and read back through `sgnn_obs::json`, so the f64 metrics round-trip
//! exactly (shortest-representation `Display`
//! then `str::parse`), which is what makes a resumed table byte-identical
//! to an uninterrupted one.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use sgnn_obs::json::{self, Value};
use sgnn_train::TrainReport;

/// Identity of one grid cell. `variant` disambiguates sweeps whose cells
/// differ in more than (filter, dataset, scheme, seed) — e.g. `"K=6"` in the
/// hop sweep or `"rho=0.25"` in the normalization sweep; empty otherwise.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    pub exp: String,
    pub filter: String,
    pub dataset: String,
    pub scheme: String,
    pub variant: String,
    pub seed: u64,
}

impl CellKey {
    pub fn new(
        exp: &str,
        filter: &str,
        dataset: &str,
        scheme: &str,
        variant: &str,
        seed: u64,
    ) -> Self {
        Self {
            exp: exp.into(),
            filter: filter.into(),
            dataset: dataset.into(),
            scheme: scheme.into(),
            variant: variant.into(),
            seed,
        }
    }

    /// Human-readable cell label for progress lines and DNF reasons.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/{}/{}",
            self.exp, self.filter, self.dataset, self.scheme
        );
        if !self.variant.is_empty() {
            s.push('/');
            s.push_str(&self.variant);
        }
        s.push_str(&format!("/s{}", self.seed));
        s
    }
}

/// How a cell ended: a full report, or did-not-finish with a reason.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    Done(TrainReport),
    Dnf { reason: String },
}

impl CellOutcome {
    pub fn report(&self) -> Option<&TrainReport> {
        match self {
            CellOutcome::Done(r) => Some(r),
            CellOutcome::Dnf { .. } => None,
        }
    }

    pub fn dnf_reason(&self) -> Option<&str> {
        match self {
            CellOutcome::Done(_) => None,
            CellOutcome::Dnf { reason } => Some(reason),
        }
    }
}

/// One persisted record: key + fingerprint + outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    pub key: CellKey,
    pub fingerprint: String,
    pub outcome: CellOutcome,
}

/// Encodes a record as one JSONL line (no trailing newline).
pub fn encode_record(rec: &CellRecord) -> String {
    let text = |s: &str| Value::Str(s.into());
    let int = |n: usize| Value::Int(n as u64);
    let k = &rec.key;
    let key = obj(vec![
        ("exp", text(&k.exp)),
        ("filter", text(&k.filter)),
        ("dataset", text(&k.dataset)),
        ("scheme", text(&k.scheme)),
        ("variant", text(&k.variant)),
        ("seed", Value::Int(k.seed)),
    ]);
    let mut members = vec![("key", key), ("fingerprint", text(&rec.fingerprint))];
    match &rec.outcome {
        CellOutcome::Done(r) => {
            let report = obj(vec![
                ("filter", text(&r.filter)),
                ("dataset", text(&r.dataset)),
                ("scheme", text(&r.scheme)),
                ("test_metric", Value::Num(r.test_metric)),
                ("valid_metric", Value::Num(r.valid_metric)),
                ("epochs_run", int(r.epochs_run)),
                ("precompute_s", Value::Num(r.precompute_s)),
                ("train_epoch_s", Value::Num(r.train_epoch_s)),
                ("train_total_s", Value::Num(r.train_total_s)),
                ("infer_s", Value::Num(r.infer_s)),
                ("device_bytes", int(r.device_bytes)),
                ("ram_bytes", int(r.ram_bytes)),
                ("prop_hops", int(r.prop_hops)),
            ]);
            members.extend([("status", text("done")), ("report", report)]);
        }
        CellOutcome::Dnf { reason } => {
            members.extend([("status", text("dnf")), ("reason", text(reason))]);
        }
    }
    json::write(&obj(members))
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number field `{key}`"))
}

/// Parses one JSONL line back into a record. Any malformed or incomplete
/// line is an error — the caller treats it as a torn write and drops it.
pub fn parse_record(line: &str) -> Result<CellRecord, String> {
    let v = json::parse(line)?;
    let key_v = v.get("key").ok_or("missing `key` object")?;
    let key = CellKey {
        exp: field_str(key_v, "exp")?,
        filter: field_str(key_v, "filter")?,
        dataset: field_str(key_v, "dataset")?,
        scheme: field_str(key_v, "scheme")?,
        variant: field_str(key_v, "variant")?,
        seed: field_u64(key_v, "seed")?,
    };
    let fingerprint = field_str(&v, "fingerprint")?;
    let outcome = match field_str(&v, "status")?.as_str() {
        "dnf" => CellOutcome::Dnf {
            reason: field_str(&v, "reason")?,
        },
        "done" => {
            let r = v.get("report").ok_or("missing `report` object")?;
            CellOutcome::Done(TrainReport {
                filter: field_str(r, "filter")?,
                dataset: field_str(r, "dataset")?,
                scheme: field_str(r, "scheme")?,
                test_metric: field_f64(r, "test_metric")?,
                valid_metric: field_f64(r, "valid_metric")?,
                epochs_run: field_u64(r, "epochs_run")? as usize,
                precompute_s: field_f64(r, "precompute_s")?,
                train_epoch_s: field_f64(r, "train_epoch_s")?,
                train_total_s: field_f64(r, "train_total_s")?,
                infer_s: field_f64(r, "infer_s")?,
                device_bytes: field_u64(r, "device_bytes")? as usize,
                ram_bytes: field_u64(r, "ram_bytes")? as usize,
                prop_hops: field_u64(r, "prop_hops")? as usize,
            })
        }
        other => return Err(format!("unknown status `{other}`")),
    };
    Ok(CellRecord {
        key,
        fingerprint,
        outcome,
    })
}

/// What `RunStore::open` found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Records usable by this run (fingerprint matched).
    pub loaded: usize,
    /// Records ignored because their fingerprint differs.
    pub stale: usize,
    /// Lines dropped as torn/corrupt (includes a truncated final line).
    pub dropped: usize,
}

/// Append-only JSONL store of completed cells under one directory.
pub struct RunStore {
    path: PathBuf,
    file: File,
    fingerprint: String,
    cells: HashMap<CellKey, CellOutcome>,
    stats: LoadStats,
}

impl RunStore {
    /// Opens (creating if needed) `<dir>/cells.jsonl`, loading every record
    /// whose fingerprint matches `fingerprint`.
    pub fn open(dir: &Path, fingerprint: &str) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("cells.jsonl");
        let mut cells = HashMap::new();
        let mut stats = LoadStats::default();
        if let Ok(text) = std::fs::read_to_string(&path) {
            let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
            for (i, line) in lines.iter().enumerate() {
                match parse_record(line) {
                    Ok(rec) if rec.fingerprint == fingerprint => {
                        stats.loaded += 1;
                        cells.insert(rec.key, rec.outcome);
                    }
                    Ok(_) => stats.stale += 1,
                    Err(e) => {
                        stats.dropped += 1;
                        // The final line tearing mid-write is the expected
                        // crash signature; anything earlier deserves a note.
                        if i + 1 != lines.len() {
                            eprintln!("warning: {}: line {}: {e}", path.display(), i + 1);
                        }
                    }
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            file,
            fingerprint: fingerprint.to_string(),
            cells,
            stats,
        })
    }

    /// The completed outcome for `key`, if this or a previous run finished it.
    pub fn get(&self, key: &CellKey) -> Option<&CellOutcome> {
        self.cells.get(key)
    }

    /// Persists one finished cell: appended and flushed before returning, so
    /// a subsequent crash cannot lose it.
    pub fn put(&mut self, key: CellKey, outcome: CellOutcome) -> std::io::Result<()> {
        let rec = CellRecord {
            key,
            fingerprint: self.fingerprint.clone(),
            outcome,
        };
        let mut line = encode_record(&rec);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.cells.insert(rec.key, rec.outcome);
        Ok(())
    }

    /// Number of cells available to this run.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// What `open` found on disk.
    pub fn load_stats(&self) -> LoadStats {
        self.stats
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(metric: f64) -> TrainReport {
        TrainReport {
            filter: "PPR".into(),
            dataset: "cora".into(),
            scheme: "FB".into(),
            test_metric: metric,
            valid_metric: metric - 0.01,
            epochs_run: 17,
            precompute_s: 0.0,
            train_epoch_s: 0.002_513,
            train_total_s: 0.042_721,
            infer_s: 1.5e-4,
            device_bytes: 123_456,
            ram_bytes: 78_910,
            prop_hops: 40,
        }
    }

    fn sample_key(seed: u64) -> CellKey {
        CellKey::new("table5", "PPR", "cora", "FB", "", seed)
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let rec = CellRecord {
            key: sample_key(2),
            fingerprint: "abc123".into(),
            outcome: CellOutcome::Done(sample_report(0.8123456789012345)),
        };
        let parsed = parse_record(&encode_record(&rec)).unwrap();
        assert_eq!(parsed, rec);
        let dnf = CellRecord {
            key: sample_key(3),
            fingerprint: "abc123".into(),
            outcome: CellOutcome::Dnf {
                reason: "panic: \"index out of bounds\"".into(),
            },
        };
        assert_eq!(parse_record(&encode_record(&dnf)).unwrap(), dnf);
    }

    /// Lines the previous, derive-based encoder wrote for these records: a
    /// store written before the switch must resume after it, and vice versa.
    #[test]
    fn encoded_records_match_the_retired_encoder() {
        let done = CellRecord {
            key: CellKey::new("fig7", "PPR", "cora", "FB", "K=2", 3),
            fingerprint: "0123abcd".into(),
            outcome: CellOutcome::Done(TrainReport {
                test_metric: 0.8123456789012345,
                valid_metric: 0.8023456789012345,
                ..sample_report(0.0)
            }),
        };
        assert_eq!(
            encode_record(&done),
            r#"{"key":{"exp":"fig7","filter":"PPR","dataset":"cora","scheme":"FB","variant":"K=2","seed":3},"fingerprint":"0123abcd","status":"done","report":{"filter":"PPR","dataset":"cora","scheme":"FB","test_metric":0.8123456789012345,"valid_metric":0.8023456789012345,"epochs_run":17,"precompute_s":0,"train_epoch_s":0.002513,"train_total_s":0.042721,"infer_s":0.00015,"device_bytes":123456,"ram_bytes":78910,"prop_hops":40}}"#
        );
        let dnf = CellRecord {
            key: CellKey::new("table7", "ACMGNNII", "cora \"x\"", "FB", "", 0),
            fingerprint: "0123abcd".into(),
            outcome: CellOutcome::Dnf {
                reason: "panic: \"x\"\n  left: 1\tq\u{2}".into(),
            },
        };
        assert_eq!(
            encode_record(&dnf),
            r#"{"key":{"exp":"table7","filter":"ACMGNNII","dataset":"cora \"x\"","scheme":"FB","variant":"","seed":0},"fingerprint":"0123abcd","status":"dnf","reason":"panic: \"x\"\n  left: 1\tq\u0002"}"#
        );
    }

    #[test]
    fn open_put_get_persists_across_reopen() {
        let dir = std::env::temp_dir().join("sgnn_store_reopen");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = RunStore::open(&dir, "fp1").unwrap();
            assert!(store.is_empty());
            store
                .put(sample_key(0), CellOutcome::Done(sample_report(0.9)))
                .unwrap();
            store
                .put(
                    sample_key(1),
                    CellOutcome::Dnf {
                        reason: "timeout".into(),
                    },
                )
                .unwrap();
        }
        let store = RunStore::open(&dir, "fp1").unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.load_stats().loaded, 2);
        let got = store.get(&sample_key(0)).unwrap();
        assert_eq!(got.report().unwrap().test_metric, 0.9);
        assert_eq!(
            store.get(&sample_key(1)).unwrap().dnf_reason(),
            Some("timeout")
        );
    }

    #[test]
    fn fingerprint_mismatch_ignores_stale_records() {
        let dir = std::env::temp_dir().join("sgnn_store_stale");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = RunStore::open(&dir, "old").unwrap();
            store
                .put(sample_key(0), CellOutcome::Done(sample_report(0.5)))
                .unwrap();
        }
        let store = RunStore::open(&dir, "new").unwrap();
        assert!(store.get(&sample_key(0)).is_none());
        assert_eq!(store.load_stats().stale, 1);
    }

    #[test]
    fn truncated_final_line_is_dropped_not_propagated() {
        let dir = std::env::temp_dir().join("sgnn_store_torn");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = RunStore::open(&dir, "fp").unwrap();
            store
                .put(sample_key(0), CellOutcome::Done(sample_report(0.7)))
                .unwrap();
            store
                .put(sample_key(1), CellOutcome::Done(sample_report(0.8)))
                .unwrap();
        }
        // Simulate a crash mid-write: chop the file inside the last record.
        let path = dir.join("cells.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();
        let store = RunStore::open(&dir, "fp").unwrap();
        assert_eq!(store.len(), 1, "torn record must vanish");
        assert!(store.get(&sample_key(0)).is_some());
        assert!(store.get(&sample_key(1)).is_none());
        assert_eq!(store.load_stats().dropped, 1);
    }
}
