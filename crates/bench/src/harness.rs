//! Shared experiment plumbing: options, dataset/filter selection, multi-seed
//! aggregation, and JSON persistence.

use std::sync::Arc;

use sgnn_core::{make_filter, SpectralFilter};
use sgnn_data::{dataset_spec, Dataset, GenScale};
use sgnn_dense::stats::{mean, stddev};
use sgnn_train::{TrainConfig, TrainReport};

use crate::table::{Cell, Column, Table};

/// Command-line options shared by all experiments.
#[derive(Clone, Debug)]
pub struct Opts {
    pub scale: GenScale,
    pub seeds: usize,
    pub epochs: usize,
    pub hops: usize,
    pub hidden: usize,
    /// Restrict to these filters (empty = experiment default).
    pub filters: Vec<String>,
    /// Restrict to these datasets (empty = experiment default).
    pub datasets: Vec<String>,
    /// Modeled device budget in bytes for OOM detection (the paper's A30
    /// has 24 GiB; the default scales that to the bench-scale graphs).
    pub device_budget: usize,
    /// Write raw JSON rows under `results/`.
    pub json: bool,
    /// Stream a JSONL trace to this path (`--trace`; `SGNN_TRACE` fallback).
    pub trace: Option<String>,
    /// Durable run-store directory (`--resume`): completed cells are
    /// persisted there and skipped on the next run.
    pub resume: Option<String>,
    /// Fault-injection spec (`--faults`).
    pub faults: Option<String>,
    /// Extra attempts after a diverged cell (`--retries`): warm restart from
    /// the last good checkpoint when one exists, else a fresh seed.
    pub retries: usize,
    /// Per-cell wall-clock budget in seconds (`--cell-timeout-s`; 0 = off).
    pub cell_timeout_s: f64,
    /// Write a training checkpoint every N epochs (`--ckpt-every`; 0 = off).
    pub ckpt_every: usize,
    /// Root directory for per-cell checkpoints (`--ckpt-dir`; defaults to
    /// `<resume>/ckpt` when `--resume` is set).
    pub ckpt_dir: Option<String>,
    /// Out-of-core full-scale mode (`--full-scale`): the Table-5 driver
    /// generates one paper-size graph straight to a shard file and trains
    /// on it in bounded RAM instead of sweeping the dataset grid.
    pub full_scale: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            scale: GenScale::Bench,
            seeds: 3,
            epochs: 60,
            hops: 10,
            hidden: 64,
            filters: Vec::new(),
            datasets: Vec::new(),
            device_budget: 2 << 30,
            json: false,
            trace: None,
            resume: None,
            faults: None,
            retries: 1,
            cell_timeout_s: 0.0,
            ckpt_every: 0,
            ckpt_dir: None,
            full_scale: false,
        }
    }
}

impl Opts {
    /// Quick variant for integration tests: tiny graphs, one seed.
    pub fn tiny() -> Self {
        Self {
            scale: GenScale::Tiny,
            seeds: 1,
            epochs: 25,
            hops: 4,
            hidden: 32,
            ..Self::default()
        }
    }

    /// The training configuration for seed `s`.
    pub(crate) fn train_config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            hops: self.hops,
            hidden: self.hidden,
            epochs: self.epochs,
            patience: (self.epochs / 3).max(10),
            seed,
            ..TrainConfig::default()
        }
    }

    /// Resolves the filter list (explicit selection or the given default).
    pub(crate) fn filter_names(&self, default: &[&str]) -> Vec<String> {
        if self.filters.is_empty() {
            default.iter().map(|s| s.to_string()).collect()
        } else {
            self.filters.clone()
        }
    }

    /// Resolves the dataset list.
    pub(crate) fn dataset_names(&self, default: &[&str]) -> Vec<String> {
        if self.datasets.is_empty() {
            default.iter().map(|s| s.to_string()).collect()
        } else {
            self.datasets.clone()
        }
    }

    /// Generates one dataset at the selected scale.
    pub(crate) fn load_dataset(&self, name: &str, seed: u64) -> Dataset {
        dataset_spec(name)
            .unwrap_or_else(|| panic!("unknown dataset {name}"))
            .generate(self.scale, seed)
    }

    /// Builds a filter with the configured hop count.
    pub(crate) fn build_filter(&self, name: &str) -> Arc<dyn SpectralFilter> {
        make_filter(name, self.hops).unwrap_or_else(|| panic!("unknown filter {name}"))
    }

    /// The trace destination: `--trace` wins, then the `SGNN_TRACE`
    /// environment variable, then none.
    pub fn trace_path(&self) -> Option<String> {
        self.trace
            .clone()
            .or_else(|| std::env::var("SGNN_TRACE").ok().filter(|p| !p.is_empty()))
    }

    /// The root directory for per-cell checkpoints: `--ckpt-dir` wins, then
    /// `<resume>/ckpt` when a run store is attached, then none.
    pub(crate) fn ckpt_root(&self) -> Option<String> {
        self.ckpt_dir
            .clone()
            .or_else(|| self.resume.as_ref().map(|r| format!("{r}/ckpt")))
    }

    /// The cell retry/timeout/checkpoint policy.
    pub(crate) fn policy(&self) -> crate::runner::CellPolicy {
        crate::runner::CellPolicy {
            retries: self.retries,
            time_budget_s: self.cell_timeout_s,
            ckpt_every: self.ckpt_every,
            ckpt_root: self.ckpt_root(),
        }
    }

    /// Config fingerprint for run-store invalidation: covers every option
    /// that changes what a cell *measures*. Filter/dataset restrictions are
    /// deliberately excluded — they select cells (already named by the cell
    /// key) rather than altering them, so a narrowed rerun can reuse the
    /// store. Seeds per cell are in the key too.
    pub(crate) fn fingerprint(&self) -> String {
        let canon = format!(
            "scale={:?};epochs={};hops={};hidden={};budget={}",
            self.scale, self.epochs, self.hops, self.hidden, self.device_budget
        );
        // FNV-1a, 64-bit: stable, dependency-free, and plenty for a
        // change-detection tag (not a security boundary).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in canon.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// Parses the shared experiment flags (everything after the target).
pub fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--scale" => {
                opts.scale = match take(&mut i)?.as_str() {
                    "tiny" => GenScale::Tiny,
                    "bench" => GenScale::Bench,
                    "full" => GenScale::Full,
                    other => return Err(format!("unknown scale {other}")),
                }
            }
            "--seeds" => opts.seeds = positive(flag, &take(&mut i)?)?,
            "--epochs" => opts.epochs = positive(flag, &take(&mut i)?)?,
            "--hops" => opts.hops = take(&mut i)?.parse().map_err(|e| format!("--hops: {e}"))?,
            "--hidden" => opts.hidden = positive(flag, &take(&mut i)?)?,
            "--filters" => opts.filters = take(&mut i)?.split(',').map(str::to_string).collect(),
            "--datasets" => opts.datasets = take(&mut i)?.split(',').map(str::to_string).collect(),
            "--device-budget-mb" => {
                let mb: usize = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--device-budget-mb: {e}"))?;
                opts.device_budget = mb << 20;
            }
            "--json" => opts.json = true,
            "--trace" => opts.trace = Some(take(&mut i)?),
            "--resume" => opts.resume = Some(take(&mut i)?),
            "--faults" => opts.faults = Some(take(&mut i)?),
            "--retries" => {
                opts.retries = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--cell-timeout-s" => {
                opts.cell_timeout_s = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--cell-timeout-s: {e}"))?
            }
            "--ckpt-every" => {
                opts.ckpt_every = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--ckpt-every: {e}"))?
            }
            "--ckpt-dir" => opts.ckpt_dir = Some(take(&mut i)?),
            "--full-scale" => opts.full_scale = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// A count that must be at least 1: zero seeds finish no cell (every one
/// would read as out of memory), zero epochs report the untrained model's
/// metric and no time, and a zero-width hidden layer trains a model that
/// can only guess.
fn positive(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

/// Progress/diagnostic line: printed to stderr and mirrored into the trace
/// (as a `msg` event) so offline analysis sees the run's milestones.
pub fn progress(text: &str) {
    eprintln!("{text}");
    sgnn_obs::message("progress", text);
}

/// Columns of the effectiveness (Tables 5/10) and efficiency (Tables 9/11)
/// grids; the timing and memory columns print only when `efficiency`.
pub(crate) fn aggregate_columns(efficiency: bool) -> Vec<Column> {
    let eff = |c: Column| {
        if efficiency {
            c
        } else {
            Column::hidden(c.name)
        }
    };
    vec![
        Column::left("filter", 12),
        Column::left("dataset", 16),
        Column::left("scheme", 3).head("sch"),
        Column::right("metric_mean", 9).head("metric"),
        Column::right("metric_std", 8).head("±std"),
        eff(Column::right("precompute_s", 10).head("pre(s)")),
        eff(Column::right("train_epoch_s", 10).head("epoch(s)")),
        Column::hidden("infer_s"),
        eff(Column::right("device_bytes", 12).head("device")),
        eff(Column::right("ram_bytes", 12).head("ram")),
    ]
}

/// One [`aggregate_columns`] row from per-seed reports: mean ± std of the
/// test metric, mean stage times, peak bytes.
pub(crate) fn aggregate(reports: &[TrainReport]) -> Vec<Cell> {
    let avg = |f: fn(&TrainReport) -> f64| mean(&reports.iter().map(f).collect::<Vec<_>>());
    let peak = |f: fn(&TrainReport) -> usize| Cell::Bytes(reports.iter().map(f).max().unwrap_or(0));
    let first = &reports[0];
    vec![
        (&first.filter).into(),
        (&first.dataset).into(),
        (&first.scheme).into(),
        Cell::f(avg(|r| r.test_metric), 4),
        Cell::f(
            stddev(&reports.iter().map(|r| r.test_metric).collect::<Vec<_>>()),
            4,
        ),
        Cell::f(avg(|r| r.precompute_s), 4),
        Cell::f(avg(|r| r.train_epoch_s), 4),
        Cell::f(avg(|r| r.infer_s), 4),
        peak(|r| r.device_bytes),
        peak(|r| r.ram_bytes),
    ]
}

/// Persists `table` as JSON under `results/<name>.json` when enabled.
pub(crate) fn save_json(opts: &Opts, table: &Table) {
    if !opts.json {
        return;
    }
    let path = format!("results/{}.json", table.name);
    let text = sgnn_obs::json::write_pretty(&table.to_json());
    if let Err(e) = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: cannot write {path}: {e}");
    }
}

/// A representative pick across the three filter types, swept by the
/// figures.
pub(crate) const REPRESENTATIVES: &[&str] = &[
    "Identity",
    "Linear",
    "Impulse",
    "PPR",
    "Monomial",
    "VarMonomial",
    "Chebyshev",
    "Jacobi",
    "FAGNN",
    "FiGURe",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_computes_mean_and_std() {
        let mk = |m: f64| TrainReport {
            filter: "PPR".into(),
            dataset: "cora".into(),
            scheme: "FB".into(),
            test_metric: m,
            ..Default::default()
        };
        let row = aggregate(&[mk(0.8), mk(0.9)]);
        assert_eq!(row.len(), aggregate_columns(true).len());
        assert!(matches!(row[3], Cell::F64 { v, .. } if (v - 0.85).abs() < 1e-12));
        assert!(matches!(row[4], Cell::F64 { v, .. } if v > 0.0));
    }

    #[test]
    fn render_marks_oom() {
        let mut table = Table::new(
            "t",
            "t",
            crate::table::Layout::Grid,
            aggregate_columns(true),
        );
        table.push(vec![
            "OptBasis".into(),
            "pokec".into(),
            "FB".into(),
            Cell::Oom,
        ]);
        let text = table.render();
        assert!(
            text.contains("OptBasis     pokec            FB      (OOM)"),
            "{text}"
        );
    }

    #[test]
    fn parse_opts_reads_all_flags() {
        let args: Vec<String> = [
            "--scale",
            "tiny",
            "--seeds",
            "2",
            "--epochs",
            "7",
            "--hops",
            "3",
            "--hidden",
            "16",
            "--filters",
            "PPR,Chebyshev",
            "--datasets",
            "cora",
            "--device-budget-mb",
            "512",
            "--json",
            "--trace",
            "/tmp/trace.jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_opts(&args).unwrap();
        assert!(matches!(opts.scale, GenScale::Tiny));
        assert_eq!(opts.seeds, 2);
        assert_eq!(opts.epochs, 7);
        assert_eq!(opts.hops, 3);
        assert_eq!(opts.hidden, 16);
        assert_eq!(opts.filters, vec!["PPR", "Chebyshev"]);
        assert_eq!(opts.datasets, vec!["cora"]);
        assert_eq!(opts.device_budget, 512 << 20);
        assert!(opts.json);
        assert_eq!(opts.trace.as_deref(), Some("/tmp/trace.jsonl"));
        assert_eq!(opts.trace_path().as_deref(), Some("/tmp/trace.jsonl"));
    }

    #[test]
    fn parse_opts_rejects_bad_input() {
        let err = |args: &[&str]| {
            parse_opts(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
        };
        assert!(err(&["--scale", "huge"]).contains("unknown scale"));
        assert!(err(&["--seeds"]).contains("needs a value"));
        assert!(err(&["--frobnicate"]).contains("unknown flag"));
        assert!(err(&["--epochs", "many"]).contains("--epochs"));
        assert!(err(&["--seeds", "0"]).contains("--seeds must be at least 1"));
        assert!(err(&["--epochs", "0"]).contains("--epochs must be at least 1"));
        assert!(err(&["--hidden", "0"]).contains("--hidden must be at least 1"));
        assert!(err(&["--hidden", "-1"]).contains("--hidden"));
    }

    #[test]
    fn filter_sets_are_consistent() {
        let all = sgnn_core::all_filter_names();
        assert_eq!(all.len(), 27);
        for f in REPRESENTATIVES {
            assert!(all.contains(f), "{f}");
        }
    }
}
