//! The value every experiment driver builds: a `Table` of typed cells.
//! `Table::render` prints it; `crate::harness::save_json` writes
//! `Table::to_json` to `results/<name>.json`.
//!
//! Two layouts cover every table and figure of the paper:
//!
//! * `Layout::Grid` — a header line, then one fixed-width line per row.
//! * `Layout::Lines` — `-- section --` headings; each row is
//!   `  {label:<w}` followed by its cells. A cell prints as `name:value`
//!   when its column's printed name already holds a `=` (`K=2:0.6316`), as
//!   `name=value` otherwise (`metric=0.3835`).
//!
//! A row that stops short of the last column ends in a marker cell
//! (`Cell::Dnf` / `Cell::Oom`). In a grid the marker takes the next
//! column's width and alignment like any cell; under lines it prints bare.
//! A line neither layout produces is a `Row::Note`, printed as given.

use std::fmt::Write as _;

use sgnn_obs::json::{self, Value};
use sgnn_train::memory::fmt_bytes;

/// One table cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    Str(String),
    Int(u64),
    /// `v` printed with `prec` decimals, and with a `+` on non-negative
    /// values when `signed`.
    F64 {
        v: f64,
        prec: usize,
        signed: bool,
    },
    /// A byte count, printed by [`fmt_bytes`].
    Bytes(usize),
    /// Several floats under one column (per-seed metrics, coordinates).
    List(Vec<f64>),
    /// A cell that did not finish, with the reason.
    Dnf(String),
    /// A cell over the modeled device budget.
    Oom,
}

impl Cell {
    pub(crate) fn f(v: f64, prec: usize) -> Cell {
        Cell::F64 {
            v,
            prec,
            signed: false,
        }
    }

    pub(crate) fn signed(v: f64, prec: usize) -> Cell {
        Cell::F64 {
            v,
            prec,
            signed: true,
        }
    }

    /// The printed text, before padding. A DNF reason prints on one line.
    pub(crate) fn text(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Int(n) => n.to_string(),
            Cell::F64 { v, prec, signed } if *signed => format!("{v:+.prec$}"),
            Cell::F64 { v, prec, .. } => format!("{v:.prec$}"),
            Cell::Bytes(b) => fmt_bytes(*b),
            Cell::List(_) => json::write(&self.to_json()),
            Cell::Dnf(reason) => {
                let lines: Vec<&str> = reason.lines().map(str::trim).collect();
                format!("DNF({})", lines.join(" "))
            }
            Cell::Oom => "(OOM)".into(),
        }
    }

    /// The saved value; markers save as `{"dnf": reason}` / `{"oom": true}`.
    fn to_json(&self) -> Value {
        match self {
            Cell::Str(s) => Value::Str(s.clone()),
            Cell::Int(n) => Value::Int(*n),
            Cell::F64 { v, .. } => Value::Num(*v),
            Cell::Bytes(b) => Value::Int(*b as u64),
            Cell::List(vs) => Value::Arr(vs.iter().map(|&v| Value::Num(v)).collect()),
            Cell::Dnf(reason) => Value::Obj(vec![("dnf".into(), Value::Str(reason.clone()))]),
            Cell::Oom => Value::Obj(vec![("oom".into(), Value::Bool(true))]),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.into())
    }
}

impl From<&String> for Cell {
    fn from(s: &String) -> Cell {
        Cell::Str(s.clone())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n as u64)
    }
}

/// How a column prints; a `Hidden` column is saved but not printed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Align {
    Left,
    Right,
    Hidden,
}

/// One column: `name` is the JSON key, `head` the printed name (the grid
/// header, or the `head=` prefix under lines).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Column {
    pub name: String,
    pub head: String,
    pub width: usize,
    pub align: Align,
}

impl Column {
    fn new(name: impl Into<String>, width: usize, align: Align) -> Column {
        let name = name.into();
        Column {
            head: name.clone(),
            name,
            width,
            align,
        }
    }

    pub(crate) fn left(name: impl Into<String>, width: usize) -> Column {
        Column::new(name, width, Align::Left)
    }

    pub(crate) fn right(name: impl Into<String>, width: usize) -> Column {
        Column::new(name, width, Align::Right)
    }

    pub(crate) fn hidden(name: impl Into<String>) -> Column {
        Column::new(name, 0, Align::Hidden)
    }

    /// Prints as `head` while saving under `name`.
    pub(crate) fn head(mut self, head: impl Into<String>) -> Column {
        self.head = head.into();
        self
    }

    fn pad(&self, text: &str) -> String {
        let w = self.width;
        match self.align {
            Align::Right => format!("{text:>w$}"),
            _ => format!("{text:<w$}"),
        }
    }
}

/// How rows print (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Layout {
    Grid,
    Lines,
}

/// One entry of a table body.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Row {
    /// Cells in column order; a short row ends in a marker.
    Cells(Vec<Cell>),
    /// A line printed as given and not saved (section headings too).
    Note(String),
}

/// A titled table of typed rows.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Table {
    /// File stem under `results/`.
    pub name: String,
    /// Printed as `== title ==`; an empty title prints nothing.
    pub title: String,
    pub layout: Layout,
    pub columns: Vec<Column>,
    pub rows: Vec<Row>,
}

impl Table {
    pub(crate) fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        layout: Layout,
        columns: Vec<Column>,
    ) -> Table {
        Table {
            name: name.into(),
            title: title.into(),
            layout,
            columns,
            rows: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, cells: Vec<Cell>) {
        self.rows.push(Row::Cells(cells));
    }

    /// A `-- heading --` line.
    pub(crate) fn section(&mut self, heading: impl std::fmt::Display) {
        self.note(format!("-- {heading} --"));
    }

    pub(crate) fn note(&mut self, line: impl Into<String>) {
        self.rows.push(Row::Note(line.into()));
    }

    /// The printed table, each line `\n`-terminated. A row whose cells are
    /// all hidden prints nothing.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let shown = |cells: &[Cell]| -> Vec<String> {
            let short = cells.len() < self.columns.len();
            let visible: Vec<_> = self
                .columns
                .iter()
                .zip(cells)
                .filter(|(c, _)| c.align != Align::Hidden)
                .collect();
            let last = visible.len().saturating_sub(1);
            let piece = |(i, (c, cell)): (usize, &(&Column, &Cell))| {
                let text = cell.text();
                let bare = short && i == last && matches!(cell, Cell::Dnf(_) | Cell::Oom);
                match self.layout {
                    Layout::Grid => c.pad(&text),
                    Layout::Lines if i == 0 => format!("  {}", c.pad(&text)),
                    Layout::Lines if bare => text,
                    Layout::Lines if c.head.contains('=') => format!("{}:{text}", c.head),
                    Layout::Lines => format!("{}={text}", c.head),
                }
            };
            visible.iter().enumerate().map(piece).collect()
        };
        if self.layout == Layout::Grid {
            let heads: Vec<Cell> = self
                .columns
                .iter()
                .map(|c| c.head.as_str().into())
                .collect();
            let _ = writeln!(out, "{}", shown(&heads).join(" "));
        }
        for row in &self.rows {
            let line = match row {
                Row::Cells(cells) => shown(cells).join(" "),
                Row::Note(line) => line.clone(),
            };
            if !line.is_empty() {
                let _ = writeln!(out, "{line}");
            }
        }
        out
    }

    /// The rows as a JSON array of objects keyed by column name; notes are
    /// not saved.
    pub(crate) fn to_json(&self) -> Value {
        let rows = self.rows.iter().filter_map(|row| match row {
            Row::Cells(cells) => Some(Value::Obj(
                self.columns
                    .iter()
                    .zip(cells)
                    .map(|(c, cell)| (c.name.clone(), cell.to_json()))
                    .collect(),
            )),
            _ => None,
        });
        Value::Arr(rows.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_pads_visible_columns_and_places_markers() {
        let mut t = Table::new(
            "t",
            "Grid",
            Layout::Grid,
            vec![
                Column::left("filter", 6),
                Column::left("scheme", 3).head("sch"),
                Column::right("metric_mean", 8).head("metric"),
                Column::hidden("infer_s"),
                Column::right("device_bytes", 9).head("device"),
            ],
        );
        let (fit, oom) = (Cell::f(0.81234, 4), Cell::Oom);
        let bytes = Cell::Bytes(3 << 20);
        t.push(vec!["PPR".into(), "FB".into(), fit, Cell::f(9.0, 3), bytes]);
        t.push(vec!["Opt".into(), "FB".into(), oom]);
        let reason = "panic: MSE shape mismatch\n  left: (2000, 12)\n right: (2000, 4)";
        t.push(vec!["ACM".into(), "MB".into(), Cell::Dnf(reason.into())]);
        assert_eq!(
            t.render(),
            "== Grid ==\n\
             filter sch   metric    device\n\
             PPR    FB    0.8123  3.00 MiB\n\
             Opt    FB     (OOM)\n\
             ACM    MB  DNF(panic: MSE shape mismatch left: (2000, 12) right: (2000, 4))\n"
        );
        // The saved reason keeps its line breaks.
        let saved = json::write(&t.to_json());
        assert!(saved.contains(r#""metric_mean":{"dnf":"panic: MSE shape mismatch\n  left"#));
        assert!(
            saved.contains(r#""infer_s":9,"device_bytes":3145728}"#),
            "{saved}"
        );
    }

    #[test]
    fn lines_separator_follows_the_printed_name_and_short_rows_end_bare() {
        let mut t = Table::new(
            "l",
            "Lines",
            Layout::Lines,
            vec![
                Column::hidden("dataset"),
                Column::left("filter", 8),
                Column::right("K=2", 0),
                Column::right("low_metric", 0).head("low"),
                Column::right("gap", 0),
            ],
        );
        t.section("cora (H = 0.83)");
        let (k2, low, gap) = (Cell::f(0.63161, 4), Cell::f(0.5, 3), Cell::signed(0.25, 2));
        t.push(vec!["cora".into(), "PPR".into(), k2, low, gap]);
        t.push(vec![
            "cora".into(),
            "Jacobi".into(),
            Cell::Dnf("timeout".into()),
        ]);
        let nan = Cell::Dnf("nan".into());
        t.push(vec![
            "cora".into(),
            "Cheb".into(),
            nan,
            Cell::f(0.5, 1),
            Cell::Oom,
        ]);
        t.push(vec!["pubmed".into()]);
        t.note("  spread: worst/best = 0.900");
        assert_eq!(
            t.render(),
            "== Lines ==\n\
             -- cora (H = 0.83) --\n  \
             PPR      K=2:0.6316 low=0.500 gap=+0.25\n  \
             Jacobi   DNF(timeout)\n  \
             Cheb     K=2:DNF(nan) low=0.5 gap=(OOM)\n  \
             spread: worst/best = 0.900\n"
        );
        assert_eq!(
            json::write(&t.to_json()),
            r#"[{"dataset":"cora","filter":"PPR","K=2":0.63161,"low_metric":0.5,"gap":0.25},{"dataset":"cora","filter":"Jacobi","K=2":{"dnf":"timeout"}},{"dataset":"cora","filter":"Cheb","K=2":{"dnf":"nan"},"low_metric":0.5,"gap":{"oom":true}},{"dataset":"pubmed"}]"#
        );
    }

    /// The bytes the previous, derive-based pretty printer wrote for the
    /// same rows held as structs.
    const GOLDEN_PRETTY: &str = r#"[
  {
    "filter": "PPR",
    "dataset": "cora \"q\"\\\n\t\u0001é",
    "nodes": 2708,
    "metric": 0.8123456789012345,
    "zero": 0,
    "nan": null,
    "device": 123456,
    "per_seed": [
      0.5,
      -0.25,
      0.0000001,
      1000000000000000000000
    ]
  },
  {
    "filter": "ACMGNNII",
    "dataset": "cora",
    "nodes": 12,
    "metric": {
      "dnf": "panic: assertion failed\n  left: (2000, 12)\n right: (2000, 4)"
    }
  },
  {
    "filter": "OptBasis",
    "dataset": "pokec",
    "nodes": 1,
    "metric": {
      "oom": true
    }
  },
  {
    "filter": "Chebyshev",
    "dataset": "",
    "nodes": 0,
    "metric": null,
    "zero": -0,
    "nan": 3,
    "device": 0,
    "per_seed": []
  }
]"#;

    #[test]
    fn pretty_json_matches_the_previous_writer_byte_for_byte() {
        let names = [
            "filter", "dataset", "nodes", "metric", "zero", "nan", "device", "per_seed",
        ];
        let mut t = Table::new(
            "golden",
            "",
            Layout::Grid,
            names.map(Column::hidden).to_vec(),
        );
        let f = |v| Cell::f(v, 4);
        let (name, dataset) = ("PPR".into(), "cora \"q\"\\\n\t\u{1}é".into());
        let (fit, nan) = (f(0.8123456789012345), f(f64::NAN));
        let (bytes, seeds) = (
            Cell::Bytes(123456),
            Cell::List(vec![0.5, -0.25, 1e-7, 1e21]),
        );
        t.push(vec![
            name,
            dataset,
            2708usize.into(),
            fit,
            f(0.0),
            nan,
            bytes,
            seeds,
        ]);
        let reason = "panic: assertion failed\n  left: (2000, 12)\n right: (2000, 4)";
        t.push(vec![
            "ACMGNNII".into(),
            "cora".into(),
            12usize.into(),
            Cell::Dnf(reason.into()),
        ]);
        t.push(vec![
            "OptBasis".into(),
            "pokec".into(),
            1usize.into(),
            Cell::Oom,
        ]);
        let (inf, neg0, empty) = (f(f64::INFINITY), f(-0.0), Cell::List(vec![]));
        let (cheb, zero) = ("Chebyshev".into(), Cell::Bytes(0));
        t.push(vec![
            cheb,
            "".into(),
            0usize.into(),
            inf,
            neg0,
            f(3.0),
            zero,
            empty,
        ]);
        assert_eq!(json::write_pretty(&t.to_json()), GOLDEN_PRETTY);
    }
}
