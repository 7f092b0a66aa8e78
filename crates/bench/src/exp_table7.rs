//! Table 7: average R² of signal regression on the five analytic filters.

use std::sync::Arc;

use sgnn_data::signals::{regression_task, Signal};
use sgnn_sparse::PropMatrix;
use sgnn_train::regression::fit_signal;

use crate::harness::{filter_sets, save_json, Opts};
use crate::runner::CellRunner;
use crate::table::{Cell, Column, Layout, Table};

/// Fits every selected filter to the five Table-7 signals on a small graph
/// and reports `R² × 100` per cell.
pub fn run(opts: &Opts) -> String {
    // The paper uses small real graphs for this task; a tiny cora-like graph
    // keeps the frequency structure and fits in seconds.
    let data = opts.load_dataset("cora", 0);
    let pm = Arc::new(PropMatrix::new(&data.graph, 0.5));
    // OptBasis has no closed-form response but fits signals fine;
    // Identity is excluded (nothing spectral to fit) like the paper.
    let default: Vec<&str> = filter_sets::all()
        .into_iter()
        .filter(|&f| f != "Identity")
        .collect();
    let filters = opts.filter_names(&default);
    let epochs = opts.epochs.max(80);

    let mut table = Table::new(
        "table7",
        format!("Table 7: signal regression R² × 100 (n = {})", pm.n()),
        Layout::Grid,
        vec![
            Column::left("filter", 12),
            Column::right("band", 8).head("BAND"),
            Column::right("comb", 8).head("COMBINE"),
            Column::right("high", 8).head("HIGH"),
            Column::right("low", 8).head("LOW"),
            Column::right("reject", 8).head("REJECT"),
        ],
    );
    let mut runner = CellRunner::for_opts(opts);
    for fname in &filters {
        let mut cells = [0.0f64; 5];
        let mut dnf: Option<String> = None;
        for (i, sig) in Signal::all().into_iter().enumerate() {
            let label = format!("table7/{fname}/signal{i}");
            let fitted = runner.run_value(&label, 0, |_ctx| {
                let mut scores = Vec::with_capacity(opts.seeds);
                for seed in 0..opts.seeds as u64 {
                    let task = regression_task(&pm, sig, 4, seed);
                    let filter = opts.build_filter(fname);
                    let rep = fit_signal(filter, &pm, &task, epochs, 0.05, seed);
                    scores.push(rep.r2.max(0.0) * 100.0);
                }
                Ok(sgnn_dense::stats::mean(&scores))
            });
            match fitted {
                Ok(v) => cells[i] = v,
                Err(reason) => {
                    if dnf.is_none() {
                        dnf = Some(reason);
                    }
                }
            }
        }
        let mut row = vec![fname.into()];
        match dnf {
            Some(reason) => row.push(Cell::Dnf(reason)),
            None => row.extend(cells.map(|v| Cell::f(v, 2))),
        }
        table.push(row);
    }
    save_json(opts, &table);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_table_reports_low_pass_dominance_for_hk() {
        let mut opts = Opts::tiny();
        opts.filters = vec!["HK".into()];
        opts.epochs = 60;
        let out = run(&opts);
        let line = out.lines().find(|l| l.starts_with("HK")).unwrap();
        let vals: Vec<f64> = line
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap())
            .collect();
        // LOW (index 3) must beat BAND (index 0) for the heat kernel.
        assert!(vals[3] > vals[0], "LOW {} vs BAND {}", vals[3], vals[0]);
    }
}
