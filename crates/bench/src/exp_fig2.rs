//! Figure 2: stage-level time and memory breakdown of full-batch vs
//! mini-batch training on medium-to-large datasets.

use sgnn_train::Scheme;

use crate::harness::{save_json, Opts, REPRESENTATIVES};
use crate::runner::{CellRunner, Setting};
use crate::store::CellKey;
use crate::table::{Cell, Column, Layout, Table};

/// Runs the breakdown on the Figure-2 dataset lineup.
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["flickr", "penn94", "pokec", "snap-patents"]);
    let filters = opts.filter_names(REPRESENTATIVES);
    let mut table = Table::new(
        "fig2",
        "Figure 2: FB vs MB stage breakdown",
        Layout::Grid,
        vec![
            Column::left("dataset", 16),
            Column::left("filter", 12),
            Column::left("scheme", 3).head("sch"),
            Column::right("precompute_s", 10).head("pre(s)"),
            Column::right("train_total_s", 10).head("train(s)"),
            Column::right("infer_s", 9).head("infer(s)"),
            Column::right("device_bytes", 12).head("device"),
            Column::right("ram_bytes", 12).head("ram"),
        ],
    );
    let mut runner = CellRunner::for_opts(opts);
    let mut cfg = opts.train_config(0);
    cfg.patience = 0;
    cfg.epochs = opts.epochs.min(15);
    for dname in &datasets {
        let at = Setting::load(opts, dname, 0, cfg.clone());
        for fname in &filters {
            let filter = || opts.build_filter(fname);
            for scheme in Scheme::ALL {
                if !scheme.supports(filter().as_ref()) {
                    continue;
                }
                let tag = scheme.tag();
                let key = CellKey::new("fig2", fname, dname, tag, "", 0);
                let outcome = runner.train_report(key, scheme, &at, filter);
                let mut row = vec![dname.into(), fname.into(), tag.into()];
                match outcome {
                    Ok(r) => row.extend([
                        Cell::f(r.precompute_s, 4),
                        Cell::f(r.train_total_s, 3),
                        Cell::f(r.infer_s, 4),
                        Cell::Bytes(r.device_bytes),
                        Cell::Bytes(r.ram_bytes),
                    ]),
                    Err(marker) => row.push(marker),
                }
                table.push(row);
            }
        }
    }
    save_json(opts, &table);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_reports_both_schemes() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["Monomial".into()];
        opts.epochs = 5;
        let out = run(&opts);
        assert!(out.contains(" FB "));
        assert!(out.contains(" MB "));
    }
}
