//! Figure 6: mini-batch link-prediction efficiency.
//!
//! The reproduced observation: with `κ·m` pair evaluations per epoch, the
//! transformation stage dominates — filter choice barely moves the epoch
//! time, and device memory is bounded by the pair-batch size.

use sgnn_autograd::{Adam, Optimizer, ParamStore, Tape};
use sgnn_core::op::{filter_output, CoeffValues};
use sgnn_core::PropCtx;
use sgnn_data::linkpred::link_splits;
use sgnn_dense::rng as drng;
use sgnn_models::linkpred::LinkPredictor;
use sgnn_sparse::PropMatrix;
use sgnn_train::memory::{device, Model, StepShape};
use sgnn_train::metrics::roc_auc_pairs;
use sgnn_train::timer::StageTimer;

use crate::harness::{save_json, Opts, REPRESENTATIVES};
use crate::runner::CellRunner;
use crate::store::CellKey;
use crate::table::{Cell, Column, Layout, Table};

/// Runs link prediction for each selected filter on a PPA-like graph.
pub fn run(opts: &Opts) -> String {
    // The paper uses OGB-PPA; a medium homophilous generated graph plays
    // its role at bench scale.
    let dname = opts.dataset_names(&["flickr"])[0].clone();
    let data = opts.load_dataset(&dname, 0);
    let pm = PropMatrix::new(&data.graph, 0.5);
    let splits = link_splits(&data.graph, 2, 11);
    let filters = opts.filter_names(REPRESENTATIVES);
    let batch = 4096usize;

    let mut table = Table::new(
        "fig6",
        format!("Figure 6: MB link prediction on {dname} (κ = 3)"),
        Layout::Grid,
        vec![
            Column::left("filter", 12),
            Column::right("auc", 8).head("AUC"),
            Column::right("precompute_s", 9).head("pre(s)"),
            Column::right("train_epoch_s", 10).head("epoch(s)"),
            Column::right("infer_s", 9).head("infer(s)"),
            Column::right("device_bytes", 12).head("device"),
        ],
    );
    let mut runner = CellRunner::for_opts(opts);
    let (dropout, epochs) = (0.2, opts.epochs.min(10));
    let rows = batch.min(splits.train.pairs.len());
    for fname in &filters {
        let filter = opts.build_filter(fname);
        if !filter.mb_compatible() {
            continue;
        }
        let spec = filter.spec(data.features.cols());
        let step = StepShape {
            model: Model::LinkHead,
            rows,
            loss_rows: rows,
            features: spec.out_width(data.features.cols()),
            hidden: opts.hidden,
            classes: 1,
            dropout,
            resident: 0,
        };
        let key = CellKey::new("fig6", fname, &dname, "MB", "", 0);
        let cells = runner.run_value(key.training(step), 0, |_ctx| {
            // Precompute node embeddings: combined filter output at init
            // coefficients (graph knowledge only, per Section 6.1.2).
            let mut pre = StageTimer::new();
            let z = pre.time(|| {
                let cv = CoeffValues::resolve(&spec, &spec.initial_params());
                let ctx = PropCtx::forward(&pm);
                filter_output(filter.as_ref(), &spec, &ctx, &data.features, &cv)
            });
            let mut rng = drng::seeded(3);
            let mut store = ParamStore::new();
            let head = LinkPredictor::new(z.cols(), opts.hidden, dropout, &mut store, &mut rng);
            let mut opt = Adam::new(0.01, 1e-5);
            let mut timer = StageTimer::new();
            for epoch in 0..epochs as u64 {
                timer.time(|| {
                    for (b, chunk) in splits.train.pairs.chunks(batch).enumerate() {
                        store.zero_grads();
                        let start = (b * batch).min(splits.train.labels.len());
                        let labels = splits.train.labels[start..start + chunk.len()].to_vec();
                        let mut tape = Tape::new(true, epoch * 1000 + b as u64);
                        let loss = head.loss(&mut tape, &z, chunk, labels, &store);
                        tape.backward(loss, &mut store);
                        opt.step(&mut store);
                    }
                });
            }
            let mut infer_timer = StageTimer::new();
            let scores = infer_timer.time(|| {
                let mut all = Vec::with_capacity(splits.test.pairs.len());
                for chunk in splits.test.pairs.chunks(batch) {
                    let mut tape = Tape::new(false, 0);
                    let logits = head.score(&mut tape, &z, chunk, &store);
                    all.extend((0..chunk.len()).map(|i| tape.value(logits).get(i, 0) as f64));
                }
                all
            });
            Ok(vec![
                Cell::f(roc_auc_pairs(&scores, &splits.test.labels), 4),
                Cell::f(pre.total(), 4),
                Cell::f(timer.mean(), 4),
                Cell::f(infer_timer.total(), 4),
                Cell::Bytes(device(&step).total()),
            ])
        });
        let cells = cells.unwrap_or_else(|marker| vec![marker]);
        table.push([vec![fname.into()], cells].concat());
    }
    save_json(opts, &table);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_prediction_reports_auc_above_chance() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["PPR".into()];
        opts.epochs = 6;
        let out = run(&opts);
        let line = out.lines().find(|l| l.starts_with("PPR")).unwrap();
        let auc: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(auc > 0.55, "AUC {auc}");
    }
}
