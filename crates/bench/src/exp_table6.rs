//! Table 6: models outside the unified framework — message-passing GNNs on
//! the SP (CSR) and EI (edge-list) backends, and graph transformers.
//!
//! Reproduced shape: the SP backend trains faster with less device memory
//! than EI; EI's `m × F` message tensor OOMs first as graphs grow;
//! transformers pay a large precomputation and much slower epochs.

use std::sync::Arc;

use sgnn_autograd::{ParamStore, Tape};
use sgnn_data::Dataset;
use sgnn_dense::rng as drng;
use sgnn_models::baselines::{BaselineKind, IterativeGnn};
use sgnn_models::transformer::{GtSample, NagphormerLite};
use sgnn_sparse::{Backend, PropMatrix};
use sgnn_train::memory::{device, Model, StepShape};
use sgnn_train::timer::StageTimer;
use sgnn_train::{try_train_graph_model, GraphModel};
use sgnn_train::{TrainConfig, TrainError, TrainReport};

use crate::harness::{save_json, Opts};
use crate::runner::CellRunner;
use crate::store::CellKey;
use crate::table::{Cell, Column, Layout, Table};

/// Layers of every message-passing baseline.
const DEPTH: usize = 2;

/// GT-sample's sampled anchors: global attention over `n × ANCHORS`
/// scores (ANS-GT's fate on large graphs in Table 6).
const ANCHORS: usize = 64;

/// The baselines' fixed recipe: all epochs, one Adam group at 0.01. The
/// runner's attempt 0 runs on seed 0, so each model's historical
/// initialization seed is an offset from it.
fn baseline_cfg(opts: &Opts, dropout: f32, weight_decay: f32) -> TrainConfig {
    TrainConfig {
        hops: opts.hops,
        hidden: opts.hidden,
        epochs: opts.epochs,
        patience: 0,
        lr: 0.01,
        weight_decay,
        lr_filter: 0.01,
        weight_decay_filter: weight_decay,
        dropout,
        ..TrainConfig::default()
    }
}

fn train_iterative(
    kind: BaselineKind,
    backend: &str,
    pm: &Arc<PropMatrix>,
    data: &Dataset,
    cfg: &TrainConfig,
    device_bytes: usize,
    resident: usize,
) -> Result<TrainReport, TrainError> {
    let mut rng = drng::seeded(cfg.seed.wrapping_add(7));
    let mut store = ParamStore::new();
    let model = IterativeGnn::new(
        kind,
        data.features.cols(),
        cfg.hidden,
        data.num_classes,
        DEPTH,
        cfg.dropout,
        &mut store,
        &mut rng,
    );
    let idx = Arc::new(data.splits.train.clone());
    let graph_model = GraphModel {
        name: kind.name(),
        tag: &format!("{}-{backend}", kind.name()),
        train_logits: &|tape, store| {
            let x = tape.constant(data.features.clone());
            let logits = model.forward(tape, pm, x, store);
            tape.gather_rows(logits, Arc::clone(&idx))
        },
        infer: &|store| {
            let mut tape = Tape::new(false, 0);
            let x = tape.constant(data.features.clone());
            let logits = model.forward(&mut tape, pm, x, store);
            tape.into_value(logits)
        },
        rng_state: rng.state(),
        tape_seed: cfg.seed,
        device_bytes,
        ram_bytes: resident,
        // Table 6 has no hop column; nothing reads a baseline's `prop_hops`.
        hops: 0,
    };
    try_train_graph_model(graph_model, &mut store, data, cfg)
}

fn train_nagphormer(
    data: &Dataset,
    cfg: &TrainConfig,
    device_bytes: usize,
) -> Result<TrainReport, TrainError> {
    let pm = PropMatrix::new(&data.graph, cfg.rho);
    let mut rng = drng::seeded(cfg.seed.wrapping_add(8));
    let mut store = ParamStore::new();
    let model = NagphormerLite::new(
        cfg.hops,
        data.features.cols(),
        cfg.hidden,
        data.num_classes,
        cfg.dropout,
        &mut store,
        &mut rng,
    );
    let mut pre = StageTimer::new();
    let tokens = pre.time(|| model.hop2token(&pm, &data.features));
    let train_tokens: Vec<_> = tokens
        .iter()
        .map(|t| t.gather_rows(&data.splits.train))
        .collect();
    let all: Vec<u32> = (0..data.nodes() as u32).collect();
    let all_tokens: Vec<_> = tokens.iter().map(|t| t.gather_rows(&all)).collect();
    let graph_model = GraphModel {
        name: "NAGphormer",
        tag: "NAGphormer",
        train_logits: &|tape, store| model.forward(tape, &train_tokens, store),
        infer: &|store| {
            let mut tape = Tape::new(false, 0);
            let logits = model.forward(&mut tape, &all_tokens, store);
            tape.into_value(logits)
        },
        rng_state: rng.state(),
        tape_seed: cfg.seed,
        device_bytes,
        // Training touches only the precomputed tokens.
        ram_bytes: 0,
        hops: 0,
    };
    let mut report = try_train_graph_model(graph_model, &mut store, data, cfg)?;
    report.precompute_s = pre.total();
    Ok(report)
}

fn train_gt_sample(
    data: &Dataset,
    cfg: &TrainConfig,
    device_bytes: usize,
) -> Result<TrainReport, TrainError> {
    let mut rng = drng::seeded(cfg.seed.wrapping_add(9));
    let mut store = ParamStore::new();
    let model = GtSample::new(
        data.features.cols(),
        cfg.hidden,
        data.num_classes,
        cfg.dropout,
        &mut store,
        &mut rng,
    );
    let anchors: Vec<u32> = (0..ANCHORS)
        .map(|_| rand::Rng::random_range(&mut rng, 0..data.nodes() as u32))
        .collect();
    let idx = Arc::new(data.splits.train.clone());
    let graph_model = GraphModel {
        name: "GT-sample",
        tag: "GT-sample",
        train_logits: &|tape, store| {
            let logits = model.forward(tape, &data.features, &anchors, store);
            tape.gather_rows(logits, Arc::clone(&idx))
        },
        infer: &|store| {
            let mut tape = Tape::new(false, 0);
            let logits = model.forward(&mut tape, &data.features, &anchors, store);
            tape.into_value(logits)
        },
        rng_state: rng.state(),
        tape_seed: cfg.seed,
        device_bytes,
        ram_bytes: 0,
        hops: 0,
    };
    try_train_graph_model(graph_model, &mut store, data, cfg)
}

/// Runs the baseline comparison.
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["ogbn-arxiv", "penn94", "pokec"]);
    let mut table = Table::new(
        "table6",
        "Table 6: models outside the framework",
        Layout::Grid,
        vec![
            Column::left("model", 12),
            Column::left("backend", 4).head("bknd"),
            Column::left("dataset", 16),
            Column::right("metric", 8),
            Column::right("precompute_s", 9).head("pre(s)"),
            Column::right("train_epoch_s", 10).head("epoch(s)"),
            Column::right("infer_s", 9).head("infer(s)"),
            Column::right("device_bytes", 12).head("device"),
        ],
    );
    let mut runner = CellRunner::for_opts(opts);
    for dname in &datasets {
        let data = opts.load_dataset(dname, 0);
        let mut cell =
            |model: &str,
             backend: &str,
             step: StepShape<'_>,
             cfg: &TrainConfig,
             train: &dyn Fn(&TrainConfig, usize) -> Result<TrainReport, TrainError>| {
                let key = CellKey::new("table6", model, dname, backend, "", 0);
                let bytes = device(&step).total();
                let outcome = runner.run_report(key.training(step), 0, |ctx| {
                    let mut cfg = cfg.clone();
                    ctx.apply(&mut cfg);
                    train(&cfg, bytes)
                });
                table.push(match outcome {
                    Ok(r) => vec![
                        r.filter.into(),
                        backend.into(),
                        r.dataset.into(),
                        Cell::f(r.test_metric, 4),
                        Cell::f(r.precompute_s, 3),
                        Cell::f(r.train_epoch_s, 4),
                        Cell::f(r.infer_s, 4),
                        Cell::Bytes(r.device_bytes),
                    ],
                    Err(marker) => vec![model.into(), backend.into(), dname.into(), marker],
                });
            };
        let iterative = [
            (BaselineKind::Gcn, Backend::Csr, "SP"),
            (BaselineKind::GraphSage, Backend::Csr, "SP"),
            (BaselineKind::Gcn, Backend::EdgeList, "EI"),
            (BaselineKind::GraphSage, Backend::EdgeList, "EI"),
            (BaselineKind::ChebNet, Backend::EdgeList, "EI"),
        ];
        for (kind, backend, name) in iterative {
            let cfg = baseline_cfg(opts, 0.5, 5e-4);
            let pm = Arc::new(PropMatrix::with_options(
                &data.graph,
                cfg.rho,
                true,
                backend,
            ));
            // The graph operator, its per-hop message tensor (EI) and the
            // attributes stay resident.
            let resident = pm.nbytes() + data.features.nbytes() + pm.transient_bytes(cfg.hidden);
            let model = Model::Iterative { kind, depth: DEPTH };
            let step = StepShape::new(model, data.nodes(), &data, &cfg, resident);
            cell(kind.name(), name, step, &cfg, &|cfg, bytes| {
                train_iterative(kind, name, &pm, &data, cfg, bytes, resident)
            });
        }
        // NAGphormer's training reads the training rows' hop tokens alone.
        let mut cfg = baseline_cfg(opts, 0.3, 1e-4);
        cfg.hops = opts.hops.min(8);
        let model = Model::Nagphormer { hops: cfg.hops };
        let step = StepShape::new(model, data.splits.train.len(), &data, &cfg, 0);
        cell("NAGphormer", "-", step, &cfg, &|cfg, bytes| {
            train_nagphormer(&data, cfg, bytes)
        });
        let cfg = baseline_cfg(opts, 0.3, 1e-4);
        let model = Model::GtSample { anchors: ANCHORS };
        let step = StepShape::new(model, data.nodes(), &data, &cfg, 0);
        cell("GT-sample", "-", step, &cfg, &|cfg, bytes| {
            train_gt_sample(&data, cfg, bytes)
        });
    }
    save_json(opts, &table);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_compared_on_tiny_graph() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.epochs = 10;
        let out = run(&opts);
        assert!(out.contains("GCN"));
        assert!(out.contains("NAGphormer"));
        assert!(out.contains("SP") && out.contains("EI"));
    }
}
