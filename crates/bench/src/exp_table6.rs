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
use crate::runner::{CellCtx, CellRunner};
use crate::table::{Cell, Column, Layout, Table};

/// The row of a cell with no result: its key, then the marker.
fn marked(model: &str, backend: &str, dataset: &str, marker: Cell) -> Vec<Cell> {
    vec![model.into(), backend.into(), dataset.into(), marker]
}

/// The row of a cell that trained to the end.
fn trained(backend: &str, precompute_s: f64, r: TrainReport) -> Vec<Cell> {
    vec![
        r.filter.into(),
        backend.into(),
        r.dataset.into(),
        Cell::f(r.test_metric, 4),
        Cell::f(precompute_s, 3),
        Cell::f(r.train_epoch_s, 4),
        Cell::f(r.infer_s, 4),
        Cell::Bytes(r.device_bytes),
    ]
}

/// Runs one baseline cell through the fault/retry/panic stack; a failure
/// becomes a DNF row instead of killing the table.
fn guarded(
    runner: &mut CellRunner,
    model: &str,
    backend: &str,
    dataset: &str,
    f: impl FnMut(&CellCtx) -> Result<Vec<Cell>, TrainError>,
) -> Vec<Cell> {
    let label = format!("table6/{model}-{backend}/{dataset}");
    runner
        .run_value(&label, 0, f)
        .unwrap_or_else(|reason| marked(model, backend, dataset, Cell::Dnf(reason)))
}

/// One attempt's config: the baselines' fixed recipe (all epochs, one Adam
/// group at 0.01) under the runner's seed, budget, checkpoint and fault
/// settings. Attempt 0 runs on seed 0, so each model's historical
/// initialization seed is an offset from it.
fn baseline_cfg(opts: &Opts, ctx: &CellCtx, dropout: f32, weight_decay: f32) -> TrainConfig {
    let mut cfg = TrainConfig {
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
    };
    ctx.apply(&mut cfg);
    cfg
}

/// The device bytes of `model`'s step on `rows` rows of `data` at `cfg`
/// beside `resident` bytes, if they fit the budget.
fn fits(
    opts: &Opts,
    model: Model<'_>,
    rows: usize,
    data: &Dataset,
    cfg: &TrainConfig,
    resident: usize,
) -> Option<usize> {
    let bytes = device(&StepShape::new(model, rows, data, cfg, resident)).total();
    (bytes <= opts.device_budget).then_some(bytes)
}

fn backend_name(backend: Backend) -> &'static str {
    match backend {
        Backend::Csr => "SP",
        Backend::EdgeList => "EI",
    }
}

fn train_iterative(
    kind: BaselineKind,
    backend: Backend,
    data: &Dataset,
    opts: &Opts,
    ctx: &CellCtx,
) -> Result<Vec<Cell>, TrainError> {
    let depth = 2;
    let cfg = baseline_cfg(opts, ctx, 0.5, 5e-4);
    let pm = Arc::new(PropMatrix::with_options(
        &data.graph,
        cfg.rho,
        true,
        backend,
    ));
    // The graph operator, its per-hop message tensor (EI) and the
    // attributes stay resident.
    let resident = pm.nbytes() + data.features.nbytes() + pm.transient_bytes(cfg.hidden);
    let model = Model::Iterative { kind, depth };
    let Some(device_bytes) = fits(opts, model, data.nodes(), data, &cfg, resident) else {
        let oom = marked(kind.name(), backend_name(backend), &data.name, Cell::Oom);
        return Ok(oom);
    };
    let mut rng = drng::seeded(cfg.seed.wrapping_add(7));
    let mut store = ParamStore::new();
    let model = IterativeGnn::new(
        kind,
        data.features.cols(),
        cfg.hidden,
        data.num_classes,
        depth,
        cfg.dropout,
        &mut store,
        &mut rng,
    );
    let idx = Arc::new(data.splits.train.clone());
    let graph_model = GraphModel {
        name: kind.name(),
        tag: &format!("{}-{}", kind.name(), backend_name(backend)),
        train_logits: &|tape, store| {
            let x = tape.constant(data.features.clone());
            let logits = model.forward(tape, &pm, x, store);
            tape.gather_rows(logits, Arc::clone(&idx))
        },
        infer: &|store| {
            let mut tape = Tape::new(false, 0);
            let x = tape.constant(data.features.clone());
            let logits = model.forward(&mut tape, &pm, x, store);
            tape.into_value(logits)
        },
        rng_state: rng.state(),
        tape_seed: cfg.seed,
        device_bytes,
        ram_bytes: resident,
        // Table 6 has no hop column; nothing reads a baseline's `prop_hops`.
        hops: 0,
    };
    let report = try_train_graph_model(graph_model, &mut store, data, &cfg)?;
    Ok(trained(backend_name(backend), 0.0, report))
}

fn train_nagphormer(data: &Dataset, opts: &Opts, ctx: &CellCtx) -> Result<Vec<Cell>, TrainError> {
    let mut cfg = baseline_cfg(opts, ctx, 0.3, 1e-4);
    cfg.hops = opts.hops.min(8);
    // Training reads the training rows' hop tokens alone.
    let model = Model::Nagphormer { hops: cfg.hops };
    let Some(device_bytes) = fits(opts, model, data.splits.train.len(), data, &cfg, 0) else {
        return Ok(marked("NAGphormer", "-", &data.name, Cell::Oom));
    };
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
    let report = try_train_graph_model(graph_model, &mut store, data, &cfg)?;
    Ok(trained("-", pre.total(), report))
}

fn train_gt_sample(data: &Dataset, opts: &Opts, ctx: &CellCtx) -> Result<Vec<Cell>, TrainError> {
    // Global attention over `n × anchors` scores (ANS-GT's fate on large
    // graphs in Table 6).
    let anchors_n = 64usize;
    let cfg = baseline_cfg(opts, ctx, 0.3, 1e-4);
    let model = Model::GtSample { anchors: anchors_n };
    let Some(device_bytes) = fits(opts, model, data.nodes(), data, &cfg, 0) else {
        return Ok(marked("GT-sample", "-", &data.name, Cell::Oom));
    };
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
    let anchors: Vec<u32> = (0..anchors_n)
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
    let report = try_train_graph_model(graph_model, &mut store, data, &cfg)?;
    Ok(trained("-", 0.0, report))
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
        let iterative = [
            (BaselineKind::Gcn, Backend::Csr),
            (BaselineKind::GraphSage, Backend::Csr),
            (BaselineKind::Gcn, Backend::EdgeList),
            (BaselineKind::GraphSage, Backend::EdgeList),
            (BaselineKind::ChebNet, Backend::EdgeList),
        ];
        for (kind, backend) in iterative {
            table.push(guarded(
                &mut runner,
                kind.name(),
                backend_name(backend),
                dname,
                |ctx| train_iterative(kind, backend, &data, opts, ctx),
            ));
        }
        table.push(guarded(&mut runner, "NAGphormer", "-", dname, |ctx| {
            train_nagphormer(&data, opts, ctx)
        }));
        table.push(guarded(&mut runner, "GT-sample", "-", dname, |ctx| {
            train_gt_sample(&data, opts, ctx)
        }));
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
