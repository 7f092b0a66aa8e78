//! RAM behaviour of a full-batch cell under the counting allocator: the
//! `DMat` pool a cell trains in must give everything back when the cell
//! returns, and must not lift the cell's peak; the backward's adjoint,
//! folded in a recurrence-sized window, adds no buffer per hop. And a
//! mini-batch step's heap stays below the device bytes its tape models.
//!
//! Own test binary with a single test: it installs [`TrackingAlloc`] and
//! reads process-wide counters, which a second test thread would disturb.

use std::sync::Arc;

use sgnn_autograd::{ParamStore, Tape};
use sgnn_core::make_filter;
use sgnn_data::{dataset_spec, Dataset, GenScale};
use sgnn_dense::{rng as drng, runtime};
use sgnn_models::decoupled::{gather_terms, DecoupledConfig, DecoupledModel};
use sgnn_sparse::PropMatrix;
use sgnn_train::memory::{ram_current, ram_peak, ram_reset_peak, TrackingAlloc};
use sgnn_train::{Scheme, TrainConfig, TrainReport};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Peak heap bytes of the cell without validation (what the `fb_cheb`
/// benchmark cell is), measured once each `φ0` / `φ1` layer became one
/// tape node. With the `matmul → add_bias → relu → dropout` nodes it
/// replaced the cell peaked at 4 584 244 B, and before that, with the
/// backward's adjoint terms materialised, at 5 343 341 B.
const PEAK_PLAIN: usize = 4_008_080;
/// Peak with the periodic validation pass, captured before the `DMat` pool:
/// a ceiling.
const PARENT_PEAK_VALIDATED: usize = 7_409_169;
/// Hidden width of `TrainConfig::fast_test`: the width of every buffer the
/// filter's recurrence writes.
const HIDDEN: usize = 32;

/// Heap growth of one mini-batch training step over the training split and
/// the device bytes its tape models, for a `φ1` with one hidden layer of
/// width `hidden`.
fn mb_step(data: &Dataset, hidden: usize) -> (usize, usize) {
    let mut rng = drng::seeded(3);
    let mut store = ParamStore::new();
    let filter = make_filter("Monomial", 4).unwrap();
    let config = DecoupledConfig::mini_batch(hidden);
    let (f_in, classes) = (data.features.cols(), data.num_classes);
    let model = DecoupledModel::new(filter, f_in, classes, config, &mut store, &mut rng);
    let terms = model.precompute_mb(&PropMatrix::new(&data.graph, 0.5), &data.features);
    let batch = &data.splits.train;
    let targets = Arc::new(data.targets_of(batch));
    let mut step = || {
        store.zero_grads();
        let before = ram_current();
        ram_reset_peak();
        let mut tape = Tape::new(true, 1);
        let logits = model.forward_mb(&mut tape, gather_terms(&terms, batch), &store);
        let loss = tape.softmax_cross_entropy(logits, Arc::clone(&targets));
        tape.backward(loss, &mut store);
        (ram_peak() - before, tape.resident_bytes())
    };
    step(); // the first step allocates the parameters' gradients
    step()
}

fn train(data: &Dataset, patience: usize, hops: usize) -> TrainReport {
    let mut cfg = TrainConfig::fast_test(5);
    cfg.epochs = 6;
    cfg.patience = patience;
    cfg.hops = hops;
    assert_eq!(cfg.hidden, HIDDEN);
    let filter = make_filter("Chebyshev", cfg.hops).unwrap();
    Scheme::FullBatch
        .try_train(filter, data, None, &cfg)
        .map(|t| t.report)
        .unwrap()
}

/// Trains one cell and returns its peak above the level it started from,
/// after checking that the level is back where it was.
fn cell_peak(data: &Dataset, patience: usize, hops: usize) -> usize {
    let before = ram_current();
    ram_reset_peak();
    let report = train(data, patience, hops);
    let peak = ram_peak() - before;
    let report_bytes =
        report.filter.capacity() + report.dataset.capacity() + report.scheme.capacity();
    assert_eq!(
        ram_current(),
        before + report_bytes,
        "patience {patience}: the cell must free every buffer it recycled"
    );
    peak
}

#[test]
fn a_cell_retains_nothing_and_keeps_its_peak() {
    runtime::set_threads(1);
    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
    // Warm-up cell: thread-locals, counter registries and other one-time
    // allocations settle before the measured ones.
    train(&data, 10, 4);

    let plain = cell_peak(&data, 0, 4);
    let drift = plain.abs_diff(PEAK_PLAIN) as f64 / PEAK_PLAIN as f64;
    assert!(drift <= 0.01, "cell peak {plain} B against {PEAK_PLAIN} B");
    // The parent kept the epoch's tape alive through validation, so that
    // peak was step + inference; now the tape's pages serve the inference.
    let validated = cell_peak(&data, 10, 4);
    assert!(
        validated as f64 <= PARENT_PEAK_VALIDATED as f64 * 1.01,
        "validated cell peak {validated} B against {PARENT_PEAK_VALIDATED} B at the parent commit"
    );
    // Each extra hop keeps one more forward term for the θ-gradients; the
    // folded adjoint adds nothing. Materialising the adjoint terms beside
    // the forward ones measured 2.0 buffers per hop here.
    let buffer = data.graph.nodes() * HIDDEN * std::mem::size_of::<f32>();
    let slope = cell_peak(&data, 0, 10).saturating_sub(cell_peak(&data, 0, 6));
    assert!(
        slope as f64 <= 4.4 * buffer as f64,
        "K = 10 peaks {slope} B above K = 6: {:.2} buffers of {buffer} B for 4 hops",
        slope as f64 / buffer as f64
    );

    // A framework's tape keeps the product, the biased product, the ReLU
    // output, the dropout output and the mask of every hidden layer, and a
    // gradient beside each node; the one layer node keeps its output and
    // the mask, so the step's heap falls below that model by at least two
    // of them. Four separate nodes put the heap back above the model.
    let hidden = 256;
    let (growth, modelled) = mb_step(&data, hidden);
    let intermediate = data.splits.train.len() * hidden * std::mem::size_of::<f32>();
    assert!(
        growth + 2 * intermediate <= modelled,
        "mini-batch step heap {growth} B against {modelled} B modelled: fewer than two \
         {intermediate} B intermediates below it"
    );
}
