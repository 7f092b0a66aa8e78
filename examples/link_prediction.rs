//! Link prediction with spectral node embeddings (paper Section 6.1.2).
//!
//! Precomputes PPR-filtered node embeddings once, then trains a Hadamard-MLP
//! pair scorer over positive/negative edge samples — the
//! transformation-dominated regime that forces mini-batch training.
//!
//! ```sh
//! cargo run --release --example link_prediction
//! ```

use spectral_gnn::autograd::{Adam, Optimizer, ParamStore, Tape};
use spectral_gnn::core::op::{filter_output, CoeffValues};
use spectral_gnn::core::{make_filter, PropCtx};
use spectral_gnn::data::linkpred::link_splits;
use spectral_gnn::data::{dataset_spec, GenScale};
use spectral_gnn::dense::rng as drng;
use spectral_gnn::models::linkpred::LinkPredictor;
use spectral_gnn::sparse::PropMatrix;
use spectral_gnn::train::metrics::roc_auc_pairs;

fn main() {
    let data = dataset_spec("pubmed").unwrap().generate(GenScale::Bench, 0);
    let pm = PropMatrix::new(&data.graph, 0.5);
    let splits = link_splits(&data.graph, 2, 1);
    println!(
        "graph n = {}, m = {}; train pairs = {} (1 pos : 2 neg)",
        data.nodes(),
        data.edges(),
        splits.train.len()
    );

    // Node embeddings: one PPR filtering pass over the raw attributes.
    let filter = make_filter("PPR", 10).unwrap();
    let spec = filter.spec(data.features.cols());
    let cv = CoeffValues::resolve(&spec, &spec.initial_params());
    let ctx = PropCtx::forward(&pm);
    let z = filter_output(filter.as_ref(), &spec, &ctx, &data.features, &cv);

    // Pair scorer trained over mini-batches of edge samples.
    let mut rng = drng::seeded(1);
    let mut store = ParamStore::new();
    let head = LinkPredictor::new(z.cols(), 64, 0.2, &mut store, &mut rng);
    let mut opt = Adam::new(0.01, 1e-5);
    let batch = 4096;
    for epoch in 0..8u64 {
        let mut last_loss = 0.0f32;
        for (b, chunk) in splits.train.pairs.chunks(batch).enumerate() {
            store.zero_grads();
            let start = b * batch;
            let labels = splits.train.labels[start..start + chunk.len()].to_vec();
            let mut tape = Tape::new(true, epoch * 1000 + b as u64);
            let loss = head.loss(&mut tape, &z, chunk, labels, &store);
            last_loss = tape.value(loss).get(0, 0);
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        println!("epoch {epoch}: BCE loss {last_loss:.4}");
    }

    // Test AUC.
    let mut scores = Vec::with_capacity(splits.test.len());
    for chunk in splits.test.pairs.chunks(batch) {
        let mut tape = Tape::new(false, 0);
        let logits = head.score(&mut tape, &z, chunk, &store);
        scores.extend((0..chunk.len()).map(|i| tape.value(logits).get(i, 0) as f64));
    }
    println!(
        "test ROC AUC = {:.4}",
        roc_auc_pairs(&scores, &splits.test.labels)
    );
}
