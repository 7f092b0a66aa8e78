//! Quickstart: generate a graph, pick a spectral filter, train, evaluate.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use spectral_gnn::core::{make_filter, ResponseParams};
use spectral_gnn::data::{dataset_spec, GenScale};
use spectral_gnn::train::{Scheme, TrainConfig};

fn main() {
    // 1. A cora-like attributed graph (2708 nodes, homophily 0.83).
    let data = dataset_spec("cora")
        .expect("registered dataset")
        .generate(GenScale::Bench, 0);
    println!(
        "dataset {:?}: n = {}, m = {}, measured homophily = {:.2}",
        data.name,
        data.nodes(),
        data.edges(),
        data.node_homophily()
    );

    // 2. A spectral filter from the 27-filter registry: truncated
    //    personalized PageRank with K = 10 hops.
    let filter = make_filter("PPR", 10).expect("registered filter");
    let spec = filter.spec(data.features.cols());
    let rp = ResponseParams::initial(&spec);
    println!("filter {} — frequency response g(λ):", filter.name());
    for (lambda, g) in spectral_gnn::core::filter::sample_response(filter.as_ref(), &rp, 5) {
        println!("  g({lambda:.1}) = {g:.4}");
    }

    // 3. Full-batch training of φ1(g(L̃)·φ0(X)) with Adam.
    let cfg = TrainConfig {
        epochs: 100,
        ..TrainConfig::default()
    };
    let report = Scheme::FullBatch.train(filter, &data, None, &cfg).report;

    // 4. The report carries both efficacy and the efficiency breakdown.
    println!("\n{}", report.summary());
    println!(
        "test accuracy {:.1}% after {} epochs ({:.1} ms/epoch)",
        report.test_metric * 100.0,
        report.epochs_run,
        report.train_epoch_s * 1e3
    );
}
