//! Full-batch vs decoupled mini-batch on a medium graph (the paper's RQ2).
//!
//! Shows the structural trade: MB pays a one-off CPU precomputation and RAM
//! for the stored basis terms, in exchange for device memory that no longer
//! scales with the graph.
//!
//! ```sh
//! cargo run --release --example minibatch_scaling
//! ```

use spectral_gnn::core::make_filter;
use spectral_gnn::data::{dataset_spec, GenScale};
use spectral_gnn::train::memory::fmt_bytes;
use spectral_gnn::train::{Scheme, TrainConfig};

fn main() {
    let data = dataset_spec("flickr").unwrap().generate(GenScale::Bench, 0);
    println!(
        "dataset {} at bench scale: n = {}, m = {}",
        data.name,
        data.nodes(),
        data.edges()
    );

    let cfg = TrainConfig {
        epochs: 25,
        patience: 0,
        hops: 10,
        ..TrainConfig::default()
    };
    println!(
        "\n{:<12} {:<3} {:>8} {:>10} {:>11} {:>12} {:>12}",
        "filter", "sch", "metric", "pre(s)", "epoch(s)", "device", "ram"
    );
    for fname in ["Monomial", "PPR", "Chebyshev"] {
        for scheme in Scheme::ALL {
            let r = scheme
                .train(make_filter(fname, cfg.hops).unwrap(), &data, None, &cfg)
                .report;
            println!(
                "{:<12} {:<3} {:>8.4} {:>10.3} {:>11.4} {:>12} {:>12}",
                fname,
                r.scheme,
                r.test_metric,
                r.precompute_s,
                r.train_epoch_s,
                fmt_bytes(r.device_bytes),
                fmt_bytes(r.ram_bytes)
            );
        }
    }
    println!(
        "\nExpected shape (paper RQ2): MB matches FB accuracy, moves the filter\n\
         cost into the precompute column, and cuts device memory by an order of\n\
         magnitude — the gap that lets MB scale to million-node graphs."
    );
}
