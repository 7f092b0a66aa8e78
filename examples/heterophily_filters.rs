//! Filter choice under homophily vs heterophily (the paper's RQ3).
//!
//! Trains a low-pass, a high-frequency-capable, and a filter-bank filter on
//! a homophilous and a heterophilous graph with otherwise identical
//! statistics, demonstrating that effectiveness comes from the match
//! between frequency response and graph signal.
//!
//! ```sh
//! cargo run --release --example heterophily_filters
//! ```

use spectral_gnn::core::make_filter;
use spectral_gnn::data::{csbm, CsbmParams, Metric};
use spectral_gnn::train::{Scheme, TrainConfig};

fn main() {
    let base = CsbmParams {
        nodes: 3000,
        edges: 15_000,
        classes: 5,
        feature_dim: 64,
        signal: 0.6,
        degree_exponent: 2.5,
        homophily: 0.0, // set below
    };
    let filters = ["Impulse", "PPR", "VarMonomial", "Jacobi", "FAGNN"];
    let cfg = TrainConfig {
        epochs: 80,
        hops: 8,
        ..TrainConfig::default()
    };

    println!(
        "{:<14} {:>12} {:>12}",
        "filter", "homophilous", "heterophilous"
    );
    for fname in filters {
        let mut row = format!("{fname:<14}");
        for h in [0.85f64, 0.10] {
            let params = CsbmParams {
                homophily: h,
                ..base.clone()
            };
            let data = csbm::generate(&format!("csbm-h{h:.2}"), &params, Metric::Accuracy, 7);
            let report = Scheme::FullBatch
                .train(make_filter(fname, cfg.hops).unwrap(), &data, None, &cfg)
                .report;
            row += &format!(" {:>11.1}%", report.test_metric * 100.0);
        }
        println!("{row}");
    }
    println!(
        "\nExpected shape (paper RQ3): the pure low-pass Impulse collapses under\n\
         heterophily, while variable filters (VarMonomial, Jacobi) and the\n\
         low+high-pass bank (FAGNN) hold up."
    );
}
