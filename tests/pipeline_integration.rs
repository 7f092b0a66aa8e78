//! End-to-end integration tests spanning data generation, both learning
//! schemes, and the paper's headline qualitative findings at tiny scale.

use spectral_gnn::core::make_filter;
use spectral_gnn::data::{dataset_spec, GenScale};
use spectral_gnn::train::{Scheme, TrainConfig};

#[test]
fn graph_filters_beat_identity_under_homophily() {
    // RQ3, homophilous half: with informative graph structure, a suitable
    // low-pass filter must beat the graph-free Identity baseline.
    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
    let cfg = TrainConfig::fast_test(0);
    let id = Scheme::FullBatch
        .train(
            make_filter("Identity", cfg.hops).unwrap(),
            &data,
            None,
            &cfg,
        )
        .report;
    let ppr = Scheme::FullBatch
        .train(make_filter("PPR", cfg.hops).unwrap(), &data, None, &cfg)
        .report;
    assert!(
        ppr.test_metric > id.test_metric + 0.03,
        "PPR {} must beat Identity {}",
        ppr.test_metric,
        id.test_metric
    );
}

#[test]
fn mini_batch_matches_full_batch_accuracy() {
    // RQ5: the schemes differ only in the transformation placement; accuracy
    // must be in the same ballpark.
    let data = dataset_spec("pubmed").unwrap().generate(GenScale::Tiny, 1);
    let mut cfg = TrainConfig::fast_test(1);
    cfg.epochs = 50;
    cfg.batch_size = 512;
    let fb = Scheme::FullBatch
        .train(
            make_filter("Monomial", cfg.hops).unwrap(),
            &data,
            None,
            &cfg,
        )
        .report;
    let mb = Scheme::MiniBatch
        .train(
            make_filter("Monomial", cfg.hops).unwrap(),
            &data,
            None,
            &cfg,
        )
        .report;
    assert!(
        (fb.test_metric - mb.test_metric).abs() < 0.12,
        "FB {} vs MB {}",
        fb.test_metric,
        mb.test_metric
    );
}

#[test]
fn mb_moves_memory_from_device_to_ram() {
    // RQ2: same filter, same data — MB must need less device memory and
    // more RAM than FB.
    let data = dataset_spec("pubmed").unwrap().generate(GenScale::Tiny, 2);
    let mut cfg = TrainConfig::fast_test(2);
    cfg.epochs = 3;
    cfg.patience = 0;
    cfg.batch_size = 128;
    let fb = Scheme::FullBatch
        .train(make_filter("Chebyshev", 6).unwrap(), &data, None, &cfg)
        .report;
    let mb = Scheme::MiniBatch
        .train(make_filter("Chebyshev", 6).unwrap(), &data, None, &cfg)
        .report;
    assert!(
        mb.device_bytes < fb.device_bytes / 2,
        "MB device {} must be well below FB {}",
        mb.device_bytes,
        fb.device_bytes
    );
    assert!(
        mb.ram_bytes > fb.ram_bytes,
        "MB RAM {} must exceed FB {}",
        mb.ram_bytes,
        fb.ram_bytes
    );
}

#[test]
fn all_27_filters_train_full_batch_without_panicking() {
    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 3);
    let mut cfg = TrainConfig::fast_test(3);
    cfg.epochs = 6;
    cfg.patience = 0;
    for name in spectral_gnn::core::all_filter_names() {
        let r = Scheme::FullBatch
            .train(make_filter(name, cfg.hops).unwrap(), &data, None, &cfg)
            .report;
        assert!(
            r.test_metric.is_finite(),
            "{name} produced non-finite metric"
        );
        assert!(
            r.test_metric >= 0.0 && r.test_metric <= 1.0,
            "{name}: {}",
            r.test_metric
        );
    }
}

#[test]
fn all_mb_compatible_filters_train_mini_batch() {
    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 4);
    let mut cfg = TrainConfig::fast_test(4);
    cfg.epochs = 6;
    cfg.patience = 0;
    cfg.batch_size = 512;
    for name in spectral_gnn::core::all_filter_names() {
        let filter = make_filter(name, cfg.hops).unwrap();
        if !filter.mb_compatible() {
            continue;
        }
        let r = Scheme::MiniBatch.train(filter, &data, None, &cfg).report;
        assert!(r.test_metric.is_finite(), "{name}");
        assert!(
            r.precompute_s > 0.0 || name == "Identity",
            "{name} skipped precompute"
        );
    }
}

#[test]
fn deterministic_given_seed() {
    let data = dataset_spec("citeseer")
        .unwrap()
        .generate(GenScale::Tiny, 5);
    let mut cfg = TrainConfig::fast_test(5);
    cfg.epochs = 10;
    let a = Scheme::FullBatch
        .train(
            make_filter("VarMonomial", cfg.hops).unwrap(),
            &data,
            None,
            &cfg,
        )
        .report;
    let b = Scheme::FullBatch
        .train(
            make_filter("VarMonomial", cfg.hops).unwrap(),
            &data,
            None,
            &cfg,
        )
        .report;
    assert_eq!(
        a.test_metric, b.test_metric,
        "same seed must reproduce exactly"
    );
}
