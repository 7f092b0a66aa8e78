//! Shared scaffolding for the serving integration suites: train a tiny
//! model, export its bundle to a fresh temp dir, hand back the pieces.

use std::path::PathBuf;
use std::sync::Arc;

use sgnn_core::{make_filter, SpectralFilter};
use sgnn_data::{dataset_spec, Dataset, GenScale};
use sgnn_serve::bundle::train_and_export;
use sgnn_train::TrainConfig;

/// A unique temp dir per (suite, tag) so parallel test binaries never
/// collide.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sgnn-serve-{tag}-{}-{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tiny run the suites serve: a Monomial model on cSBM-cora. Small on
/// purpose: the suites exercise the request path, not accuracy.
pub fn tiny_run(seed: u64) -> (Dataset, TrainConfig, Arc<dyn SpectralFilter>) {
    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, seed);
    let mut cfg = TrainConfig::fast_test(seed);
    cfg.epochs = 5;
    cfg.patience = 0;
    cfg.hops = 3;
    cfg.hidden = 24;
    cfg.batch_size = 256;
    let filter = make_filter("Monomial", cfg.hops).unwrap();
    (data, cfg, filter)
}

/// Trains [`tiny_run`] and exports a serving bundle.
pub fn tiny_bundle(tag: &str, seed: u64) -> (PathBuf, Dataset, TrainConfig) {
    let (data, cfg, filter) = tiny_run(seed);
    let dir = scratch_dir(tag);
    train_and_export(&dir, filter, &data, &cfg).unwrap_or_else(|e| panic!("bundle export: {e}"));
    (dir, data, cfg)
}
