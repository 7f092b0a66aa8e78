//! A serving bundle: the two artifacts a server directory holds.
//!
//! * `model.ckpt` — the final-state training `Snapshot` in the
//!   `SGNNCKPT` codec.
//! * `terms.bin` — the propagated terms in the `SGNNTERM` codec.
//!
//! The two are **paired**: both record the producing run's seed and
//! structural config tag, and [`load_engine`] refuses to combine artifacts
//! from different runs — serving a model against someone else's terms
//! would produce well-formed garbage.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sgnn_core::SpectralFilter;
use sgnn_data::Dataset;
use sgnn_train::checkpoint;
use sgnn_train::{Scheme, TrainConfig, TrainReport, Trained};

use crate::artifact::{self, ServeMeta};
use crate::engine::{ServeEngine, ServeError};

pub const CKPT_FILE: &str = "model.ckpt";
pub const TERMS_FILE: &str = "terms.bin";

/// Exports a trained mini-batch run as a serving bundle under `dir`
/// (created if missing). Returns the two artifact paths.
pub fn export(
    dir: &Path,
    trained: &Trained,
    cfg: &TrainConfig,
    data: &Dataset,
) -> Result<(PathBuf, PathBuf), ServeError> {
    std::fs::create_dir_all(dir).map_err(|e| ServeError::Io(format!("{}: {e}", dir.display())))?;
    let meta = ServeMeta {
        filter: trained.report.filter.clone(),
        // The constructor argument the run used (`make_filter(name, hops)`),
        // not the filter's effective hop count — the engine re-invokes the
        // same constructor.
        hops: cfg.hops,
        hidden: cfg.hidden,
        dropout: cfg.dropout,
        in_dim: data.features.cols(),
        num_classes: data.num_classes,
        nodes: data.nodes(),
        seed: cfg.seed,
        config_tag: trained.snapshot.config_tag,
    };
    let ckpt_path = dir.join(CKPT_FILE);
    let terms_path = dir.join(TERMS_FILE);
    checkpoint::save(&ckpt_path, &trained.snapshot).map_err(ServeError::Ckpt)?;
    artifact::save(&terms_path, &meta, &trained.terms).map_err(ServeError::Terms)?;
    Ok((ckpt_path, terms_path))
}

/// Trains with the decoupled mini-batch scheme and exports the result as a
/// serving bundle — the one-call path the bench, the `experiments serve`
/// subcommand, and the test suites share.
pub fn train_and_export(
    dir: &Path,
    filter: Arc<dyn SpectralFilter>,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Result<TrainReport, ServeError> {
    let trained = Scheme::MiniBatch
        .try_train(filter, data, None, cfg)
        .map_err(|e| ServeError::Train(e.to_string()))?;
    export(dir, &trained, cfg, data)?;
    Ok(trained.report)
}

/// Loads a bundle directory into a ready [`ServeEngine`], verifying both
/// codecs and the run pairing.
pub fn load_engine(dir: &Path) -> Result<ServeEngine, ServeError> {
    let ckpt_bytes = std::fs::read(dir.join(CKPT_FILE))
        .map_err(|e| ServeError::Io(format!("{}: {e}", dir.join(CKPT_FILE).display())))?;
    let snapshot = checkpoint::decode(&ckpt_bytes).map_err(ServeError::Ckpt)?;
    let art = artifact::load(&dir.join(TERMS_FILE)).map_err(ServeError::Terms)?;
    ServeEngine::new(snapshot, art)
}

/// Offline single-node inference on the same bundle: loads a **fresh**
/// engine and computes one node's logits with nothing else in the batch.
/// This is the bit-identity reference the e2e suite compares every served
/// response against.
pub fn offline_logits(dir: &Path, node: u32) -> Result<Vec<f32>, ServeError> {
    let mut engine = load_engine(dir)?;
    assert!(
        (node as usize) < engine.nodes(),
        "node {node} out of range for offline reference"
    );
    Ok(engine.logits(&[node]).row(0).to_vec())
}
