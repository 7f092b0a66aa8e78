//! The serving engine: a trained decoupled model rebuilt from its
//! `SGNNCKPT` snapshot, bound to the `SGNNTERM` propagated terms.
//!
//! A query is the mini-batch forward pass with training stripped out
//! ([`DecoupledModel::infer_rows`]): the requested rows of every term
//! matrix are recombined with the learned `θ`/`γ` straight from the terms,
//! and `φ1` runs on an eval-mode tape (dropout off, one node per layer).
//! Per-row logits are independent of batch composition — the dense kernels
//! accumulate each output row in a fixed k-order regardless of how many
//! other rows share the GEMM, and the SIMD backend is byte-identical to
//! scalar for GEMM — which is what makes response caching and request
//! coalescing *bit-transparent*: a cached or coalesced reply is the same
//! bytes a dedicated single-node run would produce.

use sgnn_autograd::ParamStore;
use sgnn_core::make_filter;
use sgnn_dense::{rng as drng, DMat};
use sgnn_models::decoupled::{DecoupledConfig, DecoupledModel};
use sgnn_obs as obs;
use sgnn_train::checkpoint::{CkptError, Snapshot};

use crate::artifact::{ServeMeta, TermsArtifact, TermsError};

/// Why an engine could not be assembled (or a bundle not loaded).
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The model checkpoint was rejected by the `SGNNCKPT` codec.
    Ckpt(CkptError),
    /// The terms artifact was rejected by the `SGNNTERM` codec.
    Terms(TermsError),
    /// Checkpoint and terms artifact come from different runs
    /// (seed/config-tag mismatch).
    Pairing(String),
    /// The artifact names a filter this build does not register.
    UnknownFilter(String),
    /// Artifact contents do not fit together (shape/name mismatches).
    Incompatible(String),
    /// Filesystem failure outside the codecs.
    Io(String),
    /// Training failed while building a bundle (see
    /// [`crate::bundle::train_and_export`]).
    Train(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Ckpt(e) => write!(f, "model checkpoint: {e}"),
            ServeError::Terms(e) => write!(f, "terms artifact: {e}"),
            ServeError::Pairing(why) => write!(f, "artifact pairing: {why}"),
            ServeError::UnknownFilter(name) => write!(f, "unknown filter {name}"),
            ServeError::Incompatible(why) => write!(f, "incompatible artifacts: {why}"),
            ServeError::Io(why) => write!(f, "I/O error: {why}"),
            ServeError::Train(why) => write!(f, "training failed: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A ready-to-serve model: parameters and terms, never mutated after
/// construction.
pub struct ServeEngine {
    meta: ServeMeta,
    model: DecoupledModel,
    store: ParamStore,
    terms: Vec<Vec<DMat>>,
}

impl ServeEngine {
    /// Binds a decoded snapshot to a decoded terms artifact, verifying the
    /// pairing (same training run) and every shape before serving anything.
    pub fn new(snapshot: Snapshot, artifact: TermsArtifact) -> Result<Self, ServeError> {
        let TermsArtifact { meta, terms } = artifact;
        if snapshot.seed != meta.seed || snapshot.config_tag != meta.config_tag {
            return Err(ServeError::Pairing(format!(
                "checkpoint run (seed {}, tag {:#x}) != terms run (seed {}, tag {:#x})",
                snapshot.seed, snapshot.config_tag, meta.seed, meta.config_tag
            )));
        }
        if meta.nodes == 0 || meta.num_classes == 0 || meta.in_dim == 0 {
            return Err(ServeError::Incompatible(format!(
                "degenerate dimensions: {} nodes, {} classes, {} features",
                meta.nodes, meta.num_classes, meta.in_dim
            )));
        }
        let filter = make_filter(&meta.filter, meta.hops)
            .ok_or_else(|| ServeError::UnknownFilter(meta.filter.clone()))?;
        // Rebuild the exact parameter layout the training run created: same
        // seed, same config, same construction order — then overwrite the
        // initial values with the trained ones from the snapshot.
        let mut store = ParamStore::new();
        let mut rng = drng::seeded(meta.seed);
        let model = DecoupledModel::new(
            filter,
            meta.in_dim,
            meta.num_classes,
            DecoupledConfig {
                hidden: meta.hidden,
                phi0_layers: 0,
                phi1_layers: 2,
                dropout: meta.dropout,
            },
            &mut store,
            &mut rng,
        );
        store
            .load_values(&snapshot.params)
            .map_err(ServeError::Incompatible)?;
        let channels = model.filter.spec().channels.len();
        if terms.len() != channels {
            return Err(ServeError::Incompatible(format!(
                "terms have {} channels, filter {} expects {}",
                terms.len(),
                meta.filter,
                channels
            )));
        }
        for (c, channel) in terms.iter().enumerate() {
            if channel.is_empty() {
                return Err(ServeError::Incompatible(format!(
                    "channel {c} has no terms"
                )));
            }
            for (k, t) in channel.iter().enumerate() {
                if t.shape() != (meta.nodes, meta.in_dim) {
                    return Err(ServeError::Incompatible(format!(
                        "term [{c}][{k}] is {:?}, expected ({}, {})",
                        t.shape(),
                        meta.nodes,
                        meta.in_dim
                    )));
                }
            }
        }
        Ok(Self {
            meta,
            model,
            store,
            terms,
        })
    }

    pub fn meta(&self) -> &ServeMeta {
        &self.meta
    }

    /// Number of servable nodes (valid query ids are `0..nodes`).
    pub fn nodes(&self) -> usize {
        self.meta.nodes
    }

    /// Output classes per node (columns of every logits reply).
    pub fn classes(&self) -> usize {
        self.meta.num_classes
    }

    /// Serving self-test: run one real forward pass (node 0) and verify
    /// the output shape and that every logit is finite. The hot-reload
    /// path calls this on a freshly loaded engine *before* swapping it in,
    /// so a bundle that decodes cleanly but computes garbage (or panics in
    /// the transform) is rolled back instead of served.
    pub fn self_test(&mut self) -> Result<(), ServeError> {
        let out = self.logits(&[0]);
        if out.shape() != (1, self.meta.num_classes) {
            return Err(ServeError::Incompatible(format!(
                "self-test produced {:?}, expected (1, {})",
                out.shape(),
                self.meta.num_classes
            )));
        }
        if let Some(v) = out.row(0).iter().find(|v| !v.is_finite()) {
            return Err(ServeError::Incompatible(format!(
                "self-test produced non-finite logit {v}"
            )));
        }
        Ok(())
    }

    /// Computes logits for the given node ids (one output row per id, in
    /// order; ids may repeat). Bit-identical for a given id regardless of
    /// what else is in the batch, and to the training run's own
    /// [`infer_mb`](sgnn_train::infer_mb). Nothing is mutated: `&mut self`
    /// is the signature the batcher and the benchmark hold it by.
    ///
    /// # Panics
    /// Panics if any id is `>= self.nodes()` — callers validate ids at the
    /// protocol boundary.
    pub fn logits(&mut self, ids: &[u32]) -> DMat {
        let _sp = obs::span!("serve.transform", rows = ids.len());
        self.model.infer_rows(&self.terms, ids, &self.store)
    }
}
