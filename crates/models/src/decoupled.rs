//! The decoupled spectral GNN `φ1( g(L̃) · φ0(X) )` — the architecture used
//! for all main experiments of the paper (Section 2.2, Table 4).
//!
//! Both learning schemes share the filter:
//!
//! * **Full-batch**: `φ0` (default one linear layer) transforms raw
//!   attributes to the hidden width, the filter propagates on the device,
//!   and `φ1` (default one layer) maps to class logits — everything on one
//!   tape, all parameters trained jointly.
//! * **Mini-batch**: `φ0` is empty (Table 4 fixes it to zero layers — the
//!   filter must run on raw attributes during CPU precomputation), and each
//!   batch recombines gathered term rows with the learnable `θ`/`γ` before a
//!   two-layer `φ1`.

use std::borrow::Cow;
use std::sync::Arc;

use rand::rngs::SmallRng;
use sgnn_autograd::{NodeId, ParamStore, Tape};
use sgnn_core::op::{combine, Rows};
use sgnn_core::{FilterModule, SpectralFilter};
use sgnn_dense::DMat;
use sgnn_obs as obs;
use sgnn_sparse::PropMatrix;

use crate::mlp::Mlp;

/// Architecture hyperparameters (the universal scheme of Table 4).
#[derive(Clone, Copy, Debug)]
pub struct DecoupledConfig {
    /// Hidden width `F`.
    pub hidden: usize,
    /// Layers of the pre-transformation `φ0` (0 disables it; mini-batch
    /// requires 0).
    pub phi0_layers: usize,
    /// Layers of the post-transformation `φ1` (≥ 1).
    pub phi1_layers: usize,
    pub dropout: f32,
}

impl Default for DecoupledConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            phi0_layers: 1,
            phi1_layers: 1,
            dropout: 0.5,
        }
    }
}

impl DecoupledConfig {
    /// The paper's full-batch default: `φ0 = φ1 = 1` layer.
    pub fn full_batch(hidden: usize) -> Self {
        Self {
            hidden,
            phi0_layers: 1,
            phi1_layers: 1,
            dropout: 0.5,
        }
    }

    /// The paper's mini-batch default: `φ0 = 0`, `φ1 = 2` layers.
    pub fn mini_batch(hidden: usize) -> Self {
        Self {
            hidden,
            phi0_layers: 0,
            phi1_layers: 2,
            dropout: 0.5,
        }
    }
}

/// A filter bound between two MLP transformations.
pub struct DecoupledModel {
    pub config: DecoupledConfig,
    phi0: Option<Mlp>,
    pub filter: FilterModule,
    phi1: Mlp,
}

impl DecoupledModel {
    /// Builds the model for `in_dim`-dimensional attributes and `out_dim`
    /// classes, creating all parameters in `store`.
    pub fn new(
        filter: Arc<dyn SpectralFilter>,
        in_dim: usize,
        out_dim: usize,
        config: DecoupledConfig,
        store: &mut ParamStore,
        rng: &mut SmallRng,
    ) -> Self {
        let (phi0, filter_in) = if config.phi0_layers == 0 {
            (None, in_dim)
        } else {
            let mut dims = vec![in_dim];
            dims.extend(std::iter::repeat_n(config.hidden, config.phi0_layers));
            (
                Some(Mlp::new("phi0", &dims, config.dropout, store, rng)),
                config.hidden,
            )
        };
        let module = FilterModule::new(filter, filter_in, store);
        let phi1_in = module.out_features(filter_in);
        let mut dims = vec![phi1_in];
        dims.extend(std::iter::repeat_n(
            config.hidden,
            config.phi1_layers.saturating_sub(1),
        ));
        dims.push(out_dim);
        let phi1 = Mlp::new("phi1", &dims, config.dropout, store, rng);
        Self {
            config,
            phi0,
            filter: module,
            phi1,
        }
    }

    /// Full-batch forward: raw attributes to logits, filter on the tape.
    pub fn forward_fb(
        &self,
        tape: &mut Tape,
        pm: &Arc<PropMatrix>,
        x: NodeId,
        store: &ParamStore,
    ) -> NodeId {
        // The epoch.propagate / epoch.transform split below is the paper's
        // propagation-vs-transformation cost decomposition (Figs 2-3); the
        // tape executes ops eagerly, so each span bounds real kernel work.
        let h = {
            let _sp = obs::span!("epoch.transform", stage = "phi0");
            match &self.phi0 {
                Some(mlp) => mlp.apply_then_relu(tape, x, store),
                None => x,
            }
        };
        let filtered = {
            let _sp = obs::span!("epoch.propagate");
            self.filter.apply_fb(tape, pm, h, store)
        };
        let _sp = obs::span!("epoch.transform", stage = "phi1");
        self.phi1.apply(tape, filtered, store)
    }

    /// Mini-batch precompute: basis terms over raw attributes
    /// (`φ0` must be empty).
    pub fn precompute_mb(&self, pm: &PropMatrix, x: &DMat) -> Vec<Vec<DMat>> {
        assert!(
            self.phi0.is_none(),
            "mini-batch requires φ0 = 0 layers (Table 4)"
        );
        self.filter.precompute(pm, x)
    }

    /// Evaluation-mode logits of the nodes `ids` (one row each, in order;
    /// ids may repeat) from the full precomputed `terms`: the rows
    /// [`forward_mb`](Self::forward_mb) computes on an eval tape from
    /// [`gather_terms`]`(terms, ids)`, bit for bit, with the term
    /// combination formed straight from `terms` and each `φ1` layer one
    /// tape node. The inference pass of the mini-batch scheme and the
    /// serving engine.
    pub fn infer_rows(&self, terms: &[Vec<DMat>], ids: &[u32], store: &ParamStore) -> DMat {
        let _sp = obs::span!("epoch.transform", stage = "mb");
        let mut tape = Tape::new(false, 0);
        let cv = self.filter.coeff_values(store);
        let rows = combine(self.filter.spec(), terms, Rows::Ids(ids), &cv);
        let combined = tape.constant(rows);
        let out = self.phi1.apply(&mut tape, combined, store);
        tape.into_value(out)
    }

    /// Mini-batch forward over gathered term rows: owned rows (what
    /// [`gather_terms`] returns) move onto the tape, borrowed ones are
    /// copied there.
    pub fn forward_mb<'a>(
        &self,
        tape: &mut Tape,
        batch_terms: impl Into<Cow<'a, [Vec<DMat>]>>,
        store: &ParamStore,
    ) -> NodeId {
        let _sp = obs::span!("epoch.transform", stage = "mb");
        let combined = self.filter.combine_batch(tape, batch_terms, store);
        self.phi1.apply(tape, combined, store)
    }
}

/// Gathers the given rows of every precomputed term (the mini-batch slicing
/// step, performed on "CPU" before the batch moves to the device).
///
/// Channels slice independently, so multi-channel filter banks gather
/// across the worker pool.
pub fn gather_terms(terms: &[Vec<DMat>], idx: &[u32]) -> Vec<Vec<DMat>> {
    let _sp = obs::span!("mb.gather", rows = idx.len(), channels = terms.len());
    sgnn_dense::runtime::run_map(terms.len(), |q| {
        terms[q].iter().map(|t| t.gather_rows(idx)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_autograd::{Adam, Optimizer};
    use sgnn_core::make_filter;
    use sgnn_data::{dataset_spec, GenScale};
    use sgnn_dense::rng as drng;
    use sgnn_dense::stats::argmax;

    fn accuracy(logits: &DMat, labels: &[u32], idx: &[u32]) -> f64 {
        let correct = idx
            .iter()
            .filter(|&&i| argmax(logits.row(i as usize)) as u32 == labels[i as usize])
            .count();
        correct as f64 / idx.len().max(1) as f64
    }

    #[test]
    fn fb_training_beats_chance_on_homophilous_graph() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
        let pm = Arc::new(PropMatrix::new(&data.graph, 0.5));
        let mut rng = drng::seeded(0);
        let mut store = ParamStore::new();
        let filter = make_filter("PPR", 6).unwrap();
        let model = DecoupledModel::new(
            filter,
            data.features.cols(),
            data.num_classes,
            DecoupledConfig {
                hidden: 32,
                phi0_layers: 1,
                phi1_layers: 1,
                dropout: 0.3,
            },
            &mut store,
            &mut rng,
        );
        let mut opt = Adam::new(0.02, 5e-4);
        let targets = Arc::new(data.targets_of(&data.splits.train));
        for step in 0..60 {
            store.zero_grads();
            let mut tape = Tape::new(true, step);
            let x = tape.constant(data.features.clone());
            let logits = model.forward_fb(&mut tape, &pm, x, &store);
            let train_logits = tape.gather_rows(logits, Arc::new(data.splits.train.clone()));
            let loss = tape.softmax_cross_entropy(train_logits, Arc::clone(&targets));
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let mut tape = Tape::new(false, 0);
        let x = tape.constant(data.features.clone());
        let logits = model.forward_fb(&mut tape, &pm, x, &store);
        let acc = accuracy(tape.value(logits), &data.labels, &data.splits.test);
        assert!(acc > 0.5, "test accuracy {acc} (chance ≈ 0.14)");
    }

    #[test]
    fn mb_training_matches_fb_ballpark() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 1);
        let pm = PropMatrix::new(&data.graph, 0.5);
        let mut rng = drng::seeded(1);
        let mut store = ParamStore::new();
        let filter = make_filter("Monomial", 6).unwrap();
        let model = DecoupledModel::new(
            filter,
            data.features.cols(),
            data.num_classes,
            DecoupledConfig {
                hidden: 32,
                phi0_layers: 0,
                phi1_layers: 2,
                dropout: 0.3,
            },
            &mut store,
            &mut rng,
        );
        let terms = model.precompute_mb(&pm, &data.features);
        let mut opt = Adam::new(0.02, 5e-4);
        let train = data.splits.train.clone();
        let targets = data.targets_of(&train);
        let batch = 256usize;
        for epoch in 0..30u64 {
            for (b, chunk) in train.chunks(batch).enumerate() {
                store.zero_grads();
                let batch_terms = gather_terms(&terms, chunk);
                let y: Vec<u32> = chunk.iter().map(|&i| data.labels[i as usize]).collect();
                let mut tape = Tape::new(true, epoch * 1000 + b as u64);
                let logits = model.forward_mb(&mut tape, &batch_terms, &store);
                let loss = tape.softmax_cross_entropy(logits, Arc::new(y));
                tape.backward(loss, &mut store);
                opt.step(&mut store);
            }
        }
        drop(targets);
        // Inference over all nodes.
        let all: Vec<u32> = (0..data.nodes() as u32).collect();
        let all_terms = gather_terms(&terms, &all);
        let mut tape = Tape::new(false, 0);
        let logits = model.forward_mb(&mut tape, &all_terms, &store);
        let acc = accuracy(tape.value(logits), &data.labels, &data.splits.test);
        assert!(acc > 0.5, "MB test accuracy {acc}");
    }

    /// `infer_rows` against `forward_mb` on gathered terms, bit for bit,
    /// with ids repeated and out of order. What its eval tape keeps per
    /// `φ1` layer (one output, no bias or ReLU copy) is pinned by the tape's
    /// `eval_linear_matches_training_at_p0`.
    #[test]
    fn infer_rows_matches_forward_mb() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 3);
        let pm = PropMatrix::new(&data.graph, 0.5);
        let mut rng = drng::seeded(3);
        let mut store = ParamStore::new();
        let model = DecoupledModel::new(
            make_filter("Chebyshev", 4).unwrap(),
            data.features.cols(),
            data.num_classes,
            DecoupledConfig::mini_batch(16),
            &mut store,
            &mut rng,
        );
        let terms = model.precompute_mb(&pm, &data.features);
        let ids: Vec<u32> = (0..50)
            .map(|i| (i % 20 * 37 % data.nodes()) as u32)
            .collect();

        let mut tape = Tape::new(false, 0);
        let want = model.forward_mb(&mut tape, gather_terms(&terms, &ids), &store);
        let bits = |m: &DMat| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let got = model.infer_rows(&terms, &ids, &store);
        assert_eq!(bits(&got), bits(tape.value(want)));
    }

    #[test]
    #[should_panic(expected = "mini-batch requires")]
    fn mb_with_phi0_is_rejected() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 2);
        let pm = PropMatrix::new(&data.graph, 0.5);
        let mut rng = drng::seeded(2);
        let mut store = ParamStore::new();
        let model = DecoupledModel::new(
            make_filter("PPR", 4).unwrap(),
            data.features.cols(),
            data.num_classes,
            DecoupledConfig::full_batch(16),
            &mut store,
            &mut rng,
        );
        let _ = model.precompute_mb(&pm, &data.features);
    }
}
