//! Iterative message-passing baselines outside the unified framework
//! (Table 6 of the paper): GCN, GraphSAGE (mean aggregation over every
//! neighbor) and ChebNet, each runnable on the CSR ("SP") or edge-list ("EI") backend.
//!
//! These models interleave propagation and transformation per layer (the
//! *iterative* architecture of Section 2.1), so each training step must hold
//! the whole graph and all layer activations on the device — the structural
//! reason Table 6 shows them OOM where the decoupled mini-batch models
//! survive.

use std::sync::Arc;

use rand::rngs::SmallRng;
use sgnn_autograd::{NodeId, ParamStore, Tape};
use sgnn_sparse::PropMatrix;

use crate::mlp::Mlp;

/// Which iterative baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineKind {
    /// Kipf & Welling GCN: `H ← ReLU((I + Ã)H W)`.
    Gcn,
    /// GraphSAGE-mean: `H ← ReLU([H ‖ ÃH] W)` over the full neighborhood.
    GraphSage,
    /// ChebNet with order-2 Chebyshev convolution per layer.
    ChebNet,
}

impl BaselineKind {
    pub fn name(&self) -> &'static str {
        match self {
            BaselineKind::Gcn => "GCN",
            BaselineKind::GraphSage => "GraphSAGE",
            BaselineKind::ChebNet => "ChebNet",
        }
    }
}

/// An iterative message-passing model.
pub struct IterativeGnn {
    pub kind: BaselineKind,
    layers: Vec<Mlp>,
}

impl IterativeGnn {
    /// Builds `num_layers` propagation+transformation layers.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: BaselineKind,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        num_layers: usize,
        dropout: f32,
        store: &mut ParamStore,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(num_layers >= 1);
        // Per-layer input width multiplier: SAGE concatenates self ‖ agg,
        // ChebNet concatenates the 3 Chebyshev terms.
        let mult = match kind {
            BaselineKind::Gcn => 1,
            BaselineKind::GraphSage => 2,
            BaselineKind::ChebNet => 3,
        };
        let mut layers = Vec::with_capacity(num_layers);
        let mut cur = in_dim;
        for l in 0..num_layers {
            let out = if l + 1 == num_layers { out_dim } else { hidden };
            layers.push(Mlp::new(
                &format!("{}.layer{l}", kind.name()),
                &[cur * mult, out],
                dropout,
                store,
                rng,
            ));
            cur = out;
        }
        Self { kind, layers }
    }

    /// Full forward pass over all nodes.
    pub fn forward(
        &self,
        tape: &mut Tape,
        pm: &Arc<PropMatrix>,
        x: NodeId,
        store: &ParamStore,
    ) -> NodeId {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (l, mlp) in self.layers.iter().enumerate() {
            let z = match self.kind {
                BaselineKind::Gcn => tape.prop(pm, 1.0, 1.0, h),
                BaselineKind::GraphSage => {
                    let agg = tape.prop(pm, 1.0, 0.0, h);
                    tape.hcat(&[h, agg])
                }
                BaselineKind::ChebNet => {
                    // Order-2 Chebyshev: [T0, T1, T2] ‖-concatenated.
                    let t1 = tape.prop(pm, -1.0, 0.0, h);
                    let mut t2 = tape.prop(pm, -2.0, 0.0, t1);
                    t2 = tape.sub(t2, h);
                    tape.hcat(&[h, t1, t2])
                }
            };
            h = if l != last {
                mlp.apply_then_relu(tape, z, store)
            } else {
                mlp.apply(tape, z, store)
            };
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_autograd::{Adam, Optimizer};
    use sgnn_data::{dataset_spec, GenScale};
    use sgnn_dense::rng as drng;
    use sgnn_dense::stats::argmax;
    use sgnn_sparse::Backend;

    fn train_baseline(kind: BaselineKind, backend: Backend) -> f64 {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 3);
        let pm = Arc::new(PropMatrix::with_options(&data.graph, 0.5, true, backend));
        let mut rng = drng::seeded(4);
        let mut store = ParamStore::new();
        let model = IterativeGnn::new(
            kind,
            data.features.cols(),
            32,
            data.num_classes,
            2,
            0.3,
            &mut store,
            &mut rng,
        );
        let mut opt = Adam::new(0.02, 5e-4);
        let targets = Arc::new(data.targets_of(&data.splits.train));
        for step in 0..50 {
            store.zero_grads();
            let mut tape = Tape::new(true, step);
            let x = tape.constant(data.features.clone());
            let logits = model.forward(&mut tape, &pm, x, &store);
            let tl = tape.gather_rows(logits, Arc::new(data.splits.train.clone()));
            let loss = tape.softmax_cross_entropy(tl, Arc::clone(&targets));
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let mut tape = Tape::new(false, 0);
        let x = tape.constant(data.features.clone());
        let logits = model.forward(&mut tape, &pm, x, &store);
        let correct = data
            .splits
            .test
            .iter()
            .filter(|&&i| {
                argmax(tape.value(logits).row(i as usize)) as u32 == data.labels[i as usize]
            })
            .count();
        correct as f64 / data.splits.test.len() as f64
    }

    #[test]
    fn gcn_learns_on_homophilous_graph() {
        assert!(train_baseline(BaselineKind::Gcn, Backend::Csr) > 0.5);
    }

    #[test]
    fn sage_and_chebnet_learn() {
        assert!(train_baseline(BaselineKind::GraphSage, Backend::Csr) > 0.5);
        assert!(train_baseline(BaselineKind::ChebNet, Backend::Csr) > 0.5);
    }

    #[test]
    fn edge_list_backend_gives_same_quality() {
        assert!(train_baseline(BaselineKind::Gcn, Backend::EdgeList) > 0.5);
    }
}
