//! Multi-layer perceptron transformation stacks (`φ0`, `φ1`).

use rand::rngs::SmallRng;
use sgnn_autograd::param::ParamGroup;
use sgnn_autograd::{NodeId, ParamId, ParamStore, Tape};
use sgnn_dense::{rng as drng, DMat};

/// A stack of `Linear → ReLU → Dropout` layers, one [`Tape::linear`] node
/// each (activation and dropout are skipped after the last layer;
/// [`Mlp::apply_then_relu`] keeps the activation).
pub(crate) struct Mlp {
    layers: Vec<(ParamId, ParamId)>,
    dropout: f32,
}

impl Mlp {
    /// Builds an MLP through the given layer widths, e.g. `[64, 32, 7]` is
    /// two layers `64→32→7`. `dims.len() >= 2`.
    pub(crate) fn new(
        name: &str,
        dims: &[usize],
        dropout: f32,
        store: &mut ParamStore,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least one layer");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let weight = store.add(
                    format!("{name}.w{i}"),
                    drng::glorot(w[0], w[1], rng),
                    ParamGroup::Network,
                );
                let bias = store.add(
                    format!("{name}.b{i}"),
                    DMat::zeros(1, w[1]),
                    ParamGroup::Network,
                );
                (weight, bias)
            })
            .collect();
        Self { layers, dropout }
    }

    /// Applies the stack on the tape.
    pub(crate) fn apply(&self, tape: &mut Tape, x: NodeId, store: &ParamStore) -> NodeId {
        self.stack(tape, x, store, false)
    }

    /// Applies the stack with a ReLU after the last layer too (and still no
    /// dropout there), for a stack that feeds another stage.
    pub(crate) fn apply_then_relu(&self, tape: &mut Tape, x: NodeId, store: &ParamStore) -> NodeId {
        self.stack(tape, x, store, true)
    }

    fn stack(&self, tape: &mut Tape, x: NodeId, store: &ParamStore, relu_last: bool) -> NodeId {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, &(w, b)) in self.layers.iter().enumerate() {
            let wn = tape.param(store, w);
            let bn = tape.param(store, b);
            let hidden = i != last;
            h = tape.linear(
                h,
                wn,
                bn,
                hidden || relu_last,
                hidden.then_some(self.dropout),
            );
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_autograd::{Adam, Optimizer};
    use std::sync::Arc;

    #[test]
    fn shapes_flow_through() {
        let mut store = ParamStore::new();
        let mut rng = drng::seeded(0);
        let mlp = Mlp::new("m", &[8, 16, 3], 0.5, &mut store, &mut rng);
        assert_eq!(mlp.layers.len(), 2);
        let mut tape = Tape::new(false, 0);
        let x = tape.constant(DMat::zeros(5, 8));
        let out = mlp.apply(&mut tape, x, &store);
        assert_eq!(tape.value(out).shape(), (5, 3));
    }

    #[test]
    fn learns_xor_like_separation() {
        // A 2-layer MLP must fit a non-linearly-separable toy problem.
        let mut store = ParamStore::new();
        let mut rng = drng::seeded(1);
        let mlp = Mlp::new("m", &[2, 16, 2], 0.0, &mut store, &mut rng);
        let x = DMat::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = Arc::new(vec![0u32, 1, 1, 0]);
        let mut opt = Adam::new(0.05, 0.0);
        let mut last = f32::MAX;
        for step in 0..300 {
            store.zero_grads();
            let mut tape = Tape::new(true, step);
            let xn = tape.constant(x.clone());
            let logits = mlp.apply(&mut tape, xn, &store);
            let loss = tape.softmax_cross_entropy(logits, Arc::clone(&y));
            last = tape.value(loss).get(0, 0);
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(last < 0.05, "XOR loss stuck at {last}");
    }
}
