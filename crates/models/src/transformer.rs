//! Lightweight graph transformers for the Table-6 comparison.
//!
//! * [`NagphormerLite`] — NAGphormer's hop2token construction: the
//!   precomputation stage materializes `K + 1` hop-aggregated feature
//!   matrices (`Ã^k X`), and each node attends over its own `K + 1` hop
//!   tokens with a single-head projection. This keeps NAGphormer's defining
//!   traits — heavy precomputation, per-node token attention, mini-batch
//!   trainability — at a fraction of the original's parameter count.
//! * [`GtSample`] — stand-in for ANS-GT (adaptive node sampling graph
//!   transformer): every node attends over a uniformly sampled anchor set
//!   with full query/key/value projections. Reproduces the cost shape of
//!   sampled global attention (quadratic-in-anchors score matrix, very slow
//!   training) without ANS-GT's reinforcement-learned sampler.

use rand::rngs::SmallRng;
use sgnn_autograd::param::ParamGroup;
use sgnn_autograd::{NodeId, ParamId, ParamStore, Tape};
use sgnn_dense::{rng as drng, DMat};
use sgnn_sparse::{Dir, PropMatrix};

use crate::mlp::Mlp;

/// NAGphormer-lite: hop tokens + single-head hop attention + MLP head.
pub struct NagphormerLite {
    pub hops: usize,
    dim: usize,
    proj: ParamId,
    query: ParamId,
    value: ParamId,
    head: Mlp,
}

impl NagphormerLite {
    pub fn new(
        hops: usize,
        in_dim: usize,
        dim: usize,
        out_dim: usize,
        dropout: f32,
        store: &mut ParamStore,
        rng: &mut SmallRng,
    ) -> Self {
        let proj = store.add(
            "nag.proj",
            drng::glorot(in_dim, dim, rng),
            ParamGroup::Network,
        );
        let query = store.add("nag.query", drng::glorot(dim, 1, rng), ParamGroup::Network);
        let value = store.add(
            "nag.value",
            drng::glorot(dim, dim, rng),
            ParamGroup::Network,
        );
        let head = Mlp::new("nag.head", &[dim, dim, out_dim], dropout, store, rng);
        Self {
            hops,
            dim,
            proj,
            query,
            value,
            head,
        }
    }

    /// Precomputation: hop-aggregated token matrices `Ã^k X`, `k = 0..=K`.
    pub fn hop2token(&self, pm: &PropMatrix, x: &DMat) -> Vec<DMat> {
        let mut tokens = Vec::with_capacity(self.hops + 1);
        tokens.push(x.clone());
        for k in 0..self.hops {
            tokens.push(pm.hop(Dir::Forward, 1.0, 0.0, &tokens[k]));
        }
        tokens
    }

    /// Forward over a batch of token rows (one `DMat` per hop, equal rows).
    pub fn forward(&self, tape: &mut Tape, tokens: &[DMat], store: &ParamStore) -> NodeId {
        assert_eq!(tokens.len(), self.hops + 1, "one token matrix per hop");
        let projn = tape.param(store, self.proj);
        let queryn = tape.param(store, self.query);
        let valuen = tape.param(store, self.value);
        // Per-hop projected tokens and attention scores.
        let mut scores = Vec::with_capacity(tokens.len());
        let mut values = Vec::with_capacity(tokens.len());
        let scale = 1.0 / (self.dim as f32).sqrt();
        for t in tokens {
            let tn = tape.constant(t.clone());
            let p = tape.matmul(tn, projn);
            let p = tape.tanh(p);
            let s = tape.matmul(p, queryn);
            let s = tape.scale(s, scale);
            scores.push(s);
            values.push(tape.matmul(p, valuen));
        }
        let score_mat = tape.hcat(&scores);
        let attn = tape.softmax_rows(score_mat);
        let mut readout: Option<NodeId> = None;
        for (k, &v) in values.iter().enumerate() {
            let a_k = tape.slice_cols(attn, k, 1);
            let weighted = tape.row_scale(v, a_k);
            readout = Some(match readout {
                None => weighted,
                Some(acc) => tape.add(acc, weighted),
            });
        }
        self.head
            .apply(tape, readout.expect("at least one hop token"), store)
    }
}

/// Sampled-global-attention transformer (ANS-GT stand-in).
pub struct GtSample {
    dim: usize,
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    head: Mlp,
}

impl GtSample {
    pub fn new(
        in_dim: usize,
        dim: usize,
        out_dim: usize,
        dropout: f32,
        store: &mut ParamStore,
        rng: &mut SmallRng,
    ) -> Self {
        let wq = store.add("gt.wq", drng::glorot(in_dim, dim, rng), ParamGroup::Network);
        let wk = store.add("gt.wk", drng::glorot(in_dim, dim, rng), ParamGroup::Network);
        let wv = store.add("gt.wv", drng::glorot(in_dim, dim, rng), ParamGroup::Network);
        let head = Mlp::new(
            "gt.head",
            &[dim + in_dim, dim, out_dim],
            dropout,
            store,
            rng,
        );
        Self {
            dim,
            wq,
            wk,
            wv,
            head,
        }
    }

    /// Forward: every row of `x` attends over the `anchors` rows.
    pub fn forward(
        &self,
        tape: &mut Tape,
        x: &DMat,
        anchors: &[u32],
        store: &ParamStore,
    ) -> NodeId {
        let xs = x.gather_rows(anchors);
        let xn = tape.constant(x.clone());
        let xsn = tape.constant(xs);
        let wq = tape.param(store, self.wq);
        let wk = tape.param(store, self.wk);
        let wv = tape.param(store, self.wv);
        let q = tape.matmul(xn, wq); // n × d
        let k = tape.matmul(xsn, wk); // s × d
        let v = tape.matmul(xsn, wv); // s × d
                                      // scores[i, j] = ⟨q_i, k_j⟩ / √d — sampled global attention.
        let scores = tape.matmul_bt(q, k);
        let scores = tape.scale(scores, 1.0 / (self.dim as f32).sqrt());
        let attn = tape.softmax_rows(scores); // n × s
        let ctx = tape.matmul(attn, v); // n × d
        let joined = tape.hcat(&[ctx, xn]);
        self.head.apply(tape, joined, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_autograd::{Adam, Optimizer};
    use sgnn_data::{dataset_spec, GenScale};
    use sgnn_dense::stats::argmax;
    use std::sync::Arc;

    #[test]
    fn nagphormer_learns_node_classification() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 9);
        let pm = PropMatrix::new(&data.graph, 0.5);
        let mut rng = drng::seeded(9);
        let mut store = ParamStore::new();
        let model = NagphormerLite::new(
            4,
            data.features.cols(),
            32,
            data.num_classes,
            0.2,
            &mut store,
            &mut rng,
        );
        let tokens = model.hop2token(&pm, &data.features);
        assert_eq!(tokens.len(), 5);
        let mut opt = Adam::new(0.01, 1e-4);
        let train = &data.splits.train;
        let train_tokens: Vec<DMat> = tokens.iter().map(|t| t.gather_rows(train)).collect();
        let targets = Arc::new(data.targets_of(train));
        for step in 0..80 {
            store.zero_grads();
            let mut tape = Tape::new(true, step);
            let logits = model.forward(&mut tape, &train_tokens, &store);
            let loss = tape.softmax_cross_entropy(logits, Arc::clone(&targets));
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let all: Vec<u32> = (0..data.nodes() as u32).collect();
        let all_tokens: Vec<DMat> = tokens.iter().map(|t| t.gather_rows(&all)).collect();
        let mut tape = Tape::new(false, 0);
        let logits = model.forward(&mut tape, &all_tokens, &store);
        let acc = data
            .splits
            .test
            .iter()
            .filter(|&&i| {
                argmax(tape.value(logits).row(i as usize)) as u32 == data.labels[i as usize]
            })
            .count() as f64
            / data.splits.test.len() as f64;
        assert!(acc > 0.4, "NAGphormer-lite accuracy {acc}");
    }

    #[test]
    fn gt_sample_learns_with_few_anchors() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 10);
        let mut rng = drng::seeded(10);
        let mut store = ParamStore::new();
        let model = GtSample::new(
            data.features.cols(),
            16,
            data.num_classes,
            0.2,
            &mut store,
            &mut rng,
        );
        let anchors: Vec<u32> = (0..16).map(|i| i * 7 % data.nodes() as u32).collect();
        let mut opt = Adam::new(0.01, 1e-4);
        let targets = Arc::new(data.targets_of(&data.splits.train));
        for step in 0..60 {
            store.zero_grads();
            let mut tape = Tape::new(true, step);
            let logits = model.forward(&mut tape, &data.features, &anchors, &store);
            let tl = tape.gather_rows(logits, Arc::new(data.splits.train.clone()));
            let loss = tape.softmax_cross_entropy(tl, Arc::clone(&targets));
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let mut tape = Tape::new(false, 0);
        let logits = model.forward(&mut tape, &data.features, &anchors, &store);
        let acc = data
            .splits
            .test
            .iter()
            .filter(|&&i| {
                argmax(tape.value(logits).row(i as usize)) as u32 == data.labels[i as usize]
            })
            .count() as f64
            / data.splits.test.len() as f64;
        assert!(acc > 0.4, "GtSample accuracy {acc}");
    }
}
