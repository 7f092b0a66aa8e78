//! The operation tape: eager forward, reverse-mode backward.
//!
//! A [`Tape`] is rebuilt for every training step (define-by-run). Each op
//! constructor computes its output immediately and records the dependency so
//! [`Tape::backward`] can sweep the tape in reverse. The op vocabulary covers
//! exactly what the benchmark's models need; anything else (the spectral
//! filter operator) plugs in through [`crate::custom::CustomOp`].

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use sgnn_dense::backend;
use sgnn_dense::runtime::run_chunks;
use sgnn_dense::{matmul, rng as drng, DMat};
use sgnn_sparse::{Dir, PropMatrix};

use crate::custom::CustomOp;
use crate::param::{ParamId, ParamStore};

/// The dropout of a training [`Tape::linear`] in one pass over the layer's
/// output `v`, in place: one draw per element in row-major order, the
/// element kept (scaled by `1 / (1 - p)`) where the draw is `>= p` and
/// zeroed elsewhere. `code[i]` is what the backward pass multiplies the
/// output gradient by: `1 / (1 - p)` or `0.0`, or NaN where `relu` is set
/// and the ReLU was inactive (`v[i] <= 0` before dropout), whose gradient is
/// `+0.0` whatever the draw. The draws of a chunk go to a stack buffer first
/// so that the keep/drop choice compiles to a vector compare-and-mask: taken
/// per draw it is a branch that mispredicts on half the elements at
/// `p = 0.5` (LLVM turns a scalar select or bit mask back into that
/// branch), and it cost four times the generator.
fn dropout_pass(rng: &mut SmallRng, p: f32, relu: bool, v: &mut [f32], code: &mut [f32]) {
    let inv = 1.0 / (1.0 - p);
    let mut draws = [0.0f32; 256];
    for (vs, cs) in v.chunks_mut(draws.len()).zip(code.chunks_mut(draws.len())) {
        let draws = &mut draws[..vs.len()];
        draws.iter_mut().for_each(|d| *d = rng.random());
        for ((o, &d), c) in vs.iter_mut().zip(&*draws).zip(cs) {
            let m = if d >= p { inv } else { 0.0 };
            *c = if relu && *o <= 0.0 { f32::NAN } else { m };
            *o *= m;
        }
    }
}

/// The backward pass of a [`Tape::linear`] node up to its product, in one
/// pass over the output gradient `gout`: the gradient of `x·w + b`, which is
/// `relu_bwd(y, gout ⊙ mask)` for the ReLU output `y` and the dropout mask,
/// bit for bit, and the bias gradient, its column sums accumulated in `f64`
/// in row order as [`DMat::col_sums`] does. `value` is the node's output,
/// `code` the dropout code it keeps.
fn linear_pre_grad(gout: &DMat, value: &DMat, relu: bool, code: Option<&DMat>) -> (DMat, DMat) {
    let (rows, cols) = gout.shape();
    let mut g = DMat::scratch(rows, cols);
    let mut sums = vec![0.0f64; cols];
    let be = backend::for_elementwise();
    for r in 0..rows {
        let (go, gr) = (gout.row(r), g.row_mut(r));
        match code {
            // A NaN code marks an inactive ReLU, whose gradient `relu_bwd`
            // sets to `+0.0`; elsewhere the product keeps the sign of zero.
            // As a bit mask the choice vectorises; written as a select it
            // compiled to a branch that mispredicts on half the elements
            // and took nine times as long.
            Some(code) => {
                for ((o, &gv), &c) in gr.iter_mut().zip(go).zip(code.row(r)) {
                    let keep = (!c.is_nan() as u32).wrapping_neg();
                    *o = f32::from_bits((gv * c).to_bits() & keep);
                }
            }
            // Without a mask the output is the ReLU's own.
            None => {
                gr.copy_from_slice(go);
                if relu {
                    be.relu_bwd(value.row(r), gr);
                }
            }
        }
        for (s, &v) in sums.iter_mut().zip(&*gr) {
            *s += v as f64;
        }
    }
    let gb = DMat::from_vec(1, cols, sums.iter().map(|&s| s as f32).collect());
    (g, gb)
}

/// Handle to a node on a [`Tape`].
pub type NodeId = usize;

enum Op {
    /// A constant input (no gradient).
    Leaf,
    /// A trainable parameter; gradients flow into the [`ParamStore`].
    Param(ParamId),
    MatMul(NodeId, NodeId),
    /// `a · bᵀ` (attention score matrices).
    MatMulBt(NodeId, NodeId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Scale(NodeId, f32),
    /// [`Tape::linear`]: `x·w + b`, a ReLU when `relu` is set, then dropout;
    /// `code` is what [`dropout_pass`] writes, kept at `p > 0` on a training
    /// tape.
    Linear {
        x: NodeId,
        w: NodeId,
        b: NodeId,
        relu: bool,
        code: Option<DMat>,
    },
    Hadamard(NodeId, NodeId),
    /// Column-wise scaling by a `1 × C` vector (per-feature filter weights).
    ColScale {
        x: NodeId,
        w: NodeId,
    },
    /// Row-wise scaling by an `n × 1` vector (attention weights).
    RowScale {
        x: NodeId,
        w: NodeId,
    },
    /// Row-wise softmax (attention normalization).
    SoftmaxRows(NodeId),
    /// Contiguous column slice `[start, start+len)`.
    SliceCols {
        x: NodeId,
        start: usize,
        len: usize,
    },
    Tanh(NodeId),
    Recip(NodeId),
    /// One propagation hop `a·Ã·x + b·x`; adjoint uses `Ãᵀ`.
    Prop {
        pm: Arc<PropMatrix>,
        a: f32,
        b: f32,
        x: NodeId,
    },
    HCat(Vec<NodeId>),
    GatherRows {
        x: NodeId,
        idx: Arc<Vec<u32>>,
    },
    /// `Σ_k coeffs[k] · terms[k]` with a `K × 1` coefficient node.
    LinComb {
        terms: Vec<NodeId>,
        coeffs: NodeId,
    },
    SoftmaxCrossEntropy {
        logits: NodeId,
        targets: Arc<Vec<u32>>,
        probs: DMat,
    },
    BceWithLogits {
        logits: NodeId,
        targets: Arc<Vec<f32>>,
        probs: DMat,
    },
    Mse {
        pred: NodeId,
        target: DMat,
    },
    Sum(NodeId),
    Custom {
        inputs: Vec<NodeId>,
        op: Box<dyn CustomOp>,
    },
}

struct Node {
    value: DMat,
    grad: Option<DMat>,
    needs_grad: bool,
    op: Op,
}

/// An eager autodiff tape.
pub struct Tape {
    nodes: Vec<Node>,
    training: bool,
    rng: SmallRng,
}

impl Tape {
    /// Creates a tape. `training` controls dropout and the backward pass:
    /// an eval tape (`false`) skips dropout and is forward-only —
    /// [`backward`](Self::backward) on it panics. `seed` makes dropout masks
    /// reproducible.
    pub fn new(training: bool, seed: u64) -> Self {
        Self {
            nodes: Vec::new(),
            training,
            rng: drng::seeded(seed),
        }
    }

    /// Whether this is a training tape: an eval tape is forward-only, so an
    /// op recorded on it need keep nothing for a backward pass.
    pub fn training(&self) -> bool {
        self.training
    }

    /// Forward value of a node.
    pub fn value(&self, id: NodeId) -> &DMat {
        &self.nodes[id].value
    }

    /// Consumes the tape and moves one node's value out of it.
    pub fn into_value(mut self, id: NodeId) -> DMat {
        self.nodes.swap_remove(id).value
    }

    fn push(&mut self, value: DMat, needs_grad: bool, op: Op) -> NodeId {
        self.nodes.push(Node {
            value,
            grad: None,
            needs_grad,
            op,
        });
        self.nodes.len() - 1
    }

    fn needs(&self, id: NodeId) -> bool {
        self.nodes[id].needs_grad
    }

    // ----- inputs ---------------------------------------------------------

    /// Records a constant (no gradient).
    pub fn constant(&mut self, value: DMat) -> NodeId {
        self.push(value, false, Op::Leaf)
    }

    /// Records a parameter by copying its current value from the store.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        self.push(store.value(id).clone(), true, Op::Param(id))
    }

    // ----- arithmetic ------------------------------------------------------

    /// `a (m×k) · b (k×n)`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = matmul::matmul(self.value(a), self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, ng, Op::MatMul(a, b))
    }

    /// `a (m×k) · b (n×k)ᵀ -> (m×n)` without materializing the transpose.
    pub fn matmul_bt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = matmul::matmul_a_bt(self.value(a), self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, ng, Op::MatMulBt(a, b))
    }

    /// Element-wise `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        v.add_assign_mat(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, ng, Op::Add(a, b))
    }

    /// Element-wise `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        v.sub_assign_mat(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, ng, Op::Sub(a, b))
    }

    /// `x * s` for a compile-time constant `s`.
    pub fn scale(&mut self, x: NodeId, s: f32) -> NodeId {
        let v = self.value(x).scaled(s);
        let ng = self.needs(x);
        self.push(v, ng, Op::Scale(x, s))
    }

    /// One dense layer, `x·w + b`, followed by a ReLU when `relu` is set and
    /// by inverted dropout at rate `p` when `dropout` is `Some(p)`.
    ///
    /// One node: the bias and the ReLU are applied to each row chunk of the
    /// product on the lane that computed it ([`matmul::linear`]). On a
    /// training tape at `p > 0`, one serial pass then draws the dropout
    /// mask in row-major order and applies it in place, keeping one `f32`
    /// per element for the backward pass; an eval tape skips dropout. The backward pass forms the pre-activation
    /// gradient and the bias gradient in one pass over the output gradient,
    /// then runs the two transposed products.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1)`.
    pub fn linear(
        &mut self,
        x: NodeId,
        w: NodeId,
        b: NodeId,
        relu: bool,
        dropout: Option<f32>,
    ) -> NodeId {
        let mut v = matmul::linear(self.value(x), self.value(w), self.value(b), relu);
        let p = dropout.unwrap_or(0.0);
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        let code = (self.training && p > 0.0).then(|| {
            let mut code = DMat::scratch(v.rows(), v.cols());
            dropout_pass(&mut self.rng, p, relu, v.data_mut(), code.data_mut());
            code
        });
        let ng = self.needs(x) || self.needs(w) || self.needs(b);
        self.push(
            v,
            ng,
            Op::Linear {
                x,
                w,
                b,
                relu,
                code,
            },
        )
    }

    /// Element-wise product.
    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        v.hadamard_assign(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, ng, Op::Hadamard(a, b))
    }

    /// Scales column `c` of `x` by `w[0, c]`.
    pub fn col_scale(&mut self, x: NodeId, w: NodeId) -> NodeId {
        let wv = self.value(w);
        assert_eq!(wv.rows(), 1, "column weights must be a row vector");
        assert_eq!(
            wv.cols(),
            self.value(x).cols(),
            "column weight width mismatch"
        );
        let wrow: Vec<f32> = wv.row(0).to_vec();
        let mut v = self.value(x).clone();
        for r in 0..v.rows() {
            for (o, &s) in v.row_mut(r).iter_mut().zip(&wrow) {
                *o *= s;
            }
        }
        let ng = self.needs(x) || self.needs(w);
        self.push(v, ng, Op::ColScale { x, w })
    }

    /// Scales row `r` of `x` by `w[r, 0]`.
    pub fn row_scale(&mut self, x: NodeId, w: NodeId) -> NodeId {
        let wv = self.value(w);
        assert_eq!(wv.cols(), 1, "row weights must be a column vector");
        assert_eq!(
            wv.rows(),
            self.value(x).rows(),
            "row weight height mismatch"
        );
        let wcol: Vec<f32> = (0..wv.rows()).map(|r| wv.get(r, 0)).collect();
        let mut v = self.value(x).clone();
        for (r, &s) in wcol.iter().enumerate() {
            v.row_mut(r).iter_mut().for_each(|o| *o *= s);
        }
        let ng = self.needs(x) || self.needs(w);
        self.push(v, ng, Op::RowScale { x, w })
    }

    /// Numerically-stable softmax along each row. Rows are independent, so
    /// attention-sized inputs (`n × n`) normalize across the worker pool.
    pub fn softmax_rows(&mut self, x: NodeId) -> NodeId {
        let mut v = self.value(x).clone();
        let (rows, cols) = v.shape();
        let be = backend::for_softmax();
        run_chunks(v.data_mut(), rows, cols.max(1), |_, chunk| {
            for row in chunk.chunks_exact_mut(cols.max(1)) {
                be.softmax_row(row);
            }
        });
        let ng = self.needs(x);
        self.push(v, ng, Op::SoftmaxRows(x))
    }

    /// Columns `[start, start + len)` of `x`.
    pub fn slice_cols(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let xv = self.value(x);
        assert!(start + len <= xv.cols(), "column slice out of range");
        let mut v = DMat::zeros(xv.rows(), len);
        for r in 0..xv.rows() {
            v.row_mut(r).copy_from_slice(&xv.row(r)[start..start + len]);
        }
        let ng = self.needs(x);
        self.push(v, ng, Op::SliceCols { x, start, len })
    }

    // ----- activations ------------------------------------------------------

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(f32::tanh);
        let ng = self.needs(x);
        self.push(v, ng, Op::Tanh(x))
    }

    /// Element-wise reciprocal `1 / x` (used by recurrence-parameter
    /// filters such as Favard).
    pub fn recip(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).map(|t| 1.0 / t);
        let ng = self.needs(x);
        self.push(v, ng, Op::Recip(x))
    }

    // ----- structure ---------------------------------------------------------

    /// One hop of graph propagation `a·Ã·x + b·x`.
    pub fn prop(&mut self, pm: &Arc<PropMatrix>, a: f32, b: f32, x: NodeId) -> NodeId {
        let v = pm.hop(Dir::Forward, a, b, self.value(x));
        let ng = self.needs(x);
        self.push(
            v,
            ng,
            Op::Prop {
                pm: Arc::clone(pm),
                a,
                b,
                x,
            },
        )
    }

    /// Horizontal concatenation.
    pub fn hcat(&mut self, parts: &[NodeId]) -> NodeId {
        let mats: Vec<&DMat> = parts.iter().map(|&p| self.value(p)).collect();
        let v = DMat::hcat(&mats);
        let ng = parts.iter().any(|&p| self.needs(p));
        self.push(v, ng, Op::HCat(parts.to_vec()))
    }

    /// Row gather (mini-batch slicing, loss-mask selection).
    pub fn gather_rows(&mut self, x: NodeId, idx: Arc<Vec<u32>>) -> NodeId {
        let v = self.value(x).gather_rows(&idx);
        let ng = self.needs(x);
        self.push(v, ng, Op::GatherRows { x, idx })
    }

    /// `Σ_k coeffs[k] · terms[k]` where `coeffs` is a `K × 1` node.
    pub fn lin_comb(&mut self, terms: &[NodeId], coeffs: NodeId) -> NodeId {
        assert!(!terms.is_empty(), "lin_comb needs at least one term");
        let cv = self.value(coeffs);
        assert_eq!(cv.cols(), 1, "coefficients must be a column vector");
        assert_eq!(cv.rows(), terms.len(), "one coefficient per term");
        let vals: Vec<&DMat> = terms.iter().map(|&t| self.value(t)).collect();
        let v = DMat::lin_comb(&vals, cv.data());
        let ng = self.needs(coeffs) || terms.iter().any(|&t| self.needs(t));
        self.push(
            v,
            ng,
            Op::LinComb {
                terms: terms.to_vec(),
                coeffs,
            },
        )
    }

    /// Records a custom op: caller supplies the forward `value` and the
    /// backward implementation.
    pub fn custom(&mut self, inputs: Vec<NodeId>, value: DMat, op: Box<dyn CustomOp>) -> NodeId {
        let ng = inputs.iter().any(|&i| self.needs(i));
        self.push(value, ng, Op::Custom { inputs, op })
    }

    // ----- losses -------------------------------------------------------------

    /// Mean softmax cross-entropy of `logits (n × C)` against class targets.
    pub fn softmax_cross_entropy(&mut self, logits: NodeId, targets: Arc<Vec<u32>>) -> NodeId {
        let lv = self.value(logits);
        assert_eq!(lv.rows(), targets.len(), "one target per logit row");
        let mut probs = lv.clone();
        let mut loss = 0.0f64;
        let be = backend::for_softmax();
        for (r, &y) in targets.iter().enumerate() {
            let row = probs.row_mut(r);
            be.log_softmax_row(row);
            loss -= row[y as usize] as f64;
            // Convert stored log-probs to probs for the backward pass.
            row.iter_mut().for_each(|v| *v = v.exp());
        }
        let n = targets.len().max(1);
        let v = DMat::from_vec(1, 1, vec![(loss / n as f64) as f32]);
        let ng = self.needs(logits);
        self.push(
            v,
            ng,
            Op::SoftmaxCrossEntropy {
                logits,
                targets,
                probs,
            },
        )
    }

    /// Mean binary cross-entropy with logits; `logits` is `n × 1`.
    pub fn bce_with_logits(&mut self, logits: NodeId, targets: Arc<Vec<f32>>) -> NodeId {
        let lv = self.value(logits);
        assert_eq!(lv.cols(), 1, "binary logits must be a column");
        assert_eq!(lv.rows(), targets.len(), "one target per logit");
        let mut probs = DMat::zeros(lv.rows(), 1);
        let mut loss = 0.0f64;
        for (r, &t) in targets.iter().enumerate() {
            let x = lv.get(r, 0);
            let p = sgnn_dense::stats::sigmoid(x);
            probs.set(r, 0, p);
            // Numerically stable BCE: max(x,0) - x*t + ln(1 + e^{-|x|}).
            loss += (x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln()) as f64;
        }
        let n = targets.len().max(1);
        let v = DMat::from_vec(1, 1, vec![(loss / n as f64) as f32]);
        let ng = self.needs(logits);
        self.push(
            v,
            ng,
            Op::BceWithLogits {
                logits,
                targets,
                probs,
            },
        )
    }

    /// Mean squared error against a constant target.
    pub fn mse(&mut self, pred: NodeId, target: DMat) -> NodeId {
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "MSE shape mismatch");
        let mut loss = 0.0f64;
        for (a, b) in pv.data().iter().zip(target.data()) {
            let d = (a - b) as f64;
            loss += d * d;
        }
        let v = DMat::from_vec(1, 1, vec![(loss / pv.len().max(1) as f64) as f32]);
        let ng = self.needs(pred);
        self.push(v, ng, Op::Mse { pred, target })
    }

    /// Sum of all entries (testing aid).
    pub fn sum(&mut self, x: NodeId) -> NodeId {
        let s: f64 = self.value(x).data().iter().map(|&v| v as f64).sum();
        let ng = self.needs(x);
        self.push(DMat::from_vec(1, 1, vec![s as f32]), ng, Op::Sum(x))
    }

    // ----- backward --------------------------------------------------------

    /// Reverse sweep from scalar node `loss`; parameter gradients are
    /// accumulated into `store`.
    ///
    /// # Panics
    /// Panics on an eval tape, or if `loss` is not a `1 × 1` node.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) {
        assert!(
            self.training,
            "backward on an eval tape: `Tape::new(false, _)` is forward-only, \
             differentiate on a training tape"
        );
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        self.nodes[loss].grad = Some(DMat::filled(1, 1, 1.0));
        for i in (0..=loss).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(gout) = self.nodes[i].grad.take() else {
                continue;
            };
            // Param leaves: push gradient to the store.
            if let Op::Param(pid) = self.nodes[i].op {
                store.accumulate_grad(pid, &gout);
                self.nodes[i].grad = Some(gout);
                continue;
            }
            let contribs = self.input_grads(i, &gout);
            for (j, g) in contribs {
                if !self.nodes[j].needs_grad {
                    continue;
                }
                match &mut self.nodes[j].grad {
                    Some(acc) => acc.add_assign_mat(&g),
                    slot @ None => *slot = Some(g),
                }
            }
            self.nodes[i].grad = Some(gout);
        }
    }

    /// Gradient contributions `(input, grad)` of node `i` given `gout`.
    fn input_grads(&self, i: NodeId, gout: &DMat) -> Vec<(NodeId, DMat)> {
        let node = &self.nodes[i];
        match &node.op {
            Op::Leaf | Op::Param(_) => Vec::new(),
            Op::MatMul(a, b) => {
                let mut out = Vec::with_capacity(2);
                if self.needs(*a) {
                    out.push((*a, matmul::matmul_a_bt(gout, self.value(*b))));
                }
                if self.needs(*b) {
                    out.push((*b, matmul::matmul_at_b(self.value(*a), gout)));
                }
                out
            }
            Op::MatMulBt(a, b) => {
                // y = a·bᵀ ⇒ da = g·b, db = gᵀ·a.
                let mut out = Vec::with_capacity(2);
                if self.needs(*a) {
                    out.push((*a, matmul::matmul(gout, self.value(*b))));
                }
                if self.needs(*b) {
                    out.push((*b, matmul::matmul_at_b(gout, self.value(*a))));
                }
                out
            }
            Op::Add(a, b) => vec![(*a, gout.clone()), (*b, gout.clone())],
            Op::Sub(a, b) => vec![(*a, gout.clone()), (*b, gout.scaled(-1.0))],
            Op::Scale(x, s) => vec![(*x, gout.scaled(*s))],
            Op::Linear {
                x,
                w,
                b,
                relu,
                code,
            } => {
                let (g, gb) = linear_pre_grad(gout, &node.value, *relu, code.as_ref());
                let mut out = Vec::with_capacity(3);
                if self.needs(*b) {
                    out.push((*b, gb));
                }
                if self.needs(*x) {
                    out.push((*x, matmul::matmul_a_bt(&g, self.value(*w))));
                }
                if self.needs(*w) {
                    out.push((*w, matmul::matmul_at_b(self.value(*x), &g)));
                }
                out
            }
            Op::Hadamard(a, b) => {
                let mut ga = gout.clone();
                ga.hadamard_assign(self.value(*b));
                let mut gb = gout.clone();
                gb.hadamard_assign(self.value(*a));
                vec![(*a, ga), (*b, gb)]
            }
            Op::RowScale { x, w } => {
                let wv = self.value(*w);
                let xv = self.value(*x);
                let mut gx = gout.clone();
                for r in 0..gx.rows() {
                    let s = wv.get(r, 0);
                    gx.row_mut(r).iter_mut().for_each(|g| *g *= s);
                }
                let mut gw = DMat::zeros(wv.rows(), 1);
                for r in 0..xv.rows() {
                    let d: f64 = xv
                        .row(r)
                        .iter()
                        .zip(gout.row(r))
                        .map(|(&a, &b)| a as f64 * b as f64)
                        .sum();
                    gw.set(r, 0, d as f32);
                }
                vec![(*x, gx), (*w, gw)]
            }
            Op::SoftmaxRows(x) => {
                // dx_i = y_i (g_i − Σ_j g_j y_j) per row; rows are
                // independent, so the backward also runs over the pool.
                let y = &node.value;
                let mut g = gout.clone();
                let (rows, cols) = g.shape();
                let ydat = y.data();
                let be = backend::for_softmax();
                run_chunks(g.data_mut(), rows, cols.max(1), |first, chunk| {
                    for (local, grow) in chunk.chunks_exact_mut(cols.max(1)).enumerate() {
                        let r = first + local;
                        be.softmax_bwd_row(&ydat[r * cols..(r + 1) * cols], grow);
                    }
                });
                vec![(*x, g)]
            }
            Op::SliceCols { x, start, len } => {
                let xv = self.value(*x);
                let mut g = DMat::zeros(xv.rows(), xv.cols());
                for r in 0..g.rows() {
                    g.row_mut(r)[*start..*start + *len].copy_from_slice(gout.row(r));
                }
                vec![(*x, g)]
            }
            Op::ColScale { x, w } => {
                let wv = self.value(*w);
                let xv = self.value(*x);
                let mut gx = gout.clone();
                for r in 0..gx.rows() {
                    for (g, &s) in gx.row_mut(r).iter_mut().zip(wv.row(0)) {
                        *g *= s;
                    }
                }
                let mut gw = DMat::zeros(1, wv.cols());
                for r in 0..xv.rows() {
                    for ((g, &xx), &go) in gw.row_mut(0).iter_mut().zip(xv.row(r)).zip(gout.row(r))
                    {
                        *g += xx * go;
                    }
                }
                vec![(*x, gx), (*w, gw)]
            }
            Op::Tanh(x) => {
                let mut g = gout.clone();
                for (gv, &y) in g.data_mut().iter_mut().zip(node.value.data()) {
                    *gv *= 1.0 - y * y;
                }
                vec![(*x, g)]
            }
            Op::Recip(x) => {
                // d(1/x)/dx = -1/x² = -y² for y = 1/x.
                let mut g = gout.clone();
                for (gv, &y) in g.data_mut().iter_mut().zip(node.value.data()) {
                    *gv *= -y * y;
                }
                vec![(*x, g)]
            }
            Op::Prop { pm, a, b, x } => vec![(*x, pm.hop(Dir::Adjoint, *a, *b, gout))],
            Op::HCat(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                let mut off = 0usize;
                for &p in parts {
                    let w = self.value(p).cols();
                    let mut g = DMat::zeros(gout.rows(), w);
                    for r in 0..gout.rows() {
                        g.row_mut(r).copy_from_slice(&gout.row(r)[off..off + w]);
                    }
                    out.push((p, g));
                    off += w;
                }
                out
            }
            Op::GatherRows { x, idx } => {
                let mut g = DMat::zeros(self.value(*x).rows(), gout.cols());
                g.scatter_add_rows(idx, gout);
                vec![(*x, g)]
            }
            Op::LinComb { terms, coeffs } => {
                let cv = self.value(*coeffs);
                let mut out = Vec::with_capacity(terms.len() + 1);
                if self.needs(*coeffs) {
                    let vals: Vec<&DMat> = terms.iter().map(|&t| self.value(t)).collect();
                    let gc = DMat::dots(&vals, gout).iter().map(|&d| d as f32).collect();
                    out.push((*coeffs, DMat::from_vec(terms.len(), 1, gc)));
                }
                for (k, &t) in terms.iter().enumerate() {
                    if self.needs(t) {
                        out.push((t, gout.scaled(cv.get(k, 0))));
                    }
                }
                out
            }
            Op::SoftmaxCrossEntropy {
                logits,
                targets,
                probs,
            } => {
                let scale = gout.get(0, 0) / targets.len().max(1) as f32;
                let mut g = probs.clone();
                for (r, &y) in targets.iter().enumerate() {
                    let row = g.row_mut(r);
                    row[y as usize] -= 1.0;
                    row.iter_mut().for_each(|v| *v *= scale);
                }
                vec![(*logits, g)]
            }
            Op::BceWithLogits {
                logits,
                targets,
                probs,
            } => {
                let scale = gout.get(0, 0) / targets.len().max(1) as f32;
                let mut g = DMat::zeros(probs.rows(), 1);
                for (r, &t) in targets.iter().enumerate() {
                    g.set(r, 0, (probs.get(r, 0) - t) * scale);
                }
                vec![(*logits, g)]
            }
            Op::Mse { pred, target } => {
                let scale = 2.0 * gout.get(0, 0) / target.len().max(1) as f32;
                let mut g = self.value(*pred).clone();
                g.sub_assign_mat(target);
                g.scale(scale);
                vec![(*pred, g)]
            }
            Op::Sum(x) => {
                let (r, c) = self.value(*x).shape();
                vec![(*x, DMat::filled(r, c, gout.get(0, 0)))]
            }
            Op::Custom { inputs, op } => {
                let vals: Vec<&DMat> = inputs.iter().map(|&j| self.value(j)).collect();
                let grads = op.backward(&vals, gout);
                assert_eq!(
                    grads.len(),
                    inputs.len(),
                    "custom op must return one grad slot per input"
                );
                inputs
                    .iter()
                    .zip(grads)
                    .filter_map(|(&j, g)| g.map(|g| (j, g)))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
#[path = "../tests/support/linear_ref.rs"]
mod linear_ref;

#[cfg(test)]
mod tests {
    use super::linear_ref::{self, bits};
    use super::*;
    use crate::param::ParamGroup;
    use sgnn_sparse::Graph;

    /// `x`, `w` and `b` as parameters of a fresh tape and one
    /// [`Tape::linear`] node over them; `loss = Σ h ⊙ gout` makes `gout` the
    /// node's output gradient. Returns the tape, the node and the loss.
    fn layer_tape(
        ps: &ParamStore,
        [x, w, b]: [ParamId; 3],
        gout: &DMat,
        relu: bool,
        dropout: Option<f32>,
        training: bool,
    ) -> (Tape, NodeId, NodeId) {
        let mut t = Tape::new(training, 42);
        let (xn, wn, bn) = (t.param(ps, x), t.param(ps, w), t.param(ps, b));
        let h = t.linear(xn, wn, bn, relu, dropout);
        let g = t.constant(gout.clone());
        let weighted = t.hadamard(h, g);
        let loss = t.sum(weighted);
        (t, h, loss)
    }

    fn layer_params(x: &DMat, w: &DMat, b: &DMat) -> (ParamStore, [ParamId; 3]) {
        let mut ps = ParamStore::new();
        let ids = [("x", x), ("w", w), ("b", b)]
            .map(|(name, v)| ps.add(name, v.clone(), ParamGroup::Network));
        (ps, ids)
    }

    #[test]
    fn matmul_bias_relu_gradients_flow() {
        let mut ps = ParamStore::new();
        let w = ps.add(
            "w",
            DMat::from_fn(2, 2, |r, c| (r + c) as f32 * 0.5 - 0.3),
            ParamGroup::Network,
        );
        let b = ps.add(
            "b",
            DMat::from_vec(1, 2, vec![0.1, -0.2]),
            ParamGroup::Network,
        );
        let mut t = Tape::new(true, 0);
        let x = t.constant(DMat::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.3));
        let wn = t.param(&ps, w);
        let bn = t.param(&ps, b);
        let h = t.linear(x, wn, bn, true, None);
        let loss = t.sum(h);
        t.backward(loss, &mut ps);
        assert!(ps.grad(w).norm() > 0.0);
        assert!(ps.grad(b).norm() > 0.0);
    }

    /// `linear` against the `matmul` → bias → `relu` → dropout chain it
    /// stands for, written out in `tests/support/linear_ref.rs`: one node
    /// with the chain's value bits and `x`, `w`, `b` gradient bits, and the
    /// chain's dropout stream. Shapes cross the GEMM's 4 × 16 tile
    /// (`m % 4 ≠ 0`, `n < 16`, `n % 16 ≠ 0`). This runs on the process's
    /// backend (the suite runs under each); `tests/linear_kernels.rs`
    /// repeats it at every backend and pool width in a process of its own.
    #[test]
    fn linear_matches_the_three_op_chain() {
        use rand::RngCore;
        for (i, &(m, k, n)) in [(7, 5, 9), (5, 3, 16), (9, 6, 33), (3, 2, 3), (70, 17, 31)]
            .iter()
            .enumerate()
        {
            let [x, w, b, gout] = linear_ref::inputs(m, k, n, i as u64);
            let (mut ps, ids) = layer_params(&x, &w, &b);
            for relu in [false, true] {
                for dropout in [None, Some(0.0), Some(0.5)] {
                    let case = format!("{m}x{k}x{n} relu {relu} dropout {dropout:?}");
                    let want = linear_ref::layer(&x, &w, &b, relu, dropout, 42, &gout);
                    ps.zero_grads();
                    let (mut t, h, loss) = layer_tape(&ps, ids, &gout, relu, dropout, true);
                    assert_eq!(h, 3, "one node, {case}");
                    assert_eq!(bits(t.value(h)), bits(&want.value), "value, {case}");
                    t.backward(loss, &mut ps);
                    for (id, g, what) in
                        [(0, &want.gx, "x"), (1, &want.gw, "w"), (2, &want.gb, "b")]
                    {
                        assert_eq!(bits(ps.grad(ids[id])), bits(g), "{what} gradient, {case}");
                    }
                    let mut rng = want.rng;
                    assert_eq!(t.rng.next_u64(), rng.next_u64(), "stream, {case}");
                }
            }
        }
    }

    /// The bias gradient sums the rows in order, as `col_sums` does: in
    /// `f64`, `1 + 2⁶⁰ − 2⁶⁰` is 0 and `−2⁶⁰ + 2⁶⁰ + 1` is 1.
    #[test]
    fn linear_bias_gradient_sums_rows_in_order() {
        let big = (1u64 << 60) as f32;
        let gout = DMat::from_vec(3, 1, vec![1.0, big, -big]);
        let (x, w, b) = (DMat::zeros(3, 1), DMat::zeros(1, 1), DMat::zeros(1, 1));
        let (mut ps, ids) = layer_params(&x, &w, &b);
        let (mut t, _, loss) = layer_tape(&ps, ids, &gout, false, None, true);
        t.backward(loss, &mut ps);
        assert_eq!(ps.grad(ids[2]).get(0, 0), 0.0);
    }

    /// An eval tape skips dropout: one node with the value of the layer
    /// without dropout, no mask kept and no draw taken.
    #[test]
    fn eval_dropout_returns_its_input() {
        use rand::RngCore;
        let [x, w, b, gout] = linear_ref::inputs(6, 4, 5, 1);
        let (ps, ids) = layer_params(&x, &w, &b);
        let (mut t, h, _) = layer_tape(&ps, ids, &gout, true, Some(0.5), false);
        assert_eq!(t.nodes.len(), 7, "x, w, b, the layer, gout, ⊙, Σ");
        assert_eq!(
            bits(t.value(h)),
            bits(&linear_ref::layer(&x, &w, &b, true, None, 0, &gout).value)
        );
        let Op::Linear { code, .. } = &t.nodes[h].op else {
            panic!("linear records one Linear node");
        };
        assert!(code.is_none());
        assert_eq!(t.rng.next_u64(), drng::seeded(42).next_u64());
    }

    /// An eval tape's layer has the value of a training tape's layer at
    /// `p = 0`, and neither keeps a mask.
    #[test]
    fn eval_linear_matches_training_at_p0() {
        let [x, w, b, gout] = linear_ref::inputs(9, 6, 33, 2);
        let (ps, ids) = layer_params(&x, &w, &b);
        let run = |training: bool| {
            let p = if training { 0.0 } else { 0.5 };
            let (t, h, _) = layer_tape(&ps, ids, &gout, true, Some(p), training);
            let Op::Linear { code, .. } = &t.nodes[h].op else {
                panic!("linear records one Linear node");
            };
            (bits(t.value(h)), code.is_some())
        };
        assert_eq!(run(false), run(true));
        assert!(!run(true).1, "no mask at p = 0");
    }

    /// An eval tape is forward-only: it keeps nothing a backward pass
    /// would read, so asking for one is a bug at the call site.
    #[test]
    #[should_panic(expected = "backward on an eval tape")]
    fn backward_on_an_eval_tape_panics() {
        let [x, w, b, gout] = linear_ref::inputs(3, 2, 4, 6);
        let (mut ps, ids) = layer_params(&x, &w, &b);
        let (mut t, _, loss) = layer_tape(&ps, ids, &gout, true, None, false);
        t.backward(loss, &mut ps);
    }

    #[test]
    fn into_value_moves_the_node_out() {
        let mut t = Tape::new(false, 0);
        let a = t.constant(DMat::filled(2, 3, 1.0));
        let b = t.scale(a, 2.0);
        let _c = t.constant(DMat::zeros(1, 1));
        assert_eq!(t.into_value(b), DMat::filled(2, 3, 2.0));
    }

    #[test]
    fn cross_entropy_perfect_prediction_small_loss() {
        let mut ps = ParamStore::new();
        let mut t = Tape::new(false, 0);
        let logits = t.constant(DMat::from_vec(2, 2, vec![10.0, -10.0, -10.0, 10.0]));
        let loss = t.softmax_cross_entropy(logits, Arc::new(vec![0, 1]));
        assert!(t.value(loss).get(0, 0) < 1e-6);
        let bad = t.constant(DMat::from_vec(2, 2, vec![-10.0, 10.0, 10.0, -10.0]));
        let loss2 = t.softmax_cross_entropy(bad, Arc::new(vec![0, 1]));
        assert!(t.value(loss2).get(0, 0) > 5.0);
        let _ = &mut ps;
    }

    #[test]
    fn lin_comb_gradients() {
        let mut ps = ParamStore::new();
        let theta = ps.add(
            "theta",
            DMat::from_vec(2, 1, vec![0.5, 2.0]),
            ParamGroup::Filter,
        );
        let mut t = Tape::new(true, 0);
        let t0 = t.constant(DMat::filled(2, 2, 1.0));
        let t1 = t.constant(DMat::filled(2, 2, 3.0));
        let th = t.param(&ps, theta);
        let out = t.lin_comb(&[t0, t1], th);
        assert_eq!(t.value(out).get(0, 0), 0.5 + 6.0);
        let loss = t.sum(out);
        t.backward(loss, &mut ps);
        // dθ_k = Σ entries of term k.
        assert_eq!(ps.grad(theta).get(0, 0), 4.0);
        assert_eq!(ps.grad(theta).get(1, 0), 12.0);
    }

    #[test]
    fn prop_backward_uses_adjoint() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let pm = Arc::new(PropMatrix::new(&g, 0.5));
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::eye(2), ParamGroup::Network);
        let mut t = Tape::new(true, 0);
        let x = t.constant(DMat::from_fn(3, 2, |r, c| (r + c) as f32));
        let wn = t.param(&ps, w);
        let h = t.matmul(x, wn);
        let p = t.prop(&pm, -1.0, 1.0, h); // L̃ h
        let loss = t.sum(p);
        t.backward(loss, &mut ps);
        // Gradient wrt w is xᵀ · L̃ᵀ · 1 — just check it's finite & nonzero-ish.
        assert!(ps.grad(w).norm().is_finite());
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let [x, w, b, gout] = linear_ref::inputs(5, 3, 4, 3);
        let (ps, ids) = layer_params(&x, &w, &b);
        for relu in [false, true] {
            let (with, h, _) = layer_tape(&ps, ids, &gout, relu, Some(0.5), false);
            let (without, h2, _) = layer_tape(&ps, ids, &gout, relu, None, false);
            assert_eq!(bits(with.value(h)), bits(without.value(h2)));
        }
    }

    #[test]
    fn dropout_train_mode_preserves_mean() {
        let mut t = Tape::new(true, 7);
        let x = t.constant(DMat::filled(100, 100, 1.0));
        let w = t.constant(DMat::eye(100));
        let b = t.constant(DMat::zeros(1, 100));
        let d = t.linear(x, w, b, false, Some(0.3));
        let mean: f64 = t.value(d).data().iter().map(|&v| v as f64).sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
    }

    /// The code the layer keeps for its backward pass against the
    /// reference's mask: the mask, and NaN where the ReLU was inactive.
    /// 37 × 23 = 851 elements are three whole draw chunks and a tail that
    /// is not a multiple of 8. At `p = 0` nothing is drawn or kept.
    #[test]
    fn dropout_matches_the_reference_formulation() {
        let [x, w, b, gout] = linear_ref::inputs(37, 5, 23, 4);
        let (ps, ids) = layer_params(&x, &w, &b);
        for relu in [false, true] {
            for p in [0.0f32, 0.1, 0.5, 0.9] {
                let want = linear_ref::layer(&x, &w, &b, relu, Some(p), 42, &gout);
                let (t, h, _) = layer_tape(&ps, ids, &gout, relu, Some(p), true);
                assert_eq!(bits(t.value(h)), bits(&want.value), "output at p = {p}");
                let Op::Linear { code, .. } = &t.nodes[h].op else {
                    panic!("linear records one Linear node");
                };
                match (code, want.mask) {
                    (None, None) => assert_eq!(p, 0.0),
                    (Some(code), Some(mask)) => {
                        let inactive = |i: usize| relu && want.y.data()[i] <= 0.0;
                        let expect: Vec<u32> = (0..mask.len())
                            .map(|i| {
                                if inactive(i) {
                                    f32::NAN
                                } else {
                                    mask.data()[i]
                                }
                                .to_bits()
                            })
                            .collect();
                        assert_eq!(bits(code), expect, "code at p = {p}, relu {relu}");
                    }
                    _ => panic!("p = {p} keeps the wrong dropout state"),
                }
            }
        }
    }

    #[test]
    fn gather_rows_backward_scatters() {
        let mut ps = ParamStore::new();
        let w = ps.add(
            "w",
            DMat::from_fn(3, 2, |r, c| (r + c) as f32),
            ParamGroup::Network,
        );
        let mut t = Tape::new(true, 0);
        let wn = t.param(&ps, w);
        let g = t.gather_rows(wn, Arc::new(vec![2, 2, 0]));
        let loss = t.sum(g);
        t.backward(loss, &mut ps);
        assert_eq!(ps.grad(w).get(2, 0), 2.0);
        assert_eq!(ps.grad(w).get(0, 0), 1.0);
        assert_eq!(ps.grad(w).get(1, 0), 0.0);
    }

    #[test]
    fn bce_gradient_sign() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::from_vec(1, 1, vec![0.0]), ParamGroup::Network);
        let mut t = Tape::new(true, 0);
        let x = t.constant(DMat::from_vec(2, 1, vec![1.0, 1.0]));
        let wn = t.param(&ps, w);
        let logits = t.matmul(x, wn);
        let loss = t.bce_with_logits(logits, Arc::new(vec![1.0, 1.0]));
        t.backward(loss, &mut ps);
        // Targets are 1, prediction 0.5 ⇒ gradient must push w upward (negative grad).
        assert!(ps.grad(w).get(0, 0) < 0.0);
    }

    #[test]
    fn recip_value_and_gradient() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::from_vec(1, 1, vec![2.0]), ParamGroup::Network);
        let mut t = Tape::new(true, 0);
        let wn = t.param(&ps, w);
        let r = t.recip(wn);
        assert!((t.value(r).get(0, 0) - 0.5).abs() < 1e-7);
        let loss = t.sum(r);
        t.backward(loss, &mut ps);
        // d(1/w)/dw = -1/w² = -0.25.
        assert!((ps.grad(w).get(0, 0) + 0.25).abs() < 1e-6);
    }
}
