//! The layer `Tape::linear` records, written out as the four nodes a
//! framework's tape would hold — `matmul`, bias rows, ReLU, dropout — and
//! their backward passes, for the tests that pin the layer's bits to it.
//! `src/tape.rs`'s unit tests and `tests/linear_kernels.rs` pull this file
//! in by `#[path]`.
#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::Rng;
use sgnn_dense::{backend, matmul, rng as drng, DMat};

/// Forward value and gradients of one reference layer.
pub struct Reference {
    pub value: DMat,
    pub gx: DMat,
    pub gw: DMat,
    pub gb: DMat,
    /// `relu?(x·w + b)`, before dropout.
    pub y: DMat,
    /// The dropout mask, `None` for the identity.
    pub mask: Option<DMat>,
    /// The dropout stream after the mask was drawn.
    pub rng: SmallRng,
}

/// `relu?(x·w + b)`, then dropout at `dropout` with the stream seeded by
/// `seed`, and the gradients of `Σ value ⊙ gout`.
///
/// The dropout is the documented formulation: a zero-filled mask, one draw
/// per element in row-major order, `1 / (1 - p)` where the draw is `>= p`,
/// the output `y ⊙ mask`; at `p = 0` (or no dropout) the identity. The
/// backward pass is `relu_bwd(y, gout ⊙ mask)`, its `col_sums` for the
/// bias, and the two transposed products.
pub fn layer(
    x: &DMat,
    w: &DMat,
    b: &DMat,
    relu: bool,
    dropout: Option<f32>,
    seed: u64,
    gout: &DMat,
) -> Reference {
    let be = backend::for_elementwise();
    let mut y = matmul::matmul(x, w);
    for r in 0..y.rows() {
        for (o, &bb) in y.row_mut(r).iter_mut().zip(b.row(0)) {
            *o += bb;
        }
    }
    if relu {
        be.relu(y.data_mut());
    }
    let mut rng = drng::seeded(seed);
    let mask = dropout.filter(|&p| p > 0.0).map(|p| {
        let inv = 1.0 / (1.0 - p);
        let mut mask = DMat::zeros(y.rows(), y.cols());
        for m in mask.data_mut() {
            if rng.random::<f32>() >= p {
                *m = inv;
            }
        }
        mask
    });
    let mut value = y.clone();
    let mut g = gout.clone();
    if let Some(mask) = &mask {
        value.hadamard_assign(mask);
        g.hadamard_assign(mask);
    }
    if relu {
        be.relu_bwd(y.data(), g.data_mut());
    }
    let sums = g.col_sums();
    Reference {
        value,
        gx: matmul::matmul_a_bt(&g, w),
        gw: matmul::matmul_at_b(x, &g),
        gb: DMat::from_vec(1, sums.len(), sums.iter().map(|&s| s as f32).collect()),
        y,
        mask,
        rng,
    }
}

/// An `m × k` input, a `k × n` weight and a `1 × n` bias holding the values
/// that tell the layer's arms apart: ±0, negatives, a NaN, a row of zeros
/// whose pre-activation is an exact zero where the bias is `±0`; and an
/// output gradient with negatives and `-0.0`. `m ≥ 3`, `k ≥ 2`, `n ≥ 3`.
pub fn inputs(m: usize, k: usize, n: usize, seed: u64) -> [DMat; 4] {
    let mut rng = drng::seeded(seed);
    let mut x = drng::randn_mat(m, k, 1.0, &mut rng);
    x.row_mut(1).fill(0.0);
    x.row_mut(2)[0] = f32::NAN;
    x.data_mut()[1] = -0.0;
    let w = drng::randn_mat(k, n, 1.0, &mut rng);
    let mut b = drng::randn_mat(1, n, 1.0, &mut rng);
    b.data_mut()[0] = 0.0;
    b.data_mut()[1] = -0.0;
    let mut gout = drng::randn_mat(m, n, 1.0, &mut rng);
    gout.data_mut()[2] = -0.0;
    [x, w, b, gout]
}

/// The bits of every entry, which compares NaNs and signed zeros too.
pub fn bits(m: &DMat) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}
