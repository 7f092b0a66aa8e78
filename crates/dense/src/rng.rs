//! Seeded random-number helpers.
//!
//! Every experiment in the benchmark is parameterized by an explicit seed so
//! the 10-seed mean±std protocol of the paper is reproducible bit-for-bit.
//! `rand` 0.9 ships only uniform distributions, so the Gaussian sampler
//! (Box–Muller) and Glorot initializers live here.

use crate::mat::DMat;
use crate::runtime::run_chunks;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Creates the deterministic RNG used across the workspace.
pub fn seeded(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Normal draws per block of [`randn_mat`]: the block's uniform pairs
/// (256 KiB) stay in L2 between the serial draw and the pooled transform.
const RANDN_BLOCK: usize = 1 << 15;

/// The uniform pair one normal sample consumes, `u1` nudged away from zero
/// to avoid `ln(0)`.
fn uniform_pair(rng: &mut SmallRng) -> (f32, f32) {
    let u1: f32 = rng.random::<f32>().max(1e-12);
    let u2: f32 = rng.random();
    (u1, u2)
}

/// The Box–Muller transform of one uniform pair.
fn box_muller((u1, u2): (f32, f32)) -> f32 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// One standard-normal sample via Box–Muller.
pub fn randn(rng: &mut SmallRng) -> f32 {
    box_muller(uniform_pair(rng))
}

/// Matrix of i.i.d. `N(0, std²)` entries: entry `i` is the `i`-th
/// [`randn`] draw times `std`, at every pool width.
///
/// The RNG is sequential, the transform is not: each block's uniform pairs
/// are drawn serially into one reused buffer, then transformed on the
/// worker pool, each entry by one task with the same arithmetic.
pub fn randn_mat(rows: usize, cols: usize, std: f32, rng: &mut SmallRng) -> DMat {
    let mut data = vec![0.0; rows * cols];
    let mut pairs = Vec::with_capacity(RANDN_BLOCK.min(data.len()));
    for block in data.chunks_mut(RANDN_BLOCK) {
        pairs.clear();
        pairs.extend((0..block.len()).map(|_| uniform_pair(rng)));
        let len = block.len();
        run_chunks(block, len, 1, |first, out| {
            for (x, &p) in out.iter_mut().zip(&pairs[first..]) {
                *x = box_muller(p) * std;
            }
        });
    }
    DMat::from_vec(rows, cols, data)
}

/// Matrix of i.i.d. uniform entries on `[lo, hi)`.
pub(crate) fn uniform_mat(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut SmallRng) -> DMat {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(rng.random_range(lo..hi));
    }
    DMat::from_vec(rows, cols, data)
}

/// Glorot/Xavier-uniform initialization for an `fan_in × fan_out` weight.
pub fn glorot(fan_in: usize, fan_out: usize, rng: &mut SmallRng) -> DMat {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform_mat(fan_in, fan_out, -limit, limit, rng)
}

/// In-place Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// A random permutation of `0..n` as `u32` indices.
pub fn permutation(n: usize, rng: &mut SmallRng) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut idx, rng);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let a = randn_mat(4, 4, 1.0, &mut seeded(7));
        let b = randn_mat(4, 4, 1.0, &mut seeded(7));
        assert_eq!(a, b);
        let c = randn_mat(4, 4, 1.0, &mut seeded(8));
        assert_ne!(a, c);
    }

    #[test]
    fn randn_mat_is_the_serial_draws_at_every_width() {
        let _l = crate::pin::lock();
        // Three blocks, the last one short.
        let (rows, cols) = (2 * RANDN_BLOCK / 7 + 5, 7);
        let mut rng = seeded(11);
        let serial: Vec<f32> = (0..rows * cols).map(|_| randn(&mut rng) * 0.5).collect();
        let next = rng.random::<u64>();
        for width in [1, 2, 4] {
            let _t = crate::pin::threads(width);
            let mut rng = seeded(11);
            let m = randn_mat(rows, cols, 0.5, &mut rng);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(m.data()), bits(&serial), "width {width}");
            assert_eq!(
                rng.random::<u64>(),
                next,
                "width {width}: RNG left elsewhere"
            );
            assert_eq!(m.into_vec().capacity(), rows * cols);
        }
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = seeded(42);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let x = randn(&mut rng) as f64;
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation(100, &mut seeded(3));
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn glorot_within_limit() {
        let w = glorot(64, 32, &mut seeded(1));
        let limit = (6.0 / 96.0f32).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= limit));
    }
}
