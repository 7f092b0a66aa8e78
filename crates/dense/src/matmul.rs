//! Dense matrix multiplication kernels.
//!
//! The transformation stage of every model reduces to `H · W` (activations ×
//! weights) plus the two transposed products needed by backprop. Output rows
//! are distributed across the persistent worker pool (see [`crate::runtime`])
//! and each worker's chunk runs through the active compute backend
//! ([`crate::backend`]): one register-blocked AVX2+FMA panel kernel for all
//! three products when the host supports it, the portable `mul_add` loops
//! otherwise — the same bits either way.
//!
//! The historical `av == 0.0` skip in the inner loop is gone with the
//! backend refactor: activations are dense after the first layer, the branch
//! blocked vectorization, and `fma(b, 0.0, o) == o` for finite `b`, so its
//! removal is invisible in results (`BENCH_gemm.json` records the measured
//! kernel effect).

use crate::backend;
use crate::mat::DMat;
use crate::runtime::{num_threads, run_chunks, run_map};
use sgnn_obs as obs;

/// Multiply-accumulate count across all three kernels (2 flops each); the
/// transformation-side twin of `spmm.flops`.
static MATMUL_FLOPS: obs::Counter = obs::Counter::new("matmul.flops");

/// Per-chunk GEMM microkernel time: one sample per row-chunk a lane runs
/// through the backend, so the spread exposes chunk imbalance and packing
/// stalls rather than just the whole-matmul wall time.
static GEMM_BLOCK_NS: obs::Histogram = obs::Histogram::new("gemm.block_ns");

/// `A (m×k) · B (k×n) -> (m×n)`.
pub fn matmul(a: &DMat, b: &DMat) -> DMat {
    gemm_rows(a, b, |_| {})
}

/// One dense layer, `A (m×k) · W (k×n) + bias`, then a ReLU when `relu` is
/// set; `bias` is `1 × n`. Each lane adds the bias row and applies the ReLU
/// to the row chunk it has just multiplied, while the chunk is in cache:
/// the operations of adding the bias to the finished product and then
/// applying the ReLU to it, in the same order, so the same bits.
pub fn linear(a: &DMat, w: &DMat, bias: &DMat, relu: bool) -> DMat {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), w.cols(), "bias width mismatch");
    let brow = bias.data();
    let be = backend::for_elementwise();
    gemm_rows(a, w, |chunk| {
        for row in chunk.chunks_exact_mut(brow.len()) {
            for (o, &bb) in row.iter_mut().zip(brow) {
                *o += bb;
            }
        }
        if relu {
            be.relu(chunk);
        }
    })
}

/// `A · B` with `epilogue` run on each finished row chunk by the lane that
/// computed it.
fn gemm_rows(a: &DMat, b: &DMat, epilogue: impl Fn(&mut [f32]) + Sync) -> DMat {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul inner dimension mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let _sp = obs::span!("matmul", m = m, k = k, n = n);
    MATMUL_FLOPS.add(2 * (m * k * n) as u64);
    let mut out = DMat::zeros(m, n);
    if out.is_empty() {
        return out; // `run_chunks` cannot cut rows of width 0
    }
    let bdat = b.data();
    let adat = a.data();
    let be = backend::for_gemm();
    run_chunks(out.data_mut(), m, n, |first, chunk| {
        let t = std::time::Instant::now();
        let rows = chunk.len() / n;
        let ablock = &adat[first * k..(first + rows) * k];
        be.gemm_block(ablock, k, bdat, n, chunk);
        GEMM_BLOCK_NS.record_duration(t.elapsed());
        epilogue(chunk);
    });
    out
}

/// `Aᵀ (k×m)ᵀ · B (k×n) -> (m×n)`, i.e. `matmul(a.transpose(), b)` without
/// materializing the transpose. Used for weight gradients `Xᵀ·dY`.
///
/// The output is `m × n` (feature × feature, small) but the reduction runs
/// over `k` (nodes, large), so the parallel path splits `k` across pool
/// lanes into per-task partial accumulators and sums them in fixed chunk
/// order. That reduction order is deterministic for a given pool width —
/// and the same bits under either backend — but regroups the serial
/// `k`-order sum, so results at different widths can differ in the last
/// float bits: across widths weight gradients are tolerance-checked, never
/// byte-compared.
pub fn matmul_at_b(a: &DMat, b: &DMat) -> DMat {
    assert_eq!(a.rows(), b.rows(), "matmul_at_b leading dimension mismatch");
    let (k, m) = a.shape();
    let n = b.cols();
    let _sp = obs::span!("matmul", m = m, k = k, n = n);
    MATMUL_FLOPS.add(2 * (m * k * n) as u64);
    let mut out = DMat::zeros(m, n);
    let be = backend::for_gemm();
    let chunks = num_threads().min(k.max(1));
    let (adat, bdat) = (a.data(), b.data());
    if chunks <= 1 || m * k * n < 1 << 14 {
        be.gemm_at_b(k, adat, m, bdat, n, out.data_mut());
        return out;
    }
    let per = k.div_ceil(chunks);
    let partials = run_map(chunks, |i| {
        let (k0, k1) = ((i * per).min(k), ((i + 1) * per).min(k));
        let mut part = vec![0.0f32; m * n];
        be.gemm_at_b(
            k1 - k0,
            &adat[k0 * m..k1 * m],
            m,
            &bdat[k0 * n..k1 * n],
            n,
            &mut part,
        );
        part
    });
    let odat = out.data_mut();
    for part in &partials {
        for (o, &p) in odat.iter_mut().zip(part) {
            *o += p;
        }
    }
    out
}

/// `A (m×k) · Bᵀ (n×k)ᵀ -> (m×n)` without materializing the transpose.
/// Used for input gradients `dY·Wᵀ`.
///
/// Each output element is one k-ascending FMA chain from `0.0` under either
/// backend ([`backend::Backend::gemm_a_bt`]), so the product is bit-identical
/// across backends and pool widths.
pub fn matmul_a_bt(a: &DMat, b: &DMat) -> DMat {
    assert_eq!(a.cols(), b.cols(), "matmul_a_bt inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.rows();
    let _sp = obs::span!("matmul", m = m, k = k, n = n);
    MATMUL_FLOPS.add(2 * (m * k * n) as u64);
    let mut out = DMat::zeros(m, n);
    if out.is_empty() {
        return out;
    }
    let adat = a.data();
    let bdat = b.data();
    let be = backend::for_gemm();
    run_chunks(out.data_mut(), m, n, |first, chunk| {
        let rows = chunk.len() / n;
        let ablock = &adat[first * k..(first + rows) * k];
        be.gemm_a_bt(ablock, k, bdat, n, chunk);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &DMat, b: &DMat) -> DMat {
        let mut out = DMat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn approx_eq(a: &DMat, b: &DMat, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let a = DMat::from_fn(5, 7, |r, c| ((r * 7 + c) % 5) as f32 - 2.0);
        let b = DMat::from_fn(7, 3, |r, c| ((r + 2 * c) % 3) as f32 - 1.0);
        approx_eq(&matmul(&a, &b), &naive(&a, &b), 1e-5);
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = DMat::from_fn(6, 4, |r, c| (r as f32 - c as f32) * 0.5);
        let b = DMat::from_fn(6, 3, |r, c| (r * c) as f32 * 0.1);
        approx_eq(&matmul_at_b(&a, &b), &naive(&a.transpose(), &b), 1e-4);
        let c = DMat::from_fn(5, 4, |r, c| (r + c) as f32 * 0.2);
        approx_eq(&matmul_a_bt(&a, &c), &naive(&a, &c.transpose()), 1e-4);
    }

    #[test]
    fn identity_is_neutral() {
        let a = DMat::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        approx_eq(&matmul(&a, &DMat::eye(4)), &a, 0.0);
        approx_eq(&matmul(&DMat::eye(4), &a), &a, 0.0);
    }

    #[test]
    fn at_b_parallel_path_matches_naive_within_tolerance() {
        // The reduction groups partial sums by lane, so the width must not
        // change between the two calls compared below.
        let _g = crate::runtime::test_lock::pin_threads(4);
        // 2000·16·32 ≈ 1M flops clears the parallel cutoff; values are
        // mixed-sign so cancellation would expose an incorrect reduction.
        let a = DMat::from_fn(2000, 16, |r, c| ((r * 13 + c * 7) % 11) as f32 * 0.3 - 1.5);
        let b = DMat::from_fn(2000, 32, |r, c| ((r * 3 + c * 5) % 9) as f32 * 0.25 - 1.0);
        let got = matmul_at_b(&a, &b);
        approx_eq(&got, &naive(&a.transpose(), &b), 1e-1);
        // Deterministic for a fixed pool width: repeated calls agree exactly.
        assert_eq!(got, matmul_at_b(&a, &b));
    }

    #[test]
    fn large_parallel_path_matches_naive() {
        let a = DMat::from_fn(300, 64, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.1 - 0.5);
        let b = DMat::from_fn(64, 48, |r, c| ((r * 5 + c * 3) % 7) as f32 * 0.2 - 0.6);
        approx_eq(&matmul(&a, &b), &naive(&a, &b), 1e-3);
    }
}
