//! Dense matrix multiplication kernels.
//!
//! The transformation stage of every model reduces to `H · W` (activations ×
//! weights) plus the two transposed products needed by backprop. Output rows
//! (for `Aᵀ·B`, output column panels) are distributed across the persistent
//! worker pool (see [`crate::runtime`]) and each worker's block runs through
//! the active compute backend ([`crate::backend`]): one register-blocked
//! AVX2+FMA panel kernel for all three products when the host supports it,
//! the portable `mul_add` loops otherwise. Every output element is one
//! k-ascending FMA chain owned by one lane, so the bits are the same under
//! either backend and at every pool width.
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
/// over `k` (nodes, large). The parallel path splits the output, never the
/// reduction: each pool lane owns a run of 16-column output panels (the SIMD
/// tile's width), packs only its own columns of `B` and runs the whole `k`
/// chain for each element it owns. Every element is therefore the serial
/// k-ascending FMA chain from `0.0`, so the product is bit-identical across
/// backends and pool widths. A product narrower than two panels runs
/// serially.
pub fn matmul_at_b(a: &DMat, b: &DMat) -> DMat {
    assert_eq!(a.rows(), b.rows(), "matmul_at_b leading dimension mismatch");
    let (k, m) = a.shape();
    let n = b.cols();
    let _sp = obs::span!("matmul", m = m, k = k, n = n);
    MATMUL_FLOPS.add(2 * (m * k * n) as u64);
    let mut out = DMat::zeros(m, n);
    let be = backend::for_gemm();
    let (adat, bdat) = (a.data(), b.data());
    let panels = n.div_ceil(backend::NR);
    let lanes = num_threads().min(panels);
    if lanes <= 1 || m * k * n < 1 << 14 {
        be.gemm_at_b(k, adat, m, bdat, n, out.data_mut());
        return out;
    }
    // Lane `i` owns output columns `cols(i) .. cols(i + 1)`: whole panels,
    // the last run ending at `n`.
    let cols = |i: usize| (i * panels / lanes * backend::NR).min(n);
    let blocks = run_map(lanes, |i| {
        let (j0, j1) = (cols(i), cols(i + 1));
        let mut block = vec![0.0f32; m * (j1 - j0)];
        be.gemm_at_b(k, adat, m, &bdat[j0..], n, &mut block);
        block
    });
    for (i, block) in blocks.iter().enumerate() {
        let (j0, j1) = (cols(i), cols(i + 1));
        for (orow, brow) in out
            .data_mut()
            .chunks_exact_mut(n)
            .zip(block.chunks_exact(j1 - j0))
        {
            orow[j0..j1].copy_from_slice(brow);
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

    fn bits(m: &DMat) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
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
    fn at_b_is_the_serial_chain_at_every_width_and_backend() {
        use crate::backend::BackendKind;
        let _l = crate::pin::lock();
        // (m, k, n): m off the 4-row tile and below the lane count; n off a
        // panel, below two panels and wide; k across the 256-row `KC` block.
        // Values are mixed-sign so any regrouped sum shows in the bits.
        let shapes = [
            (3, 700, 40),
            (6, 513, 67),
            (13, 300, 33),
            (7, 1100, 20),
            (9, 257, 130),
        ];
        for (m, k, n) in shapes {
            let a = DMat::from_fn(k, m, |r, c| ((r * 13 + c * 7) % 11) as f32 * 0.3 - 1.5);
            let b = DMat::from_fn(k, n, |r, c| ((r * 3 + c * 5) % 9) as f32 * 0.25 - 1.0);
            // The serial reference: per element one FMA chain from 0.0, k ascending.
            let chain = DMat::from_fn(m, n, |r, c| {
                (0..k).fold(0.0f32, |s, kk| a.get(kk, r).mul_add(b.get(kk, c), s))
            });
            let want = {
                let _t = crate::pin::threads(1);
                matmul_at_b(&a, &b)
            };
            assert_eq!(bits(&want), bits(&chain), "{m}x{k}x{n} at width 1");
            for kind in [BackendKind::Scalar, BackendKind::Simd] {
                let _b = crate::pin::backend(kind);
                for width in 2..=7 {
                    let _t = crate::pin::threads(width);
                    assert_eq!(
                        bits(&matmul_at_b(&a, &b)),
                        bits(&want),
                        "{m}x{k}x{n} at width {width} under {kind:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn large_parallel_path_matches_naive() {
        let a = DMat::from_fn(300, 64, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.1 - 0.5);
        let b = DMat::from_fn(64, 48, |r, c| ((r * 5 + c * 3) % 7) as f32 * 0.2 - 0.6);
        approx_eq(&matmul(&a, &b), &naive(&a, &b), 1e-3);
    }
}
