//! Portable reference backend.
//!
//! These are the pre-refactor inner loops, moved verbatim behind the
//! [`Backend`](super::Backend) trait: k-ordered `mul_add` accumulation for
//! GEMM and lane-wise `mul_add` AXPY (the two transposed GEMM products, the
//! `f64`-summed softmax from `stats.rs` and the CRC32 table loop are the
//! trait's provided methods). Selecting this backend
//! (`SGNN_BACKEND=scalar`) reproduces historical results bit for bit; it is
//! also the ground truth the `backend_equivalence` suite compares the SIMD
//! kernels against.
//!
//! The one deliberate change from the pre-backend code: the `av == 0.0`
//! skip in the GEMM inner loop is gone. The branch blocked vectorization
//! and mispredicts on dense activations, and `fma(b, 0.0, o) == o` for
//! every finite `b`, so removing it cannot change results on the finite
//! data these kernels see (`BENCH_gemm.json` records the measured effect).

use super::Backend;

/// The scalar reference implementation.
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm_block(&self, a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        let ns = n.max(1);
        for (r, orow) in out.chunks_exact_mut(ns).enumerate() {
            let arow = &a[r * k..(r + 1) * k];
            for (kk, &av) in arow.iter().enumerate() {
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o = bv.mul_add(av, *o);
                }
            }
        }
    }

    fn axpy(&self, alpha: f32, x: &[f32], out: &mut [f32]) {
        for (o, &xv) in out.iter_mut().zip(x) {
            *o = xv.mul_add(alpha, *o);
        }
    }

    fn scale(&self, s: f32, x: &mut [f32]) {
        x.iter_mut().for_each(|v| *v *= s);
    }

    fn add_assign(&self, a: &mut [f32], b: &[f32]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
    }

    fn sub_assign(&self, a: &mut [f32], b: &[f32]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x -= y;
        }
    }

    fn hadamard(&self, a: &mut [f32], b: &[f32]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x *= y;
        }
    }

    fn relu(&self, x: &mut [f32]) {
        x.iter_mut().for_each(|v| *v = v.max(0.0));
    }

    fn relu_bwd(&self, y: &[f32], g: &mut [f32]) {
        for (gv, &yv) in g.iter_mut().zip(y) {
            if yv <= 0.0 {
                *gv = 0.0;
            }
        }
    }
}
