//! AVX2+FMA microkernels (`x86_64` only).
//!
//! Selected at runtime behind `is_x86_feature_detected!("avx2") && ("fma")`
//! — see [`super::simd_supported`]. Every `unsafe` block in this module is
//! reachable only through [`super::active`]/[`super::set_backend`], both of
//! which refuse to hand out this backend unless the CPU supports the
//! required features, so the `#[target_feature]` calls are always sound.
//!
//! # GEMM microkernel
//!
//! [`Avx2Backend::gemm_block`] is a register-blocked panel kernel:
//!
//! * B (`k × n`) is packed once per call into `NR`-column panels laid out
//!   k-major (`panel[kk][0..NR]` contiguous), so the inner loop streams the
//!   panel sequentially instead of striding `n` floats between `k` steps.
//!   The last panel is zero-padded to `NR` — `fma(a, 0.0, acc) == acc`, so
//!   padding never perturbs results. The pack buffer is thread-local and
//!   reused across calls (each pool lane packs its own chunk's view).
//! * The microkernel computes an `MR × NR` (4 × 16) output block held in 8
//!   YMM accumulators, walking `k` in ascending order with one FMA chain per
//!   output element — the same reduction order as the scalar kernel, which
//!   is what makes the SIMD GEMM bit-identical to the scalar backend.
//!   Vector lanes parallelize across *columns* (independent sums), never
//!   across `k`.
//! * Row tails (`rows % MR`) reuse the same kernel monomorphized at
//!   `MR_ = 1`; column tails (`n % NR`) go through a zero-padded stack
//!   buffer for load/store so out-of-bounds lanes are never touched.
//!
//! # Everything else
//!
//! AXPY and the elementwise ops are straight 8-lane loops with scalar
//! `mul_add` tails (lane-wise, bit-exact). Softmax is the trait's shared
//! provided methods; only their final `scale` lands here.
//! [`Avx2Backend::dot`] is the one reassociating kernel (8 lanes
//! + horizontal sum); its consumer `matmul_a_bt` is tolerance-tested.
//!
//! # CRC32
//!
//! [`Avx2Backend::crc32_update`] folds inputs of at least [`CRC_FOLD_MIN`]
//! bytes with carry-less multiplies ([`crc32_fold`]) when the CPU also has
//! `pclmulqdq` — a separate feature bit that AVX2 does not imply, so it is
//! probed on its own. Shorter inputs, the sub-16-byte tail and CPUs without
//! the instruction run the trait's table loop; both produce the same
//! register for the same bytes.

use std::arch::x86_64::*;
use std::cell::RefCell;

use super::{Backend, ScalarBackend};

/// Columns per packed panel / microkernel tile (two YMM vectors).
const NR: usize = 16;
/// Rows per microkernel tile.
const MR: usize = 4;

/// Below this flop count the packing + dispatch overhead beats the vector
/// win; delegate to the scalar kernel (bit-identical, so the cutoff is a
/// pure performance knob).
const GEMM_SIMD_CUTOFF: usize = 1 << 10;

/// Shortest input the folding CRC kernel accepts: four 16-byte lanes.
const CRC_FOLD_MIN: usize = 64;

thread_local! {
    /// Per-thread B-panel pack buffer, grown on demand and reused.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The AVX2+FMA backend.
pub struct Avx2Backend;

impl Backend for Avx2Backend {
    fn name(&self) -> &'static str {
        "avx2fma"
    }

    fn gemm_block(&self, a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        let rows = out.len() / n.max(1);
        if n < 8 || k == 0 || rows * k * n < GEMM_SIMD_CUTOFF {
            ScalarBackend.gemm_block(a, k, b, n, out);
            return;
        }
        // SAFETY: this backend is only dispatched on hosts where
        // `simd_supported()` returned true (see module docs).
        unsafe { gemm_packed(a, k, b, n, rows, out) }
    }

    fn dot(&self, x: &[f32], y: &[f32]) -> f32 {
        let len = x.len().min(y.len());
        if len < 16 {
            return ScalarBackend.dot(x, y);
        }
        // SAFETY: feature-checked at selection; len bounds both slices.
        unsafe { dot_avx2(x.as_ptr(), y.as_ptr(), len) }
    }

    fn axpy(&self, alpha: f32, x: &[f32], out: &mut [f32]) {
        let len = x.len().min(out.len());
        // SAFETY: feature-checked at selection; len bounds both slices.
        unsafe { axpy_avx2(alpha, x.as_ptr(), out.as_mut_ptr(), len) }
    }

    fn scale(&self, s: f32, x: &mut [f32]) {
        // SAFETY: feature-checked at selection.
        unsafe { scale_avx2(s, x.as_mut_ptr(), x.len()) }
    }

    fn add_assign(&self, a: &mut [f32], b: &[f32]) {
        let len = a.len().min(b.len());
        // SAFETY: feature-checked at selection; len bounds both slices.
        unsafe { add_avx2(a.as_mut_ptr(), b.as_ptr(), len) }
    }

    fn sub_assign(&self, a: &mut [f32], b: &[f32]) {
        let len = a.len().min(b.len());
        // SAFETY: feature-checked at selection; len bounds both slices.
        unsafe { sub_avx2(a.as_mut_ptr(), b.as_ptr(), len) }
    }

    fn hadamard(&self, a: &mut [f32], b: &[f32]) {
        let len = a.len().min(b.len());
        // SAFETY: feature-checked at selection; len bounds both slices.
        unsafe { mul_avx2(a.as_mut_ptr(), b.as_ptr(), len) }
    }

    fn relu(&self, x: &mut [f32]) {
        // SAFETY: feature-checked at selection.
        unsafe { relu_avx2(x.as_mut_ptr(), x.len()) }
    }

    fn relu_bwd(&self, y: &[f32], g: &mut [f32]) {
        let len = y.len().min(g.len());
        // SAFETY: feature-checked at selection; len bounds both slices.
        unsafe { relu_bwd_avx2(y.as_ptr(), g.as_mut_ptr(), len) }
    }

    fn crc32_update(&self, crc: u32, bytes: &[u8]) -> u32 {
        // std caches the CPUID probe behind one relaxed atomic load.
        if bytes.len() < CRC_FOLD_MIN || !std::arch::is_x86_feature_detected!("pclmulqdq") {
            return ScalarBackend.crc32_update(crc, bytes);
        }
        // SAFETY: `pclmulqdq` was detected on the line above (AVX2+FMA at
        // selection do not imply it) and `bytes.len() >= CRC_FOLD_MIN`.
        let (crc, tail) = unsafe { crc32_fold(crc, bytes) };
        ScalarBackend.crc32_update(crc, tail)
    }
}

/// Packs `b` (`k × n`, row-major) into `NR`-column, k-major panels,
/// zero-padding the last panel to `NR`.
fn pack_b(b: &[f32], k: usize, n: usize, buf: &mut Vec<f32>) {
    let npanels = n.div_ceil(NR);
    buf.clear();
    buf.resize(npanels * k * NR, 0.0);
    for p in 0..npanels {
        let j0 = p * NR;
        let tw = NR.min(n - j0);
        let panel = &mut buf[p * k * NR..(p + 1) * k * NR];
        for kk in 0..k {
            let dst = &mut panel[kk * NR..kk * NR + NR];
            dst[..tw].copy_from_slice(&b[kk * n + j0..kk * n + j0 + tw]);
            if tw < NR {
                dst[tw..].fill(0.0);
            }
        }
    }
}

/// Packed-panel GEMM driver: `out += a · b` for `rows × k` by `k × n`.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and that `a`, `b`, `out` cover
/// `rows*k`, `k*n`, and `rows*n` elements respectively.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_packed(a: &[f32], k: usize, b: &[f32], n: usize, rows: usize, out: &mut [f32]) {
    PACK_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        pack_b(b, k, n, &mut buf);
        let npanels = n.div_ceil(NR);
        let aptr = a.as_ptr();
        let optr = out.as_mut_ptr();
        for p in 0..npanels {
            let j0 = p * NR;
            let tw = NR.min(n - j0);
            let panel = buf.as_ptr().add(p * k * NR);
            let mut r = 0;
            while r + MR <= rows {
                tile::<MR>(aptr.add(r * k), k, panel, optr.add(r * n + j0), n, tw);
                r += MR;
            }
            while r < rows {
                tile::<1>(aptr.add(r * k), k, panel, optr.add(r * n + j0), n, tw);
                r += 1;
            }
        }
    });
}

/// `MR_ × NR` register tile: `out_tile += a_rows · panel`, one FMA chain per
/// output element, `k` ascending (the bit-exactness invariant). `tw < NR`
/// routes loads/stores through a zero-padded stack buffer.
///
/// # Safety
/// Caller must ensure AVX2+FMA, `a` covers `MR_ * k` elements, `panel`
/// covers `k * NR`, and `out` covers `MR_` rows of stride `stride` with at
/// least `tw` valid columns.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile<const MR_: usize>(
    a: *const f32,
    k: usize,
    panel: *const f32,
    out: *mut f32,
    stride: usize,
    tw: usize,
) {
    let mut acc = [[_mm256_setzero_ps(); 2]; MR_];
    let mut tmp = [0.0f32; NR];
    for (r, accr) in acc.iter_mut().enumerate() {
        if tw == NR {
            accr[0] = _mm256_loadu_ps(out.add(r * stride));
            accr[1] = _mm256_loadu_ps(out.add(r * stride + 8));
        } else {
            tmp = [0.0; NR];
            std::ptr::copy_nonoverlapping(out.add(r * stride), tmp.as_mut_ptr(), tw);
            accr[0] = _mm256_loadu_ps(tmp.as_ptr());
            accr[1] = _mm256_loadu_ps(tmp.as_ptr().add(8));
        }
    }
    for kk in 0..k {
        let b0 = _mm256_loadu_ps(panel.add(kk * NR));
        let b1 = _mm256_loadu_ps(panel.add(kk * NR + 8));
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*a.add(r * k + kk));
            accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
            accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        if tw == NR {
            _mm256_storeu_ps(out.add(r * stride), accr[0]);
            _mm256_storeu_ps(out.add(r * stride + 8), accr[1]);
        } else {
            _mm256_storeu_ps(tmp.as_mut_ptr(), accr[0]);
            _mm256_storeu_ps(tmp.as_mut_ptr().add(8), accr[1]);
            std::ptr::copy_nonoverlapping(tmp.as_ptr(), out.add(r * stride), tw);
        }
    }
}

/// One folding step: multiplies the two 64-bit halves of `acc` by the two
/// constants in `keys` (which shift it forward by the distance the pair
/// encodes, modulo the CRC polynomial) and absorbs the next 16 input bytes.
///
/// # Safety
/// The CPU must support `pclmulqdq`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
unsafe fn fold16(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
    let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// CRC32 (reflected IEEE polynomial) of the whole 16-byte blocks of `bytes`
/// by the folding method of Gopal et al., *Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction* (Intel, 2009): four 16-byte
/// lanes are folded 64 bytes forward per step (`k1`, `k2`), merged into one
/// lane (`k3`, `k4`), folded over the remaining blocks, then reduced
/// 128 → 96 → 64 bits (`k4`, `k5`) and to 32 by a Barrett step (`μ`, `P`).
/// `crc` and the result are the raw shift register — no initial or final
/// inversion — so calls chain with the table loop in either order. Returns
/// the register and the unprocessed tail (fewer than 16 bytes).
///
/// # Safety
/// The CPU must support `pclmulqdq` (SSE2 is part of the `x86_64`
/// baseline), and `bytes.len()` must be at least [`CRC_FOLD_MIN`].
#[target_feature(enable = "pclmulqdq")]
unsafe fn crc32_fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
    // x^(512±32), x^(128±32), x^64 mod P, bit-reflected; P and μ = ⌊x^64/P⌋.
    let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4);
    let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0);
    let k5 = _mm_set_epi64x(0, 0x01_63cd_6124);
    let p_mu = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641);
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    // Unaligned load of a block of exactly 16 bytes: a quarter of a 64-byte
    // chunk or one `chunks_exact(16)` item, never less.
    let load = |block: &[u8]| _mm_loadu_si128(block.as_ptr().cast());

    let (body, tail) = bytes.split_at(bytes.len() & !15);
    let mut quads = body.chunks_exact(64);
    let first = quads.next().expect("caller guarantees 64 bytes");
    let mut x0 = _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(crc as i32));
    let mut x1 = load(&first[16..32]);
    let mut x2 = load(&first[32..48]);
    let mut x3 = load(&first[48..]);
    for quad in &mut quads {
        x0 = fold16(x0, load(&quad[..16]), k1k2);
        x1 = fold16(x1, load(&quad[16..32]), k1k2);
        x2 = fold16(x2, load(&quad[32..48]), k1k2);
        x3 = fold16(x3, load(&quad[48..]), k1k2);
    }
    let mut x = fold16(x0, x1, k3k4);
    x = fold16(x, x2, k3k4);
    x = fold16(x, x3, k3k4);
    for block in quads.remainder().chunks_exact(16) {
        x = fold16(x, load(block), k3k4);
    }

    // 128 → 96 bits: low half times k4, onto the high half.
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
        _mm_srli_si128::<8>(x),
    );
    // 96 → 64 bits: low word times k5, onto the upper 64.
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
        _mm_srli_si128::<4>(x),
    );
    // Barrett: T1 = low32(x)·μ, T2 = low32(T1)·P, crc = bits 32..64 of x ⊕ T2.
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
    let folded = _mm_srli_si128::<4>(_mm_xor_si128(x, t2));
    (_mm_cvtsi128_si32(folded) as u32, tail)
}

/// # Safety
/// AVX2+FMA available; `x` and `y` cover `len` elements.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2(x: *const f32, y: *const f32, len: usize) -> f32 {
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= len {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(x.add(i)), _mm256_loadu_ps(y.add(i)), acc);
        i += 8;
    }
    // Horizontal sum (reassociates — documented tolerance kernel).
    let hi = _mm256_extractf128_ps(acc, 1);
    let lo = _mm256_castps256_ps128(acc);
    let s4 = _mm_add_ps(lo, hi);
    let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1));
    let mut sum = _mm_cvtss_f32(s1);
    while i < len {
        sum = (*x.add(i)).mul_add(*y.add(i), sum);
        i += 1;
    }
    sum
}

/// # Safety
/// AVX2+FMA available; `x` and `out` cover `len` elements.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_avx2(alpha: f32, x: *const f32, out: *mut f32, len: usize) {
    let av = _mm256_set1_ps(alpha);
    let mut i = 0;
    while i + 8 <= len {
        let o = _mm256_loadu_ps(out.add(i));
        let xv = _mm256_loadu_ps(x.add(i));
        _mm256_storeu_ps(out.add(i), _mm256_fmadd_ps(xv, av, o));
        i += 8;
    }
    while i < len {
        *out.add(i) = (*x.add(i)).mul_add(alpha, *out.add(i));
        i += 1;
    }
}

/// # Safety
/// AVX2 available; `x` covers `len` elements.
#[target_feature(enable = "avx2")]
unsafe fn scale_avx2(s: f32, x: *mut f32, len: usize) {
    let sv = _mm256_set1_ps(s);
    let mut i = 0;
    while i + 8 <= len {
        _mm256_storeu_ps(x.add(i), _mm256_mul_ps(_mm256_loadu_ps(x.add(i)), sv));
        i += 8;
    }
    while i < len {
        *x.add(i) *= s;
        i += 1;
    }
}

/// # Safety
/// AVX2 available; `a` and `b` cover `len` elements.
#[target_feature(enable = "avx2")]
unsafe fn add_avx2(a: *mut f32, b: *const f32, len: usize) {
    let mut i = 0;
    while i + 8 <= len {
        let v = _mm256_add_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)));
        _mm256_storeu_ps(a.add(i), v);
        i += 8;
    }
    while i < len {
        *a.add(i) += *b.add(i);
        i += 1;
    }
}

/// # Safety
/// AVX2 available; `a` and `b` cover `len` elements.
#[target_feature(enable = "avx2")]
unsafe fn sub_avx2(a: *mut f32, b: *const f32, len: usize) {
    let mut i = 0;
    while i + 8 <= len {
        let v = _mm256_sub_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)));
        _mm256_storeu_ps(a.add(i), v);
        i += 8;
    }
    while i < len {
        *a.add(i) -= *b.add(i);
        i += 1;
    }
}

/// # Safety
/// AVX2 available; `a` and `b` cover `len` elements.
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2(a: *mut f32, b: *const f32, len: usize) {
    let mut i = 0;
    while i + 8 <= len {
        let v = _mm256_mul_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)));
        _mm256_storeu_ps(a.add(i), v);
        i += 8;
    }
    while i < len {
        *a.add(i) *= *b.add(i);
        i += 1;
    }
}

/// # Safety
/// AVX2 available; `x` covers `len` elements.
#[target_feature(enable = "avx2")]
unsafe fn relu_avx2(x: *mut f32, len: usize) {
    // `maxps(x, 0)` matches `f32::max(x, 0.0)` lane-wise: NaN inputs and
    // `-0.0` both produce `+0.0` under either form.
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= len {
        _mm256_storeu_ps(x.add(i), _mm256_max_ps(_mm256_loadu_ps(x.add(i)), zero));
        i += 8;
    }
    while i < len {
        *x.add(i) = (*x.add(i)).max(0.0);
        i += 1;
    }
}

/// # Safety
/// AVX2 available; `y` and `g` cover `len` elements.
#[target_feature(enable = "avx2")]
unsafe fn relu_bwd_avx2(y: *const f32, g: *mut f32, len: usize) {
    // mask = (y <= 0), ordered-quiet so NaN y keeps g — exactly the scalar
    // `if yv <= 0.0 { g = 0 }` comparison semantics.
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= len {
        let mask = _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_loadu_ps(y.add(i)), zero);
        let gv = _mm256_andnot_ps(mask, _mm256_loadu_ps(g.add(i)));
        _mm256_storeu_ps(g.add(i), gv);
        i += 8;
    }
    while i < len {
        if *y.add(i) <= 0.0 {
            *g.add(i) = 0.0;
        }
        i += 1;
    }
}
