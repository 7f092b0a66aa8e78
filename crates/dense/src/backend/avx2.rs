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
//! All three products — [`Avx2Backend::gemm_block`] (`A·B`),
//! [`Avx2Backend::gemm_at_b`] (`Aᵀ·B`) and [`Avx2Backend::gemm_a_bt`]
//! (`A·Bᵀ`) — are one register-blocked panel kernel ([`tile`]) under one
//! driver ([`gemm_packed`]); they differ in how A is addressed and how B is
//! packed:
//!
//! * The B operand is packed into `NR`-column panels laid out k-major
//!   (`panel[kk][0..NR]` contiguous), so the inner loop streams the panel
//!   sequentially: [`pack_b`] copies rows of a `k × n` matrix, [`pack_bt`]
//!   transposes an `n × k` one on the way in. The last panel is zero-padded
//!   to `NR` — `fma(a, 0.0, acc) == acc`, so padding never perturbs
//!   results. The pack buffer is thread-local and reused across calls (each
//!   pool lane packs its own chunk's view).
//! * The microkernel computes an `MR × NR` (4 × 16) output block held in 8
//!   YMM accumulators, walking `k` in ascending order with one FMA chain per
//!   output element — the reduction order of the scalar kernels (the
//!   `mul_add` row loop, the row-AXPY per `(k, r)`, the sequential dot),
//!   which is what makes all three products bit-identical to the scalar
//!   backend. Vector lanes parallelize across *columns* (independent sums),
//!   never across `k`.
//! * A is never packed: the tile takes a row stride and a k stride.
//!   Row-major A is `(k, 1)`; the `k × m` operand of `Aᵀ·B` is `(1, m)`, so
//!   the four broadcasts of one k step read four consecutive floats.
//! * `Aᵀ·B` reduces over the long dimension, so its panels are cut into
//!   [`KC`]-row blocks that stay in L1; the chains carry from block to block
//!   through `out`.
//! * Row tails (`rows % MR`) reuse the same kernel monomorphized at
//!   `MR_ = 1`; column tails (`n % NR`, and every `n < NR`) go through a
//!   zero-padded stack buffer for load/store so out-of-bounds lanes are
//!   never touched.
//!
//! # SpMM row kernel
//!
//! [`Avx2Backend::spmm_row`] computes one output row of a sparse product
//! with the row in registers ([`spmm_row_avx2`]): per strip of up to 64
//! columns, eight accumulators take one FMA per edge and are stored once,
//! where the reference loads and stores the whole row per edge. The safe
//! wrapper checks every bound the raw-pointer loop relies on.
//!
//! # Everything else
//!
//! AXPY and the elementwise ops are straight 8-lane loops with scalar
//! `mul_add` tails (lane-wise, bit-exact). Softmax is the trait's shared
//! provided methods; only their final `scale` lands here.
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
/// pure performance knob). It also keeps every zero dimension out of the
/// driver. There is no width cutoff: at `n` = 7 and 2 the padded tile
/// measured 48× and 14× the scalar loop (`BENCH_gemm.json`, `gemm_narrow`).
const GEMM_SIMD_CUTOFF: usize = 1 << 10;

/// Rows of `k` per packed block of `Aᵀ·B`: a `KC × NR` panel is 16 KiB and
/// stays in L1 while every row tile passes over it.
const KC: usize = 256;

/// Shortest input the folding CRC kernel accepts: four 16-byte lanes.
const CRC_FOLD_MIN: usize = 64;

thread_local! {
    /// Per-thread B-panel pack buffer, grown on demand and reused.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The AVX2+FMA backend.
pub(crate) struct Avx2Backend;

impl Backend for Avx2Backend {
    fn name(&self) -> &'static str {
        "avx2fma"
    }

    fn gemm_block(&self, a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        let rows = out.len() / n.max(1);
        if rows * k * n < GEMM_SIMD_CUTOFF {
            ScalarBackend.gemm_block(a, k, b, n, out);
            return;
        }
        // SAFETY: this backend is only dispatched on hosts where
        // `simd_supported()` returned true (see module docs).
        unsafe { gemm_packed(a, k, 1, pack_b, b, k, k, n, rows, out) }
    }

    fn gemm_at_b(&self, k: usize, a: &[f32], m: usize, b: &[f32], n: usize, out: &mut [f32]) {
        if m * k * n < GEMM_SIMD_CUTOFF {
            ScalarBackend.gemm_at_b(k, a, m, b, n, out);
            return;
        }
        // SAFETY: as in `gemm_block`. Output row `r` reads column `r` of the
        // `k × m` matrix `a`: row stride 1, k stride `m`.
        unsafe { gemm_packed(a, 1, m, pack_b, b, k, KC, n, m, out) }
    }

    fn gemm_a_bt(&self, a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        let rows = out.len() / n.max(1);
        if rows * k * n < GEMM_SIMD_CUTOFF {
            ScalarBackend.gemm_a_bt(a, k, b, n, out);
            return;
        }
        // The kernel accumulates; this product overwrites.
        out.fill(0.0);
        // SAFETY: as in `gemm_block`.
        unsafe { gemm_packed(a, k, 1, pack_bt, b, k, k, n, rows, out) }
    }

    fn axpy(&self, alpha: f32, x: &[f32], out: &mut [f32]) {
        let len = x.len().min(out.len());
        // SAFETY: feature-checked at selection; len bounds both slices.
        unsafe { axpy_avx2(alpha, x.as_ptr(), out.as_mut_ptr(), len) }
    }

    fn spmm_row(
        &self,
        a: f32,
        cols: &[u32],
        weights: &[f32],
        x: &[f32],
        bx: Option<(f32, &[f32])>,
        cz: Option<(f32, &[f32])>,
        out: &mut [f32],
    ) {
        let f = out.len();
        assert_eq!(cols.len(), weights.len(), "one weight per column");
        for (_, row) in [bx, cz].into_iter().flatten() {
            assert_eq!(row.len(), f, "epilogue row width");
        }
        // What slicing `x[c·f..(c+1)·f]` per edge checks in the reference.
        let rows = x.len().checked_div(f).unwrap_or(usize::MAX);
        assert!(
            cols.iter().all(|&c| (c as usize) < rows),
            "column's row lies outside x"
        );
        // SAFETY: feature-checked at selection. The asserts above give the
        // kernel its bounds: every `c` in `cols` has `(c + 1)·f <= x.len()`,
        // so each gathered row of `f` floats lies in `x`; both epilogue rows
        // and `out` are exactly `f` long.
        unsafe { spmm_row_avx2(a, cols, weights, x.as_ptr(), bx, cz, out) }
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

/// Sets `buf` to rows `k0 .. k0 + kb` of a `k × n` operand cut into
/// `NR`-column, k-major panels, the last panel zero-padded to `NR`. A stale
/// buffer is overwritten in every entry, not cleared first.
type PackFn = fn(b: &[f32], k: usize, n: usize, k0: usize, kb: usize, buf: &mut Vec<f32>);

/// [`PackFn`] for a row-major `k × n` operand: `panel[kk][j] = b[(k0+kk)·n + j0+j]`.
fn pack_b(b: &[f32], _k: usize, n: usize, k0: usize, kb: usize, buf: &mut Vec<f32>) {
    buf.resize(n.div_ceil(NR) * kb * NR, 0.0);
    for (p, panel) in buf.chunks_exact_mut(kb * NR).enumerate() {
        let j0 = p * NR;
        let tw = NR.min(n - j0);
        for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
            let src = (k0 + kk) * n + j0;
            dst[..tw].copy_from_slice(&b[src..src + tw]);
            dst[tw..].fill(0.0);
        }
    }
}

/// [`PackFn`] for an operand stored transposed (`n × k`, the `B` of
/// `A·Bᵀ`): `panel[kk][j] = b[(j0+j)·k + k0+kk]`.
fn pack_bt(b: &[f32], k: usize, n: usize, k0: usize, kb: usize, buf: &mut Vec<f32>) {
    buf.resize(n.div_ceil(NR) * kb * NR, 0.0);
    for (p, panel) in buf.chunks_exact_mut(kb * NR).enumerate() {
        let j0 = p * NR;
        let tw = NR.min(n - j0);
        for j in 0..tw {
            let src = (j0 + j) * k + k0;
            for (kk, &v) in b[src..src + kb].iter().enumerate() {
                panel[kk * NR + j] = v;
            }
        }
        for dst in panel.chunks_exact_mut(NR) {
            dst[tw..].fill(0.0);
        }
    }
}

/// The one packed-panel driver behind all three products:
/// `out (rows × n) += A · B`, where element `(r, kk)` of `A` sits at
/// `a[r·a_rs + kk·a_ks]` and `pack` reads `B`. `k` is cut into blocks of
/// `kc` rows; within a block every panel meets every row tile, and the FMA
/// chains carry from block to block through `out`, so the blocking is
/// invisible in the bits. Row-major `A` passes `kc = k` (one block: its rows
/// stream best read whole); `Aᵀ·B`, whose `k` is the node count, passes
/// [`KC`].
///
/// # Panics
/// If `a` does not cover every `(r, kk)` of `rows × k` at the given strides
/// or `out` is shorter than `rows × n` — the two operands read through raw
/// pointers (`pack` indexes `b` as a slice).
///
/// # Safety
/// Caller must ensure AVX2+FMA are available.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_packed(
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    pack: PackFn,
    b: &[f32],
    k: usize,
    kc: usize,
    n: usize,
    rows: usize,
    out: &mut [f32],
) {
    assert!(rows * n <= out.len(), "out is shorter than rows × n");
    assert!(
        rows == 0 || k == 0 || (rows - 1) * a_rs + (k - 1) * a_ks < a.len(),
        "A is shorter than rows × k at these strides"
    );
    PACK_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        let (a, optr) = (a.as_ptr(), out.as_mut_ptr());
        for k0 in (0..k).step_by(kc) {
            let kb = kc.min(k - k0);
            pack(b, k, n, k0, kb, &mut buf);
            let ablock = a.add(k0 * a_ks);
            for p in 0..n.div_ceil(NR) {
                let j0 = p * NR;
                let tw = NR.min(n - j0);
                let panel = buf.as_ptr().add(p * kb * NR);
                // Every tile below stays inside what the asserts above
                // cover: rows `r .. r + MR_ <= rows`, k `k0 .. k0 + kb <= k`,
                // columns `j0 .. j0 + tw <= n`, one `kb × NR` panel of `buf`.
                let mut r = 0;
                while r + MR <= rows {
                    let (at, ot) = (ablock.add(r * a_rs), optr.add(r * n + j0));
                    tile::<MR>(at, a_rs, a_ks, kb, panel, ot, n, tw);
                    r += MR;
                }
                while r < rows {
                    let (at, ot) = (ablock.add(r * a_rs), optr.add(r * n + j0));
                    tile::<1>(at, a_rs, a_ks, kb, panel, ot, n, tw);
                    r += 1;
                }
            }
        }
    });
}

/// `MR_ × NR` register tile: `out_tile += a_tile · panel`, one FMA chain per
/// output element, `k` ascending (the bit-exactness invariant). Element
/// `(r, kk)` of the A tile is `a[r·a_rs + kk·a_ks]`. `tw < NR` routes
/// loads/stores through a zero-padded stack buffer.
///
/// # Safety
/// Caller must ensure AVX2+FMA, `a` covers `MR_ × k` at the given strides,
/// `panel` covers `k * NR`, and `out` covers `MR_` rows of stride `stride`
/// with at least `tw` valid columns.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile<const MR_: usize>(
    a: *const f32,
    a_rs: usize,
    a_ks: usize,
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
            let av = _mm256_set1_ps(*a.add(r * a_rs + kk * a_ks));
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

/// [`Backend::spmm_row`] with the output row held in registers: the row is
/// cut into strips of up to `8` vectors (64 columns), each strip's
/// accumulators start at `+0.0`, take one FMA per edge in edge order, then
/// the `b`- and `c`-terms, and are stored once — the reference's chain per
/// element, without its load and store of `out` per edge. Columns past the
/// last whole vector run the same chain in scalar `mul_add`.
///
/// # Safety
/// AVX2+FMA available; for every `c` in `cols`, `x` covers
/// `(c + 1) * out.len()` elements; the rows in `bx` and `cz` are at least
/// `out.len()` long. (`cols` and `weights` are walked in step, so the
/// shorter one bounds the edges.)
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn spmm_row_avx2(
    a: f32,
    cols: &[u32],
    weights: &[f32],
    x: *const f32,
    bx: Option<(f32, &[f32])>,
    cz: Option<(f32, &[f32])>,
    out: &mut [f32],
) {
    let f = out.len();
    let epilogue = [bx, cz].map(|t| t.map(|(s, row)| (s, row.as_ptr())));
    let optr = out.as_mut_ptr();
    let mut s = 0;
    while s + 64 <= f {
        spmm_strip::<8>(a, cols, weights, x, f, s, epilogue, optr);
        s += 64;
    }
    if s + 32 <= f {
        spmm_strip::<4>(a, cols, weights, x, f, s, epilogue, optr);
        s += 32;
    }
    if s + 16 <= f {
        spmm_strip::<2>(a, cols, weights, x, f, s, epilogue, optr);
        s += 16;
    }
    if s + 8 <= f {
        spmm_strip::<1>(a, cols, weights, x, f, s, epilogue, optr);
        s += 8;
    }
    for i in s..f {
        let mut acc = 0.0f32;
        for (&c, &w) in cols.iter().zip(weights) {
            acc = (*x.add(c as usize * f + i)).mul_add(a * w, acc);
        }
        for (sc, row) in epilogue.into_iter().flatten() {
            acc = (*row.add(i)).mul_add(sc, acc);
        }
        *optr.add(i) = acc;
    }
}

/// Columns `s .. s + 8·NV` of one [`spmm_row_avx2`] row, `NV` accumulators.
///
/// # Safety
/// As [`spmm_row_avx2`], with `s + 8 * NV <= f` and `out` covering `f`
/// elements.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn spmm_strip<const NV: usize>(
    a: f32,
    cols: &[u32],
    weights: &[f32],
    x: *const f32,
    f: usize,
    s: usize,
    epilogue: [Option<(f32, *const f32)>; 2],
    out: *mut f32,
) {
    let mut acc = [_mm256_setzero_ps(); NV];
    for (&c, &w) in cols.iter().zip(weights) {
        let aw = _mm256_set1_ps(a * w);
        let xrow = x.add(c as usize * f + s);
        for (j, accj) in acc.iter_mut().enumerate() {
            *accj = _mm256_fmadd_ps(_mm256_loadu_ps(xrow.add(8 * j)), aw, *accj);
        }
    }
    for (sc, row) in epilogue.into_iter().flatten() {
        let sv = _mm256_set1_ps(sc);
        for (j, accj) in acc.iter_mut().enumerate() {
            *accj = _mm256_fmadd_ps(_mm256_loadu_ps(row.add(s + 8 * j)), sv, *accj);
        }
    }
    for (j, accj) in acc.iter().enumerate() {
        _mm256_storeu_ps(out.add(s + 8 * j), *accj);
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
