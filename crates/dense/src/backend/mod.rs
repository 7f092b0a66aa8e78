//! Compute-backend dispatch for the dense substrate.
//!
//! Every hot dense kernel — the three GEMM products of [`crate::matmul`], the
//! row gather under every sparse SpMM hop (`sgnn_sparse::csr`, and the
//! streamed `sgnn_sparse::shard`), row-AXPY, softmax forward/backward, and
//! the elementwise ops on [`crate::DMat`] — dispatches
//! through the [`Backend`] trait defined here instead of open-coding its
//! inner loop. Two implementations exist:
//!
//! * `scalar::ScalarBackend` — the portable reference. Its loops are the
//!   exact pre-refactor kernels (k-ordered `mul_add` chains), so selecting
//!   it reproduces historical results bit for bit.
//! * `avx2::Avx2Backend` (`x86_64` only) — AVX2+FMA microkernels behind
//!   `std::arch` runtime feature detection: one register-blocked MR×NR
//!   tile over packed B panels behind all three GEMM products, an SpMM row
//!   kernel that keeps the output row in registers, 8-lane row-AXPY, and
//!   vectorized elementwise loops.
//!
//! # Bit-exactness contract
//!
//! The SIMD kernels are written to preserve the scalar kernels' reduction
//! *order*, not just their math: the panel GEMM keeps one FMA accumulator
//! chain per output element walking `k` in ascending order (vector lanes
//! parallelize across *columns*, which are independent), the SpMM row kernel
//! keeps one chain per output element walking the row's edges in order, and
//! AXPY and the elementwise ops are lane-wise with FMA tails. The scalar bodies of the
//! two transposed products — a row-AXPY per `(k, r)` for `Aᵀ·B`, a
//! sequential-FMA dot per element for `A·Bᵀ` — are that same chain, so the
//! SIMD backend runs all three products through the one tile. Every kernel
//! is therefore **bit-identical** across backends, pinned by the
//! `backend_equivalence` proptest suite with `to_bits` comparisons, and
//! there is no tolerance class between backends. (What stays
//! tolerance-class is independent of the backend: `matmul_at_b` at pool
//! width `w` regroups the serial sum into `w` partials — see
//! [`crate::matmul`].) The softmax family is one set of provided trait
//! methods shared by both backends (a SIMD override measured 0.94–1.10×
//! and was removed); only its final `scale` runs a backend kernel.
//!
//! # Selection
//!
//! `SGNN_BACKEND=scalar|simd|auto` (default `auto`) picks the backend; it is
//! read once and cached. `auto` probes `is_x86_feature_detected!` at first
//! use. Requesting `simd` on a host without AVX2+FMA falls back to scalar
//! (with a one-time stderr note) rather than failing — CI sets
//! `SGNN_BACKEND=simd` unconditionally. Tests and benches can override the
//! choice at runtime with [`set_backend`]; the selection is surfaced as the
//! `backend.selected` gauge (0 = scalar, 1 = simd) and per-kernel
//! `backend.dispatch.{gemm,axpy,softmax,elementwise}` counters.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use sgnn_obs as obs;

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;

pub(crate) use scalar::ScalarBackend;

static GEMM_DISPATCH: obs::Counter = obs::Counter::new("backend.dispatch.gemm");
static AXPY_DISPATCH: obs::Counter = obs::Counter::new("backend.dispatch.axpy");
static SOFTMAX_DISPATCH: obs::Counter = obs::Counter::new("backend.dispatch.softmax");
static ELEMENTWISE_DISPATCH: obs::Counter = obs::Counter::new("backend.dispatch.elementwise");

/// Slicing-by-8 tables for the workspace's one CRC32 (IEEE 802.3,
/// reflected polynomial 0xEDB88320 — the checksum gzip uses). Shard blobs,
/// checkpoints, terms artifacts and every wire frame are sealed with it, so
/// it sits on the streaming and serving critical paths.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Sequential-FMA inner product `Σ x[i]·y[i]` from `0.0` — the reference
/// chain of [`Backend::gemm_a_bt`].
fn dot(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&a, &b) in x.iter().zip(y) {
        acc = a.mul_add(b, acc);
    }
    acc
}

/// The kernel surface every compute backend implements.
///
/// Methods operate on whole rows/row-blocks so the virtual call is amortized
/// over the inner loop; nothing here is called per element. All slices are
/// row-major with the strides given by the caller.
pub trait Backend: Sync {
    /// Identifier reported in benches, traces, and `BENCH_gemm.json`.
    fn name(&self) -> &'static str;

    /// `out += A_rows · B` for a block of rows: `a` is `rows × k` (row-major),
    /// `b` is `k × n`, `out` is `rows × n` but sliced with a row stride of
    /// `n.max(1)` (mirroring the caller's chunking of degenerate shapes).
    ///
    /// Contract: one FMA accumulator chain per output element, `k` ascending
    /// — implementations must be bit-identical to
    /// `ScalarBackend::gemm_block`.
    fn gemm_block(&self, a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]);

    /// `out += Aᵀ·B` over `k` rows: `a` is `k × m`, `b` is `k × n`, `out` is
    /// `m × n`, all row-major. [`crate::matmul::matmul_at_b`] hands each pool
    /// lane one k-range and its own accumulator. This body is the reference:
    /// one row-AXPY per `(kk, r)`, i.e. per output element one FMA chain
    /// continuing from `out`, `k` ascending — overrides must match it bit
    /// for bit.
    fn gemm_at_b(&self, k: usize, a: &[f32], m: usize, b: &[f32], n: usize, out: &mut [f32]) {
        for kk in 0..k {
            let arow = &a[kk * m..(kk + 1) * m];
            let brow = &b[kk * n..(kk + 1) * n];
            for (r, &av) in arow.iter().enumerate() {
                self.axpy(av, brow, &mut out[r * n..(r + 1) * n]);
            }
        }
    }

    /// `out = A_rows · Bᵀ` for a block of rows: `a` is `rows × k`, `b` is
    /// `n × k`, `out` is `rows × n` sliced with a row stride of `n.max(1)`
    /// like [`gemm_block`](Self::gemm_block). This body is the reference:
    /// one sequential-FMA dot per output element, starting from `0.0`,
    /// `k` ascending — overrides must match it bit for bit.
    fn gemm_a_bt(&self, a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        for (r, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
            let arow = &a[r * k..(r + 1) * k];
            for (c, o) in orow.iter_mut().enumerate() {
                *o = dot(arow, &b[c * k..(c + 1) * k]);
            }
        }
    }

    /// `out[i] = fma(x[i], alpha, out[i])` — the [`crate::DMat::axpy`] and
    /// [`crate::DMat::lin_comb`] kernel, and the step of the reference
    /// [`spmm_row`](Self::spmm_row). Lane-wise, bit-exact.
    fn axpy(&self, alpha: f32, x: &[f32], out: &mut [f32]);

    /// One output row of a sparse-times-dense product, the gather kernel
    /// under every SpMM hop (in-memory and streamed):
    /// `out = Σ_e (a·weights[e])·x_row(cols[e]) [+ b·x_r] [+ c·z_r]`, where
    /// `x_row(c)` is `x[c·f..(c+1)·f]` with `f = out.len()`, and `bx` /
    /// `cz` carry the optional `(b, x_r)` / `(c, z_r)` epilogue rows.
    ///
    /// This body is the reference: zero the row, one [`axpy`](Self::axpy)
    /// per edge in edge order, then the `b`- and the `c`-term — per output
    /// element one FMA chain from `+0.0`. Overrides must match it bit for
    /// bit.
    ///
    /// # Panics
    /// If `cols` and `weights` differ in length, an epilogue row is not
    /// `out.len()` long, or a column's row reaches past the end of `x`.
    #[allow(clippy::too_many_arguments)]
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
        out.fill(0.0);
        for (&c, &w) in cols.iter().zip(weights) {
            let xrow = &x[c as usize * f..(c as usize + 1) * f];
            self.axpy(a * w, xrow, out);
        }
        for (s, row) in [bx, cz].into_iter().flatten() {
            assert_eq!(row.len(), f, "epilogue row width");
            self.axpy(s, row, out);
        }
    }

    /// `x[i] *= s`. Bit-exact.
    fn scale(&self, s: f32, x: &mut [f32]);

    /// `a[i] += b[i]`. Bit-exact.
    fn add_assign(&self, a: &mut [f32], b: &[f32]);

    /// `a[i] -= b[i]`. Bit-exact.
    fn sub_assign(&self, a: &mut [f32], b: &[f32]);

    /// `a[i] *= b[i]` (Hadamard). Bit-exact.
    fn hadamard(&self, a: &mut [f32], b: &[f32]);

    /// `x[i] = max(x[i], 0)` with scalar `f32::max` NaN semantics
    /// (`NaN → 0`). Bit-exact.
    fn relu(&self, x: &mut [f32]);

    /// ReLU backward: `g[i] = 0` where `y[i] <= 0` (NaN `y` keeps `g`,
    /// matching the scalar comparison). Bit-exact.
    fn relu_bwd(&self, y: &[f32], g: &mut [f32]);

    /// Numerically stable in-place softmax of one row: subtract the row max,
    /// exponentiate, normalize by the serial `f64` sum. One shared body —
    /// only the final [`scale`](Self::scale) goes through the backend's own
    /// (bit-exact) kernel.
    fn softmax_row(&self, row: &mut [f32]) {
        let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0f64;
        for x in row.iter_mut() {
            *x = (*x - m).exp();
            sum += *x as f64;
        }
        let inv = (1.0 / sum) as f32;
        self.scale(inv, row);
    }

    /// Softmax backward for one row: `g[i] = y[i]·(g[i] − d)` where
    /// `d = Σ y[i]·g[i]` accumulated serially in `f64`.
    fn softmax_bwd_row(&self, y: &[f32], g: &mut [f32]) {
        let dot: f64 = y
            .iter()
            .zip(g.iter())
            .map(|(&yy, &gg)| yy as f64 * gg as f64)
            .sum();
        let d = dot as f32;
        for (gv, &yy) in g.iter_mut().zip(y) {
            *gv = yy * (*gv - d);
        }
    }

    /// Numerically stable in-place log-softmax of one row (the
    /// cross-entropy kernel): `x[i] −= ln(Σ exp(x[j] − m)) + m` with the
    /// serial `f64` log-sum-exp.
    fn log_softmax_row(&self, row: &mut [f32]) {
        let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let lse = (row.iter().map(|&x| ((x - m) as f64).exp()).sum::<f64>()).ln() as f32 + m;
        row.iter_mut().for_each(|x| *x -= lse);
    }

    /// One incremental CRC32 step over the raw shift register: start from
    /// `0xFFFF_FFFF`, feed the bytes in any split, XOR the final state with
    /// `0xFFFF_FFFF`. This body is the slicing-by-8 table loop — the only
    /// path on CPUs without carry-less multiply, the tail of the folding
    /// kernel, and the reference the equivalence suite compares against.
    /// Every implementation returns the same register for the same bytes.
    fn crc32_update(&self, mut crc: u32, mut bytes: &[u8]) -> u32 {
        let t = &CRC_TABLES;
        while let [b0, b1, b2, b3, b4, b5, b6, b7, rest @ ..] = bytes {
            let lo = crc ^ u32::from_le_bytes([*b0, *b1, *b2, *b3]);
            let hi = u32::from_le_bytes([*b4, *b5, *b6, *b7]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
            bytes = rest;
        }
        for &byte in bytes {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        crc
    }
}

/// Backend choice, as selected by `SGNN_BACKEND` or [`set_backend`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendKind {
    /// Portable reference kernels (pre-refactor bit behaviour).
    Scalar,
    /// AVX2+FMA microkernels (requires `x86_64` with both features).
    Simd,
}

static SCALAR: ScalarBackend = ScalarBackend;
#[cfg(target_arch = "x86_64")]
static SIMD: avx2::Avx2Backend = avx2::Avx2Backend;

/// True when the running CPU supports the SIMD backend (AVX2 and FMA).
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static SUPPORTED: OnceLock<bool> = OnceLock::new();
        *SUPPORTED.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runtime override: 0 = none (environment default), 1 = scalar, 2 = simd.
static KIND_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// `SGNN_BACKEND` environment default, read once. `auto` (and unset) probe
/// the CPU; an explicit `simd` on an unsupported host degrades to scalar
/// with a one-time note instead of aborting.
fn env_kind() -> BackendKind {
    static DEFAULT: OnceLock<BackendKind> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let want = std::env::var("SGNN_BACKEND").unwrap_or_default();
        let kind = match want.as_str() {
            "scalar" | "0" => BackendKind::Scalar,
            "simd" => {
                if simd_supported() {
                    BackendKind::Simd
                } else {
                    eprintln!(
                        "sgnn-dense: SGNN_BACKEND=simd requested but AVX2+FMA not available; \
                         falling back to the scalar backend"
                    );
                    BackendKind::Scalar
                }
            }
            // auto, unset, or anything unrecognized: detect.
            _ => {
                if simd_supported() {
                    BackendKind::Simd
                } else {
                    BackendKind::Scalar
                }
            }
        };
        publish_selection(kind);
        kind
    })
}

fn publish_selection(kind: BackendKind) {
    obs::gauge_set(
        "backend.selected",
        match kind {
            BackendKind::Scalar => 0,
            BackendKind::Simd => 1,
        },
    );
}

/// Forces a backend (benchmarks, equivalence tests, the forced-scalar
/// fallback test); `None` restores the `SGNN_BACKEND` default. Requesting
/// [`BackendKind::Simd`] on a host without AVX2+FMA is ignored (scalar is
/// used), so tests can call this unconditionally.
pub fn set_backend(kind: Option<BackendKind>) {
    replace_backend(kind);
}

/// [`set_backend`], returning the override it replaced.
pub(crate) fn replace_backend(kind: Option<BackendKind>) -> Option<BackendKind> {
    let v = match kind {
        None => 0,
        Some(BackendKind::Scalar) => 1,
        Some(BackendKind::Simd) => 2,
    };
    let prev = KIND_OVERRIDE.swap(v, Ordering::Relaxed);
    publish_selection(selected_kind());
    match prev {
        1 => Some(BackendKind::Scalar),
        2 => Some(BackendKind::Simd),
        _ => None,
    }
}

/// The backend kind dispatches currently resolve to.
pub fn selected_kind() -> BackendKind {
    match KIND_OVERRIDE.load(Ordering::Relaxed) {
        1 => BackendKind::Scalar,
        2 => {
            if simd_supported() {
                BackendKind::Simd
            } else {
                BackendKind::Scalar
            }
        }
        _ => env_kind(),
    }
}

/// The active backend. First use resolves `SGNN_BACKEND` (cached) and emits
/// the `backend.selected` gauge.
#[inline]
pub fn active() -> &'static dyn Backend {
    match selected_kind() {
        BackendKind::Scalar => &SCALAR,
        #[cfg(target_arch = "x86_64")]
        BackendKind::Simd => &SIMD,
        #[cfg(not(target_arch = "x86_64"))]
        BackendKind::Simd => &SCALAR,
    }
}

/// The scalar reference backend, independent of selection (equivalence
/// tests compare against it directly).
pub fn scalar() -> &'static dyn Backend {
    &SCALAR
}

/// The SIMD backend when this host can run it, independent of selection —
/// `None` otherwise. The equivalence suite uses this to compare kernels
/// without mutating the global selection.
pub fn simd() -> Option<&'static dyn Backend> {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_supported() {
            return Some(&SIMD);
        }
    }
    None
}

// Dispatch accessors: one per counter family, called once per kernel-level
// operation (a whole matmul, a whole SpMM, one elementwise pass) — never per
// row or per element.

/// Backend for a GEMM-family dispatch (counts `backend.dispatch.gemm`).
#[inline]
pub(crate) fn for_gemm() -> &'static dyn Backend {
    GEMM_DISPATCH.incr();
    active()
}

/// Backend for a row-AXPY dispatch (counts `backend.dispatch.axpy`).
#[inline]
pub fn for_axpy() -> &'static dyn Backend {
    AXPY_DISPATCH.incr();
    active()
}

/// Backend for a softmax dispatch (counts `backend.dispatch.softmax`).
#[inline]
pub fn for_softmax() -> &'static dyn Backend {
    SOFTMAX_DISPATCH.incr();
    active()
}

/// Backend for an elementwise dispatch (counts
/// `backend.dispatch.elementwise`).
#[inline]
pub fn for_elementwise() -> &'static dyn Backend {
    ELEMENTWISE_DISPATCH.incr();
    active()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin;

    #[test]
    fn override_switches_kind_and_restores_default() {
        {
            let _l = pin::lock();
            let _b = pin::backend(BackendKind::Scalar);
            assert_eq!(selected_kind(), BackendKind::Scalar);
            assert_eq!(active().name(), "scalar");
        }
        // Default restored (whatever the environment resolves to).
        let _ = selected_kind();
    }

    #[test]
    fn simd_request_on_unsupported_host_degrades_to_scalar() {
        let _l = pin::lock();
        let _b = pin::backend(BackendKind::Simd);
        if simd_supported() {
            assert_eq!(selected_kind(), BackendKind::Simd);
            assert_eq!(active().name(), "avx2fma");
        } else {
            assert_eq!(selected_kind(), BackendKind::Scalar);
            assert_eq!(active().name(), "scalar");
        }
    }

    #[test]
    fn scalar_accessor_is_always_scalar() {
        let _l = pin::lock();
        let _b = pin::backend(BackendKind::Simd);
        assert_eq!(scalar().name(), "scalar");
    }
}
