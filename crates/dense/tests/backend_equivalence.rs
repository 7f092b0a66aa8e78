//! Backend-equivalence suite: the SIMD kernels against the scalar reference.
//!
//! The backend contract (see `sgnn_dense::backend`) splits the kernel
//! surface in two:
//!
//! * **bit-exact** — the three GEMM products (`A·B`, `Aᵀ·B`, `A·Bᵀ`), AXPY,
//!   the SpMM row kernel (`spmm_row`), the elementwise ops, and ReLU
//!   fwd/bwd preserve the scalar reduction
//!   order, so the SIMD results are compared with `to_bits` on random
//!   shapes, including ragged widths (`n % 16 ≠ 0`) that exercise the
//!   zero-padded panel tails and `k` on both sides of the packing block;
//!   CRC32 is integer arithmetic, so the carry-less-multiply fold must
//!   return the table loop's register at every length, alignment and split;
//! * **tolerance** — nothing between backends. The one tolerance-class
//!   comparison left in the GEMM family is `matmul_at_b` at pool width > 1
//!   against the *serial* sum (its per-lane partials regroup `k`), pinned by
//!   `at_b_parallel_path_matches_naive_within_tolerance` in `matmul.rs`.
//!
//! On hosts without AVX2+FMA, `backend::simd()` is `None` and the kernel
//! comparisons reduce to scalar-vs-scalar (trivially green); the forced
//! `scalar` selection test at the bottom runs everywhere, including AVX2
//! hosts, pinning the fallback path.

use proptest::prelude::*;
use sgnn_dense::backend::{self, Backend, BackendKind};
use sgnn_dense::{matmul, pin, DMat};

/// Deterministic mixed-sign fill (same generator as the runtime suite).
fn filled(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let mut z = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((z >> 40) as f32) * 1e-5 - 80.0
        })
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} diverged: {x} vs {y}"
        );
    }
}

/// Scalar and (when present) SIMD backend; the second entry is the scalar
/// backend again on non-AVX2 hosts, keeping every test runnable everywhere.
fn pair() -> (&'static dyn Backend, &'static dyn Backend) {
    (
        backend::scalar(),
        backend::simd().unwrap_or(backend::scalar()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The panel GEMM keeps one k-ascending FMA chain per output element,
    /// so it must match the scalar kernel bit for bit — including ragged
    /// column counts that exercise the zero-padded tail panel and row
    /// counts that exercise the MR=1 tail kernel.
    #[test]
    fn gemm_block_is_bit_identical(
        m in 1usize..33,
        k in 1usize..40,
        n in 1usize..70,
        seed in 0u64..1_000,
    ) {
        let (sc, sd) = pair();
        let a = filled(m * k, seed);
        let b = filled(k * n, seed ^ 0xABCD);
        // Accumulate into a dirty (non-zero) output: `out +=`, not `out =`.
        let base = filled(m * n, seed ^ 0x77);
        let mut want = base.clone();
        sc.gemm_block(&a, k, &b, n, &mut want);
        let mut got = base;
        sd.gemm_block(&a, k, &b, n, &mut got);
        assert_bits_eq(&want, &got, "gemm_block");
    }

    /// Row-AXPY (the SpMM inner loop) is lane-wise FMA: bit-exact.
    #[test]
    fn axpy_is_bit_identical(
        n in 1usize..300,
        alpha in -4.0f32..4.0,
        seed in 0u64..1_000,
    ) {
        let (sc, sd) = pair();
        let x = filled(n, seed);
        let base = filled(n, seed ^ 0x3333);
        let mut want = base.clone();
        sc.axpy(alpha, &x, &mut want);
        let mut got = base;
        sd.axpy(alpha, &x, &mut got);
        assert_bits_eq(&want, &got, "axpy");
    }

    /// Scale / add / sub / hadamard / relu fwd+bwd are all lane-wise:
    /// bit-exact at every ragged length.
    #[test]
    fn elementwise_ops_are_bit_identical(
        n in 1usize..300,
        s in -3.0f32..3.0,
        seed in 0u64..1_000,
    ) {
        let (sc, sd) = pair();
        let a = filled(n, seed);
        let b = filled(n, seed ^ 0x5555);

        let run = |be: &dyn Backend| {
            let mut scaled = a.clone();
            be.scale(s, &mut scaled);
            let mut added = a.clone();
            be.add_assign(&mut added, &b);
            let mut subbed = a.clone();
            be.sub_assign(&mut subbed, &b);
            let mut had = a.clone();
            be.hadamard(&mut had, &b);
            let mut rl = a.clone();
            be.relu(&mut rl);
            let mut rg = b.clone();
            be.relu_bwd(&a, &mut rg);
            (scaled, added, subbed, had, rl, rg)
        };
        let want = run(sc);
        let got = run(sd);
        assert_bits_eq(&want.0, &got.0, "scale");
        assert_bits_eq(&want.1, &got.1, "add_assign");
        assert_bits_eq(&want.2, &got.2, "sub_assign");
        assert_bits_eq(&want.3, &got.3, "hadamard");
        assert_bits_eq(&want.4, &got.4, "relu");
        assert_bits_eq(&want.5, &got.5, "relu_bwd");
    }

    /// `Aᵀ·B` and `A·Bᵀ` run the same tile as `A·B` — strided A against
    /// row-major panels, row-major A against transposed panels — so both
    /// match the scalar `axpy` / `dot` loops bit for bit, accumulating into
    /// a dirty `out` (`at_b`) or overwriting one (`a_bt`).
    #[test]
    fn transposed_blocks_are_bit_identical(
        m in 1usize..33,
        k in 1usize..40,
        n in 1usize..70,
        seed in 0u64..1_000,
    ) {
        let (sc, sd) = pair();
        let at = filled(k * m, seed);
        let b = filled(k * n, seed ^ 0xABCD);
        let base = filled(m * n, seed ^ 0x77);
        let mut want = base.clone();
        sc.gemm_at_b(k, &at, m, &b, n, &mut want);
        let mut got = base.clone();
        sd.gemm_at_b(k, &at, m, &b, n, &mut got);
        assert_bits_eq(&want, &got, "gemm_at_b");

        let a = filled(m * k, seed ^ 0x1234);
        let bt = filled(n * k, seed ^ 0x4321);
        let mut want = base.clone();
        sc.gemm_a_bt(&a, k, &bt, n, &mut want);
        let mut got = base;
        sd.gemm_a_bt(&a, k, &bt, n, &mut got);
        assert_bits_eq(&want, &got, "gemm_a_bt");
    }

    /// The folding CRC kernel against the table loop: every length class
    /// (below the 64-byte threshold, whole 64-byte quads, 1–3 trailing
    /// 16-byte blocks, a sub-16-byte tail) from an arbitrary start offset,
    /// so the 16-byte loads are unaligned, and from an arbitrary register.
    #[test]
    fn crc32_update_matches_the_table_loop(
        len in 0usize..4_201,
        offset in 0usize..64,
        state in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let (sc, sd) = pair();
        let buf = bytes(offset + len, seed);
        let data = &buf[offset..];
        prop_assert_eq!(sd.crc32_update(state, data), sc.crc32_update(state, data));
    }
}

/// Deterministic byte fill for the CRC tests.
fn bytes(n: usize, seed: u64) -> Vec<u8> {
    (0..n as u64)
        .map(|i| {
            let z = (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (z >> 56) as u8
        })
        .collect()
}

/// Streaming composes at every cut of a 300-byte buffer — each cut hands a
/// different mix of lengths to the fold and the table loop (fold → table,
/// table → fold, fold → fold) — on both backends.
#[test]
fn crc32_update_composes_at_every_cut() {
    let (sc, sd) = pair();
    let data = bytes(300, 7);
    let start = 0xFFFF_FFFF;
    let whole = sc.crc32_update(start, &data);
    for be in [sc, sd] {
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(
                be.crc32_update(be.crc32_update(start, a), b),
                whole,
                "{} cut at {cut}",
                be.name()
            );
        }
    }
}

/// Pins the polynomial, the reflection and the raw-register convention on
/// both backends: the CRC-32/ISO-HDLC check value, and the 256 bytes
/// `0x00..=0xFF` (long enough for the fold), whose value the table loop and
/// zlib agree on.
#[test]
fn crc32_known_vectors() {
    let (sc, sd) = pair();
    let ramp: Vec<u8> = (0..=255).collect();
    for be in [sc, sd] {
        let crc = |data: &[u8]| be.crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF;
        assert_eq!(crc(b"123456789"), 0xCBF4_3926, "{}", be.name());
        assert_eq!(crc(b""), 0, "{}", be.name());
        assert_eq!(crc(&ramp), 0x2905_8C73, "{}", be.name());
    }
}

/// ReLU edge semantics must agree across backends on the values where IEEE
/// gives implementations room: NaN inputs (forward clamps to the `f32::max`
/// result, backward keeps the gradient) and signed zeros.
#[test]
fn relu_edge_semantics_agree() {
    let (sc, sd) = pair();
    let edge = [
        f32::NAN,
        -0.0,
        0.0,
        -1.5,
        1.5,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
    ];

    let mut want = edge;
    sc.relu(&mut want);
    let mut got = edge;
    sd.relu(&mut got);
    assert_bits_eq(&want, &got, "relu edge values");

    let grad = [1.0f32; 8];
    let mut gwant = grad;
    sc.relu_bwd(&edge, &mut gwant);
    let mut ggot = grad;
    sd.relu_bwd(&edge, &mut ggot);
    assert_bits_eq(&gwant, &ggot, "relu_bwd edge values");
}

/// Feature widths on every edge of the row microkernel's strips: empty,
/// scalar-only, one off each of the 8 / 32 / 64-column strips, a mix of all
/// four strip sizes plus a scalar tail (100), two full strips, and many.
const SPMM_WIDTHS: [usize; 14] = [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 128, 257];

/// One `spmm_row` call into a dirty output row (the kernel overwrites).
#[allow(clippy::too_many_arguments)]
fn spmm_row_out(
    be: &dyn Backend,
    f: usize,
    a: f32,
    cols: &[u32],
    weights: &[f32],
    x: &[f32],
    bx: Option<(f32, &[f32])>,
    cz: Option<(f32, &[f32])>,
) -> Vec<f32> {
    let mut out = vec![f32::NAN; f];
    be.spmm_row(a, cols, weights, x, bx, cz, &mut out);
    out
}

/// The register-accumulating row kernel keeps the reference's chain per
/// element — `+0.0`, one FMA per edge in edge order, the `b`-term, the
/// `c`-term — so it matches the zero / per-edge `axpy` / epilogue loop bit
/// for bit: at every strip edge, for empty rows, short rows and a hub row,
/// with each epilogue term present and absent.
#[test]
fn spmm_row_is_bit_identical() {
    let (sc, sd) = pair();
    let n = 97;
    for &f in &SPMM_WIDTHS {
        let x = filled(n * f, f as u64);
        let xr = filled(f, 0x51);
        let zr = filled(f, 0x52);
        for deg in [0usize, 1, 3, 30, 5_000] {
            let cols: Vec<u32> = (0..deg).map(|e| ((e * 31 + 7) % n) as u32).collect();
            let weights: Vec<f32> = filled(deg, 0x77).iter().map(|w| w * 0.01).collect();
            for (b, c) in [
                (None, None),
                (Some(0.5), None),
                (None, Some(-1.0)),
                (Some(-0.3), Some(0.9)),
            ] {
                let bx = b.map(|b| (b, &xr[..]));
                let cz = c.map(|c| (c, &zr[..]));
                let want = spmm_row_out(sc, f, -2.0, &cols, &weights, &x, bx, cz);
                let got = spmm_row_out(sd, f, -2.0, &cols, &weights, &x, bx, cz);
                assert_bits_eq(
                    &want,
                    &got,
                    &format!("spmm_row f={f} deg={deg} b={b:?} c={c:?}"),
                );
            }
        }
    }
}

/// Weights where IEEE leaves no slack to hide behind: signed zeros (the sum
/// of `−0.0` products onto `+0.0`), a NaN that every later edge must carry,
/// and infinities of both signs (whose sum is the default NaN). The NaN
/// weight comes before the infinities so no FMA ever sees two different
/// NaN payloads, which is the one case the operand order could decide.
#[test]
fn spmm_row_special_weights_agree() {
    let (sc, sd) = pair();
    let n = 8;
    let inf = f32::INFINITY;
    let rows: [&[f32]; 4] = [
        &[0.0, -0.0, -0.0, 0.0],
        &[1.5, f32::NAN, -2.0, inf],
        &[inf, 0.25, -inf, 1.0],
        &[-inf, -inf, 0.0, -0.0],
    ];
    for &f in &SPMM_WIDTHS {
        let x = filled(n * f, 0x99);
        let xr = filled(f, 0x9A);
        for weights in rows {
            let cols: Vec<u32> = (0..weights.len() as u32)
                .map(|e| (e * 3) % n as u32)
                .collect();
            for bx in [None, Some((0.5f32, &xr[..]))] {
                let want = spmm_row_out(sc, f, 1.0, &cols, weights, &x, bx, None);
                let got = spmm_row_out(sd, f, 1.0, &cols, weights, &x, bx, None);
                assert_bits_eq(&want, &got, &format!("spmm_row f={f} weights={weights:?}"));
            }
        }
    }
}

/// The safe wrapper checks what the reference's slicing checks: a column
/// whose row reaches past `x` panics on both backends instead of reading it.
#[test]
fn spmm_row_rejects_a_column_outside_x() {
    let (sc, sd) = pair();
    let x = filled(4 * 16, 1);
    for be in [sc, sd] {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = vec![0.0f32; 16];
            be.spmm_row(1.0, &[1, 4], &[1.0, 1.0], &x, None, None, &mut out);
        }));
        assert!(
            caught.is_err(),
            "{} accepted column 4 of a 4-row x",
            be.name()
        );
    }
}

/// Whole-operator check: `matmul` through the public API produces the same
/// bits under both selections (the worker-pool chunking composes with the
/// backend kernels without perturbing anything).
#[test]
fn matmul_is_bit_identical_across_selections() {
    let a = DMat::from_vec(37, 19, filled(37 * 19, 1));
    let b = DMat::from_vec(19, 53, filled(19 * 53, 2));
    let want = {
        let _l = pin::lock();
        let _b = pin::backend(BackendKind::Scalar);
        matmul::matmul(&a, &b)
    };
    let got = {
        let _l = pin::lock();
        let _b = pin::backend(BackendKind::Simd);
        matmul::matmul(&a, &b)
    };
    assert_bits_eq(want.data(), got.data(), "matmul across selections");
}

/// Dimension values that sit on every edge of the packed kernel: zero, below
/// the narrowest vector (`< 8`), off the row tile (`% 4 ≠ 0`), off the panel
/// (`% 16 ≠ 0`), and — as `k` — below, equal to and off a multiple of the
/// 256-row packing block.
const EDGE_DIMS: [usize; 12] = [0, 1, 3, 7, 8, 16, 19, 37, 250, 256, 257, 515];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole GEMM family through the public API: each product returns
    /// the same bits under both selections at pool widths 1 and 4 (at width
    /// 4 `matmul_at_b` splits `k` per lane and sums the partials in lane
    /// order under either backend, so the regrouping cancels out of the
    /// comparison).
    #[test]
    fn gemm_family_is_bit_identical_across_selections(
        dims in (0..EDGE_DIMS.len(), 0..EDGE_DIMS.len(), 0..EDGE_DIMS.len()),
        wide in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let (m, k, n) = (EDGE_DIMS[dims.0], EDGE_DIMS[dims.1], EDGE_DIMS[dims.2]);
        let a = DMat::from_vec(m, k, filled(m * k, seed));
        let b = DMat::from_vec(k, n, filled(k * n, seed ^ 0xABCD));
        let at = DMat::from_vec(k, m, filled(k * m, seed ^ 0x1234));
        let bt = DMat::from_vec(n, k, filled(n * k, seed ^ 0x4321));
        let run = |kind| {
            let _l = pin::lock();
            let _b = pin::backend(kind);
            let _t = pin::threads(if wide { 4 } else { 1 });
            (
                matmul::matmul(&a, &b),
                matmul::matmul_at_b(&at, &b),
                matmul::matmul_a_bt(&a, &bt),
            )
        };
        let want = run(BackendKind::Scalar);
        let got = run(BackendKind::Simd);
        assert_bits_eq(want.0.data(), got.0.data(), "matmul");
        assert_bits_eq(want.1.data(), got.1.data(), "matmul_at_b");
        assert_bits_eq(want.2.data(), got.2.data(), "matmul_a_bt");
    }
}

/// The forced-`scalar` fallback must engage even on AVX2 hosts: selection
/// reports the scalar backend and whole operators run its kernels.
#[test]
fn forced_scalar_selection_wins_on_any_host() {
    let _l = pin::lock();
    let _b = pin::backend(BackendKind::Scalar);
    assert_eq!(backend::selected_kind(), BackendKind::Scalar);
    assert_eq!(backend::active().name(), "scalar");
    // A matmul under the forced selection matches the scalar kernel run
    // directly — the dispatch layer really routed to scalar.
    let a = DMat::from_vec(9, 24, filled(9 * 24, 7));
    let b = DMat::from_vec(24, 33, filled(24 * 33, 8));
    let got = matmul::matmul(&a, &b);
    let mut want = vec![0.0f32; 9 * 33];
    backend::scalar().gemm_block(a.data(), 24, b.data(), 33, &mut want);
    assert_bits_eq(got.data(), &want, "forced scalar matmul");
}
