//! Scalar-vs-SIMD backend comparison for the dense kernels: the three GEMM
//! products (`gemm` = `A·B`, `at_b` = `Aᵀ·B`, `a_bt` = `A·Bᵀ`) and the
//! row-AXPY, at the paper's feature widths F ∈ {16, 64, 256}; the last `φ1`
//! layer's narrow product (`gemm_narrow`: hidden 256 → 7 and 2 classes);
//! the SpMM row microkernel on a degree-30 gather at F ∈ {32, 64, 128}
//! (`spmm_row`) beside the per-edge `axpy` loop it replaced
//! (`spmm_axpy_loop` — compare the two `simd_ms` columns; under the scalar
//! backend the two are the same code);
//! and the CRC32 every codec seals with, at one reply frame (64 KiB) and
//! one bulk artifact read (16 MiB). Writes
//! `BENCH_gemm.json` with a top-level `speedup` field (the AVX2/scalar GEMM
//! ratio at F = 256 — the acceptance headline), per-kernel, per-width
//! entries, and a `crc32` table in GB/s.
//!
//! Runs the kernels directly through the `Backend` trait objects, so the
//! numbers isolate the kernel difference from scheduling: the pool is
//! pinned to one thread and each timing is best-of-`reps` on the same
//! buffers.
//!
//! Environment:
//! * `SGNN_BENCH_FAST=1` — fewer reps and smaller row counts for CI smoke.
//! * `SGNN_BENCH_OUT` — override the output path (default
//!   `<workspace>/BENCH_gemm.json`).

use sgnn_dense::backend::{self, Backend};
use sgnn_dense::{rng as drng, runtime};
use std::hint::black_box;
use std::time::Instant;

struct KernelResult {
    kernel: &'static str,
    f: usize,
    scalar_ms: f64,
    simd_ms: f64,
    speedup: f64,
}

fn time_best(reps: usize, mut body: impl FnMut()) -> f64 {
    body(); // warmup: faults pages, resolves dispatch
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        body();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// `rows × f` · `f × f` GEMM — the model transformation `H · W`.
fn bench_gemm(be: &'static dyn Backend, rows: usize, f: usize, reps: usize) -> f64 {
    let mut rng = drng::seeded(1);
    let a = drng::randn_mat(rows, f, 1.0, &mut rng);
    let b = drng::randn_mat(f, f, 1.0, &mut rng);
    let mut out = vec![0.0f32; rows * f];
    time_best(reps, || {
        out.iter_mut().for_each(|v| *v = 0.0);
        be.gemm_block(a.data(), f, b.data(), f, black_box(&mut out));
    }) * 1e3
}

/// `(rows × f)ᵀ · (rows × f)` — the weight gradient `Xᵀ·dY`.
fn bench_at_b(be: &'static dyn Backend, rows: usize, f: usize, reps: usize) -> f64 {
    let mut rng = drng::seeded(3);
    let a = drng::randn_mat(rows, f, 1.0, &mut rng);
    let b = drng::randn_mat(rows, f, 1.0, &mut rng);
    let mut out = vec![0.0f32; f * f];
    time_best(reps, || {
        out.iter_mut().for_each(|v| *v = 0.0);
        be.gemm_at_b(rows, a.data(), f, b.data(), f, black_box(&mut out));
    }) * 1e3
}

/// `(rows × f) · (f × f)ᵀ` — the input gradient `dY·Wᵀ`.
fn bench_a_bt(be: &'static dyn Backend, rows: usize, f: usize, reps: usize) -> f64 {
    let mut rng = drng::seeded(4);
    let a = drng::randn_mat(rows, f, 1.0, &mut rng);
    let b = drng::randn_mat(f, f, 1.0, &mut rng);
    let mut out = vec![0.0f32; rows * f];
    time_best(reps, || {
        be.gemm_a_bt(a.data(), f, b.data(), f, black_box(&mut out));
    }) * 1e3
}

/// `rows × 256` · `256 × classes` — the last `φ1` layer of a dataset with
/// fewer classes than one vector has lanes.
fn bench_gemm_narrow(be: &'static dyn Backend, rows: usize, classes: usize, reps: usize) -> f64 {
    let mut rng = drng::seeded(5);
    let a = drng::randn_mat(rows, 256, 1.0, &mut rng);
    let b = drng::randn_mat(256, classes, 1.0, &mut rng);
    let mut out = vec![0.0f32; rows * classes];
    time_best(reps, || {
        out.iter_mut().for_each(|v| *v = 0.0);
        be.gemm_block(a.data(), 256, b.data(), classes, black_box(&mut out));
    }) * 1e3
}

/// `rows` row-AXPYs of width `f` — the SpMM inner loop shape.
fn bench_axpy(be: &'static dyn Backend, rows: usize, f: usize, reps: usize) -> f64 {
    let mut rng = drng::seeded(2);
    let x = drng::randn_mat(rows, f, 1.0, &mut rng);
    let mut out = vec![0.0f32; rows * f];
    time_best(reps, || {
        for (r, xrow) in x.row_iter().enumerate() {
            let orow = &mut out[r * f..(r + 1) * f];
            be.axpy(0.37, xrow, black_box(orow));
        }
    }) * 1e3
}

/// Edges per output row of the SpMM gather benches.
const GATHER_DEGREE: usize = 30;

/// A seeded gather over `rows` nodes of width `f`: [`GATHER_DEGREE`] random
/// columns and weights per output row — one hop over a degree-30 graph.
fn gather(rows: usize, f: usize) -> (Vec<u32>, Vec<f32>, sgnn_dense::DMat) {
    use rand::Rng;
    let mut rng = drng::seeded(6);
    let cols = (0..rows * GATHER_DEGREE)
        .map(|_| rng.random_range(0..rows as u32))
        .collect();
    let weights = drng::randn_mat(rows, GATHER_DEGREE, 1.0, &mut rng).into_vec();
    (cols, weights, drng::randn_mat(rows, f, 1.0, &mut rng))
}

/// One hop through [`Backend::spmm_row`], a call per output row.
fn bench_spmm_row(be: &'static dyn Backend, rows: usize, f: usize, reps: usize) -> f64 {
    let (cols, weights, x) = gather(rows, f);
    let mut out = vec![0.0f32; rows * f];
    time_best(reps, || {
        for (r, orow) in out.chunks_exact_mut(f).enumerate() {
            let e = r * GATHER_DEGREE..(r + 1) * GATHER_DEGREE;
            let (c, w) = (&cols[e.clone()], &weights[e]);
            be.spmm_row(-2.0, c, w, x.data(), None, None, black_box(orow));
        }
    }) * 1e3
}

/// The same hop as the row loop ran it before the microkernel: zero the
/// output row, then one `axpy` call per edge.
fn bench_spmm_axpy_loop(be: &'static dyn Backend, rows: usize, f: usize, reps: usize) -> f64 {
    let (cols, weights, x) = gather(rows, f);
    let mut out = vec![0.0f32; rows * f];
    time_best(reps, || {
        for (r, orow) in out.chunks_exact_mut(f).enumerate() {
            orow.fill(0.0);
            let e = r * GATHER_DEGREE..(r + 1) * GATHER_DEGREE;
            for (&c, &w) in cols[e.clone()].iter().zip(&weights[e]) {
                be.axpy(-2.0 * w, x.row(c as usize), black_box(&mut *orow));
            }
        }
    }) * 1e3
}

/// CRC32 throughput over `len` bytes, GB/s (table loop vs carry-less fold).
fn bench_crc32(be: &'static dyn Backend, len: usize, reps: usize) -> f64 {
    let data: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
    let secs = time_best(reps, || {
        black_box(be.crc32_update(0xFFFF_FFFF, black_box(&data)));
    });
    len as f64 / secs / 1e9
}

fn main() {
    sgnn_obs::init_from_env();
    // One pool lane: this bench isolates kernel-level vector width, not
    // scheduling.
    runtime::set_threads(1);

    let fast = std::env::var("SGNN_BENCH_FAST").is_ok();
    let (rows, reps) = if fast {
        (2_000usize, 3usize)
    } else {
        (8_000, 7)
    };

    let scalar = backend::scalar();
    let simd = backend::simd();
    let simd_name = simd.map_or("unavailable", |b| b.name());
    let simd_or_scalar = simd.unwrap_or(scalar);

    type BenchFn = fn(&'static dyn Backend, usize, usize, usize) -> f64;
    let mut cases: Vec<(&'static str, BenchFn, usize, usize)> = Vec::new();
    let mut results: Vec<KernelResult> = Vec::new();
    for &f in &[16usize, 64, 256] {
        // GEMM flops grow with f², so shrink rows to keep wall time flat.
        let gemm_rows = (rows / f.max(1)).max(64);
        cases.extend([
            ("gemm", bench_gemm as BenchFn, gemm_rows, f),
            ("at_b", bench_at_b, gemm_rows, f),
            ("a_bt", bench_a_bt, gemm_rows, f),
            ("axpy", bench_axpy, rows, f),
        ]);
    }
    for classes in [7, 2] {
        cases.push(("gemm_narrow", bench_gemm_narrow, rows / 2, classes));
    }
    for f in [32, 64, 128] {
        cases.push(("spmm_axpy_loop", bench_spmm_axpy_loop, rows, f));
        cases.push(("spmm_row", bench_spmm_row, rows, f));
    }
    for (kernel, bench, r, f) in cases {
        let scalar_ms = bench(scalar, r, f, reps);
        let simd_ms = bench(simd_or_scalar, r, f, reps);
        results.push(KernelResult {
            kernel,
            f,
            scalar_ms,
            simd_ms,
            speedup: scalar_ms / simd_ms.max(1e-12),
        });
    }

    // Headline: the GEMM ratio at F = 256 (the acceptance criterion).
    let headline = results
        .iter()
        .find(|r| r.kernel == "gemm" && r.f == 256)
        .map_or(1.0, |r| r.speedup);

    let crc_entries: Vec<String> = [64 << 10, 16 << 20]
        .into_iter()
        .map(|len| {
            // Small inputs are timer-bound per call: best of many.
            let crc_reps = reps * ((1 << 24) / len).clamp(1, 64);
            let scalar_gbps = bench_crc32(scalar, len, crc_reps);
            let simd_gbps = bench_crc32(simd_or_scalar, len, crc_reps);
            println!(
                "   crc32 {:>8} B  scalar {scalar_gbps:.2} GB/s | {simd_name} {simd_gbps:.2} GB/s | {:.2}x",
                len,
                simd_gbps / scalar_gbps
            );
            format!(
                "    {{\"bytes\": {len}, \"scalar_gbps\": {scalar_gbps:.3}, \
                 \"simd_gbps\": {simd_gbps:.3}, \"speedup\": {:.4}}}",
                simd_gbps / scalar_gbps
            )
        })
        .collect();

    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"feature_width\": {}, \"scalar_ms\": {:.4}, \
                 \"simd_ms\": {:.4}, \"speedup\": {:.4}}}",
                r.kernel, r.f, r.scalar_ms, r.simd_ms, r.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"gemm_backend\",\n  \"scalar\": \"scalar\",\n  \
         \"simd\": \"{simd_name}\",\n  \"simd_supported\": {},\n  \
         \"headline\": \"gemm F=256\",\n  \"speedup\": {headline:.4},\n  \
         \"kernels\": [\n{}\n  ],\n  \"crc32\": [\n{}\n  ]\n}}\n",
        backend::simd_supported(),
        entries.join(",\n"),
        crc_entries.join(",\n"),
    );
    let out_path = std::env::var("SGNN_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json").to_string()
    });
    std::fs::write(&out_path, &json).expect("write BENCH_gemm.json");

    for r in &results {
        println!(
            "{:>14} F={:<4} scalar {:.3} ms | {} {:.3} ms | {:.2}x",
            r.kernel, r.f, r.scalar_ms, simd_name, r.simd_ms, r.speedup
        );
    }
    println!("gemm_backend: headline (gemm F=256) {headline:.2}x; BENCH_gemm.json written");
    sgnn_obs::flush();
}
