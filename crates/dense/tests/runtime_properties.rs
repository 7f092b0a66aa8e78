//! Property tests for the worker-pool runtime: pooled execution must be
//! **bit-identical** to the serial fallback for any shape and any thread
//! count, because the benchmark's reproducibility story (seeded runs,
//! regression-tested accuracies) depends on parallelism never changing
//! results.

use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;
use sgnn_dense::pin;
use sgnn_dense::runtime::{num_threads, run_chunks, run_indexed, run_map, set_threads};

/// Deterministic pseudo-random fill so every case works on distinct data.
fn filled(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let mut z = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((z >> 40) as f32) * 1e-5 - 80.0
        })
        .collect()
}

/// A per-index f32 task whose result depends on both index and seed.
fn task_value(i: usize, seed: u64) -> f32 {
    let x = ((i as u64 ^ seed) % 10_000) as f32 * 1e-3;
    x.sin().mul_add(3.0, x.sqrt())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run_chunks` under any pool width writes the exact bits the serial
    /// fallback writes, across shapes straddling the parallel cutoff.
    #[test]
    fn pooled_run_chunks_is_bit_identical_to_serial(
        rows in 1usize..400,
        cols in 1usize..80,
        threads in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let base = filled(rows * cols, seed);
        let kernel = |first: usize, chunk: &mut [f32]| {
            for (r, row) in chunk.chunks_exact_mut(cols).enumerate() {
                let scale = ((first + r) % 7) as f32 + 0.5;
                for (c, v) in row.iter_mut().enumerate() {
                    *v = v.mul_add(scale, (c % 11) as f32 * 0.25);
                }
            }
        };
        let mut serial = base.clone();
        {
            let _l = pin::lock();
            let _t = pin::threads(1);
            run_chunks(&mut serial, rows, cols, kernel);
        }
        let mut pooled = base;
        {
            let _l = pin::lock();
            let _t = pin::threads(threads);
            run_chunks(&mut pooled, rows, cols, kernel);
        }
        for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
            prop_assert_eq!(s.to_bits(), p.to_bits(), "element {} diverged: {} vs {}", i, s, p);
        }
    }

    /// `run_indexed` visits every index exactly once and produces the same
    /// bits as the serial loop for every width.
    #[test]
    fn pooled_run_indexed_is_bit_identical_to_serial(
        n in 0usize..3_000,
        threads in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let expect: Vec<u32> = (0..n).map(|i| task_value(i, seed).to_bits()).collect();
        let visits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let slots: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        {
            let _l = pin::lock();
            let _t = pin::threads(threads);
            run_indexed(n, |i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
                slots[i].store(task_value(i, seed).to_bits(), Ordering::Relaxed);
            });
        }
        for i in 0..n {
            prop_assert_eq!(visits[i].load(Ordering::Relaxed), 1, "index {} visit count", i);
            prop_assert_eq!(slots[i].load(Ordering::Relaxed), expect[i], "index {} value", i);
        }
    }

    /// `run_map` keeps results in index order regardless of which lane
    /// computed each entry.
    #[test]
    fn pooled_run_map_matches_serial_map(
        n in 0usize..1_000,
        threads in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let expect: Vec<u32> = (0..n).map(|i| task_value(i, seed).to_bits()).collect();
        let got = {
            let _l = pin::lock();
            let _t = pin::threads(threads);
            run_map(n, |i| task_value(i, seed).to_bits())
        };
        prop_assert_eq!(got, expect);
    }
}

/// Resizing the pool between dispatches (the Figure-5 thread sweep) must
/// never change results — only speed.
#[test]
fn resize_mid_sequence_keeps_results_identical() {
    let rows = 223;
    let cols = 97;
    let kernel = |first: usize, chunk: &mut [f32]| {
        for (r, row) in chunk.chunks_exact_mut(cols).enumerate() {
            let s = ((first + r) as f32).mul_add(0.01, 1.0);
            for v in row.iter_mut() {
                *v = (*v * s).tanh();
            }
        }
    };
    let base = filled(rows * cols, 42);
    let mut reference = base.clone();
    {
        let _l = pin::lock();
        let _t = pin::threads(1);
        run_chunks(&mut reference, rows, cols, kernel);
    }
    // Sweep widths 1..=8 back-to-back against the same persistent pool,
    // resizing before each dispatch.
    let _l = pin::lock();
    let _t = pin::threads(1);
    for threads in 1..=8 {
        set_threads(threads);
        let mut data = base.clone();
        run_chunks(&mut data, rows, cols, kernel);
        for (i, (r, d)) in reference.iter().zip(&data).enumerate() {
            assert_eq!(r.to_bits(), d.to_bits(), "width {threads}, element {i}");
        }
    }
}

/// `set_threads(n)` is the width the next dispatch sees, and `set_threads(0)`
/// hands it back to the default (`SGNN_THREADS` or the machine's width).
#[test]
fn thread_override_round_trips() {
    let _l = pin::lock();
    let _t = pin::threads(0);
    let default = num_threads();
    assert!(default >= 1);
    set_threads(2);
    assert_eq!(num_threads(), 2);
    set_threads(0);
    assert_eq!(num_threads(), default);
}
