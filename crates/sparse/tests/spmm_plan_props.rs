//! Property tests for the propagation engine: planned multi-lane dispatch
//! must be **bit-identical** to the width-1 serial kernel, and the
//! three-term kernel to the public composition `affine_spmm` + `axpy`, for
//! any graph shape, degree distribution, pool width, and coefficients —
//! the benchmark's seeded-reproducibility story depends on it.

use proptest::prelude::*;
use sgnn_dense::runtime::set_threads;
use sgnn_dense::{pin, DMat};
use sgnn_sparse::{Graph, PropMatrix};

/// Undirected graph from raw endpoint samples. `skew` folds endpoints
/// quadratically toward low node ids, concentrating degree into hubs the
/// way a power-law graph does; `false` leaves them uniform.
fn build_graph(n: usize, raw_edges: &[(usize, usize)], skew: bool) -> Graph {
    let fold = |v: usize| {
        if skew {
            ((v * v) / 10_000) % n
        } else {
            v % n
        }
    };
    let edges: Vec<(u32, u32)> = raw_edges
        .iter()
        .map(|&(u, v)| (fold(u) as u32, fold(v) as u32))
        .filter(|&(u, v)| u != v)
        .collect();
    Graph::from_edges(n, &edges)
}

/// Deterministic pseudo-random feature matrix.
fn features(rows: usize, cols: usize, seed: u64) -> DMat {
    DMat::from_fn(rows, cols, |r, c| {
        let mut z = ((r * cols + c) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        ((z >> 40) as f32) * 1e-5 - 80.0
    })
}

fn assert_bits_eq(a: &DMat, b: &DMat) {
    assert_eq!(a.shape(), b.shape());
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "element {i} diverged: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Planned dispatch returns the exact bits of the width-1 serial
    /// kernel on uniform random graphs — including the small draws that
    /// fall below the planning cutoff and run serially at any width.
    #[test]
    fn planned_spmm_is_bit_identical_on_random_graphs(
        n in 20usize..500,
        raw in proptest::collection::vec((0usize..10_000, 0usize..10_000), 30..800),
        f in 1usize..20,
        threads in 2usize..8,
        seed in 0u64..1_000,
    ) {
        let g = build_graph(n, &raw, false);
        let pm = PropMatrix::new(&g, 0.5);
        let x = features(n, f, seed);
        // Every reference is computed at width 1, then the width widens.
        let _l = pin::lock();
        let _t = pin::threads(1);
        let serial = pm.adj().spmm(&x);
        set_threads(threads);
        assert_bits_eq(&serial, &pm.adj().spmm(&x));
    }

    /// Same bit-identity on hub-heavy (power-law-like) graphs, where the
    /// planned chunk boundaries are furthest from an equal-row split.
    #[test]
    fn planned_spmm_is_bit_identical_on_powerlaw_graphs(
        n in 50usize..400,
        raw in proptest::collection::vec((0usize..10_000, 0usize..10_000), 100..900),
        f in 1usize..16,
        threads in 2usize..8,
        a in -2.0f32..2.0,
        b in -1.5f32..1.5,
        seed in 0u64..1_000,
    ) {
        let g = build_graph(n, &raw, true);
        let pm = PropMatrix::new(&g, 0.5);
        let x = features(n, f, seed);
        // Every reference is computed at width 1, then the width widens.
        let _l = pin::lock();
        let _t = pin::threads(1);
        let serial = pm.adj().affine_spmm(a, b, &x);
        set_threads(threads);
        assert_bits_eq(&serial, &pm.adj().affine_spmm(a, b, &x));
    }

    /// The three-term kernel `a·Ãx + b·x + c·z` returns the exact bits of
    /// the two-step composition (affine hop, then axpy) computed serially,
    /// for any coefficients, at every width.
    #[test]
    fn three_term_kernel_is_bit_identical_to_composition(
        n in 20usize..300,
        raw in proptest::collection::vec((0usize..10_000, 0usize..10_000), 30..600),
        skew in proptest::prelude::any::<bool>(),
        f in 1usize..12,
        threads in 1usize..8,
        a in -3.0f32..3.0,
        b in -2.0f32..2.0,
        c in -2.0f32..2.0,
        seed in 0u64..1_000,
    ) {
        let g = build_graph(n, &raw, skew);
        let pm = PropMatrix::new(&g, 0.5);
        let x = features(n, f, seed);
        let z = features(n, f, seed ^ 0xdead_beef);
        // Every reference is computed at width 1, then the width widens.
        let _l = pin::lock();
        let _t = pin::threads(1);
        let mut composed = pm.adj().affine_spmm(a, b, &x);
        composed.axpy(c, &z);
        set_threads(threads);
        assert_bits_eq(&composed, &pm.adj().affine_spmm_axpy(a, b, c, &x, &z));
    }
}
