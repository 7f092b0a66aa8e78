//! Property-based tests over the whole filter zoo.
//!
//! Invariants checked on randomly generated graphs and hop counts:
//!
//! 1. **Path agreement** — the full-batch operator and the mini-batch
//!    precompute+combine path produce identical outputs at initial
//!    coefficients (they share no code beyond `propagate`).
//! 2. **Adjoint identity** — `⟨F(x), y⟩ = ⟨x, F*(y)⟩` for the combined
//!    filter map of every generic-path filter, which is exactly what the
//!    backward pass relies on.
//! 3. **Linearity** — every filter output is linear in its input signal.

use std::sync::Arc;

use proptest::prelude::*;
use spectral_gnn::autograd::{ParamStore, Tape};
use spectral_gnn::core::op::{combine, CoeffValues, Rows};
use spectral_gnn::core::{make_filter, FilterModule, PropCtx};
use spectral_gnn::dense::{rng as drng, DMat};
use spectral_gnn::sparse::{Graph, PropMatrix};

/// Builds a random connected graph with `n` nodes.
fn random_graph(n: usize, extra_edges: usize, seed: u64) -> Graph {
    let mut rng = drng::seeded(seed);
    let mut edges: Vec<(u32, u32)> = (1..n as u32)
        .map(|v| (rand::Rng::random_range(&mut rng, 0..v), v))
        .collect();
    for _ in 0..extra_edges {
        let a = rand::Rng::random_range(&mut rng, 0..n as u32);
        let b = rand::Rng::random_range(&mut rng, 0..n as u32);
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Filters whose basis is input-independent (the generic FB path).
const GENERIC_FILTERS: &[&str] = &[
    "Identity",
    "Linear",
    "Impulse",
    "Monomial",
    "PPR",
    "HK",
    "Gaussian",
    "VarMonomial",
    "Horner",
    "Chebyshev",
    "Clenshaw",
    "ChebInterp",
    "Bernstein",
    "Legendre",
    "Jacobi",
    "FBGNNI",
    "FBGNNII",
    "ACMGNNI",
    "ACMGNNII",
    "FAGNN",
    "G2CN",
    "GNN-LF/HF",
    "FiGURe",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fb_and_mb_agree_for_all_mb_filters(
        seed in 0u64..1000,
        n in 8usize..24,
        hops in 1usize..6,
        fidx in 0usize..23,
    ) {
        let name = GENERIC_FILTERS[fidx];
        let filter = make_filter(name, hops).unwrap();
        prop_assume!(filter.mb_compatible());
        let g = random_graph(n, n, seed);
        let pm = Arc::new(PropMatrix::new(&g, 0.5));
        let x = drng::randn_mat(n, 3, 1.0, &mut drng::seeded(seed ^ 0xabc));

        let mut store = ParamStore::new();
        let module = FilterModule::new(Arc::clone(&filter), 3, &mut store);
        let mut tape = Tape::new(false, 0);
        let xn = tape.constant(x.clone());
        let fb = module.apply_fb(&mut tape, &pm, xn, &store);
        let terms = module.precompute(&pm, &x);
        let mut tape2 = Tape::new(false, 0);
        let mb = module.combine_batch(&mut tape2, &terms, &store);
        let (a, b) = (tape.value(fb), tape2.value(mb));
        prop_assert_eq!(a.shape(), b.shape());
        for (u, v) in a.data().iter().zip(b.data()) {
            prop_assert!((u - v).abs() < 1e-3, "{}: {} vs {}", name, u, v);
        }
    }

    #[test]
    fn adjoint_identity_holds(
        seed in 0u64..1000,
        n in 8usize..20,
        hops in 1usize..5,
        fidx in 0usize..23,
    ) {
        let name = GENERIC_FILTERS[fidx];
        let filter = make_filter(name, hops).unwrap();
        let g = random_graph(n, n / 2, seed);
        let pm = PropMatrix::new(&g, 0.5);
        let spec = filter.spec(2);
        let cv = CoeffValues::resolve(&spec, &spec.initial_params());
        let x = drng::randn_mat(n, 2, 1.0, &mut drng::seeded(seed ^ 0x111));
        let fcols = match spec.fusion {
            spectral_gnn::core::Fusion::Concat => 2 * spec.channels.len(),
            _ => 2,
        };
        let y = drng::randn_mat(n, fcols, 1.0, &mut drng::seeded(seed ^ 0x222));

        // ⟨F x, y⟩ where F is the combined (sum-fusion) filter map.
        prop_assume!(!matches!(spec.fusion, spectral_gnn::core::Fusion::Concat));
        let fwd = {
            let ctx = PropCtx::forward(&pm);
            combine(&spec, &filter.propagate(&ctx, &x), Rows::All, &cv)
        };
        let adj = {
            let ctx = PropCtx::adjoint(&pm);
            combine(&spec, &filter.propagate(&ctx, &y), Rows::All, &cv)
        };
        let lhs = fwd.dot(&y);
        let rhs = x.dot(&adj);
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!(((lhs - rhs) / scale).abs() < 1e-4, "{}: {} vs {}", name, lhs, rhs);
    }

    #[test]
    fn filter_output_is_linear_in_signal(
        seed in 0u64..500,
        hops in 1usize..5,
        fidx in 0usize..23,
        alpha in -2.0f32..2.0,
    ) {
        let name = GENERIC_FILTERS[fidx];
        let filter = make_filter(name, hops).unwrap();
        let g = random_graph(12, 8, seed);
        let pm = PropMatrix::new(&g, 0.5);
        let spec = filter.spec(2);
        let cv = CoeffValues::resolve(&spec, &spec.initial_params());
        let x1 = drng::randn_mat(12, 2, 1.0, &mut drng::seeded(seed));
        let x2 = drng::randn_mat(12, 2, 1.0, &mut drng::seeded(seed ^ 7));
        let apply = |x: &DMat| {
            let ctx = PropCtx::forward(&pm);
            combine(&spec, &filter.propagate(&ctx, x), Rows::All, &cv)
        };
        // F(x1 + α x2) == F(x1) + α F(x2).
        let mut comb = x1.clone();
        comb.axpy(alpha, &x2);
        let lhs = apply(&comb);
        let mut rhs = apply(&x1);
        rhs.axpy(alpha, &apply(&x2));
        let scale = rhs.norm().max(1.0);
        let mut diff = lhs.clone();
        diff.sub_assign_mat(&rhs);
        prop_assert!(diff.norm() / scale < 1e-4, "{}: nonlinearity {}", name, diff.norm() / scale);
    }
}

/// The normalization sweep keeps the adjoint identity even when `ρ ≠ 1/2`
/// (the operator is asymmetric and the stored transpose must be used).
#[test]
fn adjoint_identity_asymmetric_normalization() {
    for &rho in &[0.0f32, 0.25, 0.75, 1.0] {
        let g = random_graph(15, 10, 42);
        let pm = PropMatrix::new(&g, rho);
        let filter = make_filter("Chebyshev", 4).unwrap();
        let spec = filter.spec(2);
        let cv = CoeffValues::resolve(&spec, &spec.initial_params());
        let x = drng::randn_mat(15, 2, 1.0, &mut drng::seeded(1));
        let y = drng::randn_mat(15, 2, 1.0, &mut drng::seeded(2));
        let fwd = {
            let ctx = PropCtx::forward(&pm);
            combine(&spec, &filter.propagate(&ctx, &x), Rows::All, &cv)
        };
        let adj = {
            let ctx = PropCtx::adjoint(&pm);
            combine(&spec, &filter.propagate(&ctx, &y), Rows::All, &cv)
        };
        let lhs = fwd.dot(&y);
        let rhs = x.dot(&adj);
        assert!(
            ((lhs - rhs) / lhs.abs().max(1.0)).abs() < 1e-4,
            "rho {rho}: {lhs} vs {rhs}"
        );
    }
}
