//! Property-based tests of the sparse/dense substrates and the autograd
//! engine — the invariants everything above relies on.

use proptest::prelude::*;
use spectral_gnn::autograd::param::ParamGroup;
use spectral_gnn::autograd::{gradcheck::check_grads, ParamStore, Tape};
use spectral_gnn::dense::{matmul, rng as drng, DMat};
use spectral_gnn::sparse::{coo::Coo, Dir, Graph, PropMatrix};
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (5usize..30, 0usize..40, 0u64..10_000).prop_map(|(n, extra, seed)| {
        let mut rng = drng::seeded(seed);
        let mut edges: Vec<(u32, u32)> = (1..n as u32)
            .map(|v| (rand::Rng::random_range(&mut rng, 0..v), v))
            .collect();
        for _ in 0..extra {
            let a = rand::Rng::random_range(&mut rng, 0..n as u32);
            let b = rand::Rng::random_range(&mut rng, 0..n as u32);
            if a != b {
                edges.push((a, b));
            }
        }
        Graph::from_edges(n, &edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csr_transpose_is_involution(g in arb_graph()) {
        let adj = g.adjacency();
        prop_assert_eq!(&adj.transpose().transpose(), adj);
    }

    #[test]
    fn undirected_adjacency_is_symmetric(g in arb_graph()) {
        let t = g.adjacency().transpose();
        prop_assert_eq!(g.adjacency(), &t);
    }

    #[test]
    fn spmm_matches_dense_reference(g in arb_graph(), seed in 0u64..1000) {
        let n = g.nodes();
        let x = drng::randn_mat(n, 3, 1.0, &mut drng::seeded(seed));
        let pm = PropMatrix::new(&g, 0.5);
        // Densify Ã and compare.
        let mut dense = DMat::zeros(n, n);
        for (r, c, v) in pm.adj().iter() {
            dense.set(r as usize, c as usize, v);
        }
        let want = matmul::matmul(&dense, &x);
        let got = pm.hop(Dir::Forward, 1.0, 0.0, &x);
        for (a, b) in want.data().iter().zip(got.data()) {
            prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn normalized_operator_spectral_radius_at_most_one(g in arb_graph()) {
        // ‖Ã x‖∞ never exceeds ‖x‖∞ for ρ=0 (row-stochastic) operators.
        let pm = PropMatrix::with_options(&g, 0.0, true, spectral_gnn::sparse::Backend::Csr);
        let x = drng::randn_mat(g.nodes(), 2, 1.0, &mut drng::seeded(1));
        let y = pm.hop(Dir::Forward, 1.0, 0.0, &x);
        prop_assert!(y.max_abs() <= x.max_abs() + 1e-5);
    }

    #[test]
    fn coalesce_is_idempotent(
        n in 2usize..10,
        entries in proptest::collection::vec((0u32..8, 0u32..8, -2.0f32..2.0), 0..40),
    ) {
        let mut coo = Coo::new(n.max(8), n.max(8));
        for (r, c, v) in entries {
            coo.push(r, c, v);
        }
        let mut once = coo.clone();
        once.coalesce();
        let mut twice = once.clone();
        twice.coalesce();
        prop_assert_eq!(once.len(), twice.len());
    }

    #[test]
    fn homophily_is_a_probability(g in arb_graph(), seed in 0u64..100) {
        let mut rng = drng::seeded(seed);
        let labels: Vec<u32> =
            (0..g.nodes()).map(|_| rand::Rng::random_range(&mut rng, 0..4u32)).collect();
        let h = spectral_gnn::sparse::stats::node_homophily(&g, &labels);
        prop_assert!((0.0..=1.0).contains(&h));
        let e = spectral_gnn::sparse::stats::edge_homophily(&g, &labels);
        prop_assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn random_network_gradients_verify(
        seed in 0u64..300,
        hidden in 2usize..8,
        rows in 2usize..6,
    ) {
        let mut rng = drng::seeded(seed);
        let mut ps = ParamStore::new();
        let w1 = ps.add("w1", drng::glorot(3, hidden, &mut rng), ParamGroup::Network);
        let b1 = ps.add("b1", DMat::zeros(1, hidden), ParamGroup::Network);
        let w2 = ps.add("w2", drng::glorot(hidden, 2, &mut rng), ParamGroup::Filter);
        let x = drng::randn_mat(rows, 3, 1.0, &mut rng);
        let y: Vec<u32> = (0..rows as u32).map(|i| i % 2).collect();
        let targets = Arc::new(y);

        let build = |ps: &ParamStore| {
            // A training tape: `linear` records its backward context there.
            let mut t = Tape::new(true, 0);
            let xn = t.constant(x.clone());
            let w1n = t.param(ps, w1);
            let b1n = t.param(ps, b1);
            let w2n = t.param(ps, w2);
            let h = t.linear(xn, w1n, b1n, false, None);
            let h = t.tanh(h);
            let logits = t.matmul(h, w2n);
            let loss = t.softmax_cross_entropy(logits, Arc::clone(&targets));
            (t, loss)
        };
        ps.zero_grads();
        let (mut t, loss) = build(&ps);
        t.backward(loss, &mut ps);
        let report = check_grads(&mut ps, &[w1, b1, w2], |ps| {
            let (t, l) = build(ps);
            t.value(l).get(0, 0) as f64
        }, 1e-3);
        prop_assert!(report.max_rel_err < 1e-2, "max rel err {}", report.max_rel_err);
    }
}

/// Jacobi eigensolver sanity on random symmetric matrices: reconstruction
/// and eigenvalue ordering.
#[test]
fn eigensolver_reconstructs_random_symmetric_matrices() {
    for seed in 0..5u64 {
        let mut rng = drng::seeded(seed);
        let n = 8;
        let raw = drng::randn_mat(n, n, 1.0, &mut rng);
        let mut sym = DMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                sym.set(i, j, (raw.get(i, j) + raw.get(j, i)) / 2.0);
            }
        }
        let e = spectral_gnn::dense::eigen::sym_eigen(&sym);
        assert!(e.values.windows(2).all(|w| w[0] <= w[1] + 1e-9), "sorted");
        // Reconstruct.
        let mut lam = DMat::zeros(n, n);
        for i in 0..n {
            lam.set(i, i, e.values[i] as f32);
        }
        let rec = matmul::matmul(&matmul::matmul(&e.vectors, &lam), &e.vectors.transpose());
        for (a, b) in sym.data().iter().zip(rec.data()) {
            assert!((a - b).abs() < 1e-3, "seed {seed}: {a} vs {b}");
        }
    }
}
