//! Golden bits of every registry filter's propagation: the kept forward
//! terms, the folded output at initial coefficients, the adjoint terms and
//! the hops each of them took, for all 27 filters at K = 10 and K = 2. The
//! hashes were taken before the filters became descriptions read by one
//! interpreter; any change to a recurrence's hops, coefficients, order or
//! buffer use that moves a bit shows here.
//!
//! Own test binary with a single test: it pins the process-wide backend and
//! worker-pool width, and runs every case under `scalar` and `simd` at
//! widths 1 and 4 against one constant each. The hashes depend on nothing
//! but the kernels' arithmetic, which no backend or width changes.

use sgnn_core::op::{filter_output, CoeffValues};
use sgnn_core::{all_filter_names, make_filter, PropCtx};
use sgnn_dense::backend::BackendKind;
use sgnn_dense::{pin, rng as drng, DMat};
use sgnn_sparse::{Graph, PropMatrix};

/// FNV-1a over each matrix's shape and value bits, in order.
fn hash<'a>(mats: impl IntoIterator<Item = &'a DMat>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for m in mats {
        eat(&(m.rows() as u64).to_le_bytes());
        eat(&(m.cols() as u64).to_le_bytes());
        for v in m.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// A 240-node ring with two seeded chords per node, normalized with
/// `ρ = 0.8` so the adjoint operator differs from the forward one.
fn graph() -> PropMatrix {
    let n = 240u64;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) % n
    };
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect();
    for i in 0..n {
        for _ in 0..2 {
            let j = next();
            if j != i {
                edges.push((i as u32, j as u32));
            }
        }
    }
    PropMatrix::new(&Graph::from_edges(n as usize, &edges), 0.8)
}

/// One filter at one order: (name, K, forward-terms hash, folded-output
/// hash, adjoint-terms hash, hops of each).
type Row = (&'static str, usize, u64, u64, u64, [usize; 3]);

fn rows(pm: &PropMatrix, x: &DMat) -> Vec<Row> {
    let mut out = Vec::new();
    for hops in [10, 2] {
        for name in all_filter_names() {
            let filter = make_filter(name, hops).unwrap();
            let spec = filter.spec(x.cols());
            let fwd = PropCtx::forward(pm);
            let terms = filter.propagate(&fwd, x);
            let folded = PropCtx::forward(pm);
            let cv = CoeffValues::resolve(&spec, &spec.initial_params());
            let value = filter_output(filter.as_ref(), &spec, &folded, x, &cv);
            // After a forward, so OptBasis replays saved state.
            let adj = PropCtx::adjoint(pm);
            let adjoint = filter.propagate(&adj, x);
            out.push((
                name,
                hops,
                hash(terms.iter().flatten()),
                hash([&value]),
                hash(adjoint.iter().flatten()),
                [fwd.hops_used(), folded.hops_used(), adj.hops_used()],
            ));
        }
    }
    out
}

#[rustfmt::skip]
const GOLDEN: [Row; 54] = [
    ("Identity", 10, 7748039289279088383, 7748039289279088383, 7748039289279088383, [0, 0, 0]),
    ("Linear", 10, 8471001632042809241, 8471001632042809241, 17842033952676354012, [1, 1, 1]),
    ("Impulse", 10, 9329493180797792772, 9329493180797792772, 10235842031956576406, [10, 10, 10]),
    ("Monomial", 10, 4567759977022919564, 4567759977022919564, 940839169593837204, [10, 10, 10]),
    ("PPR", 10, 1853632303196422329, 1853632303196422329, 5711838285502143869, [10, 10, 10]),
    ("HK", 10, 14913808315221327390, 14913808315221327390, 11504212135004195543, [10, 10, 10]),
    ("Gaussian", 10, 11536087357813225131, 11536087357813225131, 17179572107833680359, [10, 10, 10]),
    ("VarLinear", 10, 9329493180797792772, 9329493180797792772, 10235842031956576406, [10, 10, 10]),
    ("VarMonomial", 10, 5444052461646192680, 1853632303196422329, 17214760294511560942, [10, 10, 10]),
    ("Horner", 10, 1209810632336028525, 9558341514125022865, 12092509901360211571, [10, 10, 10]),
    ("Chebyshev", 10, 2611738836080481500, 7748039289279088383, 13608406142826175512, [10, 10, 10]),
    ("Clenshaw", 10, 12485729271366964802, 7748039289279088383, 6614816447391457563, [10, 10, 10]),
    ("ChebInterp", 10, 2611738836080481500, 10990537992764659431, 13608406142826175512, [10, 10, 10]),
    ("Bernstein", 10, 3809168034667203367, 14159688520925061102, 11564121209209715785, [65, 65, 65]),
    ("Legendre", 10, 953820501796226243, 7748039289279088383, 1686303675153375353, [10, 10, 10]),
    ("Jacobi", 10, 2658217581246675747, 7748039289279088383, 10531142906572878935, [10, 10, 10]),
    ("Favard", 10, 5102101776976272859, 7748039289279088383, 3589585891528232882, [10, 10, 10]),
    ("OptBasis", 10, 15080654071519411913, 13796674665192313589, 565165903520560369, [10, 10, 10]),
    ("AdaGNN", 10, 1340116578650135706, 1340116578650135706, 8466446227636875398, [10, 10, 10]),
    ("FBGNNI", 10, 16422218614872439151, 9447960189084932855, 12836025464869707868, [20, 20, 20]),
    ("FBGNNII", 10, 3707981662467998491, 9447960189084932855, 227390279725207457, [20, 20, 20]),
    ("ACMGNNI", 10, 4950933065556754313, 4526373955210687409, 5288006837153841026, [20, 20, 20]),
    ("ACMGNNII", 10, 17369998245427448253, 15946399743434358595, 6468408545402238227, [20, 20, 20]),
    ("FAGNN", 10, 7208468373005774508, 7017585800171055321, 2945092360067614227, [20, 20, 20]),
    ("G2CN", 10, 18185878634101845411, 3561922823866627416, 15013645170069801475, [20, 20, 20]),
    ("GNN-LF/HF", 10, 3694639325823844377, 15113906610858698933, 6099442787773505661, [12, 12, 12]),
    ("FiGURe", 10, 17317419098507926729, 17793056231756406973, 16870958602647593497, [85, 85, 85]),
    ("Identity", 2, 7748039289279088383, 7748039289279088383, 7748039289279088383, [0, 0, 0]),
    ("Linear", 2, 8471001632042809241, 8471001632042809241, 17842033952676354012, [1, 1, 1]),
    ("Impulse", 2, 6672834362225074167, 6672834362225074167, 9217709907055472708, [2, 2, 2]),
    ("Monomial", 2, 5124204980544335342, 5124204980544335342, 10504089173525114815, [2, 2, 2]),
    ("PPR", 2, 6334040191564357209, 6334040191564357209, 5151416213318387523, [2, 2, 2]),
    ("HK", 2, 6636923591384383064, 6636923591384383064, 10209426201235483346, [2, 2, 2]),
    ("Gaussian", 2, 2268189997149203543, 2268189997149203543, 17496854901669400281, [2, 2, 2]),
    ("VarLinear", 2, 6672834362225074167, 6672834362225074167, 9217709907055472708, [2, 2, 2]),
    ("VarMonomial", 2, 15334774110751637813, 6334040191564357209, 4047356698904339563, [2, 2, 2]),
    ("Horner", 2, 4793161030241667616, 6380128436539798561, 17421271707868663160, [2, 2, 2]),
    ("Chebyshev", 2, 9119327673196897701, 7748039289279088383, 10503619413990755874, [2, 2, 2]),
    ("Clenshaw", 2, 14670402298601828249, 7748039289279088383, 7241463170343802466, [2, 2, 2]),
    ("ChebInterp", 2, 9119327673196897701, 7748039289279088383, 10503619413990755874, [2, 2, 2]),
    ("Bernstein", 2, 15569971115884595161, 5149629717555673129, 13331933478380604445, [5, 5, 5]),
    ("Legendre", 2, 6507765473778360712, 7748039289279088383, 14663594041096103733, [2, 2, 2]),
    ("Jacobi", 2, 13877023596337167980, 7748039289279088383, 8142323145426240866, [2, 2, 2]),
    ("Favard", 2, 7735205030011030319, 7748039289279088383, 3041082488067931834, [2, 2, 2]),
    ("OptBasis", 2, 9243892668921293984, 13796674665192313589, 8561765742502622209, [2, 2, 2]),
    ("AdaGNN", 2, 7812065117844141937, 7812065117844141937, 5789471045249323927, [2, 2, 2]),
    ("FBGNNI", 2, 3294668369112582256, 17289060080120163577, 17291391715218679784, [4, 4, 4]),
    ("FBGNNII", 2, 5047319146314949038, 17289060080120163577, 1981971710792458332, [4, 4, 4]),
    ("ACMGNNI", 2, 3936089400406583902, 17083507213121383120, 3428052459908818758, [4, 4, 4]),
    ("ACMGNNII", 2, 16910709171944991516, 14107048343194300504, 17107545655676452738, [4, 4, 4]),
    ("FAGNN", 2, 12770983733947609036, 18066469292490620530, 11698224387585691664, [4, 4, 4]),
    ("G2CN", 2, 7829604688219314777, 9256720180795416139, 1516209306865926532, [4, 4, 4]),
    ("GNN-LF/HF", 2, 1455273426769101045, 2402638614247429263, 3895844358239124565, [4, 4, 4]),
    ("FiGURe", 2, 11448883734337151255, 4467862722766729461, 13747758295531423162, [9, 9, 9]),
];

#[test]
fn every_filter_propagates_the_parent_commits_bits() {
    let pm = graph();
    let x = drng::randn_mat(pm.n(), 5, 1.0, &mut drng::seeded(2024));
    let _l = pin::lock();
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        let _b = pin::backend(kind);
        for width in [1, 4] {
            let _t = pin::threads(width);
            let got = rows(&pm, &x);
            if got != GOLDEN {
                // Every row, in the constant's own form.
                for r in &got {
                    println!("    {r:?},");
                }
            }
            for (g, want) in got.iter().zip(&GOLDEN) {
                assert_eq!(g, want, "{kind:?} at width {width}");
            }
            assert_eq!(got.len(), GOLDEN.len(), "{kind:?} at width {width}");
        }
    }
}
