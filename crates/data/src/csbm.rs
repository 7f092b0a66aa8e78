//! Degree-corrected contextual stochastic block model.
//!
//! The generator controls exactly the graph properties the paper's findings
//! hinge on:
//!
//! * **Homophily** — each undirected edge is intra-class with probability
//!   `homophily` (endpoints drawn from the same class) and inter-class
//!   otherwise (second endpoint from a uniformly random different class),
//!   so the *edge homophily* equals the requested value by construction and
//!   the node homophily score tracks it closely.
//! * **Degree skew** — endpoint selection is weighted by per-node Pareto
//!   weights (`w ∝ u^{-1/(γ-1)}`), producing the heavy-tailed degree
//!   distributions the degree-specific experiments (Figures 9–10) require.
//! * **Attributes** — class-conditional Gaussians `x_i = s·μ_{y_i} + ε`,
//!   with `signal` (`s`) controlling how much of the task is solvable from
//!   attributes alone (the Identity-filter baseline).

use std::convert::Infallible;

use rand::rngs::SmallRng;
use rand::Rng;
use sgnn_dense::{rng as drng, runtime, DMat};
use sgnn_sparse::{stats, Graph};

use crate::registry::Metric;
use crate::splits::Splits;

/// Generation parameters for one graph.
#[derive(Clone, Debug)]
pub struct CsbmParams {
    pub nodes: usize,
    /// Undirected edge target; the generated graph reports `≈ 2×` this as
    /// directed edges (Table 3 convention).
    pub edges: usize,
    /// Target edge homophily in `[0, 1]`.
    pub homophily: f64,
    pub classes: usize,
    pub feature_dim: usize,
    /// Attribute signal strength (0 = pure noise features).
    pub signal: f32,
    /// Pareto shape for the degree weights (larger = more uniform;
    /// `γ ≈ 2.5` matches typical social/citation graphs).
    pub degree_exponent: f64,
}

impl Default for CsbmParams {
    fn default() -> Self {
        Self {
            nodes: 1000,
            edges: 5000,
            homophily: 0.8,
            classes: 5,
            feature_dim: 32,
            signal: 1.0,
            degree_exponent: 2.5,
        }
    }
}

/// A generated attributed, labeled graph with splits.
#[derive(Clone, Debug)]
pub struct Dataset {
    pub name: String,
    pub graph: Graph,
    pub features: DMat,
    pub labels: Vec<u32>,
    pub num_classes: usize,
    pub metric: Metric,
    pub splits: Splits,
}

impl Dataset {
    /// Measured node homophily of the generated graph.
    pub fn node_homophily(&self) -> f64 {
        stats::node_homophily(&self.graph, &self.labels)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.graph.nodes()
    }

    /// Directed edge count (undirected counted twice).
    pub fn edges(&self) -> usize {
        self.graph.directed_edges()
    }

    /// Targets of the listed nodes as `u32` class indices.
    pub fn targets_of(&self, idx: &[u32]) -> Vec<u32> {
        idx.iter().map(|&i| self.labels[i as usize]).collect()
    }
}

/// Weighted sampler over a class partition: per-class prefix-sum tables,
/// each with a guide table that starts the search next to its answer.
pub(crate) struct ClassSampler {
    /// Node ids grouped by class.
    members: Vec<Vec<u32>>,
    /// Prefix sums of member weights, aligned with `members`.
    prefix: Vec<Vec<f64>>,
    /// Chen–Asau cut-points, one per member: `guide[q][b]` is the first
    /// index whose prefix reaches `b/len` of the class total, so a uniform
    /// `u` starts its search at `guide[q][⌊u·len⌋]`, O(1) steps from the
    /// answer in expectation.
    guide: Vec<Vec<u32>>,
}

impl ClassSampler {
    pub(crate) fn new(labels: &[u32], weights: &[f64], classes: usize) -> Self {
        let mut members = vec![Vec::new(); classes];
        for (i, &y) in labels.iter().enumerate() {
            members[y as usize].push(i as u32);
        }
        let prefix: Vec<Vec<f64>> = members
            .iter()
            .map(|ms| {
                let mut acc = 0.0;
                ms.iter()
                    .map(|&i| {
                        acc += weights[i as usize];
                        acc
                    })
                    .collect()
            })
            .collect();
        let guide = prefix
            .iter()
            .map(|p| {
                let t = p.last().copied().unwrap_or(0.0);
                let mut i = 0;
                (0..p.len())
                    .map(|b| {
                        let lo = b as f64 / p.len() as f64 * t;
                        while i < p.len() && p[i] < lo {
                            i += 1;
                        }
                        i as u32
                    })
                    .collect()
            })
            .collect();
        Self {
            members,
            prefix,
            guide,
        }
    }

    fn total(&self, class: usize) -> f64 {
        self.prefix[class].last().copied().unwrap_or(0.0)
    }

    /// The member a uniform `u ∈ [0, 1)` picks with probability ∝ weight:
    /// the first whose prefix reaches `u·total`, i.e. exactly
    /// `prefix.partition_point(|&acc| acc < u·total)`. The guide only sets
    /// where the search starts; stepping down then up from there lands on
    /// that index from any start, so the answer never depends on the
    /// table's rounding.
    fn pick(&self, class: usize, u: f64) -> u32 {
        let p = &self.prefix[class];
        let target = u * self.total(class);
        let guide = &self.guide[class];
        let mut i = guide[((u * guide.len() as f64) as usize).min(guide.len() - 1)] as usize;
        while i > 0 && p[i - 1] >= target {
            i -= 1;
        }
        while i < p.len() && p[i] < target {
            i += 1;
        }
        self.members[class][i.min(p.len() - 1)]
    }
}

/// The shared sampling stages of [`generate`], split out so the streaming
/// generator ([`crate::stream`]) can replay the *same RNG consumption
/// order* — labels, weights, edge attempts, features, splits — and produce
/// a bit-identical dataset for the same seed without ever materializing
/// the edge list.
pub(crate) fn sample_labels(params: &CsbmParams, rng: &mut SmallRng) -> Vec<u32> {
    let n = params.nodes;
    let c = params.classes;
    // Balanced class assignment, then shuffled for random adjacency order.
    let mut labels: Vec<u32> = (0..n).map(|i| (i % c) as u32).collect();
    drng::shuffle(&mut labels, rng);
    labels
}

/// Pareto degree weights, clipped to avoid single-node hubs swallowing the
/// whole edge budget on small graphs.
pub(crate) fn sample_weights(params: &CsbmParams, rng: &mut SmallRng) -> Vec<f64> {
    let n = params.nodes;
    let shape = 1.0 / (params.degree_exponent - 1.0);
    (0..n)
        .map(|_| {
            let u: f64 = rng.random::<f64>().max(1e-9);
            u.powf(-shape).min(n as f64 / 10.0)
        })
        .collect()
}

/// Edge attempts drawn per block of [`EdgeSampler::sample_edges`]: the
/// block's draws are made serially, then resolved to node pairs on the pool.
const ATTEMPT_BLOCK: usize = 1 << 14;

/// Attempts below which a block is resolved on the caller: a pool dispatch
/// costs more than resolving them.
const PARALLEL_RESOLVE_MIN: usize = 1 << 12;

/// The draws of one edge attempt: each endpoint's class and the uniform
/// that picks a node within it.
#[derive(Clone, Copy, Debug)]
struct Attempt {
    cu: u32,
    u: f64,
    cv: u32,
    v: f64,
}

/// The class mixing of one edge attempt: the first endpoint's class ∝ class
/// mass, the second's the same class (intra, with probability `homophily`)
/// or a uniformly random different one. It holds class masses only — no
/// node ids — so no draw of an attempt can depend on a sampled node, the
/// contract [`EdgeSampler::sample_edges`] rests on.
struct Mixing {
    total_weight: Vec<f64>,
    grand_total: f64,
    homophily: f64,
    classes: usize,
}

impl Mixing {
    /// Draws one attempt, in the order the RNG has always been consumed:
    /// first class, first node, intra coin, other class, second node.
    fn draw(&self, rng: &mut SmallRng) -> Attempt {
        let c = self.classes;
        // First endpoint: weighted over all nodes (pick class ∝ class mass).
        let mut target = rng.random::<f64>() * self.grand_total;
        let mut cu = 0usize;
        for (q, &tw) in self.total_weight.iter().enumerate() {
            if target < tw || q == c - 1 {
                cu = q;
                break;
            }
            target -= tw;
        }
        let u = rng.random::<f64>();
        let intra = rng.random::<f64>() < self.homophily;
        let cv = if intra {
            cu
        } else {
            let mut other = rng.random_range(0..c - 1);
            if other >= cu {
                other += 1;
            }
            other
        };
        let v = rng.random::<f64>();
        Attempt {
            cu: cu as u32,
            u,
            cv: cv as u32,
            v,
        }
    }
}

/// Undirected-edge sampling: each attempt picks its first endpoint
/// weighted over all nodes and its second from the class [`Mixing`] draws,
/// and is rejected when both are the same node.
pub(crate) struct EdgeSampler<'a> {
    sampler: &'a ClassSampler,
    mixing: Mixing,
}

impl<'a> EdgeSampler<'a> {
    pub(crate) fn new(sampler: &'a ClassSampler, params: &CsbmParams) -> Self {
        let c = params.classes;
        let total_weight: Vec<f64> = (0..c).map(|q| sampler.total(q)).collect();
        let grand_total: f64 = total_weight.iter().sum();
        Self {
            sampler,
            mixing: Mixing {
                total_weight,
                grand_total,
                homophily: params.homophily,
                classes: c,
            },
        }
    }

    /// The node pair an attempt picks; `None` on a self-pair.
    fn resolve(&self, a: &Attempt) -> Option<(u32, u32)> {
        let u = self.sampler.pick(a.cu as usize, a.u);
        let v = self.sampler.pick(a.cv as usize, a.v);
        (u != v).then_some((u, v))
    }

    /// Runs attempts until `params.edges` are accepted or `4·edges + 64`
    /// attempts are spent, handing each accepted pair to `accept` in
    /// attempt order.
    ///
    /// Attempts go in blocks: the block's draws are made serially, the
    /// pairs resolved on the pool, then accepted in order. That consumes
    /// the RNG exactly as one attempt after another would, because no draw
    /// depends on a sampled node id ([`Mixing`] cannot see one). A block is
    /// never longer than the edges still missing, so the target cannot be
    /// reached before a block's last attempt and no draw is ever made past
    /// the one that completes it.
    pub(crate) fn sample_edges<E>(
        &self,
        params: &CsbmParams,
        rng: &mut SmallRng,
        mut accept: impl FnMut(u32, u32) -> Result<(), E>,
    ) -> Result<(), E> {
        let max_attempts = params.edges * 4 + 64;
        let (mut accepted, mut attempts) = (0usize, 0usize);
        let cap = ATTEMPT_BLOCK.min(params.edges);
        let mut draws: Vec<Attempt> = Vec::with_capacity(cap);
        let mut pairs: Vec<Option<(u32, u32)>> = Vec::with_capacity(cap);
        while accepted < params.edges && attempts < max_attempts {
            let len = ATTEMPT_BLOCK
                .min(params.edges - accepted)
                .min(max_attempts - attempts);
            attempts += len;
            draws.clear();
            draws.extend((0..len).map(|_| self.mixing.draw(rng)));
            pairs.clear();
            pairs.resize(len, None);
            let chunks = if len < PARALLEL_RESOLVE_MIN {
                1
            } else {
                runtime::num_threads() * 4
            };
            let bounds: Vec<usize> = (0..=chunks).map(|i| i * len / chunks).collect();
            runtime::run_plan(&mut pairs, 1, &bounds, |first, out| {
                for (o, a) in out.iter_mut().zip(&draws[first..]) {
                    *o = self.resolve(a);
                }
            });
            for &(u, v) in pairs.iter().flatten() {
                accepted += 1;
                accept(u, v)?;
            }
        }
        Ok(())
    }
}

/// Class-conditional Gaussian attributes. The class-mean offset is
/// normalized by √F so `signal` controls *task difficulty* independent of
/// the attribute dimension: the distance between two class means is
/// ≈ 3√2·signal standard deviations, giving (for the calibrated registry
/// values) Identity-baseline accuracies in the same regime as the paper's
/// Table 5.
pub(crate) fn sample_features(params: &CsbmParams, labels: &[u32], rng: &mut SmallRng) -> DMat {
    let n = params.nodes;
    let c = params.classes;
    let f = params.feature_dim;
    let per_dim = params.signal * 3.0 / (f as f32).sqrt();
    let means = drng::randn_mat(c, f, 1.0, rng);
    let mut features = drng::randn_mat(n, f, 1.0, rng);
    if f > 0 {
        runtime::run_chunks(features.data_mut(), n, f, |first, chunk| {
            for (row, &y) in chunk.chunks_exact_mut(f).zip(&labels[first..]) {
                for (x, &m) in row.iter_mut().zip(means.row(y as usize)) {
                    *x += per_dim * m;
                }
            }
        });
    }
    features
}

/// Generates a dataset from the block-model parameters.
pub fn generate(name: &str, params: &CsbmParams, metric: Metric, seed: u64) -> Dataset {
    assert!(params.classes >= 2, "need at least two classes");
    assert!(
        (0.0..=1.0).contains(&params.homophily),
        "homophily must be in [0, 1]"
    );
    let mut rng = drng::seeded(seed);
    let n = params.nodes;
    let c = params.classes;

    let labels = sample_labels(params, &mut rng);
    let weights = sample_weights(params, &mut rng);
    let sampler = ClassSampler::new(&labels, &weights, c);
    let es = EdgeSampler::new(&sampler, params);

    let mut edges = Vec::with_capacity(params.edges);
    es.sample_edges(params, &mut rng, |u, v| {
        edges.push((u, v));
        Ok::<(), Infallible>(())
    })
    .unwrap_or_else(|e| match e {});
    let graph = Graph::from_edges(n, &edges);

    let features = sample_features(params, &labels, &mut rng);
    let splits = Splits::stratified(&labels, 0.6, 0.2, &mut rng);
    Dataset {
        name: name.to_string(),
        graph,
        features,
        labels,
        num_classes: c,
        metric,
        splits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(h: f64, classes: usize) -> Dataset {
        let params = CsbmParams {
            nodes: 2000,
            edges: 8000,
            homophily: h,
            classes,
            feature_dim: 16,
            signal: 1.0,
            degree_exponent: 2.5,
        };
        generate("test", &params, Metric::Accuracy, 1)
    }

    #[test]
    fn homophily_target_is_hit() {
        for &h in &[0.1f64, 0.5, 0.85] {
            let d = gen(h, 5);
            let measured = sgnn_sparse::stats::edge_homophily(&d.graph, &d.labels);
            assert!(
                (measured - h).abs() < 0.05,
                "target {h}, measured {measured}"
            );
        }
    }

    #[test]
    fn sizes_are_close_to_requested() {
        let d = gen(0.7, 4);
        assert_eq!(d.nodes(), 2000);
        let m = d.edges();
        // Directed edges ≈ 2× undirected target (duplicates collapse some).
        assert!(m > 14000 && m <= 16000, "directed edges {m}");
    }

    #[test]
    fn degrees_are_skewed() {
        let d = gen(0.5, 4);
        let s = sgnn_sparse::stats::degree_summary(&d.graph);
        assert!(s.max as f64 > 5.0 * s.mean, "max {} mean {}", s.max, s.mean);
    }

    #[test]
    fn features_carry_class_signal() {
        let d = gen(0.8, 3);
        // Mean intra-class feature distance must be below inter-class.
        let mut intra = 0.0f64;
        let mut inter = 0.0f64;
        let (mut ni, mut nj) = (0usize, 0usize);
        for i in (0..500).step_by(7) {
            for j in (1..500).step_by(11) {
                let dist: f64 = d
                    .features
                    .row(i)
                    .iter()
                    .zip(d.features.row(j))
                    .map(|(&a, &b)| ((a - b) as f64).powi(2))
                    .sum();
                if d.labels[i] == d.labels[j] {
                    intra += dist;
                    ni += 1;
                } else {
                    inter += dist;
                    nj += 1;
                }
            }
        }
        assert!(intra / ni as f64 + 1e-9 < inter / nj as f64);
    }

    #[test]
    fn pick_is_the_partition_point() {
        let mut rng = drng::seeded(5);
        let params = CsbmParams {
            nodes: 3000,
            ..CsbmParams::default()
        };
        let labels = sample_labels(&params, &mut rng);
        let weights = sample_weights(&params, &mut rng);
        let s = ClassSampler::new(&labels, &weights, params.classes);
        for q in 0..params.classes {
            let len = s.guide[q].len();
            // Uniform draws, every cut-point and its neighbours, the ends.
            let mut us: Vec<f64> = (0..4000).map(|_| rng.random::<f64>()).collect();
            for b in 0..=len {
                let u = b as f64 / len as f64;
                us.extend([u, u.next_down(), u.next_up()]);
            }
            us.extend([0.0, 1.0f64.next_down()]);
            let p = &s.prefix[q];
            for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                let target = u * s.total(q);
                let want = p.partition_point(|&acc| acc < target).min(p.len() - 1);
                assert_eq!(s.pick(q, u), s.members[q][want], "class {q}, u {u}");
            }
        }
    }

    /// The contract blocked attempts rest on: drawing a block before
    /// resolving any of it accepts the same edges, in the same order, and
    /// leaves the RNG where one attempt after another leaves it — at every
    /// pool width, through the attempt cap and a short last block.
    #[test]
    fn blocked_attempts_are_the_serial_loop() {
        let _l = sgnn_dense::pin::lock();
        let cases = [
            (3000, 2 * ATTEMPT_BLOCK + 123, 0.3, 6),
            (5, 500, 1.0, 4),
            (300, 1000, 0.9, 3),
        ];
        for (nodes, edges, homophily, classes) in cases {
            let params = CsbmParams {
                nodes,
                edges,
                homophily,
                classes,
                ..CsbmParams::default()
            };
            let mut rng = drng::seeded(9);
            let labels = sample_labels(&params, &mut rng);
            let weights = sample_weights(&params, &mut rng);
            let s = ClassSampler::new(&labels, &weights, classes);
            let es = EdgeSampler::new(&s, &params);
            let mut serial_rng = rng.clone();
            let mut serial = Vec::new();
            let mut attempts = 0;
            while serial.len() < edges && attempts < edges * 4 + 64 {
                attempts += 1;
                serial.extend(es.resolve(&es.mixing.draw(&mut serial_rng)));
            }
            let next = serial_rng.random::<u64>();
            // Four attempts in five are self-pairs on the five-node graph.
            assert_eq!(serial.len() < edges, nodes == 5, "attempt cap");
            for width in [1, 4] {
                let _t = sgnn_dense::pin::threads(width);
                let mut block_rng = rng.clone();
                let mut blocked = Vec::new();
                es.sample_edges(&params, &mut block_rng, |u, v| {
                    blocked.push((u, v));
                    Ok::<(), Infallible>(())
                })
                .unwrap();
                let case = format!("{nodes} nodes, {edges} edges, width {width}");
                assert_eq!(blocked, serial, "{case}");
                assert_eq!(block_rng.random::<u64>(), next, "{case}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = CsbmParams::default();
        let a = generate("a", &p, Metric::Accuracy, 7);
        let b = generate("a", &p, Metric::Accuracy, 7);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.features, b.features);
        assert_eq!(a.edges(), b.edges());
        let c = generate("a", &p, Metric::Accuracy, 8);
        assert_ne!(a.labels, c.labels);
    }

    #[test]
    fn splits_partition_nodes() {
        let d = gen(0.6, 5);
        let total = d.splits.train.len() + d.splits.valid.len() + d.splits.test.len();
        assert_eq!(total, d.nodes());
    }
}
