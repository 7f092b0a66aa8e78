//! The 22-dataset registry (Table 3 of the paper).
//!
//! Every entry records the published statistics (`n`, directed `m`,
//! homophily `H`, attribute dimension `F_i`, classes `F_o`, metric, size
//! class) plus an attribute-signal strength calibrated so the Identity
//! (graph-free) baseline lands in the same regime as the paper's Table 5 —
//! e.g. `minesweeper`'s 7-dimensional attributes are nearly uninformative
//! (Identity ≈ random) while `twitch-gamer`'s are almost sufficient.
//!
//! Generation scale: [`GenScale::Bench`] keeps small graphs at full size and
//! shrinks medium/large ones so the whole suite runs on one machine;
//! [`GenScale::Full`] reproduces the paper's sizes; [`GenScale::Tiny`] is
//! for unit tests.

use serde::{Deserialize, Serialize};

use crate::csbm::{self, CsbmParams, Dataset};

/// Effectiveness metric of a dataset (Table 3's last column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    Accuracy,
    RocAuc,
}

/// Size class (S / M / L) of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SizeClass {
    Small,
    Medium,
    Large,
}

/// Generation scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenScale {
    /// ≤ 2k nodes — unit tests.
    Tiny,
    /// Small ×1, medium ×0.25, large ×0.05 — the default benchmark scale.
    Bench,
    /// Paper-size graphs (hundreds of millions of directed edges for wiki).
    Full,
}

/// One Table-3 row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DatasetSpec {
    pub name: &'static str,
    /// Node count `n` at full scale.
    pub nodes: usize,
    /// Directed edge count `m` at full scale (undirected counted twice).
    pub edges: usize,
    /// Homophily score `H`.
    pub homophily: f64,
    /// Input attribute dimension `F_i`.
    pub feature_dim: usize,
    /// Number of class labels `F_o`.
    pub classes: usize,
    pub metric: Metric,
    pub size: SizeClass,
    /// Whether the paper categorizes the dataset as homophilous.
    pub homophilous: bool,
    /// Attribute signal strength for the generator (see module docs).
    pub signal: f32,
}

impl DatasetSpec {
    /// `(nodes, undirected_edges)` at the requested scale.
    pub(crate) fn scaled_size(&self, scale: GenScale) -> (usize, usize) {
        let f = match (scale, self.size) {
            (GenScale::Full, _) => 1.0,
            (GenScale::Bench, SizeClass::Small) => 1.0,
            (GenScale::Bench, SizeClass::Medium) => 0.25,
            (GenScale::Bench, SizeClass::Large) => 0.05,
            (GenScale::Tiny, _) => (2000.0 / self.nodes as f64).min(1.0),
        };
        let n = ((self.nodes as f64 * f) as usize).max(self.classes * 20);
        let m_directed = (self.edges as f64 * f) as usize;
        (n, (m_directed / 2).max(n))
    }

    /// Attribute dimension at the requested scale (Tiny caps very wide
    /// attribute matrices so unit tests stay fast on small machines).
    pub(crate) fn scaled_feature_dim(&self, scale: GenScale) -> usize {
        match scale {
            GenScale::Tiny => self.feature_dim.min(64),
            _ => self.feature_dim,
        }
    }

    /// Generates the dataset at the given scale and seed, validated at the
    /// load boundary (see `crate::validate`).
    ///
    /// # Panics
    /// Panics when the generated dataset violates a structural invariant —
    /// a generator bug that must not silently corrupt downstream training.
    pub fn generate(&self, scale: GenScale, seed: u64) -> Dataset {
        let (nodes, edges) = self.scaled_size(scale);
        let params = CsbmParams {
            nodes,
            edges,
            homophily: self.homophily,
            classes: self.classes,
            feature_dim: self.scaled_feature_dim(scale),
            signal: self.signal,
            degree_exponent: 2.5,
        };
        let dataset = csbm::generate(self.name, &params, self.metric, seed);
        if let Err(e) = dataset.validate() {
            panic!("generated dataset {} is invalid: {e}", self.name);
        }
        dataset
    }
}

/// All 22 dataset specs of Table 3.
pub fn all_datasets() -> Vec<DatasetSpec> {
    use Metric::*;
    use SizeClass::*;
    let s =
        |name, nodes, edges, homophily, feature_dim, classes, metric, size, homophilous, signal| {
            DatasetSpec {
                name,
                nodes,
                edges,
                homophily,
                feature_dim,
                classes,
                metric,
                size,
                homophilous,
                signal,
            }
        };
    vec![
        // --- small, homophilous -------------------------------------------
        s(
            "cora", 2708, 10_556, 0.83, 1433, 7, Accuracy, Small, true, 0.8,
        ),
        s(
            "citeseer", 3327, 9_104, 0.72, 3703, 6, Accuracy, Small, true, 1.0,
        ),
        s(
            "pubmed", 19_717, 88_648, 0.79, 500, 3, Accuracy, Small, true, 1.0,
        ),
        s(
            "minesweeper",
            10_000,
            78_804,
            0.68,
            7,
            2,
            RocAuc,
            Small,
            true,
            0.05,
        ),
        s(
            "questions",
            48_921,
            307_080,
            0.90,
            301,
            2,
            RocAuc,
            Small,
            true,
            1.2,
        ),
        s(
            "tolokers", 11_758, 1_038_000, 0.63, 10, 2, RocAuc, Small, true, 0.5,
        ),
        // --- small, heterophilous -----------------------------------------
        s(
            "chameleon",
            890,
            17_708,
            0.24,
            2325,
            5,
            Accuracy,
            Small,
            false,
            0.3,
        ),
        s(
            "squirrel", 2223, 93_996, 0.19, 2089, 5, Accuracy, Small, false, 0.3,
        ),
        s(
            "actor", 7600, 30_019, 0.22, 932, 5, Accuracy, Small, false, 1.2,
        ),
        s(
            "roman-empire",
            22_662,
            65_854,
            0.05,
            300,
            18,
            Accuracy,
            Small,
            false,
            0.8,
        ),
        s(
            "amazon-ratings",
            24_492,
            186_100,
            0.38,
            300,
            5,
            Accuracy,
            Small,
            false,
            0.6,
        ),
        // --- medium --------------------------------------------------------
        s(
            "flickr", 89_250, 899_756, 0.32, 500, 7, Accuracy, Medium, true, 0.5,
        ),
        s(
            "ogbn-arxiv",
            169_343,
            1_166_243,
            0.63,
            128,
            40,
            Accuracy,
            Medium,
            true,
            0.7,
        ),
        s(
            "arxiv-year",
            169_343,
            1_166_243,
            0.31,
            128,
            5,
            Accuracy,
            Medium,
            false,
            0.4,
        ),
        s(
            "penn94", 41_554, 2_724_458, 0.48, 4814, 2, Accuracy, Medium, false, 0.7,
        ),
        s(
            "genius", 421_961, 984_979, 0.08, 12, 2, RocAuc, Medium, false, 1.5,
        ),
        s(
            "twitch-gamer",
            168_114,
            6_797_557,
            0.10,
            7,
            2,
            Accuracy,
            Medium,
            false,
            1.5,
        ),
        // --- large ----------------------------------------------------------
        s(
            "ogbn-mag", 736_389, 5_416_271, 0.31, 128, 349, Accuracy, Large, true, 0.5,
        ),
        s(
            "ogbn-products",
            2_449_029,
            123_718_280,
            0.83,
            100,
            47,
            Accuracy,
            Large,
            true,
            0.8,
        ),
        s(
            "pokec", 1_632_803, 30_622_564, 0.43, 65, 2, Accuracy, Large, false, 0.6,
        ),
        s(
            "snap-patents",
            2_923_922,
            13_972_555,
            0.22,
            269,
            5,
            Accuracy,
            Large,
            false,
            0.5,
        ),
        s(
            "wiki",
            1_925_342,
            303_434_860,
            0.28,
            600,
            5,
            Accuracy,
            Large,
            false,
            0.4,
        ),
    ]
}

/// Looks up one spec by name.
pub fn dataset_spec(name: &str) -> Option<DatasetSpec> {
    all_datasets().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_22_rows_with_unique_names() {
        let specs = all_datasets();
        assert_eq!(specs.len(), 22);
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22);
        assert_eq!(
            specs.iter().filter(|s| s.size == SizeClass::Small).count(),
            11
        );
        assert_eq!(
            specs.iter().filter(|s| s.size == SizeClass::Medium).count(),
            6
        );
        assert_eq!(
            specs.iter().filter(|s| s.size == SizeClass::Large).count(),
            5
        );
    }

    #[test]
    fn tiny_scale_generates_small_faithful_graphs() {
        let spec = dataset_spec("pokec").unwrap();
        let d = spec.generate(GenScale::Tiny, 3);
        assert!(d.nodes() <= 2000);
        let h = sgnn_sparse::stats::edge_homophily(&d.graph, &d.labels);
        assert!((h - spec.homophily).abs() < 0.08, "homophily {h}");
        assert_eq!(d.num_classes, 2);
        assert_eq!(d.features.cols(), spec.scaled_feature_dim(GenScale::Tiny));
    }

    #[test]
    fn bench_scale_keeps_small_graphs_full_size() {
        let cora = dataset_spec("cora").unwrap();
        assert_eq!(cora.scaled_size(GenScale::Bench).0, 2708);
        let pokec = dataset_spec("pokec").unwrap();
        let (n, _) = pokec.scaled_size(GenScale::Bench);
        assert!(n > 50_000 && n < 200_000);
    }

    #[test]
    fn full_scale_matches_table3() {
        let wiki = dataset_spec("wiki").unwrap();
        let (n, m_undirected) = wiki.scaled_size(GenScale::Full);
        assert_eq!(n, 1_925_342);
        assert_eq!(m_undirected, 303_434_860 / 2);
    }

    #[test]
    fn homophilous_flags_match_paper_categories() {
        for spec in all_datasets() {
            // Heuristic consistency: every dataset the paper calls
            // heterophilous has H below 0.5 here.
            if !spec.homophilous {
                assert!(spec.homophily < 0.5, "{}", spec.name);
            }
        }
    }
}
