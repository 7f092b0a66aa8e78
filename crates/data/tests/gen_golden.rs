//! Golden bytes of the CSBM generator: the CSR arrays, feature bits,
//! labels and splits of in-memory datasets, and the bytes of a streamed
//! shard file, hashed and compared with constants captured before the
//! generator's sampling, CSR build and normal draws were restructured
//! (guide-table search, counting-sort rows, pooled Box–Muller, blocked
//! edge attempts). A dataset must not change by one bit when generation
//! gets faster.
//!
//! Own test binary with a single test: it sets the process-wide
//! worker-pool width, and every case runs at widths 1 and 4 against one
//! constant, so no dataset depends on the pool. The feature hashes depend
//! on the platform's `logf`/`cosf`; they were taken on x86_64 Linux/glibc,
//! the host CI and the benchmark run on.

use std::path::PathBuf;

use sgnn_data::{csbm, dataset_spec, generate_sharded, CsbmParams, Dataset, GenScale, Metric};
use sgnn_dense::runtime;

/// FNV-1a, fed in pieces.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn words(&mut self, words: impl IntoIterator<Item = u32>) {
        for w in words {
            self.eat(&w.to_le_bytes());
        }
    }
}

/// FNV-1a over the adjacency (`indptr`, then every row's columns and value
/// bits), the feature bits, the labels and the three splits.
fn dataset_hash(d: &Dataset) -> u64 {
    let mut h = Fnv::new();
    let adj = d.graph.adjacency();
    h.words(adj.indptr().iter().map(|&p| p as u32));
    for r in 0..d.graph.nodes() {
        let (cols, vals) = adj.row(r);
        h.words(cols.iter().copied());
        h.words(vals.iter().map(|v| v.to_bits()));
    }
    h.eat(&(d.features.cols() as u64).to_le_bytes());
    h.words(d.features.data().iter().map(|v| v.to_bits()));
    h.words(d.labels.iter().copied());
    for split in [&d.splits.train, &d.splits.valid, &d.splits.test] {
        h.eat(&(split.len() as u64).to_le_bytes());
        h.words(split.iter().copied());
    }
    h.0
}

fn params(nodes: usize, edges: usize, homophily: f64, classes: usize, f: usize) -> CsbmParams {
    CsbmParams {
        nodes,
        edges,
        homophily,
        classes,
        feature_dim: f,
        signal: 1.0,
        degree_exponent: 2.5,
    }
}

/// An in-memory dataset checked against its golden hash; the feature
/// buffer must hold exactly `n·F` floats, as `peak_ram_mib` assumes.
fn check(case: &str, d: Dataset, want: u64) {
    assert_eq!(dataset_hash(&d), want, "{case}: dataset bytes moved");
    let (n, f) = d.features.shape();
    assert_eq!(
        d.features.into_vec().capacity(),
        n * f,
        "{case}: feature capacity"
    );
}

#[test]
fn generated_bytes_match_the_golden_hashes() {
    let dir = std::env::temp_dir().join(format!("sgnn-gen-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for width in [1, 4] {
        runtime::set_threads(width);
        let at = |case: &str| format!("{case} at width {width}");

        // The `fb_cheb` benchmark workload's graph.
        let d = csbm::generate(
            "g",
            &params(20_000, 300_000, 0.8, 8, 64),
            Metric::Accuracy,
            7,
        );
        check(&at("fb_cheb"), d, 0xcad1_b27a_4d34_bd33);

        // A heterophilous registry dataset, through the registry path.
        let d = dataset_spec("chameleon")
            .unwrap()
            .generate(GenScale::Tiny, 3);
        check(&at("chameleon tiny"), d, 0xb55d_5fb7_4cac_ff8a);

        // Each class holds one node but the first, so four attempts in five
        // are self-pairs and the attempt cap ends the loop first.
        let d = csbm::generate("g", &params(5, 500, 1.0, 4, 3), Metric::Accuracy, 1);
        check(&at("attempt cap"), d, 0x68a5_f934_728f_790a);

        // A target short of one block, reached after self-pair rejections.
        let d = csbm::generate("g", &params(300, 1_000, 0.9, 3, 5), Metric::Accuracy, 2);
        check(&at("short target"), d, 0xa7bf_e27d_12df_4252);

        // A target a few blocks long that is not a multiple of the block.
        let d = csbm::generate("g", &params(3_000, 40_003, 0.3, 6, 7), Metric::Accuracy, 4);
        check(&at("partial last block"), d, 0x1d4c_da8b_7f65_feed);

        // Streamed to a shard file over two row-range buckets.
        let path: PathBuf = dir.join(format!("golden-{width}.shards"));
        let p = params(60_000, 2_200_000, 0.8, 5, 4);
        let sd = generate_sharded("g", &p, Metric::Accuracy, 11, &path, 0).unwrap();
        let mut h = Fnv::new();
        h.eat(&std::fs::read(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            h.0,
            0x2e60_69fa_9b79_5a12,
            "{}: shard file bytes moved",
            at("sharded")
        );
        assert_eq!(
            (sd.summary.nnz, sd.summary.shards),
            (4_114_792, 16),
            "{}",
            at("sharded")
        );
        check(&at("sharded dataset"), sd.data, 0x5992_4557_8e15_39ca);
    }
    runtime::set_threads(0);
    let _ = std::fs::remove_dir(&dir);
}
