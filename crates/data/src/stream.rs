//! Streaming CSBM generation straight to a shard file.
//!
//! [`crate::csbm::generate`] materializes the full edge list (and the CSR
//! built from it) in RAM — fine up to a few tens of millions of edges,
//! hopeless at paper scale. This module replays the *exact same* sampling
//! sequence (labels → weights → edge attempts → features → splits, one
//! shared RNG) but routes each accepted edge to a row-range bucket file on
//! disk instead of a `Vec`. A second pass builds one bucket's rows at a
//! time with [`sorted_rows`], the counting sort under `Graph::from_edges`
//! (so the rows are the same), and feeds them to a [`ShardWriter`],
//! cutting nnz-balanced shards with the same [`SpmmPlan`] machinery the
//! in-memory kernel schedules with.
//!
//! Peak memory is `O(n)` (labels, weights, features, degree table) plus
//! one bucket's pair bytes and columns — never the `O(m)` edge list. For
//! the same seed, the resulting dataset (labels, features, splits) and
//! graph structure are bit-identical to the in-memory generator's; the
//! round-trip test below pins this.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sgnn_dense::rng as drng;
use sgnn_sparse::shard::{ShardError, ShardSummary, ShardWriter, DEFAULT_SHARD_NNZ};
use sgnn_sparse::{sorted_rows, Graph, ShardedCsr, SpmmPlan};

use crate::csbm::{self, CsbmParams, Dataset};
use crate::registry::Metric;
use crate::splits::Splits;

/// Cap on one bucket's on-disk pair bytes; bounds the row-build buffers.
const BUCKET_TARGET_BYTES: u64 = 32 << 20;
const MAX_BUCKETS: usize = 512;

/// A dataset whose graph lives on disk as a shard file.
///
/// `data.graph` is an **edgeless placeholder** (correct node count, zero
/// edges) so the `Dataset` plumbing — features, labels, splits, metric —
/// works unchanged; propagation must go through a
/// `PropMatrix::from_sharded` built on [`Self::csr`].
pub struct ShardedDataset {
    pub data: Dataset,
    pub csr: Arc<ShardedCsr>,
    pub summary: ShardSummary,
}

/// Generates a CSBM dataset with the adjacency written to `shard_path`
/// (atomically, CRC-protected) instead of held in RAM.
///
/// `target_shard_nnz = 0` uses [`DEFAULT_SHARD_NNZ`]. Bucket temp files
/// are created next to `shard_path` and removed before returning.
pub fn generate_sharded(
    name: &str,
    params: &CsbmParams,
    metric: Metric,
    seed: u64,
    shard_path: &Path,
    target_shard_nnz: usize,
) -> Result<ShardedDataset, ShardError> {
    assert!(params.classes >= 2, "need at least two classes");
    assert!(
        (0.0..=1.0).contains(&params.homophily),
        "homophily must be in [0, 1]"
    );
    let mut rng = drng::seeded(seed);
    let n = params.nodes;

    let labels = csbm::sample_labels(params, &mut rng);
    let weights = csbm::sample_weights(params, &mut rng);
    let sampler = csbm::ClassSampler::new(&labels, &weights, params.classes);
    let es = csbm::EdgeSampler::new(&sampler, params);
    drop(weights);

    // Row-range buckets: bucket b owns rows [b·span, (b+1)·span). Each
    // accepted undirected edge writes both directed pairs, each to the
    // bucket of its *row* endpoint.
    let n_buckets =
        (((params.edges as u64 * 16).div_ceil(BUCKET_TARGET_BYTES)) as usize).clamp(1, MAX_BUCKETS);
    let span = n.div_ceil(n_buckets).max(1);
    let mut buckets = BucketFiles::create(shard_path, n_buckets)?;
    es.sample_edges(params, &mut rng, |u, v| {
        buckets.push(u as usize / span, u, v)?;
        buckets.push(v as usize / span, v, u)
    })?;

    let features = csbm::sample_features(params, &labels, &mut rng);
    let splits = Splits::stratified(&labels, 0.6, 0.2, &mut rng);

    // Second pass: per bucket, the bucket's rows sorted and deduplicated by
    // `sorted_rows` (the builder under `Graph::from_edges`), streamed into
    // the writer, cutting shards on nnz-balanced SpmmPlan boundaries within
    // the bucket.
    let target = if target_shard_nnz == 0 {
        DEFAULT_SHARD_NNZ
    } else {
        target_shard_nnz
    };
    let mut writer = ShardWriter::create(shard_path, n)?;
    let mut bytes: Vec<u8> = Vec::new();
    for b in 0..n_buckets {
        let row_lo = b * span;
        let row_hi = ((b + 1) * span).min(n);
        if row_lo >= n {
            break;
        }
        buckets.read_into(b, &mut bytes)?;
        let pairs = bytes.chunks_exact(8).map(|p| {
            (
                u32::from_le_bytes(p[0..4].try_into().unwrap()),
                u32::from_le_bytes(p[4..8].try_into().unwrap()),
            )
        });
        let (indptr, cols) = sorted_rows(row_lo, row_hi - row_lo, pairs);
        let weight = cols.len() + row_hi - row_lo;
        let chunks = weight.div_ceil(target.max(1)).max(1);
        let plan = SpmmPlan::with_chunks(&indptr, chunks);
        for win in plan.boundaries().windows(2) {
            for r in win[0]..win[1] {
                writer.push_row(&cols[indptr[r]..indptr[r + 1]])?;
            }
            writer.cut()?;
        }
    }
    buckets.cleanup();
    let summary = writer.finish(true)?;

    let csr = Arc::new(ShardedCsr::open(shard_path, true)?);
    let data = Dataset {
        name: name.to_string(),
        graph: Graph::from_edges(n, &[]),
        features,
        labels,
        num_classes: params.classes,
        metric,
        splits,
    };
    Ok(ShardedDataset { data, csr, summary })
}

/// Append-only bucket files of little-endian `(row, col)` u32 pairs.
struct BucketFiles {
    paths: Vec<PathBuf>,
    writers: Vec<BufWriter<File>>,
}

impl BucketFiles {
    fn create(shard_path: &Path, n_buckets: usize) -> Result<Self, ShardError> {
        let mut paths = Vec::with_capacity(n_buckets);
        let mut writers = Vec::with_capacity(n_buckets);
        for b in 0..n_buckets {
            let p = shard_path.with_extension(format!("bucket{b}.tmp"));
            let f = File::create(&p)?;
            writers.push(BufWriter::with_capacity(64 << 10, f));
            paths.push(p);
        }
        Ok(Self { paths, writers })
    }

    fn push(&mut self, bucket: usize, row: u32, col: u32) -> Result<(), ShardError> {
        let last = self.writers.len() - 1;
        let w = &mut self.writers[bucket.min(last)];
        w.write_all(&row.to_le_bytes())?;
        w.write_all(&col.to_le_bytes())?;
        Ok(())
    }

    /// Reads bucket `bucket`'s pairs into `bytes` and deletes its file.
    fn read_into(&mut self, bucket: usize, bytes: &mut Vec<u8>) -> Result<(), ShardError> {
        bytes.clear();
        self.writers[bucket].flush()?;
        File::open(&self.paths[bucket])?.read_to_end(bytes)?;
        // Free the bucket's disk as soon as it is consumed.
        let _ = std::fs::remove_file(&self.paths[bucket]);
        Ok(())
    }

    fn cleanup(self) {
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_dense::DMat;
    use sgnn_sparse::{Dir, PropMatrix};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sgnn-stream-{name}-{}", std::process::id()));
        p
    }

    /// The headline guarantee: same seed ⇒ the streamed dataset is
    /// bit-identical to the in-memory generator — labels, features,
    /// splits, graph structure, and propagation output.
    #[test]
    fn streamed_generation_matches_in_memory_bitwise() {
        let params = CsbmParams {
            nodes: 1500,
            edges: 9000,
            ..CsbmParams::default()
        };
        let mem = csbm::generate("s", &params, Metric::Accuracy, 33);
        let path = tmp("match");
        let sd = generate_sharded("s", &params, Metric::Accuracy, 33, &path, 700).unwrap();
        assert_eq!(mem.labels, sd.data.labels);
        assert_eq!(mem.features, sd.data.features);
        assert_eq!(mem.splits.train, sd.data.splits.train);
        assert_eq!(mem.splits.valid, sd.data.splits.valid);
        assert_eq!(mem.splits.test, sd.data.splits.test);
        assert_eq!(mem.graph.directed_edges() as u64, sd.summary.nnz);
        assert_eq!(mem.graph.degrees(), sd.csr.degs());
        let pm_mem = PropMatrix::new(&mem.graph, 0.5);
        let pm_ooc = PropMatrix::from_sharded(sd.csr.clone(), 0.5);
        let x = DMat::from_fn(1500, 4, |r, c| ((r * 4 + c) as f32 * 0.113).sin());
        assert_eq!(
            pm_mem.hop(Dir::Forward, -1.0, 1.0, &x).data(),
            pm_ooc.hop(Dir::Forward, -1.0, 1.0, &x).data(),
            "streamed graph must propagate bit-identically"
        );
        // Bucket temp files must be gone.
        for b in 0..MAX_BUCKETS {
            assert!(!path.with_extension(format!("bucket{b}.tmp")).exists());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn placeholder_graph_is_edgeless() {
        let params = CsbmParams {
            nodes: 300,
            edges: 1200,
            ..CsbmParams::default()
        };
        let path = tmp("placeholder");
        let sd = generate_sharded("p", &params, Metric::Accuracy, 5, &path, 0).unwrap();
        assert_eq!(sd.data.graph.nodes(), 300);
        assert_eq!(sd.data.graph.directed_edges(), 0);
        assert!(sd.summary.nnz > 0);
        assert_eq!(sd.csr.n(), 300);
        std::fs::remove_file(&path).unwrap();
    }
}
