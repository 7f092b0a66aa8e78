//! The shard codec's compression on a realistic graph, pinned by byte
//! counts. This replaces the `oocsr.compression` entry of the bench-regress
//! baseline: nothing here is timed, so it needs no tolerance and no host.

use sgnn_data::{CsbmParams, Metric};
use sgnn_sparse::shard::write_shards_from_csr;

/// Varint-gap columns must stay at least 2.0× smaller than raw 4-byte
/// column indices on the seeded 30 000-node / degree-16 CSBM graph (2.149
/// when this test was written); a codec that quietly degrades toward raw
/// `u32` columns fails here.
#[test]
fn csbm_graph_compresses_at_least_2x_against_u32_columns() {
    let n = 30_000;
    let params = CsbmParams {
        nodes: n,
        edges: n * 16 / 2,
        homophily: 0.6,
        classes: 4,
        feature_dim: 8,
        signal: 1.0,
        degree_exponent: 2.5,
    };
    let data = sgnn_data::csbm::generate("bench", &params, Metric::Accuracy, 0);
    let nnz = data.graph.directed_edges();
    let path = std::env::temp_dir().join(format!(
        "sgnn-shard-compression-{}.shrd",
        std::process::id()
    ));
    // ~8 shards, as a streamed run would cut it.
    let target = ((nnz + n) / 8).max(1024);
    let summary =
        write_shards_from_csr(data.graph.adjacency(), &path, target, true).expect("write shards");
    let _ = std::fs::remove_file(&path);
    assert_eq!(summary.nnz as usize, nnz);
    let compression = (summary.nnz * 4) as f64 / summary.file_bytes as f64;
    assert!(
        compression >= 2.0,
        "{} edges in {} bytes: {compression:.3}x vs u32 columns",
        summary.nnz,
        summary.file_bytes
    );
}
