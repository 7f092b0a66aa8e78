//! Micro-benchmarks of the propagation kernels: the CSR ("SP") backend vs
//! the edge-list ("EI") backend, across graph sizes and feature widths.
//!
//! These quantify the `O(mF)` propagation cost that dominates large-graph
//! training (the paper's RQ1) and the constant-factor gap between backends
//! (Table 6). End-to-end propagation cost on a training cell is measured by
//! `perfbench`'s `fb_cheb` workload and its `sparse.csr.*` ledger.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sgnn_data::{CsbmParams, Metric};
use sgnn_dense::rng as drng;
use sgnn_sparse::{Backend, PropMatrix};
use std::hint::black_box;

fn graph(n: usize, deg: usize) -> sgnn_data::Dataset {
    let params = CsbmParams {
        nodes: n,
        edges: n * deg / 2,
        homophily: 0.6,
        classes: 4,
        feature_dim: 8,
        signal: 1.0,
        degree_exponent: 2.5,
    };
    sgnn_data::csbm::generate("bench", &params, Metric::Accuracy, 0)
}

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm_backend");
    for &n in &[2_000usize, 10_000] {
        let data = graph(n, 10);
        let f = 64;
        let x = drng::randn_mat(n, f, 1.0, &mut drng::seeded(0));
        let sp = PropMatrix::with_options(&data.graph, 0.5, true, Backend::Csr);
        let ei = PropMatrix::with_options(&data.graph, 0.5, true, Backend::EdgeList);
        group.throughput(Throughput::Elements((data.edges() * f) as u64));
        group.bench_with_input(BenchmarkId::new("csr", n), &n, |b, _| {
            b.iter(|| black_box(sp.prop(1.0, 0.0, &x)))
        });
        group.bench_with_input(BenchmarkId::new("edge_list", n), &n, |b, _| {
            b.iter(|| black_box(ei.prop(1.0, 0.0, &x)))
        });
    }
    group.finish();
}

fn bench_feature_width(c: &mut Criterion) {
    let data = graph(5_000, 10);
    let pm = PropMatrix::new(&data.graph, 0.5);
    let mut group = c.benchmark_group("spmm_width");
    for &f in &[16usize, 64, 256] {
        let x = drng::randn_mat(data.nodes(), f, 1.0, &mut drng::seeded(0));
        group.throughput(Throughput::Elements((data.edges() * f) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(f), &f, |b, _| {
            b.iter(|| black_box(pm.prop(-1.0, 1.0, &x)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backends, bench_feature_width);
criterion_main!(benches);
