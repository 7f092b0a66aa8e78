//! `spmm.flops` counts the arithmetic a CSR hop runs: `2·F` per stored
//! entry, plus `2·F·rows` for each epilogue term applied — the `b·x` term
//! only when `b ≠ 0`, the `c·z` term only when given. `spmm.nnz` counts
//! the stored entries once per hop. The streamed operator counts the same
//! way, its injected diagonal included. Counters are process-wide, so this
//! binary holds one test and reads deltas.

use std::sync::Arc;

use sgnn_dense::DMat;
use sgnn_sparse::shard::write_shards_from_csr;
use sgnn_sparse::{Dir, Graph, PropMatrix, ShardedCsr};

fn counter(s: &sgnn_obs::Snapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

#[test]
fn spmm_flops_count_only_the_epilogue_terms_applied() {
    let n = 50;
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i * 7 + 3) % n as u32)).collect();
    let g = Graph::from_edges(n, &edges);
    let f = 6;
    let x = DMat::from_fn(n, f, |r, c| (r + c) as f32 * 0.1);
    let z = DMat::from_fn(n, f, |r, c| (r * c) as f32 * 0.01);
    // (a, b, c, epilogue terms applied); c = 0 means no c·z term.
    let cases = [
        (1.0f32, 0.0f32, 0.0f32, 0),
        (-1.0, 1.0, 0.0, 1),
        (-2.0, 0.0, -1.0, 1),
        (-2.0, 0.5, -1.0, 2),
    ];
    let path = std::env::temp_dir().join(format!("sgnn-spmm-flops-{}.shards", std::process::id()));
    // Small shards, so a hop streams several of them.
    write_shards_from_csr(g.adjacency(), &path, 40, true).unwrap();
    let sharded = Arc::new(ShardedCsr::open(&path, true).unwrap());
    for rho in [0.5f32, 0.8] {
        let operators = [
            ("csr", PropMatrix::new(&g, rho)),
            ("sharded", PropMatrix::from_sharded(sharded.clone(), rho)),
        ];
        for (name, pm) in &operators {
            // Stored entries plus the unit diagonal.
            let nnz = (g.directed_edges() + n) as u64;
            assert_eq!(pm.nnz() as u64, nnz, "{name}");
            for dir in [Dir::Forward, Dir::Adjoint] {
                for (a, b, c, terms) in cases {
                    let cz = (c != 0.0).then_some((c, &z));
                    let mut out = DMat::zeros(n, f);
                    let before = sgnn_obs::snapshot();
                    pm.hop_into(dir, a, b, cz, &x, &mut out);
                    let after = sgnn_obs::snapshot();
                    let delta = |name| counter(&after, name) - counter(&before, name);
                    let case = format!("{name} rho {rho} {dir:?} ({a}, {b}, {c})");
                    assert_eq!(delta("spmm.nnz"), nnz, "{case}");
                    let want = 2 * f as u64 * (nnz + terms * n as u64);
                    assert_eq!(delta("spmm.flops"), want, "{case}");
                }
            }
        }
    }
    drop(sharded);
    std::fs::remove_file(&path).unwrap();
}
