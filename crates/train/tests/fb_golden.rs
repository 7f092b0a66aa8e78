//! Golden values of tiny full-batch cells, captured at the commit before the
//! `DMat` recycling pool and the one-pass θ-gradient reduction went in (PR 15):
//! the trained parameters (bit hash), the test metric and the metered device
//! bytes must not move when buffers are recycled or reductions regrouped.
//!
//! Own test binary: it pins the process-wide backend to `scalar`, the one
//! kernel set every host runs bit for bit (the SIMD `dot` reassociates), and
//! the worker-pool width, because the parallel `matmul_at_b` reduction groups
//! its partial sums by lane. Width 1 is the serial path; at width 4 the
//! `Concat` bank's channels run on worker threads, whose matrices reach the
//! training thread's pool from outside.
//! The hashes also depend on the platform's `expf`/`tanhf`; they were taken
//! on x86_64 Linux/glibc, the host CI and the benchmark run on.

use sgnn_core::make_filter;
use sgnn_data::{dataset_spec, GenScale};
use sgnn_dense::backend::{self, BackendKind};
use sgnn_dense::runtime;
use sgnn_train::full_batch::try_train_full_batch_model;
use sgnn_train::TrainConfig;

/// FNV-1a over every parameter's name, shape and value bits, in
/// registration order.
fn param_hash(values: &[(String, sgnn_dense::DMat)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (name, m) in values {
        eat(name.as_bytes());
        eat(&(m.rows() as u64).to_le_bytes());
        eat(&(m.cols() as u64).to_le_bytes());
        for v in m.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Worker-pool widths the cells run at.
const WIDTHS: [usize; 2] = [1, 4];

struct Golden {
    filter: &'static str,
    /// Early-stopping patience; non-zero adds the periodic validation pass.
    patience: usize,
    /// Parameter hash at each of [`WIDTHS`].
    params: [u64; 2],
    test_metric: u64,
    device_bytes: usize,
}

/// One single-channel fixed filter (pooled hop scratch, no θ), one learnable
/// polynomial (the `dots` reduction over 5 terms: one full group and a tail
/// of one) and the `Concat` bank (per-channel gradient blocks).
const GOLDEN: [Golden; 3] = [
    Golden {
        filter: "PPR",
        patience: 0,
        params: [0x4e17_1d01_df26_855e, 0xdcec_7f55_8011_53c5],
        test_metric: 0x3fe8_dcb6_372d_8dcb,
        device_bytes: 3_800_272,
    },
    Golden {
        filter: "Chebyshev",
        patience: 10,
        params: [0x09ff_a468_8929_267c, 0xefd5_7b6a_86aa_3f90],
        test_metric: 0x3fe3_91a4_e469_391a,
        device_bytes: 4_824_392,
    },
    Golden {
        filter: "ACMGNNII",
        patience: 0,
        params: [0x9003_1b50_0eb2_5f12, 0x3261_9ea6_fb72_4055],
        test_metric: 0x3fe5_92ed_64bb_592f,
        device_bytes: 7_395_288,
    },
];

#[test]
fn tiny_full_batch_cells_match_the_parent_commit() {
    backend::set_backend(Some(BackendKind::Scalar));
    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
    for (w, &width) in WIDTHS.iter().enumerate() {
        runtime::set_threads(width);
        for g in &GOLDEN {
            let mut cfg = TrainConfig::fast_test(11);
            cfg.epochs = 8;
            cfg.patience = g.patience;
            let filter = make_filter(g.filter, cfg.hops).unwrap();
            let (report, _model, store) = try_train_full_batch_model(filter, &data, &cfg).unwrap();
            let got = (
                param_hash(&store.export_values()),
                report.test_metric.to_bits(),
                report.device_bytes,
            );
            assert_eq!(
                got,
                (g.params[w], g.test_metric, g.device_bytes),
                "{} at width {width}: (param hash, test-metric bits, device bytes) = \
                 ({:#018x}, {:#018x}, {})",
                g.filter,
                got.0,
                got.1,
                got.2
            );
        }
    }
}
