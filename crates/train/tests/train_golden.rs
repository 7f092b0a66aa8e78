//! Golden values of tiny training cells, full-batch and mini-batch: the
//! trained parameters (bit hash), the test metric, the metered device bytes,
//! the RAM-model bytes and the bytes of a periodic checkpoint must not move
//! when buffers are recycled, reductions regrouped or the training loop
//! restructured. The full-batch rows were captured at the commit before the
//! `DMat` recycling pool (PR 15); the mini-batch rows, `ram_bytes` and the
//! checkpoint hashes at the commit before the shared epoch driver (PR 17).
//! The inference-logits hashes (every node, through the scheme's own
//! evaluation-mode pass) were captured at the commit before the
//! forward-only eval tape.
//!
//! Own test binary with a single test: it sets the process-wide backend —
//! every cell runs under `scalar` and under `simd` against the same
//! constants, since every kernel keeps the scalar reduction order — and the
//! worker-pool width, because the parallel `matmul_at_b` reduction groups
//! its partial sums by lane. Width 1 is the serial path; at width 4 a bank's
//! channels run on worker threads, whose matrices reach the training
//! thread's pool from outside.
//! The hashes also depend on the platform's `expf`/`tanhf`; they were taken
//! on x86_64 Linux/glibc, the host CI and the benchmark run on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use sgnn_autograd::ParamStore;
use sgnn_core::{make_filter, SpectralFilter};
use sgnn_data::{dataset_spec, Dataset, GenScale};
use sgnn_dense::backend::{self, BackendKind};
use sgnn_dense::{runtime, DMat};
use sgnn_train::checkpoint::LATEST_FILE;
use sgnn_train::{Killed, Scheme, TrainConfig, TrainReport};

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
}

/// FNV-1a over every parameter's name, shape and value bits, in
/// registration order.
fn param_hash(values: &[(String, DMat)]) -> u64 {
    let mut h = Fnv::new();
    for (name, m) in values {
        h.eat(name.as_bytes());
        h.eat(&(m.rows() as u64).to_le_bytes());
        h.eat(&(m.cols() as u64).to_le_bytes());
        for v in m.data() {
            h.eat(&v.to_bits().to_le_bytes());
        }
    }
    h.0
}

/// FNV-1a over a logits matrix's shape and value bits.
fn logits_hash(m: &DMat) -> u64 {
    let mut h = Fnv::new();
    h.eat(&(m.rows() as u64).to_le_bytes());
    h.eat(&(m.cols() as u64).to_le_bytes());
    for v in m.data() {
        h.eat(&v.to_bits().to_le_bytes());
    }
    h.0
}

/// Worker-pool widths the cells run at.
const WIDTHS: [usize; 2] = [1, 4];

/// Trains one cell through [`Scheme::try_train`], with the logits of every
/// node from the scheme's own inference pass ([`Trained::logits`]). A
/// mini-batch epoch is five batches on the 1 200 training rows, the last one
/// short.
///
/// [`Trained::logits`]: sgnn_train::Trained::logits
fn train(
    scheme: Scheme,
    filter: Arc<dyn SpectralFilter>,
    data: &Dataset,
    cfg: &TrainConfig,
) -> Cell {
    let mut cfg = cfg.clone();
    if scheme == Scheme::MiniBatch {
        cfg.batch_size = 256;
    }
    let t = scheme.try_train(filter, data, None, &cfg).unwrap();
    let logits = t.logits(data);
    (t.report, t.store, logits)
}

type Cell = (TrainReport, ParamStore, DMat);

struct Golden {
    scheme: Scheme,
    filter: &'static str,
    /// Early-stopping patience; non-zero adds the periodic validation pass.
    patience: usize,
    /// Parameter hash at each of [`WIDTHS`].
    params: [u64; 2],
    /// Inference-logits hash at each of [`WIDTHS`].
    logits: [u64; 2],
    test_metric: u64,
    device_bytes: usize,
    ram_bytes: usize,
}

/// Full-batch: one single-channel fixed filter (hop scratch, no θ), one
/// learnable polynomial (the `dots` reduction over 5 terms: one full group
/// and a tail of one) and the `Concat` bank (per-channel gradient blocks).
/// Mini-batch: one fixed filter (hop scratch in the precompute), one
/// learnable polynomial with validation (K+1 stored terms) and one bank.
const GOLDEN: [Golden; 6] = [
    Golden {
        scheme: Scheme::FullBatch,
        filter: "PPR",
        patience: 0,
        params: [0x4e17_1d01_df26_855e, 0xdcec_7f55_8011_53c5],
        logits: [0xb49c_6604_4a93_6706, 0xf0ed_e624_e5e3_3461],
        test_metric: 0x3fe8_dcb6_372d_8dcb,
        device_bytes: 3_800_272,
        ram_bytes: 603_832,
    },
    Golden {
        scheme: Scheme::FullBatch,
        filter: "Chebyshev",
        patience: 10,
        params: [0x09ff_a468_8929_267c, 0xefd5_7b6a_86aa_3f90],
        logits: [0x4693_7412_d458_a7f6, 0xd28e_0c14_1bdf_dde8],
        test_metric: 0x3fe3_91a4_e469_391a,
        device_bytes: 4_824_392,
        ram_bytes: 603_832,
    },
    Golden {
        scheme: Scheme::FullBatch,
        filter: "ACMGNNII",
        patience: 0,
        params: [0x9003_1b50_0eb2_5f12, 0x3261_9ea6_fb72_4055],
        logits: [0x2714_2575_1582_5c46, 0xbb48_dcb3_5933_3d14],
        test_metric: 0x3fe5_92ed_64bb_592f,
        device_bytes: 7_395_288,
        ram_bytes: 603_832,
    },
    Golden {
        scheme: Scheme::MiniBatch,
        filter: "Monomial",
        patience: 0,
        params: [0x1488_d6bf_24be_5f9a, 0x3038_ccd1_0c3f_dc6c],
        logits: [0x3e8c_d902_8059_ee57, 0x8a5b_7b18_b7d5_e45d],
        test_metric: 0x3fed_c11f_7047_dc12,
        device_bytes: 582_840,
        ram_bytes: 1_024_000,
    },
    Golden {
        scheme: Scheme::MiniBatch,
        filter: "Chebyshev",
        patience: 10,
        params: [0x6982_a9bb_7ede_14b3, 0x4cb0_b1e4_c469_23b2],
        logits: [0xdb70_8df0_6b6f_8e65, 0x77bc_fb44_e43e_df37],
        test_metric: 0x3fed_c11f_7047_dc12,
        device_bytes: 976_172,
        ram_bytes: 3_072_000,
    },
    Golden {
        scheme: Scheme::MiniBatch,
        filter: "FiGURe",
        patience: 0,
        params: [0x196d_7efc_5911_52df, 0x33c8_445a_bdc7_7d27],
        logits: [0x694b_56c9_b79e_06de, 0x9011_da48_60db_79c9],
        test_metric: 0x3fed_8387_60e1_d838,
        device_bytes: 2_090_640,
        ram_bytes: 8_704_000,
    },
];

/// FNV of the `ckpt-latest.bin` a cell killed after epoch 6 leaves behind at
/// `ckpt_every = 2` (the snapshot taken after epoch 5, validation state
/// included), at each of [`WIDTHS`].
const CKPT_GOLDEN: [(Scheme, &str, [u64; 2]); 2] = [
    (
        Scheme::FullBatch,
        "Chebyshev",
        [0x7238_03b8_2247_2967, 0x8c93_3069_1e48_38d8],
    ),
    (
        Scheme::MiniBatch,
        "Chebyshev",
        [0xa1a3_3b7b_ceef_69a3, 0x06e1_e527_a954_c5d0],
    ),
];

fn base_cfg(patience: usize) -> TrainConfig {
    let mut cfg = TrainConfig::fast_test(11);
    cfg.epochs = 8;
    cfg.patience = patience;
    cfg
}

fn cells_match(data: &Dataset, w: usize) {
    for g in &GOLDEN {
        let cfg = base_cfg(g.patience);
        let filter = make_filter(g.filter, cfg.hops).unwrap();
        let (report, store, logits) = train(g.scheme, filter, data, &cfg);
        let got = (
            param_hash(&store.export_values()),
            report.test_metric.to_bits(),
            report.device_bytes,
            report.ram_bytes,
        );
        assert_eq!(
            got,
            (g.params[w], g.test_metric, g.device_bytes, g.ram_bytes),
            "{} {} at width {} under {}: (param hash, test-metric bits, device bytes, \
             ram bytes) = ({:#018x}, {:#018x}, {}, {})",
            report.scheme,
            g.filter,
            WIDTHS[w],
            backend::active().name(),
            got.0,
            got.1,
            got.2,
            got.3
        );
        assert_eq!(logits.shape(), (data.nodes(), data.num_classes));
        let lh = logits_hash(&logits);
        assert_eq!(
            lh,
            g.logits[w],
            "{} {} at width {} under {}: inference-logits hash {lh:#018x}",
            report.scheme,
            g.filter,
            WIDTHS[w],
            backend::active().name(),
        );
    }
}

fn checkpoints_match(data: &Dataset, w: usize) {
    for (i, &(scheme, filter, hashes)) in CKPT_GOLDEN.iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("sgnn_train_golden_{}_{i}_{w}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = base_cfg(10);
        cfg.ckpt_every = 2;
        cfg.ckpt_dir = Some(dir.to_string_lossy().into_owned());
        cfg.inject_kill_after_epoch = Some(6);
        let f = make_filter(filter, cfg.hops).unwrap();
        let payload = catch_unwind(AssertUnwindSafe(|| train(scheme, f, data, &cfg)))
            .err()
            .expect("the injected kill must unwind out of the trainer");
        assert!(payload.is::<Killed>());
        let mut h = Fnv::new();
        h.eat(&std::fs::read(dir.join(LATEST_FILE)).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            h.0,
            hashes[w],
            "checkpoint {i} ({filter}) at width {} under {}: {:#018x}",
            WIDTHS[w],
            backend::active().name(),
            h.0
        );
    }
}

#[test]
fn tiny_cells_match_the_parent_commit() {
    let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
    // On a host without AVX2+FMA `Simd` resolves to the scalar kernels.
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(Some(kind));
        for (w, &width) in WIDTHS.iter().enumerate() {
            runtime::set_threads(width);
            cells_match(&data, w);
            checkpoints_match(&data, w);
        }
    }
}
