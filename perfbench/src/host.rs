//! What the numbers were measured on, and the process clocks the
//! end-to-end metrics read.

use sgnn_dense::backend::{self, BackendKind};
use sgnn_dense::runtime;

/// Printed with every result so that a later comparison across hosts is
/// refused rather than trusted.
pub struct Fingerprint {
    pub nproc: usize,
    pub pool_threads: usize,
    pub backend: &'static str,
    pub cpu_features: String,
    pub rustc: &'static str,
    pub commit: &'static str,
}

impl Fingerprint {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut features = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            for (name, have) in [
                ("sse4.2", is_x86_feature_detected!("sse4.2")),
                ("avx", is_x86_feature_detected!("avx")),
                ("avx2", is_x86_feature_detected!("avx2")),
                ("fma", is_x86_feature_detected!("fma")),
                ("avx512f", is_x86_feature_detected!("avx512f")),
            ] {
                if have {
                    features.push(name);
                }
            }
        }
        Self {
            nproc,
            pool_threads: runtime::num_threads(),
            backend: match backend::selected_kind() {
                BackendKind::Scalar => "scalar",
                BackendKind::Simd => "avx2",
            },
            cpu_features: features.join("+"),
            rustc: env!("SGNN_BENCH_RUSTC"),
            commit: env!("SGNN_BENCH_COMMIT"),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host: nproc={} pool_threads={} backend={} cpu={} rustc=\"{}\" commit={} arch={}",
            self.nproc,
            self.pool_threads,
            self.backend,
            self.cpu_features,
            self.rustc,
            self.commit,
            std::env::consts::ARCH,
        )
    }
}

/// User and system CPU seconds of this process (all threads) from
/// `/proc/self/stat`. Returns zeros where procfs is missing; every caller
/// reports differences, so the metric degrades to 0 rather than failing.
pub fn cpu_times() -> (f64, f64) {
    // Field 2 (comm) may contain spaces; fields are counted after its ')'.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after comm.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // USER_HZ is 100 on every Linux ABI this benchmark runs on.
    (tick(11) / 100.0, tick(12) / 100.0)
}
