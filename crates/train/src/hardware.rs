//! Hardware-sensitivity modeling (Figure 5 of the paper).
//!
//! The paper re-runs the efficiency benchmark on a second server (slower
//! CPUs, faster GPU) and shows the bottleneck *stage* decides which hardware
//! helps. With no second machine available, this module reproduces the
//! experiment two ways:
//!
//! 1. **Real thread scaling** — the Figure 5 experiment pins the worker pool
//!    (`sgnn_dense::pin::threads`) used by all propagation kernels,
//!    genuinely slowing the CPU-bound stages,
//! 2. **Analytic profile scaling** — [`HardwareProfile::rescale`] rescales a
//!    measured report's stage timings by independent CPU/device factors,
//!    making the crossover (fixed MB filters gain from faster devices,
//!    propagation-bound runs gain from faster CPUs) explicit.

use crate::config::TrainReport;

/// Relative speed of a host: 1.0 = the reference machine.
#[derive(Clone, Copy, Debug)]
pub struct HardwareProfile {
    /// CPU-side speed factor (affects precompute and full-batch propagation).
    pub cpu_speed: f64,
    /// Device-side speed factor (affects transformation-dominated training
    /// and inference).
    pub device_speed: f64,
    pub name: &'static str,
}

impl HardwareProfile {
    /// The paper's comparison server S2: slower CPU, faster GPU.
    pub fn s2() -> Self {
        Self {
            cpu_speed: 0.85,
            device_speed: 1.6,
            name: "S2",
        }
    }

    /// Rescales a measured report's stage timings under this profile.
    ///
    /// `cpu_fraction` is the share of per-epoch time spent in propagation
    /// (CPU-bound under the model); the rest is transformation
    /// (device-bound). Mini-batch precompute is fully CPU-bound.
    pub fn rescale(&self, report: &TrainReport, cpu_fraction: f64) -> TrainReport {
        assert!((0.0..=1.0).contains(&cpu_fraction));
        let mut out = report.clone();
        let split = |t: f64| {
            t * cpu_fraction / self.cpu_speed + t * (1.0 - cpu_fraction) / self.device_speed
        };
        out.precompute_s = report.precompute_s / self.cpu_speed;
        out.train_epoch_s = split(report.train_epoch_s);
        out.train_total_s = split(report.train_total_s);
        out.infer_s = split(report.infer_s);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TrainReport {
        TrainReport {
            precompute_s: 10.0,
            train_epoch_s: 1.0,
            train_total_s: 100.0,
            infer_s: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn faster_device_helps_transformation_bound_runs() {
        let s2 = HardwareProfile::s2();
        // Transformation-dominated (cpu_fraction 0.1): S2 should be faster.
        let r = s2.rescale(&report(), 0.1);
        assert!(r.train_epoch_s < 1.0);
        // Propagation-dominated (cpu_fraction 0.9): S2 should be slower.
        let r = s2.rescale(&report(), 0.9);
        assert!(r.train_epoch_s > 1.0);
        // Precompute is always CPU-bound.
        assert!(r.precompute_s > 10.0);
    }
}
