//! Two-tier memory instrumentation.
//!
//! The paper reports GPU memory and host RAM separately (Tables 9/11,
//! Figure 2). This CPU-only reproduction models the split as follows:
//!
//! * **RAM** — a counting [`TrackingAlloc`] wrapping the system allocator
//!   measures true current/peak heap bytes of the whole process. Binaries
//!   opt in with `#[global_allocator]`; when it is not installed the
//!   counters read 0 and callers fall back to the analytic accounting.
//! * **Device** — everything a GPU implementation would keep resident
//!   during one training step: the autograd tape (activations, gradients,
//!   saved tensors), the parameters, the optimizer state, and — full-batch
//!   only — the graph operator itself. [`DeviceMeter`] aggregates those
//!   from the live objects.
//!
//! Both tiers feed the observability layer: [`install_obs_sampler`] hands
//! the RAM counters to `sgnn-obs` so every span close carries
//! `ram_cur`/`ram_peak`, and [`DeviceMeter`] mirrors its peak into the
//! `device.peak_bytes` gauge. The full memory model and span taxonomy are
//! documented in the "Observability" section of `DESIGN.md`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sgnn_autograd::{Optimizer, ParamStore, Tape};
use sgnn_obs as obs;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LIFETIME_PEAK: AtomicUsize = AtomicUsize::new(0);

/// A counting wrapper around the system allocator.
pub struct TrackingAlloc;

// SAFETY: delegates allocation to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Delegate to the system realloc (which may grow in place) instead of
        // the default alloc+copy+dealloc, and adjust the counters by the size
        // delta so `Vec` growth is tracked accurately.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let cur = CURRENT.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Currently allocated heap bytes (0 unless [`TrackingAlloc`] is installed).
pub fn ram_current() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak heap bytes since the last [`ram_reset_peak`].
pub fn ram_peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current level (start of a measured stage). The
/// expiring window's peak is folded into [`ram_lifetime_peak`] first, so
/// per-stage resets never lose the process-wide high-water mark.
pub fn ram_reset_peak() {
    LIFETIME_PEAK.fetch_max(PEAK.load(Ordering::Relaxed), Ordering::Relaxed);
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Process-lifetime peak heap bytes, unaffected by [`ram_reset_peak`].
pub fn ram_lifetime_peak() -> usize {
    LIFETIME_PEAK
        .load(Ordering::Relaxed)
        .max(PEAK.load(Ordering::Relaxed))
}

/// Registers the RAM counters as `sgnn-obs`'s memory sampler so every span
/// close records `ram_cur`/`ram_peak`. Idempotent; call once at startup
/// (after enabling tracing) from any binary that installs [`TrackingAlloc`].
pub fn install_obs_sampler() {
    obs::set_mem_sampler(|| (ram_current() as u64, ram_peak() as u64));
}

/// Aggregates the device-memory model over the steps of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeviceMeter {
    peak: usize,
}

impl DeviceMeter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one training/inference step: tape residency + parameters +
    /// optimizer state + anything permanently device-resident (`fixed`,
    /// e.g. the graph operator under full-batch training).
    pub fn record_step(
        &mut self,
        tape: &Tape,
        store: &ParamStore,
        opt: Option<&dyn Optimizer>,
        fixed: usize,
    ) {
        let bytes =
            tape.resident_bytes() + store.nbytes() + opt.map_or(0, |o| o.state_bytes()) + fixed;
        self.record_bytes(bytes);
    }

    /// Records an externally computed byte count.
    pub(crate) fn record_bytes(&mut self, bytes: usize) {
        self.peak = self.peak.max(bytes);
        obs::gauge_max("device.peak_bytes", self.peak as u64);
    }

    /// Peak device bytes observed.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

/// Pretty-prints a byte count (MiB with two decimals).
pub fn fmt_bytes(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_dense::DMat;

    #[test]
    fn device_meter_tracks_peak() {
        let mut meter = DeviceMeter::new();
        let mut store = ParamStore::new();
        let mut tape = Tape::new(false, 0);
        let _ = tape.constant(DMat::zeros(10, 10));
        meter.record_step(&tape, &store, None, 100);
        assert_eq!(meter.peak(), 10 * 10 * 4 + 100);
        meter.record_bytes(50);
        assert_eq!(meter.peak(), 10 * 10 * 4 + 100, "peak must not shrink");
        let _ = store.add(
            "w",
            DMat::zeros(4, 4),
            sgnn_autograd::param::ParamGroup::Network,
        );
        meter.record_step(&tape, &store, None, 100);
        assert_eq!(meter.peak(), 10 * 10 * 4 + 100 + 2 * 4 * 4 * 4);
    }

    #[test]
    fn device_meter_sums_tape_params_optimizer_and_fixed() {
        use sgnn_autograd::Adam;

        let mut meter = DeviceMeter::new();
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            DMat::zeros(8, 8),
            sgnn_autograd::param::ParamGroup::Network,
        );
        let mut tape = Tape::new(false, 0);
        let _ = tape.constant(DMat::zeros(16, 4));
        let mut opt = Adam::new(0.01, 0.0);
        let fixed = 1000usize;

        // Adam has no m/v state before the first step.
        assert_eq!(opt.state_bytes(), 0);
        meter.record_step(&tape, &store, Some(&opt), fixed);
        let without_state = meter.peak();
        assert_eq!(
            without_state,
            tape.resident_bytes() + store.nbytes() + fixed
        );

        // After one step the m/v moments exist and must be counted.
        opt.step(&mut store);
        assert_eq!(opt.state_bytes(), 2 * 8 * 8 * 4);
        meter.record_step(&tape, &store, Some(&opt), fixed);
        assert_eq!(meter.peak(), without_state + 2 * 8 * 8 * 4);
        let _ = w;
    }

    #[test]
    fn device_meter_peak_is_monotone() {
        let mut meter = DeviceMeter::new();
        meter.record_bytes(500);
        assert_eq!(meter.peak(), 500);
        meter.record_bytes(200);
        assert_eq!(meter.peak(), 500, "smaller step must not lower the peak");
        meter.record_bytes(800);
        assert_eq!(meter.peak(), 800);
    }

    #[test]
    fn fmt_bytes_mib() {
        assert_eq!(fmt_bytes(1024 * 1024), "1.00 MiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 / 2), "1.50 MiB");
    }

    #[test]
    fn ram_counters_are_monotonic_without_allocator() {
        // Without #[global_allocator] installed the counters just stay 0 or
        // whatever the process recorded; reset must not panic.
        ram_reset_peak();
        assert!(ram_peak() >= ram_current() || ram_peak() == 0);
    }
}
