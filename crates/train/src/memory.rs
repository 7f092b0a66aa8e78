//! Two-tier memory: measured RAM and the modelled device.
//!
//! The paper reports GPU memory and host RAM separately (Tables 9/11,
//! Figure 2). This CPU-only reproduction takes the split as follows:
//!
//! * **RAM** — a counting [`TrackingAlloc`] wrapping the system allocator
//!   measures true current/peak heap bytes of the whole process. Binaries
//!   opt in with `#[global_allocator]`; when it is not installed the
//!   counters read 0 and callers fall back to the analytic accounting.
//! * **Device** — one stated formula, [`device`]: what a framework's tape
//!   holds at a training step's peak (activations, their gradients, saved
//!   tensors, dropout masks, parameters with Adam's moments, and under
//!   full-batch the graph operator and attributes), as a function of the
//!   step's [`StepShape`]. The printed `device` column and every OOM
//!   pre-flight read it; DESIGN.md § Device memory states it term by term.
//!
//! Both tiers feed the observability layer: [`install_obs_sampler`] hands
//! the RAM counters to `sgnn-obs` so every span close carries
//! `ram_cur`/`ram_peak`, and each run of the training driver sets the
//! `device.peak_bytes` gauge to its step's [`device`] total.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sgnn_core::{FilterSpec, Fusion, SpectralFilter, ThetaSpec};
use sgnn_data::Dataset;
use sgnn_dense::DMat;
use sgnn_models::baselines::BaselineKind;
use sgnn_models::decoupled::DecoupledConfig;
use sgnn_obs as obs;
use sgnn_sparse::PropMatrix;

use crate::{Scheme, TrainConfig};

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

/// What a training step runs (DESIGN.md § Device memory).
#[derive(Clone, Copy)]
pub enum Model<'a> {
    /// The decoupled model `φ1(g(L̃)·φ0(X))` in `scheme`'s layout.
    Decoupled {
        scheme: Scheme,
        filter: &'a dyn SpectralFilter,
    },
    /// A Table 6 message-passing baseline of `depth` layers.
    Iterative { kind: BaselineKind, depth: usize },
    /// NAGphormer over `hops + 1` hop tokens.
    Nagphormer { hops: usize },
    /// GT-sample, attending to `anchors` sampled nodes.
    GtSample { anchors: usize },
    /// Figure 6's pair scorer.
    LinkHead,
    /// Table 7's fit (`regression::fit_signal`): the filter alone between
    /// the input and the MSE, with one output scale per channel block.
    Signal { filter: &'a dyn SpectralFilter },
}

/// The shape of one training step: everything [`device`] reads.
#[derive(Clone, Copy)]
pub struct StepShape<'a> {
    pub model: Model<'a>,
    /// Rows on the device: every node, or the largest batch of rows or pairs.
    pub rows: usize,
    pub loss_rows: usize,
    /// `F_i`, or the link head's embedding width.
    pub features: usize,
    pub hidden: usize,
    /// Classes, or the link head's one logit.
    pub classes: usize,
    pub dropout: f32,
    /// Bytes kept across steps: graph operator, per-hop transient, attributes.
    pub resident: usize,
}

impl<'a> StepShape<'a> {
    /// `model`'s step on `rows` rows of `data` at `cfg`, beside `resident`
    /// bytes; the loss reads the training rows among them.
    pub fn new(
        model: Model<'a>,
        rows: usize,
        data: &Dataset,
        cfg: &TrainConfig,
        resident: usize,
    ) -> Self {
        Self {
            model,
            rows,
            loss_rows: data.splits.train.len().min(rows),
            features: data.features.cols(),
            hidden: cfg.hidden,
            classes: data.num_classes,
            dropout: cfg.dropout,
            resident,
        }
    }

    /// The step [`Scheme::try_train`] runs for `filter` on `data` over `op`
    /// at `cfg`: every node under full-batch, the largest batch under
    /// mini-batch.
    pub fn decoupled(
        scheme: Scheme,
        filter: &'a dyn SpectralFilter,
        data: &Dataset,
        op: &PropMatrix,
        cfg: &TrainConfig,
    ) -> Self {
        let (rows, resident) = match scheme {
            Scheme::FullBatch => (data.nodes(), op.nbytes() + data.features.nbytes()),
            Scheme::MiniBatch => (cfg.batch_size.min(data.splits.train.len()), 0),
        };
        Self::new(
            Model::Decoupled { scheme, filter },
            rows,
            data,
            cfg,
            resident,
        )
    }
}

impl<'a> StepShape<'a> {
    /// The step [`fit_signal`](crate::regression::fit_signal) runs for
    /// `filter` over `op` on `width`-wide signals: the loss reads every row
    /// of every column.
    pub fn signal(filter: &'a dyn SpectralFilter, op: &PropMatrix, width: usize) -> Self {
        Self {
            model: Model::Signal { filter },
            rows: op.n(),
            loss_rows: op.n(),
            features: width,
            hidden: 0,
            classes: width,
            dropout: 0.0,
            resident: op.nbytes(),
        }
    }
}

/// What a framework holds on the device at a training step's peak, after
/// the backward pass and the optimizer step: bytes, term by term.
#[derive(Clone, Copy, Debug)]
pub struct Device {
    /// Each dense layer's `matmul → add_bias → relu → dropout` chain.
    pub layers: usize,
    /// Every other activation a backward pass reads, with its gradient.
    pub activations: usize,
    /// The attribute matrix again, as an input constant, beside `resident`.
    pub attributes: usize,
    /// The logits the loss reads, its probabilities, the loss.
    pub loss: usize,
    /// Each parameter's value, gradient and Adam moments.
    pub params: usize,
    /// Each parameter again, as an input node with value and gradient.
    pub param_nodes: usize,
    pub resident: usize,
}

impl Device {
    /// The device bytes of the step: every term.
    pub fn total(&self) -> usize {
        let d = self;
        d.layers + d.activations + d.attributes + d.loss + d.params + d.param_nodes + d.resident
    }
}

/// Dense layers over `dims` on `rows` rows as `sgnn_models`' MLP stacks
/// them (ReLU and dropout after all but the last, ReLU there if
/// `relu_last`): each layer's chain, a value and gradient per node and the
/// mask at `p > 0`, in floats; and the parameters.
fn dense(dims: &[usize], rows: usize, relu_last: bool, p: f32) -> (usize, usize) {
    let last = dims.len() - 2;
    let mut floats = (0, 0);
    for (i, w) in dims.windows(2).enumerate() {
        let hidden = i != last;
        let nodes = 2 + (hidden || relu_last) as usize + hidden as usize;
        floats.0 += rows * w[1] * (2 * nodes + (hidden && p > 0.0) as usize);
        floats.1 += (w[0] + 1) * w[1];
    }
    floats
}

/// A full-batch filter application on `rows` rows of `width`-wide input:
/// its symbolic nodes, else its output and every term, in floats.
fn filter_fb(filter: &dyn SpectralFilter, spec: &FilterSpec, rows: usize, width: usize) -> usize {
    match filter.symbolic_nodes(width) {
        Some((signals, floats)) => 2 * (signals * rows * width + floats),
        None => 2 * rows * spec.out_width(width) + spec.total_terms() * rows * width,
    }
}

/// The filter's coefficient and basis parameters, in floats.
fn filter_params(spec: &FilterSpec) -> usize {
    spec.initial_params().iter().map(DMat::len).sum::<usize>() + spec.extra_len()
}

/// The chain a framework records for the mini-batch combination over
/// `rows` rows of `f`-wide terms, into `out` columns: the terms as
/// constants; per channel a fixed θ, or `M` and `M·p`, or the per-feature
/// gathers, scaled terms and sums, and the output; a fixed γ; the
/// combination; a gradient on every node a parameter reaches.
fn combine_chain(spec: &FilterSpec, out: usize, rows: usize, f: usize) -> usize {
    let (grad, term) = (!spec.initial_params().is_empty() as usize, rows * f);
    let mut floats = (1 + grad) * rows * out;
    for ch in &spec.channels {
        let k = ch.theta.num_terms();
        floats += k * term
            + match &ch.theta {
                ThetaSpec::Fixed(_) => k + term,
                ThetaSpec::Learnable { .. } => (1 + grad) * term,
                ThetaSpec::Transformed { transform, .. } => {
                    transform.len() + (1 + grad) * (k + term)
                }
                ThetaSpec::PerFeature { .. } => (1 + grad) * (k * f + (2 * k - 1) * term),
            };
    }
    if let Fusion::FixedSum(w) = &spec.fusion {
        floats += w.len();
    }
    floats
}

/// The device memory of a training step of `step`'s shape: what a
/// framework's tape holds at the step's peak, term by term (DESIGN.md §
/// Device memory). Every printed `device` column is its
/// [`total`](Device::total), and every OOM pre-flight compares that total
/// with the budget.
pub fn device(step: &StepShape<'_>) -> Device {
    let (n, t, f, h, c, p) = (
        step.rows,
        step.loss_rows,
        step.features,
        step.hidden,
        step.classes,
        step.dropout,
    );
    // Floats per term; `gathered` when the loss reads rows of every node's
    // logits, `attributes` when the step reads the resident `X` again.
    let (mut layers, mut acts, mut params, mut attributes, mut basis) = (0, 0, 0, 0, 0);
    let gathered = match step.model {
        Model::Decoupled { scheme, filter } => {
            let fb = scheme == Scheme::FullBatch;
            let layout = match scheme {
                Scheme::FullBatch => DecoupledConfig::full_batch(h),
                Scheme::MiniBatch => DecoupledConfig::mini_batch(h),
            };
            let width = if layout.phi0_layers > 0 { h } else { f };
            let spec = filter.spec(width);
            let out = spec.out_width(width);
            let phi0 = [vec![f], vec![h; layout.phi0_layers]].concat();
            let phi1 = [vec![out], vec![h; layout.phi1_layers - 1], vec![c]].concat();
            let (a0, p0) = match layout.phi0_layers {
                0 => (0, 0),
                _ => dense(&phi0, n, true, p),
            };
            let (a1, p1) = dense(&phi1, n, false, p);
            acts = match fb {
                true => filter_fb(filter, &spec, n, width),
                false => combine_chain(&spec, out, n, f),
            };
            layers = a0 + a1;
            params = p0 + p1 + filter_params(&spec);
            attributes = fb as usize * n * f;
            // The mini-batch step never reads the basis parameters.
            basis = !fb as usize * spec.extra_len();
            fb
        }
        Model::Iterative { kind, depth } => {
            // Per layer the hop; the hop and `[h, Ãh]`; or `T_1`, `2ÃT_1`,
            // `T_2` and `[h, T_1, T_2]`; on `X` without gradients.
            let (mult, tensors) = match kind {
                BaselineKind::Gcn => (1, 1),
                BaselineKind::GraphSage => (2, 3),
                BaselineKind::ChebNet => (3, 6),
            };
            let mut width = f;
            for l in 0..depth {
                let hidden = l + 1 < depth;
                let out = if hidden { h } else { c };
                let (a, w) = dense(&[mult * width, out], n, hidden, p);
                acts += (1 + (l > 0) as usize) * tensors * n * width;
                (layers, params, width) = (layers + a, params + w, out);
            }
            attributes = n * f;
            true
        }
        Model::Nagphormer { hops } => {
            // Per token its constant; projection, tanh, score, scaled score
            // and value; score and softmax columns and their slice; weighted
            // value; then the running sums.
            let (a, w) = dense(&[h, h, c], n, false, p);
            let tokens = (hops + 1) * (n * f + 8 * n * h + 10 * n) + 2 * hops * n * h;
            (layers, acts, params) = (a, tokens, w + f * h + h + h * h);
            false
        }
        Model::GtSample { anchors: s } => {
            // `X` and the anchors' rows as constants; `Q`, `K`, `V`; the
            // scores, scaled and softmaxed; the context and `[ctx, X]`.
            let (a, w) = dense(&[h + f, h, c], n, false, p);
            let attention = (n + s) * f + 2 * (2 * n * h + 2 * s * h + 3 * n * s + n * (h + f));
            (layers, acts, params) = (a, attention, w + 3 * f * h);
            true
        }
        Model::LinkHead => {
            // Both endpoints' embeddings and their product, as constants.
            let (a, w) = dense(&[f, h, c], n, false, p);
            (layers, acts, params) = (a, 3 * n * f, w);
            false
        }
        Model::Signal { filter } => {
            // The filter's nodes; each block's slice when there are
            // several, and the scaled sum, with gradients.
            let spec = filter.spec(f);
            let blocks = spec.out_width(f) / f;
            let slices = if blocks > 1 { blocks } else { 0 };
            acts = filter_fb(filter, &spec, n, f) + 2 * (slices + 1) * n * f;
            params = filter_params(&spec) + blocks;
            attributes = n * f;
            false
        }
    };
    let loss = 2 + t * c + gathered as usize * 2 * t * c;
    Device {
        layers: layers * F32,
        activations: acts * F32,
        attributes: attributes * F32,
        loss: loss * F32,
        params: 4 * params * F32,
        param_nodes: 2 * (params - basis) * F32,
        resident: step.resident,
    }
}

const F32: usize = std::mem::size_of::<f32>();

/// Pretty-prints a byte count (MiB with two decimals).
pub fn fmt_bytes(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_autograd::{Adam, Optimizer, ParamStore};
    use sgnn_data::{dataset_spec, GenScale};
    use sgnn_models::decoupled::DecoupledModel;

    /// What a framework's `matmul → add_bias → relu → dropout` nodes hold
    /// for one `rows × out` layer: one value and one gradient per node (the
    /// ReLU when set, the dropout when asked for, the identity at `p = 0`)
    /// and the mask at `p > 0`, in floats.
    fn chain(rows: usize, out: usize, relu: bool, dropout: Option<f32>) -> usize {
        let nodes = 2 + relu as usize + dropout.is_some() as usize;
        let masks = dropout.is_some_and(|p| p > 0.0) as usize;
        (2 * nodes + masks) * rows * out
    }

    /// A stack of dense layers counts each layer as the chain a framework
    /// records for it: the hidden layer with its ReLU and dropout, the last
    /// with its ReLU only when asked for; and its weights and biases.
    #[test]
    fn a_dense_layer_counts_its_framework_chain() {
        let (rows, k, h, c) = (10, 4, 7, 3);
        for relu_last in [false, true] {
            for p in [0.0, 0.5] {
                let want = chain(rows, h, true, Some(p)) + chain(rows, c, relu_last, None);
                let params = (k + 1) * h + (h + 1) * c;
                let got = dense(&[k, h, c], rows, relu_last, p);
                assert_eq!(got, (want, params), "relu_last {relu_last}, p {p}");
            }
            let one = dense(&[k, c], rows, relu_last, 0.5);
            assert_eq!(one, (chain(rows, c, relu_last, None), (k + 1) * c));
        }
    }

    /// For every registry filter under both schemes, the formula's
    /// parameters are the model's store: value and gradient, and Adam's two
    /// moments once it has stepped; the full-batch step reads every
    /// parameter as a node, the mini-batch step all but the basis ones.
    /// The total is every term.
    #[test]
    fn device_params_are_the_model_store() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
        let op = PropMatrix::new(&data.graph, 0.5);
        let cfg = TrainConfig::fast_test(0);
        for scheme in Scheme::ALL {
            for name in scheme.filter_names() {
                let filter = sgnn_core::make_filter(name, 3).unwrap();
                let step = StepShape::decoupled(scheme, filter.as_ref(), &data, &op, &cfg);
                let d = device(&step);
                let layout = match scheme {
                    Scheme::FullBatch => DecoupledConfig::full_batch(cfg.hidden),
                    Scheme::MiniBatch => DecoupledConfig::mini_batch(cfg.hidden),
                };
                let (f, c) = (data.features.cols(), data.num_classes);
                let mut store = ParamStore::new();
                let mut rng = sgnn_dense::rng::seeded(0);
                let model = DecoupledModel::new(filter, f, c, layout, &mut store, &mut rng);
                let mut adam = Adam::new(0.01, 0.0);
                adam.step(&mut store);
                let case = format!("{name} {}", scheme.tag());
                // Value and gradient.
                let stored = 2 * F32 * store.ids().map(|id| store.value(id).len()).sum::<usize>();
                assert_eq!(d.params, stored + adam.state_bytes(), "{case}");
                let basis = match scheme {
                    Scheme::FullBatch => 0,
                    Scheme::MiniBatch => 2 * F32 * model.filter.spec().extra_len(),
                };
                assert_eq!(d.param_nodes, stored - basis, "{case}");
                let terms = [d.layers, d.activations, d.attributes, d.loss, d.params];
                let sum: usize = terms.iter().sum::<usize>() + d.param_nodes + d.resident;
                assert_eq!(d.total(), sum, "{case}");
            }
        }
    }

    /// Table 7's step holds every registry filter's parameters and one
    /// output scale per channel block, as `fit_signal` builds them: value,
    /// gradient and Adam's moments, and each read as a node.
    #[test]
    fn signal_params_are_the_fit_store() {
        let data = dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0);
        let op = PropMatrix::new(&data.graph, 0.5);
        for name in sgnn_core::all_filter_names() {
            let filter = sgnn_core::make_filter(name, 3).unwrap();
            let mut store = ParamStore::new();
            let module = sgnn_core::FilterModule::new(filter.clone(), 4, &mut store);
            let blocks = module.out_features(4) / 4;
            let floats = store.ids().map(|id| store.value(id).len()).sum::<usize>() + blocks;
            let d = device(&StepShape::signal(filter.as_ref(), &op, 4));
            assert_eq!(
                (d.params, d.param_nodes),
                (4 * F32 * floats, 2 * F32 * floats),
                "{name}"
            );
        }
    }

    /// A mini-batch step's device is its largest batch's: the split's
    /// length when the batch size exceeds it, and it grows with the batch,
    /// not the graph.
    #[test]
    fn mini_batch_device_is_its_largest_batch() {
        let filter = sgnn_core::make_filter("Chebyshev", 3).unwrap();
        let at = |name: &str, batch: usize| {
            let data = dataset_spec(name).unwrap().generate(GenScale::Tiny, 0);
            let op = PropMatrix::new(&data.graph, 0.5);
            let cfg = TrainConfig {
                batch_size: batch,
                ..TrainConfig::fast_test(0)
            };
            let step = StepShape::decoupled(Scheme::MiniBatch, filter.as_ref(), &data, &op, &cfg);
            (step.rows, data.splits.train.len(), device(&step).total())
        };
        let (rows, train, whole) = at("cora", usize::MAX);
        assert_eq!(rows, train);
        assert_eq!(at("cora", train).2, whole);
        assert!(at("cora", 16).2 < whole);
        // Tiny flickr is the larger graph with cora's widths: the same
        // batch, the same device.
        assert_eq!(at("flickr", 16).2, at("cora", 16).2);
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
