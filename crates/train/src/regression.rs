//! Spectral signal regression (Table 7 of the paper).
//!
//! The task: given `(x, z = g*(L̃)x)` for an analytic filter `g*`, train the
//! filter's coefficients to reproduce `z` and report `R²`. Only the filter
//! itself (plus a learnable output scale, so fixed filters have at least one
//! degree of freedom, mirroring the paper's hyperparameter tuning of `α`)
//! sits between input and loss — no MLPs, isolating pure spectral
//! expressiveness. A filter whose channels concatenate (`Fusion::Concat`,
//! `Q·F` wide) gets one scale per `F`-wide channel block, and the scaled
//! blocks are summed back to `F`.

use std::sync::Arc;

use sgnn_autograd::optim::GroupHyper;
use sgnn_autograd::param::ParamGroup;
use sgnn_autograd::{Adam, Optimizer, ParamStore, Tape};
use sgnn_core::{FilterModule, Fusion, SpectralFilter};
use sgnn_data::signals::RegressionTask;
use sgnn_dense::DMat;
use sgnn_sparse::PropMatrix;

use crate::metrics::r2_score;

/// Result of one regression fit.
#[derive(Clone, Debug)]
pub struct RegressionReport {
    pub filter: String,
    pub signal: &'static str,
    /// R² of the fitted output against the exact response (×100 as in the
    /// paper's Table 7 when displayed).
    pub r2: f64,
    pub epochs: usize,
}

/// Fits a filter's learnable parameters to one regression task.
pub fn fit_signal(
    filter: Arc<dyn SpectralFilter>,
    pm: &Arc<PropMatrix>,
    task: &RegressionTask,
    epochs: usize,
    lr: f32,
    seed: u64,
) -> RegressionReport {
    let name = filter.name().to_string();
    let mut store = ParamStore::new();
    let module = FilterModule::new(filter, task.input.cols(), &mut store);
    // Output scale: gives fixed filters one trainable knob (the paper
    // instead tunes their hyperparameters per signal), one per channel
    // block when the channels concatenate.
    let blocks = match module.spec().fusion {
        Fusion::Concat => module.spec().num_channels(),
        _ => 1,
    };
    let width = task.input.cols();
    let scale = store.add(
        "out_scale",
        DMat::from_vec(blocks, 1, vec![1.0; blocks]),
        ParamGroup::Filter,
    );
    let mut opt = Adam::with_groups(
        GroupHyper {
            lr,
            weight_decay: 0.0,
        },
        GroupHyper {
            lr,
            weight_decay: 0.0,
        },
    );

    let forward = |tape: &mut Tape, store: &ParamStore| {
        let x = tape.constant(task.input.clone());
        let out = module.apply_fb(tape, pm, x, store);
        let s = tape.param(store, scale);
        let parts: Vec<_> = match blocks {
            1 => vec![out],
            _ => (0..blocks)
                .map(|b| tape.slice_cols(out, b * width, width))
                .collect(),
        };
        tape.lin_comb(&parts, s)
    };

    let mut best_r2 = f64::NEG_INFINITY;
    for epoch in 0..epochs {
        store.zero_grads();
        let mut tape = Tape::new(false, seed.wrapping_add(epoch as u64));
        let out = forward(&mut tape, &store);
        let loss = tape.mse(out, task.target.clone());
        tape.backward(loss, &mut store);
        opt.step(&mut store);
        if epoch % 10 == 9 || epoch + 1 == epochs {
            let mut eval = Tape::new(false, 0);
            let out = forward(&mut eval, &store);
            best_r2 = best_r2.max(r2_score(eval.value(out), &task.target));
        }
    }
    RegressionReport {
        filter: name,
        signal: task.signal.name(),
        r2: best_r2,
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_core::make_filter;
    use sgnn_data::signals::{regression_task, Signal};
    use sgnn_sparse::Graph;

    fn ring_pm() -> Arc<PropMatrix> {
        // A ring with chords: a broad, well-spread Laplacian spectrum.
        let edges: Vec<(u32, u32)> = (0..80u32)
            .map(|i| (i, (i + 1) % 80))
            .chain(
                (0..80u32)
                    .filter(|i| i % 3 == 0)
                    .map(|i| (i, (i + 11) % 80)),
            )
            .chain(
                (0..80u32)
                    .filter(|i| i % 7 == 0)
                    .map(|i| (i, (i + 29) % 80)),
            )
            .collect();
        Arc::new(PropMatrix::new(&Graph::from_edges(80, &edges), 0.5))
    }

    #[test]
    fn every_registry_filter_fits_for_one_epoch() {
        let pm = ring_pm();
        let task = regression_task(&pm, Signal::Low, 2, 0);
        for name in sgnn_core::all_filter_names() {
            let rep = fit_signal(make_filter(name, 4).unwrap(), &pm, &task, 1, 0.05, 0);
            assert!(!rep.r2.is_nan(), "{name}: R² is NaN");
        }
    }

    #[test]
    fn variable_filter_fits_low_pass_well() {
        let pm = ring_pm();
        let task = regression_task(&pm, Signal::Low, 2, 0);
        let rep = fit_signal(
            make_filter("Chebyshev", 8).unwrap(),
            &pm,
            &task,
            150,
            0.05,
            0,
        );
        assert!(rep.r2 > 0.8, "Chebyshev on LOW: R² = {}", rep.r2);
    }

    #[test]
    fn low_pass_fixed_filter_fails_on_high_pass_signal() {
        // A sharply concentrated low-pass Gaussian: its decreasing response
        // cannot follow the increasing HIGH target.
        let pm = ring_pm();
        let low = regression_task(&pm, Signal::Low, 2, 1);
        let high = regression_task(&pm, Signal::High, 2, 1);
        let mk = || {
            std::sync::Arc::new(crate::regression::tests::gaussian_sharp())
                as Arc<dyn sgnn_core::SpectralFilter>
        };
        let f_low = fit_signal(mk(), &pm, &low, 150, 0.05, 1);
        let f_high = fit_signal(mk(), &pm, &high, 150, 0.05, 1);
        assert!(
            f_low.r2 > f_high.r2,
            "sharp low-pass must fit LOW ({}) better than HIGH ({})",
            f_low.r2,
            f_high.r2
        );
    }

    pub(super) fn gaussian_sharp() -> sgnn_core::fixed::Gaussian {
        sgnn_core::fixed::Gaussian {
            hops: 16,
            alpha: 6.0,
            center: 0.0,
        }
    }

    #[test]
    fn band_signal_separates_filters_with_band_capability() {
        let pm = ring_pm();
        let band = regression_task(&pm, Signal::Band, 2, 2);
        let cheb = fit_signal(
            make_filter("Chebyshev", 10).unwrap(),
            &pm,
            &band,
            200,
            0.05,
            2,
        );
        let imp = fit_signal(
            make_filter("Impulse", 10).unwrap(),
            &pm,
            &band,
            200,
            0.05,
            2,
        );
        assert!(
            cheb.r2 > imp.r2,
            "Chebyshev {} vs Impulse {}",
            cheb.r2,
            imp.r2
        );
    }
}
