//! Optimizers with per-group hyperparameters.
//!
//! The paper's configuration scheme (Table 4) tunes the learning rate and
//! weight decay of the transformation MLPs (`φ0`, `φ1`) separately from the
//! filter parameters (`θ`, `γ`); [`GroupHyper`] carries that split.

use crate::param::{ParamGroup, ParamStore};
use sgnn_dense::DMat;

/// Steps where the global gradient norm exceeded `clip_norm` and was rescaled.
static GRAD_CLIPPED: sgnn_obs::Counter = sgnn_obs::Counter::new("grad.clipped");

/// Rescales every gradient in `params` so the *global* L2 norm (across all
/// parameters jointly, as in `torch.nn.utils.clip_grad_norm_`) is at most
/// `max_norm`. Gradients below the bound are untouched; above it they are
/// scaled by a single factor, preserving their direction.
pub fn clip_global_norm(params: &mut ParamStore, max_norm: f32) -> f64 {
    let norm = params.grad_norm();
    if max_norm > 0.0 && norm.is_finite() && norm > max_norm as f64 {
        let scale = (max_norm as f64 / norm) as f32;
        params.scale_grads(scale);
        GRAD_CLIPPED.incr();
    }
    norm
}

/// Exported Adam moment state, for checkpointing. The vectors are indexed by
/// parameter registration order, matching [`ParamStore`] iteration order.
#[derive(Clone, Debug, PartialEq)]
pub struct AdamState {
    pub t: u64,
    pub m: Vec<DMat>,
    pub v: Vec<DMat>,
}

/// Learning rate / weight decay for one parameter group.
#[derive(Clone, Copy, Debug)]
pub struct GroupHyper {
    pub lr: f32,
    pub weight_decay: f32,
}

impl Default for GroupHyper {
    fn default() -> Self {
        Self {
            lr: 0.01,
            weight_decay: 0.0,
        }
    }
}

/// Common optimizer interface.
pub trait Optimizer {
    /// Applies one update using the accumulated gradients, then the caller
    /// normally zeroes them.
    fn step(&mut self, params: &mut ParamStore);

    /// Bytes of optimizer state (device-memory model).
    fn state_bytes(&self) -> usize;
}

/// Adam with decoupled weight decay (AdamW-style), the optimizer used for
/// all main experiments.
pub struct Adam {
    pub network: GroupHyper,
    pub filter: GroupHyper,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    m: Vec<DMat>,
    v: Vec<DMat>,
}

impl Adam {
    /// Same hyperparameters for both groups.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self::with_groups(
            GroupHyper { lr, weight_decay },
            GroupHyper { lr, weight_decay },
        )
    }

    /// Separate network / filter hyperparameters (Table 4's individual scheme).
    pub fn with_groups(network: GroupHyper, filter: GroupHyper) -> Self {
        Self {
            network,
            filter,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Copies out the moment buffers and step counter for checkpointing.
    /// Call after at least one [`Optimizer::step`] (or after
    /// [`Adam::load_state`]) so the buffers cover every parameter.
    pub fn state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores moment buffers captured by [`Adam::state`]. Rejects state
    /// whose buffer shapes disagree between `m` and `v`, leaving the
    /// optimizer untouched on error.
    pub fn load_state(&mut self, state: AdamState) -> Result<(), String> {
        if state.m.len() != state.v.len() {
            return Err(format!(
                "adam state has {} first moments but {} second moments",
                state.m.len(),
                state.v.len()
            ));
        }
        for (i, (m, v)) in state.m.iter().zip(&state.v).enumerate() {
            if m.shape() != v.shape() {
                return Err(format!(
                    "adam moment {i} shape mismatch: m {:?} vs v {:?}",
                    m.shape(),
                    v.shape()
                ));
            }
        }
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
        Ok(())
    }

    fn ensure_state(&mut self, params: &ParamStore) {
        while self.m.len() < params.len() {
            let id = crate::param::ParamId(self.m.len());
            let (r, c) = params.value(id).shape();
            self.m.push(DMat::zeros(r, c));
            self.v.push(DMat::zeros(r, c));
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore) {
        self.ensure_state(params);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
        let (net, fil) = (self.network, self.filter);
        let (ms, vs) = (&mut self.m, &mut self.v);
        params.update_each(|i, value, grad, group| {
            let h = match group {
                ParamGroup::Network => net,
                ParamGroup::Filter => fil,
            };
            let m = &mut ms[i];
            let v = &mut vs[i];
            for (((p, &g), mm), vv) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut())
                .zip(v.data_mut())
            {
                *mm = b1 * *mm + (1.0 - b1) * g;
                *vv = b2 * *vv + (1.0 - b2) * g * g;
                let mhat = *mm / bc1;
                let vhat = *vv / bc2;
                *p -= h.lr * (mhat / (vhat.sqrt() + eps) + h.weight_decay * *p);
            }
        });
    }

    fn state_bytes(&self) -> usize {
        self.m.iter().chain(self.v.iter()).map(DMat::nbytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamGroup;
    use crate::tape::Tape;
    use std::sync::Arc;

    /// Minimizes ||x·w - y||² from w=0.
    fn fit(opt: &mut dyn Optimizer) -> f32 {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::zeros(1, 1), ParamGroup::Network);
        let x = DMat::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let y = DMat::from_vec(4, 1, vec![2.0, 4.0, 6.0, 8.0]);
        for step in 0..400 {
            ps.zero_grads();
            let mut t = Tape::new(true, step);
            let xn = t.constant(x.clone());
            let wn = t.param(&ps, w);
            let pred = t.matmul(xn, wn);
            let loss = t.mse(pred, y.clone());
            t.backward(loss, &mut ps);
            opt.step(&mut ps);
        }
        ps.value(w).get(0, 0)
    }

    #[test]
    fn adam_converges_to_slope_two() {
        let mut opt = Adam::new(0.05, 0.0);
        let w = fit(&mut opt);
        assert!((w - 2.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::filled(1, 1, 1.0), ParamGroup::Network);
        let mut opt = Adam::new(0.1, 0.5);
        // Zero gradient: zero moments, so only decay acts.
        opt.step(&mut ps);
        assert!((ps.value(w).get(0, 0) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn group_hyperparameters_are_separate() {
        let mut ps = ParamStore::new();
        let wn = ps.add("w", DMat::filled(1, 1, 0.0), ParamGroup::Network);
        let th = ps.add("t", DMat::filled(1, 1, 0.0), ParamGroup::Filter);
        ps.accumulate_grad(wn, &DMat::filled(1, 1, 1.0));
        ps.accumulate_grad(th, &DMat::filled(1, 1, 1.0));
        let mut opt = Adam::with_groups(
            GroupHyper {
                lr: 0.1,
                weight_decay: 0.0,
            },
            GroupHyper {
                lr: 0.001,
                weight_decay: 0.0,
            },
        );
        // The first Adam step moves each parameter by its group's lr.
        opt.step(&mut ps);
        assert!((ps.value(wn).get(0, 0) + 0.1).abs() < 1e-7);
        assert!((ps.value(th).get(0, 0) + 0.001).abs() < 1e-7);
    }

    #[test]
    fn clip_leaves_small_gradients_untouched() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::zeros(1, 2), ParamGroup::Network);
        ps.accumulate_grad(w, &DMat::from_vec(1, 2, vec![0.3, 0.4]));
        let norm = clip_global_norm(&mut ps, 1.0);
        assert!((norm - 0.5).abs() < 1e-6);
        assert_eq!(ps.grad(w).data(), &[0.3, 0.4]);
    }

    #[test]
    fn clip_bounds_norm_and_preserves_direction() {
        let mut ps = ParamStore::new();
        let a = ps.add("a", DMat::zeros(1, 2), ParamGroup::Network);
        let b = ps.add("b", DMat::zeros(1, 1), ParamGroup::Filter);
        ps.accumulate_grad(a, &DMat::from_vec(1, 2, vec![6.0, 8.0]));
        ps.accumulate_grad(b, &DMat::from_vec(1, 1, vec![-5.0]));
        // ||g|| = sqrt(36 + 64 + 25) ≈ 11.18 > 2 → scaled to exactly 2.
        let before = clip_global_norm(&mut ps, 2.0);
        assert!(before > 2.0);
        let after = ps.grad_norm();
        assert!((after - 2.0).abs() < 1e-4, "after = {after}");
        // Direction preserved: components keep their mutual ratios and signs.
        let ga = ps.grad(a).data().to_vec();
        let gb = ps.grad(b).get(0, 0);
        assert!((ga[1] / ga[0] - 8.0 / 6.0).abs() < 1e-5);
        assert!(gb < 0.0 && (gb / ga[0] - (-5.0 / 6.0)).abs() < 1e-5);
    }

    #[test]
    fn clip_disabled_at_zero_bound() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::zeros(1, 1), ParamGroup::Network);
        ps.accumulate_grad(w, &DMat::filled(1, 1, 100.0));
        clip_global_norm(&mut ps, 0.0);
        assert_eq!(ps.grad(w).get(0, 0), 100.0);
    }

    #[test]
    fn adam_state_round_trip_is_bit_exact() {
        // Two optimizers: one steps 5 times; the other steps 3 times, has its
        // state exported/imported at that point, then both step twice more on
        // identical gradients — final parameters must match bit-for-bit.
        let grads: Vec<f32> = vec![1.0, -0.5, 0.25, 2.0, -1.5];
        let run = |resume_at: Option<usize>| -> (Vec<f32>, AdamState) {
            let mut ps = ParamStore::new();
            let w = ps.add("w", DMat::filled(2, 2, 1.0), ParamGroup::Network);
            let mut opt = Adam::new(0.05, 0.01);
            for (i, &g) in grads.iter().enumerate() {
                if resume_at == Some(i) {
                    // Simulate checkpoint + restore mid-run.
                    let state = opt.state();
                    let mut fresh = Adam::new(0.05, 0.01);
                    fresh.load_state(state).unwrap();
                    opt = fresh;
                }
                ps.zero_grads();
                ps.accumulate_grad(w, &DMat::filled(2, 2, g));
                opt.step(&mut ps);
            }
            (ps.value(w).data().to_vec(), opt.state())
        };
        let (straight, s1) = run(None);
        let (resumed, s2) = run(Some(3));
        assert_eq!(straight, resumed);
        assert_eq!(s1, s2);
    }

    #[test]
    fn adam_load_state_rejects_mismatched_moments() {
        let mut opt = Adam::new(0.01, 0.0);
        let bad = AdamState {
            t: 1,
            m: vec![DMat::zeros(2, 2)],
            v: vec![DMat::zeros(3, 2)],
        };
        assert!(opt.load_state(bad).is_err());
        let uneven = AdamState {
            t: 1,
            m: vec![DMat::zeros(2, 2)],
            v: vec![],
        };
        assert!(opt.load_state(uneven).is_err());
    }

    #[test]
    fn adam_state_bytes_grow_with_params() {
        let mut ps = ParamStore::new();
        ps.add("w", DMat::zeros(8, 8), ParamGroup::Network);
        let mut opt = Adam::new(0.01, 0.0);
        opt.step(&mut ps);
        assert_eq!(opt.state_bytes(), 2 * 8 * 8 * 4);
        let _ = Arc::new(()); // silence unused import lint paranoia
    }
}
