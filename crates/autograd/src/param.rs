//! Named trainable parameters with gradient buffers and groups.
//!
//! Parameters are partitioned into [`ParamGroup`]s so optimizers can apply
//! different learning rates / weight decay to network weights (`φ0`, `φ1`)
//! and to filter parameters (`θ`, `γ`), mirroring the individual tuning
//! scheme of Table 4 in the paper.

use sgnn_dense::DMat;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Hyperparameter group a parameter belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParamGroup {
    /// Network transformation weights (`φ0`, `φ1` MLPs).
    Network,
    /// Spectral filter parameters (`θ` coefficients, `γ` channel weights).
    Filter,
}

pub(crate) struct Param {
    pub name: String,
    pub value: DMat,
    pub grad: DMat,
    pub group: ParamGroup,
}

/// Container of all trainable state of a model.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: DMat, group: ParamGroup) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            name: name.into(),
            grad: DMat::zeros(r, c),
            value,
            group,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub(crate) fn len(&self) -> usize {
        self.params.len()
    }

    /// All parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &DMat {
        &self.params[id.0].value
    }

    /// Mutable value (used by SPSA perturbation and manual re-initialization).
    pub fn value_mut(&mut self, id: ParamId) -> &mut DMat {
        &mut self.params[id.0].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &DMat {
        &self.params[id.0].grad
    }

    /// Adds `g` into the gradient buffer of `id`.
    pub(crate) fn accumulate_grad(&mut self, id: ParamId, g: &DMat) {
        self.params[id.0].grad.add_assign_mat(g);
    }

    /// Clears all gradient buffers (start of a step).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill(0.0);
        }
    }

    /// Applies `f(value, grad, group)` to every parameter — the optimizer hook.
    pub(crate) fn update_each(&mut self, mut f: impl FnMut(usize, &mut DMat, &DMat, ParamGroup)) {
        for (i, p) in self.params.iter_mut().enumerate() {
            f(i, &mut p.value, &p.grad, p.group);
        }
    }

    /// Heap bytes of parameter values + gradient buffers (device-memory model).
    pub fn nbytes(&self) -> usize {
        self.params
            .iter()
            .map(|p| p.value.nbytes() + p.grad.nbytes())
            .sum()
    }

    /// Multiplies every gradient buffer by `scale` — the clipping hook.
    pub(crate) fn scale_grads(&mut self, scale: f32) {
        for p in &mut self.params {
            for g in p.grad.data_mut() {
                *g *= scale;
            }
        }
    }

    /// Copies out `(name, value)` for every parameter in registration order —
    /// the checkpoint export path.
    pub fn export_values(&self) -> Vec<(String, DMat)> {
        self.params
            .iter()
            .map(|p| (p.name.clone(), p.value.clone()))
            .collect()
    }

    /// Restores values captured by [`ParamStore::export_values`]. The load is
    /// atomic: every name and shape is verified against the live store first,
    /// so a mismatched snapshot leaves all parameters untouched.
    pub fn load_values(&mut self, values: &[(String, DMat)]) -> Result<(), String> {
        if values.len() != self.params.len() {
            return Err(format!(
                "snapshot has {} parameters, model has {}",
                values.len(),
                self.params.len()
            ));
        }
        for (p, (name, value)) in self.params.iter().zip(values) {
            if &p.name != name {
                return Err(format!("parameter name mismatch: {:?} vs {name:?}", p.name));
            }
            if p.value.shape() != value.shape() {
                return Err(format!(
                    "parameter {name:?} shape mismatch: {:?} vs {:?}",
                    p.value.shape(),
                    value.shape()
                ));
            }
        }
        for (p, (_, value)) in self.params.iter_mut().zip(values) {
            p.value = value.clone();
        }
        Ok(())
    }

    /// Name of the first parameter whose gradient contains a non-finite
    /// entry — localizes which weight blew up when a loss goes NaN.
    pub fn first_nonfinite_grad(&self) -> Option<&str> {
        self.params
            .iter()
            .find(|p| p.grad.data().iter().any(|g| !g.is_finite()))
            .map(|p| p.name.as_str())
    }

    /// Global L2 norm of all gradients — used for divergence diagnostics.
    pub(crate) fn grad_norm(&self) -> f64 {
        self.params
            .iter()
            .map(|p| {
                p.grad
                    .data()
                    .iter()
                    .map(|&g| (g as f64) * (g as f64))
                    .sum::<f64>()
            })
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_access() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::filled(2, 3, 1.5), ParamGroup::Network);
        let t = ps.add("theta", DMat::zeros(4, 1), ParamGroup::Filter);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.value(w).shape(), (2, 3));
        assert_eq!(ps.params[t.0].group, ParamGroup::Filter);
        assert_eq!(ps.params[w.0].name, "w");
    }

    #[test]
    fn export_load_round_trip_and_atomic_rejection() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::filled(2, 2, 1.0), ParamGroup::Network);
        let t = ps.add("theta", DMat::filled(3, 1, 2.0), ParamGroup::Filter);
        let snap = ps.export_values();

        ps.value_mut(w).fill(9.0);
        ps.value_mut(t).fill(9.0);
        ps.load_values(&snap).unwrap();
        assert_eq!(ps.value(w).get(0, 0), 1.0);
        assert_eq!(ps.value(t).get(2, 0), 2.0);

        // Wrong name, wrong shape, wrong count: all rejected, store untouched.
        let mut bad = snap.clone();
        bad[0].0 = "other".into();
        assert!(ps.load_values(&bad).is_err());
        let mut bad = snap.clone();
        bad[1].1 = DMat::zeros(1, 3);
        assert!(ps.load_values(&bad).is_err());
        assert!(ps.load_values(&snap[..1]).is_err());
        assert_eq!(ps.value(w).get(0, 0), 1.0);
    }

    #[test]
    fn first_nonfinite_grad_names_the_culprit() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::zeros(1, 1), ParamGroup::Network);
        let t = ps.add("theta", DMat::zeros(1, 2), ParamGroup::Filter);
        assert_eq!(ps.first_nonfinite_grad(), None);
        ps.accumulate_grad(w, &DMat::filled(1, 1, 1.0));
        ps.accumulate_grad(t, &DMat::from_vec(1, 2, vec![0.0, f32::NAN]));
        assert_eq!(ps.first_nonfinite_grad(), Some("theta"));
    }

    #[test]
    fn scale_grads_rescales_everything() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::zeros(1, 2), ParamGroup::Network);
        ps.accumulate_grad(w, &DMat::from_vec(1, 2, vec![2.0, -4.0]));
        ps.scale_grads(0.5);
        assert_eq!(ps.grad(w).data(), &[1.0, -2.0]);
    }

    #[test]
    fn grad_accumulation_and_reset() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", DMat::zeros(2, 2), ParamGroup::Network);
        ps.accumulate_grad(w, &DMat::filled(2, 2, 1.0));
        ps.accumulate_grad(w, &DMat::filled(2, 2, 0.5));
        assert_eq!(ps.grad(w).get(0, 0), 1.5);
        assert!((ps.grad_norm() - (4.0f64 * 1.5 * 1.5).sqrt()).abs() < 1e-12);
        ps.zero_grads();
        assert_eq!(ps.grad(w).get(0, 0), 0.0);
    }
}
