//! Finite-difference gradient verification.
//!
//! Used by the test suites of this crate and of `sgnn-core` to certify every
//! op's backward implementation: perturb each scalar of each parameter,
//! re-evaluate the loss, and compare the central difference against the
//! analytic gradient.

use crate::param::{ParamId, ParamStore};

/// Outcome of a gradient check.
#[derive(Debug)]
pub struct GradCheckReport {
    /// Worst relative error observed.
    pub max_rel_err: f64,
    /// Number of scalars checked.
    pub checked: usize,
}

/// Verifies the analytic gradients of `params` for the scalar loss computed
/// by `eval`.
///
/// `eval` must build a fresh tape from the store and return the loss value
/// (the same construction every time — dropout should be off or seeded
/// identically). `grads` must already hold the analytic gradients.
///
/// Relative error uses `|a − n| / max(1, |a|, |n|)`, robust near zero.
pub fn check_grads(
    params: &mut ParamStore,
    ids: &[ParamId],
    mut eval: impl FnMut(&ParamStore) -> f64,
    eps: f32,
) -> GradCheckReport {
    // Snapshot analytic grads first (eval must not touch them).
    let analytic: Vec<Vec<f32>> = ids
        .iter()
        .map(|&id| params.grad(id).data().to_vec())
        .collect();
    let mut max_rel_err = 0.0f64;
    let mut checked = 0usize;
    for (slot, &id) in ids.iter().enumerate() {
        let len = params.value(id).len();
        #[allow(clippy::needless_range_loop)] // k also indexes the live parameter buffer
        for k in 0..len {
            let orig = params.value(id).data()[k];
            params.value_mut(id).data_mut()[k] = orig + eps;
            let up = eval(params);
            params.value_mut(id).data_mut()[k] = orig - eps;
            let down = eval(params);
            params.value_mut(id).data_mut()[k] = orig;
            let numeric = (up - down) / (2.0 * eps as f64);
            let a = analytic[slot][k] as f64;
            let rel = (a - numeric).abs() / a.abs().max(numeric.abs()).max(1.0);
            if rel > max_rel_err {
                max_rel_err = rel;
            }
            checked += 1;
        }
    }
    GradCheckReport {
        max_rel_err,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamGroup;
    use crate::tape::Tape;
    use sgnn_dense::{rng as drng, DMat};
    use std::sync::Arc;

    #[test]
    fn mlp_cross_entropy_gradients_verify() {
        let mut rng = drng::seeded(11);
        let mut ps = ParamStore::new();
        let w1 = ps.add("w1", drng::glorot(3, 4, &mut rng), ParamGroup::Network);
        let b1 = ps.add("b1", DMat::zeros(1, 4), ParamGroup::Network);
        let w2 = ps.add("w2", drng::glorot(4, 2, &mut rng), ParamGroup::Network);
        let b2 = ps.add(
            "b2",
            DMat::from_vec(1, 2, vec![0.3, -0.2]),
            ParamGroup::Network,
        );
        let x = drng::randn_mat(5, 3, 1.0, &mut rng);
        let y = Arc::new(vec![0u32, 1, 0, 1, 1]);

        // A training tape, for the nodes `linear` records there (no dropout
        // here, so every build is the same function of the parameters).
        let build = |ps: &ParamStore| -> (Tape, usize) {
            let mut t = Tape::new(true, 0);
            let xn = t.constant(x.clone());
            let w1n = t.param(ps, w1);
            let b1n = t.param(ps, b1);
            let w2n = t.param(ps, w2);
            let b2n = t.param(ps, b2);
            let h = t.linear(xn, w1n, b1n, false, None);
            let h = t.tanh(h);
            let logits = t.linear(h, w2n, b2n, true, None);
            let loss = t.softmax_cross_entropy(logits, Arc::clone(&y));
            (t, loss)
        };

        ps.zero_grads();
        let (mut t, loss) = build(&ps);
        t.backward(loss, &mut ps);
        let report = check_grads(
            &mut ps,
            &[w1, b1, w2, b2],
            |ps| {
                let (t, loss) = build(ps);
                t.value(loss).get(0, 0) as f64
            },
            1e-3,
        );
        assert!(report.checked > 0);
        assert!(
            report.max_rel_err < 5e-3,
            "max rel err {}",
            report.max_rel_err
        );
    }

    /// Through a hidden layer with ReLU and dropout: every build draws the
    /// same mask from the tape's fixed seed, so the loss is one function of
    /// the parameters and the layer's kept code must differentiate it.
    #[test]
    fn dropout_layer_gradients_verify() {
        let mut rng = drng::seeded(12);
        let mut ps = ParamStore::new();
        let w1 = ps.add("w1", drng::glorot(3, 8, &mut rng), ParamGroup::Network);
        let b1 = ps.add(
            "b1",
            drng::randn_mat(1, 8, 0.1, &mut rng),
            ParamGroup::Network,
        );
        let w2 = ps.add("w2", drng::glorot(8, 2, &mut rng), ParamGroup::Network);
        let b2 = ps.add("b2", DMat::zeros(1, 2), ParamGroup::Network);
        let x = drng::randn_mat(6, 3, 1.0, &mut rng);
        let y = Arc::new(vec![0u32, 1, 0, 1, 1, 0]);
        let build = |ps: &ParamStore| -> (Tape, usize) {
            let mut t = Tape::new(true, 5);
            let xn = t.constant(x.clone());
            let w1n = t.param(ps, w1);
            let b1n = t.param(ps, b1);
            let w2n = t.param(ps, w2);
            let b2n = t.param(ps, b2);
            let h = t.linear(xn, w1n, b1n, true, Some(0.5));
            let logits = t.linear(h, w2n, b2n, false, None);
            let loss = t.softmax_cross_entropy(logits, Arc::clone(&y));
            (t, loss)
        };
        ps.zero_grads();
        let (mut t, loss) = build(&ps);
        t.backward(loss, &mut ps);
        assert!(ps.grad(w2).norm() > 0.0, "some hidden unit must survive");
        let report = check_grads(
            &mut ps,
            &[w1, b1, w2, b2],
            |ps| {
                let (t, loss) = build(ps);
                t.value(loss).get(0, 0) as f64
            },
            1e-3,
        );
        assert!(report.checked > 0);
        assert!(
            report.max_rel_err < 5e-3,
            "max rel err {}",
            report.max_rel_err
        );
    }

    #[test]
    fn attention_ops_gradients_verify() {
        let mut rng = drng::seeded(21);
        let mut ps = ParamStore::new();
        let q = ps.add(
            "q",
            drng::randn_mat(4, 1, 0.5, &mut rng),
            ParamGroup::Network,
        );
        let v = ps.add(
            "v",
            drng::randn_mat(4, 4, 0.5, &mut rng),
            ParamGroup::Network,
        );
        let x = drng::randn_mat(6, 8, 1.0, &mut rng);
        let target = drng::randn_mat(6, 4, 1.0, &mut rng);

        let build = |ps: &ParamStore| -> (Tape, usize) {
            let mut t = Tape::new(true, 0);
            let xn = t.constant(x.clone());
            let tok0 = t.slice_cols(xn, 0, 4);
            let tok1 = t.slice_cols(xn, 4, 4);
            let qn = t.param(ps, q);
            let vn = t.param(ps, v);
            let s0 = t.matmul(tok0, qn);
            let s1 = t.matmul(tok1, qn);
            let scores = t.hcat(&[s0, s1]);
            let attn = t.softmax_rows(scores);
            let a0 = t.slice_cols(attn, 0, 1);
            let a1 = t.slice_cols(attn, 1, 1);
            let v0 = t.matmul(tok0, vn);
            let v1 = t.matmul(tok1, vn);
            let w0 = t.row_scale(v0, a0);
            let w1 = t.row_scale(v1, a1);
            let out = t.add(w0, w1);
            let loss = t.mse(out, target.clone());
            (t, loss)
        };

        ps.zero_grads();
        let (mut t, loss) = build(&ps);
        t.backward(loss, &mut ps);
        let report = check_grads(
            &mut ps,
            &[q, v],
            |ps| {
                let (t, loss) = build(ps);
                t.value(loss).get(0, 0) as f64
            },
            1e-3,
        );
        assert!(
            report.max_rel_err < 5e-3,
            "max rel err {}",
            report.max_rel_err
        );
    }

    #[test]
    fn lin_comb_and_colscale_gradients_verify() {
        let mut rng = drng::seeded(5);
        let mut ps = ParamStore::new();
        let theta = ps.add(
            "theta",
            drng::randn_mat(3, 1, 0.5, &mut rng),
            ParamGroup::Filter,
        );
        let w = ps.add(
            "w",
            drng::randn_mat(1, 4, 0.5, &mut rng),
            ParamGroup::Filter,
        );
        let terms: Vec<DMat> = (0..3)
            .map(|_| drng::randn_mat(6, 4, 1.0, &mut rng))
            .collect();
        let target = drng::randn_mat(6, 4, 1.0, &mut rng);

        let build = |ps: &ParamStore| -> (Tape, usize) {
            let mut t = Tape::new(true, 0);
            let tn: Vec<usize> = terms.iter().map(|m| t.constant(m.clone())).collect();
            let th = t.param(ps, theta);
            let wn = t.param(ps, w);
            let combined = t.lin_comb(&tn, th);
            let scaled = t.col_scale(combined, wn);
            let loss = t.mse(scaled, target.clone());
            (t, loss)
        };

        ps.zero_grads();
        let (mut t, loss) = build(&ps);
        t.backward(loss, &mut ps);
        let report = check_grads(
            &mut ps,
            &[theta, w],
            |ps| {
                let (t, loss) = build(ps);
                t.value(loss).get(0, 0) as f64
            },
            1e-3,
        );
        assert!(
            report.max_rel_err < 5e-3,
            "max rel err {}",
            report.max_rel_err
        );
    }
}
