//! `Tape::linear` at every backend and pool width: the one node an eval
//! tape records has the value bits of the `matmul` / `add_bias` / `relu`
//! nodes a training tape records (the unit test in `tape.rs` pins those to
//! the three-op chain), and both agree across backends and widths.
//!
//! Own test binary with a single test: it sets the process-wide backend and
//! worker-pool width, which concurrently running tests would see.

use sgnn_autograd::param::ParamGroup;
use sgnn_autograd::{ParamStore, Tape};
use sgnn_dense::backend::{self, BackendKind};
use sgnn_dense::{rng as drng, runtime, DMat};

fn bits(m: &DMat) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Value bits of `linear` on an eval and on a training tape, and the
/// training tape's weight and bias gradient bits for `loss = Σ h`.
fn run(x: &DMat, w: &DMat, b: &DMat, relu: bool) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut ps = ParamStore::new();
    let (wi, bi) = (
        ps.add("w", w.clone(), ParamGroup::Network),
        ps.add("b", b.clone(), ParamGroup::Network),
    );
    let value = |training: bool, ps: &mut ParamStore| {
        let mut t = Tape::new(training, 0);
        let xn = t.constant(x.clone());
        let (wn, bn) = (t.param(ps, wi), t.param(ps, bi));
        let h = t.linear(xn, wn, bn, relu);
        let v = bits(t.value(h));
        if training {
            let loss = t.sum(h);
            t.backward(loss, ps);
        }
        v
    };
    let eval = value(false, &mut ps);
    let train = value(true, &mut ps);
    assert_eq!(eval, train, "eval and training values differ");
    (eval, bits(ps.grad(wi)), bits(ps.grad(bi)))
}

#[test]
fn eval_linear_matches_training_linear_at_every_backend_and_width() {
    let shapes = [(7, 5, 9), (5, 3, 16), (9, 6, 33), (1, 2, 1), (70, 17, 31)];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let mut rng = drng::seeded(i as u64);
        let mut x = drng::randn_mat(m, k, 1.0, &mut rng);
        for (j, v) in [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            x.data_mut()[(j * 7) % (m * k)] = v;
        }
        let w = drng::randn_mat(k, n, 1.0, &mut rng);
        let mut b = drng::randn_mat(1, n, 1.0, &mut rng);
        b.data_mut()[0] = -0.0;
        for relu in [false, true] {
            // Values are width-independent; weight gradients come from the
            // `matmul_at_b` reduction, whose grouping follows the width.
            let mut value = None;
            for width in [1, 4] {
                runtime::set_threads(width);
                let mut grads = None;
                for kind in [BackendKind::Scalar, BackendKind::Simd] {
                    backend::set_backend(Some(kind));
                    let (v, gw, gb) = run(&x, &w, &b, relu);
                    let case = format!("{m}x{k}x{n} relu {relu} width {width} {kind:?}");
                    assert_eq!(&v, value.get_or_insert_with(|| v.clone()), "value, {case}");
                    let g = (gw, gb);
                    assert_eq!(
                        &g,
                        grads.get_or_insert_with(|| g.clone()),
                        "gradients, {case}"
                    );
                }
            }
        }
    }
    backend::set_backend(None);
    runtime::set_threads(0);
}
