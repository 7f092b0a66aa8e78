//! `Tape::linear` at every backend and pool width: the one node a tape
//! records has the value bits and the `x`, `w`, `b` gradient bits of the
//! `matmul` → bias → `relu` → dropout chain written out in
//! `support/linear_ref.rs`, computed at the same backend and width, with
//! and without ReLU and dropout; an eval tape's node has a training tape's
//! bits at `p = 0`; and values agree across backends and widths.
//!
//! Own test binary with a single test: it sets the process-wide backend and
//! worker-pool width, which concurrently running tests would see.

#[path = "support/linear_ref.rs"]
mod linear_ref;

use linear_ref::bits;
use sgnn_autograd::param::ParamGroup;
use sgnn_autograd::{ParamStore, Tape};
use sgnn_dense::backend::BackendKind;
use sgnn_dense::{pin, DMat};

/// Value bits of `linear` and the `x`, `w`, `b` gradient bits of
/// `Σ h ⊙ gout`, on a tape seeded like the reference.
fn run(
    [x, w, b, gout]: &[DMat; 4],
    relu: bool,
    dropout: Option<f32>,
    training: bool,
) -> [Vec<u32>; 4] {
    let mut ps = ParamStore::new();
    let ids = [x, w, b].map(|v| ps.add("p", v.clone(), ParamGroup::Network));
    let mut t = Tape::new(training, 42);
    let [xn, wn, bn] = ids.map(|id| t.param(&ps, id));
    let h = t.linear(xn, wn, bn, relu, dropout);
    let g = t.constant(gout.clone());
    let weighted = t.hadamard(h, g);
    let loss = t.sum(weighted);
    let value = bits(t.value(h));
    t.backward(loss, &mut ps);
    let [gx, gw, gb] = ids.map(|id| bits(ps.grad(id)));
    [value, gx, gw, gb]
}

#[test]
fn eval_linear_matches_training_linear_at_every_backend_and_width() {
    // The last shape is large enough for the product to be cut into row
    // chunks across the pool, each with its own bias and ReLU epilogue.
    let shapes = [
        (7, 5, 9),
        (5, 3, 16),
        (9, 6, 33),
        (3, 2, 3),
        (70, 17, 31),
        (301, 8, 67),
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let inputs = linear_ref::inputs(m, k, n, i as u64);
        let [x, w, b, gout] = &inputs;
        for relu in [false, true] {
            for dropout in [None, Some(0.0), Some(0.5)] {
                // Values are width-independent; weight gradients come from
                // the `matmul_at_b` reduction, whose grouping follows the
                // width, so they are compared to a reference at that width.
                let mut value = None;
                for width in [1, 4] {
                    let _t = pin::threads(width);
                    for kind in [BackendKind::Scalar, BackendKind::Simd] {
                        let _b = pin::backend(kind);
                        let case = format!(
                            "{m}x{k}x{n} relu {relu} dropout {dropout:?} width {width} {kind:?}"
                        );
                        let want = linear_ref::layer(x, w, b, relu, dropout, 42, gout);
                        let got = run(&inputs, relu, dropout, true);
                        let want = [&want.value, &want.gx, &want.gw, &want.gb].map(bits);
                        assert_eq!(got, want, "value, x, w, b gradients, {case}");
                        assert_eq!(
                            &got[0],
                            value.get_or_insert_with(|| got[0].clone()),
                            "value across backends and widths, {case}"
                        );
                        if dropout == Some(0.0) {
                            let eval = run(&inputs, relu, Some(0.5), false);
                            assert_eq!(eval, got, "eval tape against p = 0, {case}");
                        }
                    }
                }
            }
        }
    }
}
