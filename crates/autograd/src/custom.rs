//! Extension point for operations defined outside this crate.
//!
//! The differentiable spectral-filter operator lives in `sgnn-core` but must
//! participate in backpropagation; it does so by implementing [`CustomOp`].
//! The forward value is computed by the caller (ops are eager), the op object
//! keeps whatever saved context backward needs (basis terms, the propagation
//! matrix), and [`CustomOp::backward`] returns one optional gradient per
//! declared input.

use sgnn_dense::DMat;

/// A user-defined differentiable operation.
pub trait CustomOp: Send + Sync {
    /// Human-readable op name for debugging.
    fn name(&self) -> &str;

    /// Computes input gradients.
    ///
    /// `inputs` are the forward values of the declared input nodes in
    /// declaration order; `out_grad` is the gradient flowing into the output.
    /// Return `None` for inputs that need no gradient.
    fn backward(&self, inputs: &[&DMat], out_grad: &DMat) -> Vec<Option<DMat>>;
}
