//! Dense linear-algebra substrate for the spectral GNN benchmark.
//!
//! The benchmark has no GPU tensor library to lean on, so this crate provides
//! the dense building blocks used by every layer of the stack:
//!
//! * [`DMat`] — a row-major `f32` matrix used for node representations,
//!   weights, and gradients,
//! * a cache-blocked, multi-threaded [`matmul`](matmul::matmul),
//! * a cyclic-Jacobi [symmetric eigensolver](eigen::sym_eigen) for exact
//!   small-graph spectra,
//! * [Chebyshev approximation](cheb::ChebApprox) of scalar functions on an
//!   interval, used to synthesize exact spectral-filter targets without an
//!   eigendecomposition,
//! * [little-endian word runs](le), the bulk step shared by the checkpoint,
//!   terms-artifact and wire codecs,
//! * [sealed bytes](sealed): the one envelope, count-checked cursor, atomic
//!   file writer and codec error under every persistent format and the wire
//!   frame,
//! * a per-cell [recycling pool](pool) under `DMat`, so a training step
//!   reuses the pages of the step before,
//! * seeded [random helpers](rng) (Box–Muller normals, permutations),
//! * the persistent worker-pool [`runtime`] that backs every parallel
//!   kernel in the workspace (row-chunked dispatch, indexed fan-out,
//!   collected maps, `SGNN_THREADS` control).
//!
//! Values are `f32` (matching the single-precision training of the original
//! study); reductions accumulate in `f64` to keep metrics stable.

pub mod backend;
mod cheb;
pub mod eigen;
pub mod le;
mod mat;
pub mod matmul;
pub mod pin;
pub mod pool;
pub mod rng;
pub mod runtime;
pub mod sealed;
pub mod stats;

pub use cheb::ChebApprox;
pub use mat::DMat;
/// The tracing layer this crate's kernels report to, re-exported so a crate
/// built on the substrate can open spans in the same registry.
pub use sgnn_obs as obs;
