//! The unified spectral-filter framework — the paper's primary contribution.
//!
//! Every one of the 35 surveyed GNNs reduces, on the graph side, to a
//! polynomial *filter* `g(L̃) = ⊕_q γ_q Σ_k θ_{q,k} T_q^{(k)}(L̃)` (Eqs. (1)
//! and (3) of the paper). This crate implements that abstraction:
//!
//! * [`spec`] — filter *specifications*: how many channels, how many basis
//!   terms per channel, which coefficients are fixed vs. learnable
//!   ([`spec::ThetaSpec`]), and how channels fuse ([`spec::Fusion`]),
//! * [`filter::SpectralFilter`] — the trait every filter implements: its
//!   basis recurrence, written once into [`terms::TermStore`]s (kept for
//!   mini-batch precomputation and the full-batch forward, folded for the
//!   full-batch backward), plus a scalar frequency response,
//! * [`fixed`], [`variable`], [`adaptive`], [`bank`] — the 27 filters of
//!   Table 1, grouped by taxonomy type,
//! * [`op`] — [`op::FilterModule`]: creates the filter's trainable
//!   parameters and applies the filter differentiably on a full-batch tape
//!   or recombines precomputed mini-batch terms,
//! * [`taxonomy`] — machine-readable Table 1 (types, complexities, source
//!   models),
//! * [`registry`] — name → constructor for all 27 filters with the default
//!   hyperparameters used in the main experiments.

pub mod adaptive;
pub mod bank;
pub mod filter;
pub mod fixed;
pub mod op;
pub mod poly;
pub mod registry;
pub mod spec;
pub mod taxonomy;
pub mod terms;
#[cfg(test)]
pub(crate) mod testutil;
pub mod variable;

pub use filter::{ResponseParams, SpectralFilter};
pub use op::FilterModule;
pub use registry::{all_filter_names, make_filter};
pub use spec::{ChannelSpec, FilterSpec, Fusion, PropCtx, ThetaSpec};
pub use taxonomy::FilterKind;
pub use terms::{Policy, TermStore};
