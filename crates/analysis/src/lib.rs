//! Post-hoc analyses of trained models and graph spectra.
//!
//! * [`tsne`](mod@tsne) — exact O(n²) t-SNE for the embedding visualizations of
//!   Figure 8 (coordinates are emitted as data; cluster quality is
//!   quantified with silhouette scores instead of eyeballing),
//! * [`cluster`] — silhouette and intra/inter-class distance ratios,
//! * `degree` — degree-bucketed accuracy gaps (Figures 9–10),
//! * [`spectrum`] — spectral energy distribution of signals on small graphs
//!   (exact, via the dense eigensolver).

pub mod cluster;
mod degree;
pub mod spectrum;
pub mod tsne;

pub use cluster::silhouette_score;
pub use degree::{degree_gap, DegreeGapReport};
pub use tsne::{tsne, TsneConfig};
