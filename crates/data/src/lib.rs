//! Synthetic dataset suite mirroring the paper's 22-dataset benchmark.
//!
//! The original study evaluates on public graphs (Planetoid, heterophily
//! suites, OGB, LINKX — Table 3). Those datasets are not available offline,
//! so this crate substitutes a **degree-corrected contextual stochastic block
//! model** ([`csbm`]) parameterized, per dataset, to match the statistics
//! that drive every finding in the paper: node count `n`, edge count `m`,
//! homophily score `H`, attribute dimension `F_i`, class count `F_o`, and a
//! skewed degree distribution. The [`registry`] lists all 22 entries with
//! their Table-3 parameters and generates them at a configurable scale
//! (small graphs at full size; large graphs scaled down by default and
//! expandable to paper size with [`registry::GenScale::Full`]).
//!
//! Also here: stratified `splits`, the five spectral-regression
//! [`signals`] of Table 7, [`linkpred`] edge sampling, and the
//! out-of-core `stream` generator that writes paper-scale graphs
//! straight to a shard file without materializing the edge list.

pub mod csbm;
pub mod linkpred;
pub mod registry;
pub mod signals;
mod splits;
mod stream;
mod validate;

pub use csbm::{CsbmParams, Dataset};
pub use registry::{dataset_spec, GenScale, Metric};
pub use splits::Splits;
pub use stream::{generate_sharded, ShardedDataset};
