//! Offline stand-in for `serde` (the subset this workspace uses).
//!
//! The build environment has no crates-registry access, so the workspace
//! vendors the two trait names its `#[derive(Serialize, Deserialize)]`
//! attributes need, as markers, with the derive macros re-exported from
//! `serde_derive`. Nothing encodes through them: the workspace reads and
//! writes JSON with `sgnn_obs::json`.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Marker trait kept so `#[derive(Serialize)]` compiles.
pub trait Serialize {}

/// Marker trait kept so `#[derive(Deserialize)]` compiles.
pub trait Deserialize {}
