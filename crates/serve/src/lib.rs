//! `sgnn-serve` — online node-classification over precomputed propagation.
//!
//! The decoupled mini-batch scheme (Figure 1(b) of the paper) precomputes
//! every propagated term once, on CPU, before training touches a batch.
//! That tensor is a *serving index in disguise*: answering "what class is
//! node v?" needs only a row gather and the small dense transform, never
//! the graph. This crate turns that observation into a service:
//!
//! * [`artifact`] — the `SGNNTERM` codec: versioned, CRC-checked,
//!   streamed persistence for the propagated terms.
//! * [`bundle`] — pairing the terms with their `SGNNCKPT` model snapshot
//!   (PR 4's codec, reused byte-for-byte) and rebuilding a model from the
//!   pair; [`bundle::offline_logits`] is the bit-identity reference.
//! * `engine` — the query-time forward pass with reusable gather
//!   scratch; per-row results are independent of batch composition, which
//!   is what licenses caching and coalescing.
//! * [`wire`] — the length-prefixed, CRC-trailed binary protocol.
//! * [`server`] — accept loop, bounded batching queue with linger-based
//!   coalescing, LRU logit cache, and the typed degradation ladder
//!   (backpressure / timeout / bad-frame replies — never a crash), plus
//!   the self-healing machinery: batcher watchdog, hot bundle reload,
//!   idle-connection reaper.
//! * `admission` — deadline-aware load shedding at enqueue and the
//!   adaptive batch-size policy.
//! * `conn` — per-connection state: shared write half, in-flight cap,
//!   exactly-once reply tickets, idle tracking.
//! * `client` / [`loadgen`] — a blocking client with seeded-jitter
//!   retry/backoff and the multi-client load generator behind
//!   `BENCH_serve.json`.
//! * [`faults`] — `slow`/`fail`/`panic` batch faults plus socket-layer
//!   network chaos (`stall`/`disconnect`/`torn-write`/`corrupt-frame`),
//!   the serving counterpart of `sgnn_bench::faults`.

mod admission;
pub mod artifact;
pub mod bundle;
mod client;
mod conn;
mod engine;
pub mod faults;
pub mod loadgen;
pub mod lru;
pub mod server;
pub mod wire;

pub use client::{Backoff, Client, ClientError, Reply};
pub use engine::{ServeEngine, ServeError};
pub use loadgen::{LoadConfig, LoadReport};
pub use server::{serve, ServeConfig, ServerHandle};
pub use wire::{ErrorCode, Request, Response, WireError};
