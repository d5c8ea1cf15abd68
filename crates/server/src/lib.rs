//! # kdtune-server
//!
//! `renderd` — a multi-session render/tuning service over the kdtune
//! pipeline, plus the `loadgen` client that drives it.
//!
//! The paper's operational finding is that tuned configurations are not
//! portable across scenes or hardware (§VI), so a deployment has to keep a
//! per-(scene, hardware) tuner alive *online*. This crate is that
//! deployment shape: a long-running TCP service that
//!
//! * speaks a newline-delimited JSON protocol ([`protocol`]) with explicit
//!   backpressure — a bounded queue rejects overload with a structured
//!   `busy` error instead of queuing unboundedly,
//! * owns one [`kdtune::TunedPipeline`] per (scene, scale, algorithm,
//!   resolution) session ([`session`]) so the Nelder–Mead tuner keeps
//!   improving across requests,
//! * shares built trees between sessions through a byte-accounted LRU
//!   cache ([`cache`]),
//! * persists converged configurations to a JSONL store keyed by scene,
//!   thread count, and hostname ([`store`]), and warm-starts new sessions
//!   from the stored best — turning the non-portability result into a
//!   feature (portable *within* one machine and scene, so remember it),
//! * exposes live observability: a process-wide metrics registry folded
//!   from the telemetry record stream (windowed latency quantiles per
//!   endpoint), per-request traces with stage-latency breakdowns, a
//!   Prometheus-style `metrics` command, and a `kdtune top` terminal
//!   dashboard ([`top`]),
//! * and drains in-flight work on shutdown under a deadline ([`server`]).
//!
//! The network front is a single readiness-driven event loop: one thread
//! multiplexes every connection with `poll(2)` (via the workspace
//! `polling` shim) over nonblocking `std::net` sockets, reassembling
//! requests from bounded buffers and flushing worker responses through
//! capped per-connection write queues. Everything else is
//! dependency-free: the workspace rayon shim for rendering, and
//! `telemetry::json` as the wire format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
mod conn;
pub mod loadgen;
pub mod protocol;
pub mod router;
pub mod server;
pub mod session;
mod shard;
pub mod store;
pub mod top;

pub use cache::TreeCache;
pub use loadgen::{LoadgenOptions, LoadgenReport};
pub use protocol::{Command, ErrorCode, QueryShape, Request, SessionSpec, Workload};
pub use router::{Router, RouterConfig, ShardMode};
pub use server::{RenderServer, ServerConfig};
pub use session::{Session, SessionManager};
pub use store::ConfigStore;
