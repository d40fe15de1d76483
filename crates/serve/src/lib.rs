//! # cit-serve
//!
//! Batched low-latency decision serving for trained Cross-Insight Trader
//! checkpoints: the online half the paper's backtest loop implies — a
//! trained policy asked for "today's" portfolio as new prices arrive.
//!
//! A [`Server`] hosts one or more cit-params checkpoints as named
//! **model slots** (see [`NamedModel`] and [`Server::start_multi`]),
//! each an immutable [`cit_core::DecisionModel`] behind a shared `Arc`,
//! hot-swappable per slot on a `reload` admin command. It speaks a
//! newline-delimited JSON protocol over TCP (see [`protocol`] and
//! `PROTOCOL.md`): a single readiness-polled **reactor** thread owns
//! every connection and parses requests into a **bounded queue**; a
//! single batcher takes whatever is queued, up to
//! [`ServeConfig::max_batch`] requests, without waiting for more (a lone
//! request is a batch of one; requests arriving during a batch form the
//! next) and fans the batch out over the `cit-compute` thread pool —
//! per-session order is preserved, distinct sessions run in parallel. A
//! full queue is answered with a typed `overloaded` reject instead of
//! blocking: backpressure is part of the protocol. Sessions are pinned to their
//! slot for life (including across disk spill/restore); opening with
//! `model: "auto"` lets the deterministic [`RegimeRouter`] pick the slot
//! from the open history's market regime. Per-request latency, batch
//! size, throughput counters, per-model breakdowns and reload/session
//! gauges go through `cit-telemetry`.
//!
//! Served decisions are **bitwise identical** to offline evaluation of
//! the same checkpoint: the deterministic inference path has no RNG, and
//! the wire format renders `f64` with shortest-round-trip formatting
//! (verified end-to-end by `tests/roundtrip.rs`).
//!
//! ```
//! use cit_core::{CitConfig, DecisionModel};
//! use cit_serve::{Client, Request, ServeConfig, Server};
//!
//! // An untrained smoke model keeps the example fast; production loads
//! // DecisionModel::from_checkpoint.
//! let model = DecisionModel::untrained(CitConfig::smoke(1), 2).unwrap();
//! let window = model.min_history();
//! let server = Server::start(model, ServeConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! // One OHLC row per day: [m × 4] values, here m = 2 assets.
//! let prices: Vec<Vec<f64>> = (0..window)
//!     .map(|d| vec![1.0 + d as f64 * 0.01; 8])
//!     .collect();
//! let opened = client
//!     .call(&Request::Open { session: "demo".into(), prices })
//!     .unwrap();
//! assert!(opened.ok());
//! let decision = client
//!     .call(&Request::Decide { session: "demo".into(), prices: vec![] })
//!     .unwrap();
//! let weights = decision.final_action().unwrap();
//! assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-6);
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod json;
pub mod protocol;

mod admin;
mod batch;
mod client;
mod reactor;
mod registry;
mod router;
mod server;
mod session;
mod spill;

pub use client::{Client, Reply, RetryPolicy};
pub use protocol::{ErrorKind, ModelStats, OpStats, Request, Response, ServerStats, WindowStats};
pub use registry::{NamedModel, AUTO_MODEL, DEFAULT_MODEL};
pub use router::{RegimeRouter, RouterPolicy};
pub use server::{ServeConfig, Server};
pub use session::{Session, SessionStore};
