//! Compilation-as-a-service: a long-running daemon that answers
//! compile / verify / simulate / DSE requests over a newline-framed
//! JSON-over-TCP protocol, multiplexing every client onto one
//! process-wide design cache and one persistent measurement cache.
//!
//! The interactive pipeline (`parse` → `compile` → `simulate` → `dse`
//! binaries) pays full compilation for every invocation; a serving
//! deployment amortizes that across requests. This crate provides four
//! layers:
//!
//! - [`protocol`] — the wire types: request decoding with per-field
//!   validation, typed error codes, server [`protocol::Limits`].
//! - [`service`] — the engine: method dispatch over the shared caches
//!   with exactly-once deduplication of identical in-flight requests.
//! - [`server`] — the TCP front: per-connection handlers that answer
//!   memo hits themselves and batch pipelined misses onto one set of
//!   long-lived workers, and a minimal [`server::Client`] for tests and
//!   the load harness.
//! - [`retry`] — a retrying client ([`retry::RetryClient`]) that drives
//!   every logical request to exactly one typed outcome across transport
//!   faults and `EOVERLOAD` sheds (used by the chaos harness).
//!
//! The daemon is hardened against crash, overload, and hostile networks:
//! the eval cache can be opened journaled (crash-safe), connections and
//! in-flight work are capped with typed retryable `EOVERLOAD` sheds, and
//! a panicking handler is contained as a typed `EINTERNAL` without
//! dropping the connection. See the README ("Serving" and "Failure model
//! & degraded operation") for the protocol and guarantees by example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate)]
#![allow(clippy::missing_panics_doc)]

pub mod protocol;
pub mod retry;
pub mod server;
pub mod service;

/// The workspace's JSON layer, re-exported at the path `benchmark/` and
/// wire clients import it from.
pub use pphw_ir::json;
pub use protocol::{codes, ErrorBody, Limits};
pub use retry::{CallOutcome, RetryClient, RetryConfig, RetryStats};
pub use server::{Client, Server};
pub use service::{Service, ServiceStats};
