//! # rfc-serve — `maxfaircliqued`, a solver daemon over std primitives
//!
//! Every capability of the workspace — budgeted [`rfc_core::RfcSolver`] queries,
//! streaming enumeration, incremental updates through
//! [`rfc_core::DynamicRfcSolver`] — was previously reachable only as a one-shot CLI
//! invocation that pays graph load + preprocessing per call. This crate turns the
//! stack into a long-running service:
//!
//! * **A TCP daemon** ([`server::Server`]): `std::net::TcpListener`,
//!   thread-per-connection, speaking a line-delimited JSONL protocol
//!   ([`protocol`]) with requests `load` / `solve` / `enumerate` / `update` /
//!   `stats` / `ping` / `shutdown`. No tokio, no serde — the container builds
//!   against std and path crates only, so the protocol reuses the workspace's
//!   shared [`rfc_graph::json`] layer and the `UpdateOp` JSONL format.
//! * **A registry of named graphs** ([`engine::LocalEngine`]): each graph is a
//!   `Mutex<DynamicRfcSolver>`, so the dynamic solver's canonical per-component
//!   result caches become a **cross-client shared query cache** — one client's
//!   solve warms the next client's, and an `update` from one client invalidates
//!   exactly what every other client observes. Caches are LRU-bounded
//!   (`--cache-cap`) with eviction counters surfaced by `stats`.
//! * **Budgets and admission control**: every query gets a per-request
//!   [`rfc_core::CancelToken`] registered with the engine (a `shutdown` cancels
//!   all in-flight work, which returns verified best-so-far answers), time/node
//!   budgets are honored per request, and a bounded set of execution slots +
//!   queue depth limit ([`server::Admission`]) returns a typed `overloaded` error
//!   instead of stalling when the daemon is saturated.
//!
//! Every request takes one path: [`Server`] → [`LocalEngine`] →
//! [`rfc_core::DynamicRfcSolver`], all in one process. Concurrent clients share
//! the cores and the per-component caches through the connection threads.
//!
//! The wire protocol, error codes and admission semantics are documented in the
//! repository README ("Serving") and in [`protocol`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod protocol;
pub mod server;

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

pub use engine::{EngineConfig, LocalEngine};
pub use protocol::{ErrorCode, ErrorResponse, Request};
pub use server::{Admission, ServeConfig, Server};

/// Whether the connection should stay open after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep serving this connection.
    Continue,
    /// The daemon is shutting down: close after the current response.
    Shutdown,
}

/// One request handler, such as the [`LocalEngine`] the [`Server`] runs. `emit`
/// receives every response line (stream lines first, exactly one terminal line
/// last) without trailing newlines; an `Err` from `emit` means the client is gone
/// and the handler should stop streaming.
pub trait Handler: Send + Sync {
    /// Handles one raw request line.
    fn handle(&self, line: &str, emit: &mut dyn FnMut(&str) -> io::Result<()>) -> io::Result<Flow>;
}

/// Daemon-level request counters, shared between the server loop and the engine
/// (which renders them in `stats` responses).
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests received (including malformed ones).
    pub requests: AtomicU64,
    /// Requests answered with a typed error.
    pub errors: AtomicU64,
    /// Requests rejected by admission control.
    pub overloaded: AtomicU64,
}

impl Counters {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}
