//! `molq-server` — an HTTP serving system over the MOLQ library.
//!
//! The paper's pipeline ends at an answer; this crate turns the repository
//! into a long-running service around the observation that the expensive
//! step — building the MOVD — is a **once-per-dataset** cost, after which
//! point location (`/locate`), optimal-location queries (`/solve`), and
//! ranked candidates (`/topk`) are cheap reads of the prebuilt diagram.
//!
//! Three layers, each its own module:
//!
//! * **engine** ([`engine`]): loads CSV layers, runs the MOVD Overlapper
//!   once, and publishes the result as an immutable [`engine::Snapshot`]
//!   behind an `Arc` — named multi-dataset support with atomic snapshot
//!   swaps. Loads, reloads, restores and live updates all publish through
//!   the dataset's one writer, which assigns its generations; a reload
//!   whose source generation was replaced meanwhile fails instead of
//!   overwriting it.
//! * **service** ([`service`]): the API — `locate`, `solve`, `topk`, the
//!   batched `solve_batch`/`topk_batch` (one snapshot pin + one sweep per
//!   distinct item, responses byte-identical to individual calls),
//!   `health`, `stats`, `reload` — plus a sharded LRU cache ([`cache`]) for
//!   `locate` keyed on quantized coordinates. One engine holds every named
//!   dataset and the one lock-free metrics registry ([`metrics`]) that the
//!   engine, the service and the event loops all record into. Each
//!   dataset's one record (snapshot, writer, breaker, in-flight build)
//!   keeps one dataset's rebuilds from touching another's.
//! * **transport** ([`http`]): a dependency-free HTTP/1.1 server on
//!   `std::net` speaking the hand-rolled JSON of [`json`] — `workers`
//!   readiness event loops ([`epoll`], Linux only) that each own their
//!   connections and serve requests inline, fed by one acceptor that
//!   balances connections across them. It sheds, times out, respawns dead
//!   loops, and shuts down gracefully. A matching minimal client lives in
//!   [`client`] for tests and the load generator.
//!
//! A cross-cutting **resilience** layer hardens all three: per-request
//! deadlines with cooperative cancellation (`504` with partial progress),
//! panic isolation around request handling plus event-loop respawn, deadline-aware
//! load shedding (`503` + `Retry-After`), a per-dataset rebuild circuit
//! breaker in [`engine`], and a runtime-armed fault-injection harness
//! ([`fault`]) that makes every one of those claims testable.
//!
//! ```no_run
//! use molq_server::engine::{DatasetSpec, Engine};
//! use molq_server::http::{start, ServerConfig};
//! use molq_server::service::Service;
//! use std::sync::Arc;
//!
//! let engine = Engine::new();
//! engine.load(DatasetSpec::new("default", vec!["stm.csv".into(), "sch.csv".into()])).unwrap();
//! let handle = start(Arc::new(Service::new(engine)), ServerConfig::default()).unwrap();
//! println!("serving on http://{}", handle.addr());
//! ```

pub mod cache;
pub mod client;
pub mod engine;
#[cfg(target_os = "linux")]
pub mod epoll;
pub mod fault;
pub mod http;
pub mod json;
pub mod metrics;
pub(crate) mod proto;
pub mod service;

pub use client::{Client, ClientResponse};
pub use engine::{
    BreakerConfig, DatasetSpec, DurabilityReport, Engine, ReloadError, Snapshot, UpdateError,
};
pub use http::{start, ServerConfig, ServerHandle};
pub use json::Json;
pub use service::{ApiResponse, Request, Service, ServiceConfig};
