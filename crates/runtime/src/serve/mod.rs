//! Multi-tenant query serving over TCP — the `jmatch-serve` subsystem.
//!
//! The embedding API ([`crate::Workspace`] → [`crate::Program`] →
//! [`crate::Query`]) already separates the expensive one-time work
//! (parse + resolve + verify + lower) from cheap enumeration; this module
//! turns that separation into a service:
//!
//! * [`cache`] — a bounded, single-flight LRU [`cache::ProgramCache`]:
//!   compile once per distinct source, serve the shared
//!   `Arc<Program>` forever;
//! * [`quota`] — per-tenant [`quota::TenantQuotas`] over windowed step
//!   pools, with a reserve → run → settle grant lifecycle that refunds
//!   unused (or abandoned) work;
//! * [`server`] — the [`server::Server`]: bounded admission queues drained
//!   round-robin across tenants, workers that run one job at a time on
//!   their own thread, and streamed solution batches with cancellation;
//! * [`proto`] — the length-prefixed JSON wire protocol (see the
//!   repository's `PROTOCOL.md` for the normative spec);
//! * [`json`] — the std-only JSON document type the protocol rides on;
//! * [`client`] — a thin blocking client for tests, examples and the
//!   `jmatch-loadgen` bench driver, with jittered-backoff retries for
//!   retryable rejections;
//! * [`fault`] — deterministic, seeded fault injection (worker panics,
//!   slow writes, frame truncation, solver stalls) for the chaos suite
//!   and the `chaos-smoke` CI job.
//!
//! ```no_run
//! use jmatch_runtime::serve::{Client, QueryOptions, ServeConfig, Server};
//! use jmatch_runtime::serve::json::Json;
//!
//! let server = Server::start(ServeConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let reply = client.compile(
//!     "static boolean below(int n, int x) iterates(x) ( x = 0 || x = 1 )",
//!     false,
//! )?;
//! let key = reply.get("program").and_then(Json::as_str).unwrap().to_owned();
//! let frame = client.query(&QueryOptions::new(&key, "below"))?;
//! assert_eq!(frame.get("ok"), Some(&Json::Bool(true)));
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod client;
pub mod fault;
pub mod json;
pub mod proto;
pub mod quota;
pub mod server;

pub use cache::{CacheOutcome, CacheStats, ProgramCache};
pub use client::{wait_ready, Client, ClientError, ClientResult, QueryOptions, RetryPolicy};
pub use fault::FaultConfig;
pub use quota::{Grant, QuotaConfig, QuotaDenied, TenantQuotas, TenantSnapshot};
pub use server::{Metrics, ServeConfig, Server};
