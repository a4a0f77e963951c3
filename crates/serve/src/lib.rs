//! bgp-serve — the counter service: jobs as traffic, deterministic
//! results as cache hits.
//!
//! The simulator is deterministic: a job's entire output — counter
//! dumps, cycle counts, phase metrics — is a pure function of its
//! [`JobSpec`](bgp_mpi::JobSpec) fingerprint and fault seed. That
//! turns a batch simulator into a service with ideal cache economics:
//! the first submission of a `(spec, seed)` pays for the run, every
//! later one is a content-addressed lookup returning **byte-identical**
//! bytes, and two in-flight submissions of the same key can be
//! coalesced because they *provably* compute the same thing.
//!
//! This crate is that service, std-only end to end:
//!
//! * [`proto`] — the newline-delimited JSON wire protocol (riding the
//!   workspace's shared [`bgp_trace::json`] layer).
//! * `queue` — bounded admission with aging priorities: full queue
//!   ⇒ 429-style reject with a retry-after estimate; no priority can
//!   starve.
//! * [`server`] — the daemon: thread-per-connection accept loop, a
//!   bounded worker pool running jobs under
//!   [`bgp_core::supervisor`] (watchdog, retries, checkpoint resume),
//!   live phase streaming, and the write-once result store from
//!   [`bgp_snapshot::BlobStore`].
//! * [`load`] — the measuring client: drives ≥10k-request mixes and
//!   audits the contract (no lost responses, byte-identical replays,
//!   rejects only via backpressure) while recording throughput and
//!   latency percentiles.
//!
//! Binaries: `bgpc-serve` (the daemon) and `bgpc-load` (load
//! generator + admin client).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod load;
pub mod proto;
mod queue;
pub mod server;

pub use load::{run_load, Client, LoadConfig, LoadReport};
pub use proto::{CacheOutcome, Request, SubmitReq};
pub use queue::QueueConfig;
pub use server::{request_once, Server, ServerConfig, ServerHandle};
