//! `st-serve`: the campaign engine as a long-running service.
//!
//! The batch drives (`stlab`, `Campaign::run_resumed`) run a sweep and
//! exit; this crate runs the same engine behind a TCP socket, so campaigns
//! are *submitted* and the daemon owns their lifecycle:
//!
//! - **Wire protocol** ([`protocol`], specified in `PROTOCOL.md`):
//!   canonical JSON ([`st_core::json`]) over length-prefixed frames
//!   ([`st_core::frame`]), one request frame and one response frame per
//!   connection. Verbs: `hello`, `submit`, `status`, `cancel`, `resume`,
//!   `fetch-outcomes`; failures are typed error responses (`busy`,
//!   `schema-mismatch`, `spec-mismatch`, …), never closed sockets.
//! - **Daemon** ([`server::Server`]): a persistent job queue in a state
//!   directory (`job-<key>.spec.json`, plus `job-<key>.store.log` while
//!   the job is unfinished and `job-<key>.store.json` once it is), one
//!   campaign worker executing jobs FIFO through
//!   [`Campaign::run_chunked_fresh`](st_campaign::Campaign::run_chunked_fresh):
//!   after every chunk the chunk's fresh entries are appended to the
//!   append-only segment log ([`log`]), and on completion the log is
//!   compacted once into an ordinary
//!   [`OutcomeStore`](st_campaign::OutcomeStore) file — O(N) bytes
//!   written per job. Backpressure (a bounded number of in-flight
//!   scenarios; excess submits get a typed `busy`), cancellation at chunk
//!   boundaries, and a job table that keeps O(1) memory per job. A killed
//!   daemon restarts from its state directory and resumes after the last
//!   committed segment ([`recover_store`]).
//! - **Client** ([`client::ServeClient`]): typed requests plus the
//!   submit→poll→fetch loop that `stlab --serve ADDR` routes every
//!   experiment campaign through.
//!
//! # The house invariant, served
//!
//! A campaign's outcome store is **byte-identical** whether executed via
//! `stlab` batch mode, one daemon worker, or a daemon killed and restarted
//! mid-campaign — chunk size, worker count, poll timing, and interrupt
//! history never show in the artifact. The chain: scenarios are hermetic,
//! outcomes merge in permanent-rank order, the store inserts sorted by
//! `(campaign, rank)`, and a log line is byte for byte the line the store
//! file holds for that entry, so store bytes are a function of the
//! recorded outcomes alone. `tests/serve.rs` asserts the kill→restart→resume bytes
//! in-process; CI's serve-smoke job asserts them end-to-end over real
//! processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod log;
pub mod protocol;
pub mod server;

pub use client::{ClientError, JobStatus, ServeClient, DEFAULT_POLL};
pub use protocol::{ErrorKind, JobState, Verb, JOB_SCHEMA, PROTO};
pub use server::{recover_store, ServeConfig, Server};
