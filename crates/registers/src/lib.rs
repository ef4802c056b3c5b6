//! Classic shared-memory objects built from atomic registers.
//!
//! Substrate crate: the agreement protocols (`st-agreement`) and the BG
//! simulation (`st-bgsim`) are built from these three primitives, each
//! implemented from plain single-writer registers exactly as in the
//! read-write shared-memory literature:
//!
//! - [`Collect`] — store-collect (regular, non-atomic read of all
//!   components);
//! - [`Snapshot`] — atomic snapshot via double collect;
//! - [`AdoptCommit`] — Gafni's adopt-commit, the safety core of round-based
//!   agreement.
//!
//! All objects are `Clone` and stateless (state lives in shared registers):
//! clone one instance into each process task.
//!
//! The primitives the agreement propose path builds on also ship as
//! **machine-ABI step cores** for protocols on the simulator's non-async
//! fast path ([`st_sim::Automaton`]): [`Collect::store_machine`] /
//! [`CollectScan`] (store-collect) and [`AcPropose`] (the adopt-commit
//! propose as a `2n + 2`-operation phase sequence). A step core performs
//! exactly one register operation per `step` call, so an automaton inlines
//! the object's step sequence without breaking the one-operation-per-step
//! discipline; each core is held operation-for-operation identical to its
//! async transcription by in-module differential tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adopt_commit;
mod collect;
mod snapshot;

pub use adopt_commit::{AcOutcome, AcPropose, AdoptCommit};
pub use collect::{Collect, CollectScan};
pub use snapshot::{ScanOutcome, Snapshot, VersionedCell};

/// The run's per-register access statistics for the in-module differential
/// tests, checked to be worth comparing: an empty or all-zero list would
/// make the comparison vacuous.
#[cfg(test)]
fn access_stats(sim: &st_sim::Sim) -> Vec<st_sim::RegisterStats> {
    let stats = sim.register_stats();
    assert!(
        stats.iter().any(|s| s.reads > 0),
        "no register was ever read"
    );
    stats
}
