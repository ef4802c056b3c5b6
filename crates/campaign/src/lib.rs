//! Scenario-campaign engine: "run this protocol over that scenario space"
//! as declarative data, executed in parallel.
//!
//! The paper's results quantify over *families* of schedules — every
//! Theorem 24/26/27 claim ranges over systems `S^i_{j,n}` and crash
//! patterns — so the experiments sweep generators, crash plans, seeds and
//! protocol workloads. This crate turns such a sweep into data:
//!
//! - a [`Scenario`] is one run — universe, [`GeneratorSpec`], [`Workload`]
//!   (FD convergence, `(t,k,n)`-agreement via the full stack, the adaptive
//!   adversary, or the BG reduction), stop rule, step budget, seed;
//! - a [`Campaign`] is an ordered list of scenarios, built one
//!   [`push`](Campaign::push) at a time and run by
//!   [`run_parallel`](Campaign::run_parallel);
//! - a [`ScenarioOutcome`] is the structured, `Eq`-comparable result the
//!   experiment harness renders into its tables.
//!
//! The `st-lab` experiments E2–E9 (all but E1's prefix curves) are
//! campaigns: each pushes its scenarios in table order and renders the
//! outcomes. E5's solvable cells run [`Workload::Agreement`] with a
//! [`CertifyTimely`] pre-check, its unsolvable cells run
//! [`Workload::AdversarialAgreement`]; E6's cells are
//! [`Workload::BgReduction`] runs.
//!
//! # Persistence and resumability
//!
//! Campaigns are *restartable* production sweeps, not one-shot loops:
//!
//! - an [`OutcomeStore`] serializes `(campaign key, rank, scenario spec,
//!   outcome)` entries to a stable, versioned JSON file
//!   ([`store::SCHEMA`]); loading a file written by any other schema
//!   version is a typed [`StoreError::SchemaMismatch`];
//! - [`Campaign::retain`] filters a campaign **without renumbering**:
//!   ranks are permanent, so partial outcome lists slot back into full-run
//!   order;
//! - [`Campaign::skip_completed`] drops every scenario the store already
//!   holds (matching key, rank, and byte-identical serialized spec — the
//!   staleness guard) and returns the stored outcomes;
//! - [`Campaign::run_resumed`] packages the whole lifecycle: reuse, run
//!   the remainder at any thread count, merge in rank order, re-record.
//!   An interrupted-then-resumed sweep returns (and re-writes) **byte
//!   identical** results to an uninterrupted run — differential- and
//!   property-tested in `tests/resume.rs` across interrupt points, random
//!   partitions, and 1/4/oversubscribed worker pools.
//!
//! # Determinism guarantee
//!
//! `run_parallel(threads)` returns **the same outcome list for every
//! `threads` value** — 1, the hardware width, or an oversubscribed count:
//!
//! 1. every scenario is *hermetic*: its simulator, generator, and protocol
//!    stack are built from the scenario's own fields inside the worker that
//!    runs it, so no state crosses scenario boundaries;
//! 2. workers steal scenario *ranks* off a shared atomic counter (the
//!    `sweep_matrix` pattern, shared via [`st_core::parallel`]) — thread
//!    count changes who runs a rank and when, never what the rank computes;
//! 3. results are merged **in ascending rank order**, so the output list is
//!    the sequential left-to-right enumeration regardless of completion
//!    order.
//!
//! Consequently campaign-backed experiment tables are thread-count
//! independent: `stlab --threads N` changes wall-clock only. The guarantee
//! is differential-tested in `tests/determinism.rs` (1 vs 4 vs an
//! oversubscribed worker pool on a mixed generator/crash/seed grid).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
pub mod counterexample;
pub mod fuzz;
pub mod invariant;
mod scenario;
pub mod shrink;
pub mod store;

pub use campaign::{merge_outcomes, Campaign, ChunkControl, ChunkReport};
pub use counterexample::{Counterexample, CE_SCHEMA};
pub use fuzz::{
    features, CorpusEntry, CoverageMap, Finding, FuzzConfig, FuzzInput, FuzzReport, FuzzSession,
};
pub use invariant::{InvariantChecker, InvariantViolation};
pub use scenario::{
    AdversarialOutcome, AgreementScenarioOutcome, BgOutcome, CertifyTimely, FdAbi, FdDetector,
    FdOutcome, FleetReplayDrive, LeanOutcome, LeanStabilization, OutcomeData, Scenario,
    ScenarioOutcome, StopRule, WideFdOutcome, WideFdStabilization, Workload,
};
pub use shrink::{ShrinkReport, Shrinker};
pub use store::{OutcomeStore, StoreEntry, StoreError};

// Re-exported so campaign definitions need only this crate.
pub use st_fd::TimeoutPolicy;
pub use st_sched::GeneratorSpec;
