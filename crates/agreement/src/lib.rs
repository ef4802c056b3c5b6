//! `(t,k,n)`-agreement protocols over read-write shared memory.
//!
//! - [`Paxos`] — single-decree shared-memory Paxos (Disk-Paxos-style, one
//!   single-writer record per process): the safety workhorse.
//! - [`KSetAgreement`] — the k-parallel-Paxos construction driven by the
//!   Figure 2 winnerset (Theorem 24's possibility side; see DESIGN.md §3.3
//!   for the documented substitution of Zieliński's generic reduction).
//! - [`TrivialAgreement`] — the folklore `t < k` algorithm (asynchronously
//!   solvable regime).
//! - [`AgreementStack`] — one-call composition: picks the right protocol
//!   for a task, spawns all processes, runs, and checks the outcome with
//!   the `st-core` checkers.
//!
//! # The two execution ABIs
//!
//! The hot protocols ship in **both simulator ABIs** (see the `st-sim`
//! crate docs): the async `ProcessCtx` transcriptions above, and explicit
//! state machines on the executor's non-async fast path —
//! [`PaxosMachine`] (the proposer's attempt loop, one register operation
//! per scheduled step) and [`KSetAgreementMachine`] (an embedded
//! `KAntiOmegaMachine` interleaved with the decision scan and one
//! machine-ABI Paxos proposer core per instance, under the same
//! leader-of-instance-`r` rule). The machine ports are held
//! **observationally identical** to the async transcriptions — same probe
//! sequences at the same step indices, same decisions, same op counts,
//! same register footprint — by `tests/differential.rs` on round-robin,
//! seeded-random, Figure 1, and crash schedules.
//!
//! [`AgreementStack`] runs the FD + k-parallel-Paxos stack on the machine
//! ABI by default ([`StackAbi::Machine`]); E3/E4 and the repo benchmark
//! ride it (`agreement.stack_build_us` and
//! `sim.runner.machine_slot_ns_per_step` in `BENCHMARK.json` are its build
//! and step cost). Build with [`StackAbi::Async`] to keep
//! paper-shaped async code in the loop (differential testing, debugging).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod harness;
mod kset;
mod lean;
mod paxos;
mod trivial;

pub use adversary::{drive_adversarially, AdversarialRun};
pub use harness::{AgreementStack, StackAbi, StackKind, StackRun};
pub use kset::{KSetAgreement, KSetAgreementMachine, DECIDED_INSTANCE_PROBE};
pub use lean::{LeanConsensus, LeanConsensusMachine};
pub use paxos::{AttemptOutcome, Paxos, PaxosMachine, PaxosRecord, ProposerState};
pub use trivial::TrivialAgreement;
