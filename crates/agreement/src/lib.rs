//! `(t,k,n)`-agreement protocols over read-write shared memory.
//!
//! - [`Paxos`] — single-decree shared-memory Paxos (Disk-Paxos-style, one
//!   single-writer record per process): the safety workhorse.
//! - [`KSetAgreement`] — the k-parallel-Paxos construction driven by the
//!   Figure 2 winnerset (Theorem 24's possibility side; the `kset` module
//!   documents how it substitutes for Zieliński's generic reduction).
//! - [`TrivialAgreement`] — the folklore `t < k` algorithm (asynchronously
//!   solvable regime).
//! - [`AgreementStack`] — one-call composition: picks the right protocol
//!   for a task, spawns all processes, runs, and checks the outcome with
//!   the `st-core` checkers.
//!
//! # One form per protocol
//!
//! Every protocol here is an explicit state machine on the `st-sim`
//! automaton ABI: [`PaxosMachine`] (the proposer's attempt loop, one
//! register operation per scheduled step), [`KSetAgreementMachine`] (an
//! embedded `KAntiOmegaMachine` interleaved with the decision scan and one
//! Paxos proposer core per instance, under the leader-of-instance-`r`
//! rule) and [`TrivialMachine`]. The paper-shaped loop transcriptions they
//! were ported from survive as data: the workspace's
//! `tests/fixtures/transcription.json` holds their probe sequences,
//! decisions, op counts and register footprints on round-robin,
//! seeded-random, Figure 1 and crash schedules, and `tests/differential.rs`
//! (the stack and Paxos) and `tests/transcription.rs` (the trivial
//! protocol) hold the machines to them step for step.
//!
//! [`AgreementStack`] spawns one machine per process; E3/E4 and the repo
//! benchmark ride it (`agreement.stack_build_us` and
//! `sim.runner.machine_slot_ns_per_step` in `BENCHMARK.json` are its build
//! and step cost).

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
pub use paxos::{Paxos, PaxosMachine, PaxosRecord};
pub use trivial::{TrivialAgreement, TrivialMachine};
