//! Deterministic read-write shared-memory simulator.
//!
//! This crate is the runtime substrate of the reproduction: it executes
//! protocol automata over atomic registers, driven step-by-step by a
//! schedule, exactly as in the model of *Partial Synchrony Based on Set
//! Timeliness* (Section 2):
//!
//! - a **step** is one register read or write plus unbounded local
//!   computation;
//! - the executor is hand-rolled, single-threaded, and **fully
//!   deterministic** — the schedule is the only nondeterminism, so runs are
//!   reproducible bit-for-bit and the schedule is a controlled experimental
//!   variable;
//! - crashes are schedules that stop scheduling a process; probes expose
//!   local protocol state (failure-detector outputs, round numbers) to the
//!   trace without costing steps.
//!
//! # The automaton ABI
//!
//! Protocols plug into the executor through one ABI ([`Automaton`],
//! [`StepAccess`]): the protocol keeps explicit control state — one phase
//! per register operation of its pseudocode — and the executor calls
//! [`Automaton::step`] once per scheduled step with a scoped view of the
//! register arena, holding a single arena borrow per `run` call. One form
//! per protocol is also one form to verify: it is the explicit-transition
//! shape that model checkers explore.
//!
//! A simulation is driven either through its slots
//! ([`Sim::spawn_automaton`] then [`Sim::run`]: one virtual call per step)
//! or as a fleet:
//!
//! - [`Sim::run_automata`] drives a caller-owned homogeneous fleet
//!   (`&mut [A]`) with **static dispatch** — the automaton body inlines
//!   into the executor loop;
//! - [`Sim::run_automata_replay`] drives the fleet straight off a
//!   pre-materialized [`Schedule`](st_core::Schedule) slice, fusing the
//!   cursor pull into the
//!   loop condition;
//! - [`Sim::run_automata_replay_soa`] batches the replay per **phase over
//!   struct-of-arrays fleet state**: for [`PhaseBatch`] automata, slices
//!   and round-robin windows whose allotments are pure read runs execute
//!   as single
//!   [`PhaseBatch::step_reads`] span reads, machines grouped by phase
//!   class — observationally identical to the plain replay, enforced by
//!   differential tests on every schedule family.
//!
//! Slot-based simulations have one more drive besides [`Sim::run`]:
//! [`Sim::run_adaptive`] takes no schedule but a *chooser* that is shown
//! the register arena ([`Memory`]) before every step and names the process
//! that takes it — the entry for schedules that depend on protocol state
//! (`st-agreement`'s adaptive adversary). The chooser may key whatever it
//! derives from register contents on [`Memory::version`], the arena's
//! count of completed writes.
//!
//! Every drive — slots or fleet, cursor, replay or chooser, and the SoA
//! drive's scalar fallbacks — executes its steps through one private step
//! kernel in `runner.rs`: the model has one execution rule, and so does the
//! executor.
//!
//! ## Choosing a fleet replay drive
//!
//! | Drive | Executed order | When it wins | When to avoid |
//! |-------|----------------|--------------|---------------|
//! | [`run_automata_replay`](Sim::run_automata_replay) | the schedule, verbatim | always correct; fastest at small n (≤ 64-ish) and under per-step stop conditions | nothing — it is the reference |
//! | [`run_automata_replay_soa`](Sim::run_automata_replay_soa) | the schedule, verbatim (batched) | scan-heavy [`PhaseBatch`] fleets at n ≥ 64 whose machines spend their steps in long read runs — the drive alone runs the lean n = 256 bursty fleet at ≥ 2× plain (`sim.soa.replay_ns_per_step.n256` against `sim.runner.replay_plain_ns_per_step.n256`, `BENCHMARK.json`); round-robin stretches are batched as windows of whole rounds (one strided allotment per machine, no per-step bucketing), which keeps the drive ahead of plain in every `fleet_interleaved` cell up to n = 1024 | write-dense phases: batches go impure and the drive runs the scalar fallback plus the purity checks. At n < [`SOA_DELEGATE_BELOW_N`] the entry point delegates to the plain replay by itself (the old n = 12 0.50× degenerate is gone); [`run_automata_replay_soa_batched`](Sim::run_automata_replay_soa_batched) bypasses the heuristic |
//!
//! Every protocol of the workspace is such a machine. The paper-shaped
//! loop transcriptions they were ported from survive as data: the
//! workspace's `tests/fixtures/transcription.json` holds their probes,
//! decisions, op counts and register footprints on fixed schedules, and
//! `tests/differential.rs` and `tests/transcription.rs` hold each machine
//! to it on the slot drive and on fleet replay. `BENCHMARK.json`'s `sim.runner.machine_slot_ns_per_step`
//! and `sim.runner.replay_plain_ns_per_step` time the full FD +
//! k-parallel-Paxos stack on the E3 workload.
//!
//! Step semantics are identical across drive modes: one register operation
//! per scheduled step, same accounting, same probes and decisions, same
//! determinism guarantees. Malformed schedules — a step
//! source naming a process outside the universe — surface as typed
//! [`SimError::ScheduleOutOfUniverse`] errors from every run/replay entry
//! point, not as panics.
//!
//! See [`Sim`] for the entry point and a complete example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod ctx;
pub mod error;
pub mod memory;
pub mod register;
mod runner;
pub mod soa;
pub mod trace;

pub use automaton::{Automaton, Status, StepAccess};
pub use error::SimError;
pub use memory::{Memory, RegisterStats};
pub use register::{Reg, RegValue, WriteDiscipline};
pub use runner::{
    check_slice_len, RunConfig, RunReport, RunStatus, Sim, StepOutcome, StopWhen,
    SOA_DELEGATE_BELOW_N,
};
pub use soa::{BatchAccess, PhaseBatch};
pub use trace::{Decision, ProbeEvent, ProbeLog};
