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
//! [`Automaton::step`] once per scheduled step with a scoped `&mut` view of
//! the register arena and the trace. One form per protocol is also one form
//! to verify: it is the explicit-transition shape that model checkers
//! explore.
//!
//! A run is n automata stepped by one schedule, and the automata are a
//! fleet the caller owns (`&mut [A]`, `automata[i]` the machine of process
//! `i`); the [`Sim`] owns the register arena and the trace. Both are plain
//! values: every register is a few `u64` words of one arena ([`Memory`],
//! [`RegValue`]'s fixed-width codec) and the `Sim` holds no cell or shared
//! pointer to its state, so a clone of the `Sim` and the fleet is a
//! snapshot of the run. A homogeneous
//! fleet is stepped with **static dispatch** — the automaton body inlines
//! into the executor loop; a heterogeneous one is a
//! `Vec<Box<dyn Automaton>>` (one virtual call per step). The drives:
//!
//! - [`Sim::run_automata`] pulls the schedule from a
//!   [`StepSource`](st_core::StepSource) — the one drive every production
//!   fleet run goes through. Without a stop rule it pulls a block at a time
//!   and, from [`SOA_DELEGATE_BELOW_N`] processes on, batches per **phase
//!   over struct-of-arrays fleet state** ([`soa`]): a machine's run of
//!   value-independent reads ([`Automaton::read_run`]) executes as one
//!   [`Automaton::step_reads`] call — the machine's own `step` looped over
//!   the run, or a span read where it overrides that — machines grouped by
//!   phase class — observationally identical to stepping them, enforced by
//!   differential tests on every schedule family;
//! - [`Sim::run_adaptive`] takes no schedule but a *chooser* that is shown
//!   the register arena ([`Memory`]) before every step and names the
//!   process that takes it — the entry for schedules that depend on
//!   protocol state (`st-agreement`'s adaptive adversary). The chooser may
//!   key whatever it derives from register contents on
//!   [`Memory::version`], the arena's count of completed writes;
//! - [`Sim::run_automata_replay`] (scalar) and
//!   [`Sim::run_automata_replay_soa`] (the batched engine at any n) drive
//!   the fleet off a pre-materialized [`Schedule`](st_core::Schedule): the
//!   reference and the engine that differential tests and the benchmark
//!   hold against each other.
//!
//! Every drive — cursor, replay or chooser, and the batched engine's scalar
//! fallbacks — executes its steps through one private step kernel in
//! `runner.rs` (`Sim::step`): the model has one execution rule, and so does
//! the executor.
//!
//! ## What the batched engine wins
//!
//! | Schedule shape | Engine | When it wins | When to avoid |
//! |----------------|--------|--------------|---------------|
//! | dwells (`Bursty`, crash shadows) | a dwell window per read run | scan-heavy fleets whose machines spend their steps in long read runs — the lean n = 256 bursty fleet at ≥ 2× the scalar loop (`sim.soa.replay_ns_per_step.n256` against `sim.runner.replay_plain_ns_per_step.n256`, `BENCHMARK.json`) | write-dense phases: the window is empty and each step runs scalar after a read-run check |
//! | round-robin and its rotations | windows of whole rounds, one strided allotment per machine | every `fleet_interleaved` cell up to n = 1024 | — |
//! | mixed (random) | bucketed slices of 64 | long read runs at large n | small n: [`Sim::run_automata`] runs blocks scalar below [`SOA_DELEGATE_BELOW_N`] |
//!
//! Every protocol of the workspace is such a machine. The paper-shaped
//! loop transcriptions they were ported from survive as data: the
//! workspace's `tests/fixtures/transcription.json` holds their probes,
//! decisions, op counts and register footprints on fixed schedules, and
//! `tests/differential.rs` and `tests/transcription.rs` hold each machine
//! to it on the streamed fleet drive and on fleet replay. `BENCHMARK.json`'s
//! `sim.runner.machine_slot_ns_per_step` (the agreement stack's boxed
//! fleet through [`Sim::run_automata`]) and
//! `sim.runner.replay_plain_ns_per_step` (a typed fleet replayed) time the
//! full FD + k-parallel-Paxos stack on the E3 workload.
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
    check_slice_len, RunConfig, RunReport, RunStatus, Sim, StopWhen, SOA_DELEGATE_BELOW_N,
};
pub use soa::BatchAccess;
pub use trace::{Decision, ProbeEvent, ProbeLog};
