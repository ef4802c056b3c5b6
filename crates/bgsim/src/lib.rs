//! The Borowsky–Gafni simulation substrate.
//!
//! The impossibility side of Theorem 26 is proved by reduction: `k+1`
//! processes BG-simulate an `n`-process algorithm such that (i) at most `k`
//! simulated processes crash and (ii) every set of `k+1` simulated processes
//! is timely in the simulated schedule. This crate implements that
//! machinery from scratch and makes both properties measurable:
//!
//! - [`SafeAgreement`] — the Borowsky–Gafni object whose constant-length
//!   unsafe zone is the reason one crashed simulator blocks at most one
//!   simulated process; its propose and resolve are
//!   [`SafeAgreementCall`] phases;
//! - [`StepMachine`] / [`SimOp`] — deterministic simulated automata over
//!   single-writer-cell memory (with [`TrivialKDecide`] and [`FloodMin`] as
//!   concrete algorithms);
//! - [`BgSimulation`] / [`BgSimulator`] — the simulation's shared registers
//!   and the simulator automaton (versioned cell copies, per-read safe
//!   agreement, round-robin simulated scheduling, decision adoption);
//! - [`run_reduction`] — the packaged Theorem 26 experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod reduction;
mod safe_agreement;
mod simulate;

pub use machine::{FloodMin, SimOp, StepMachine, TrivialKDecide};
pub use reduction::{check_reduction, run_reduction, ReductionReport};
pub use safe_agreement::{CallStep, Resolution, SafeAgreement, SafeAgreementCall};
pub use simulate::{BgSimulation, BgSimulator, SIM_STEP_PROBE};
