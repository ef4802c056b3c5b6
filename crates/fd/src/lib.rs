//! Failure detectors: the paper's Figure 2 algorithm and its analysis.
//!
//! - [`KAntiOmega`] — the t-resilient k-anti-Ω algorithm of Figure 2,
//!   transcribed line-by-line: heartbeats, per-set timers over `Π^k_n`,
//!   shared accusation counters `Counter[A, q]`, winnerset selection by
//!   minimal `(accusation, A)`.
//! - [`KAntiOmegaMachine`] — the same algorithm as an explicit state
//!   machine on the simulator's non-async fast path
//!   ([`st_sim::Automaton`]); observationally identical to the async
//!   transcription (enforced by `tests/differential.rs`) and what the
//!   convergence experiments run.
//! - [`Omega`] — the `k = 1` special case: the classic leader oracle
//!   (footnote 2 of the paper).
//! - [`ProcessTimelyDetector`] — the *process*-timeliness baseline the
//!   paper improves on (accuses individuals instead of sets); it flaps
//!   forever on schedules where only sets are timely (experiment E8).
//! - [`LeanOmega`] — a constructor, not a detector: [`KAntiOmega`] at
//!   `k = 1` and the one fixed set width [`LEAN_WIDTH`], which is what the
//!   large-`n` (`n` up to 1024) scaling fleets run. At that width the
//!   winnerset probe carries a colex rank, which at `k = 1` is the leader's
//!   index. [`LeanOmegaMachine`] is an alias of [`KAntiOmegaMachine`].
//! - [`TimeoutPolicy`] — the paper's increment-by-one rule plus a doubling
//!   ablation.
//! - [`convergence`] — trace analyses: the k-anti-Ω specification
//!   ([`convergence::kanti_omega_witness`]) and the stronger Lemma 22
//!   common-winnerset stabilization
//!   ([`convergence::winnerset_stabilization`]) that the agreement layer
//!   builds on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
pub mod convergence;
mod kanti;
mod lean;
mod omega;
mod timeout;

pub use baseline::{ProcessTimelyDetector, ProcessTimelyLocal, BASELINE_WINNERSET_PROBE};
pub use kanti::{
    KAntiOmega, KAntiOmegaConfig, KAntiOmegaLocal, KAntiOmegaMachine, WINNERSET_PROBE,
};
pub use lean::{LeanOmega, LeanOmegaMachine, LEAN_WIDTH};
pub use omega::{Omega, OmegaLocal};
pub use timeout::TimeoutPolicy;
