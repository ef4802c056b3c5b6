//! Failure detectors: the paper's Figure 2 algorithm and its analysis.
//!
//! - [`KAntiOmega`] — the shared side of the t-resilient k-anti-Ω
//!   algorithm of Figure 2: heartbeats and shared accusation counters
//!   `Counter[A, q]` over `Π^k_n`.
//! - [`KAntiOmegaMachine`] — one process of Figure 2 as an explicit state
//!   machine ([`st_sim::Automaton`]): per-set timers, winnerset selection
//!   by minimal `(accusation, A)`. At `k = 1` and `t = n − 1` it is the
//!   classic leader oracle Ω (footnote 2 of the paper): the winnerset is
//!   the leader. Held step for step to the loop transcription it was
//!   ported from by the workspace's `tests/differential.rs`.
//! - [`ProcessTimelyDetector`] / [`ProcessTimelyMachine`] — the
//!   *process*-timeliness baseline the paper improves on (accuses
//!   individuals instead of sets); it flaps forever on schedules where
//!   only sets are timely (experiment E8).
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
#[cfg(test)]
mod omega;
mod timeout;

pub use baseline::{ProcessTimelyDetector, ProcessTimelyMachine, BASELINE_WINNERSET_PROBE};
pub use kanti::{KAntiOmega, KAntiOmegaConfig, KAntiOmegaMachine, WINNERSET_PROBE};
pub use lean::{LeanOmega, LeanOmegaMachine, LEAN_WIDTH};
pub use timeout::TimeoutPolicy;
