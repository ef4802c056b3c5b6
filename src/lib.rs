//! # set-timeliness
//!
//! A from-scratch Rust reproduction of **“Partial Synchrony Based on Set
//! Timeliness”** (Aguilera, Delporte-Gallet, Fauconnier, Toueg — PODC 2009):
//! the set-timeliness model, the partially synchronous system family
//! `S^i_{j,n}`, the Figure 2 *t-resilient k-anti-Ω* failure detector, the
//! `(t,k,n)`-agreement protocol stack built on it, the BG-simulation
//! reduction behind the impossibility side, and an experiment harness that
//! regenerates every figure and theorem of the paper as a measured table.
//!
//! This crate is the umbrella: it re-exports the workspace crates under
//! stable module names.
//!
//! ## Quickstart
//!
//! ```
//! use set_timeliness::core::{AgreementTask, SystemSpec, solvability};
//!
//! // The paper's headline: S^k_{t+1,n} exactly matches (t,k,n)-agreement.
//! let task = AgreementTask::new(2, 2, 5).unwrap();
//! let system = SystemSpec::new(2, 3, 5).unwrap();
//! assert!(solvability(&task, &system).unwrap().is_solvable());
//!
//! // One notch more resilience — or one notch stronger agreement — flips it.
//! let harder = AgreementTask::new(3, 2, 5).unwrap();
//! assert!(!solvability(&harder, &system).unwrap().is_solvable());
//! let stronger = AgreementTask::new(2, 1, 5).unwrap();
//! assert!(!solvability(&stronger, &system).unwrap().is_solvable());
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `stlab` binary (`cargo run -p st-lab --release --bin stlab -- all`) for
//! the paper's experiment suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The model layer: processes, schedules, set timeliness, systems,
/// solvability (re-export of `st-core`).
pub use st_core as core;

/// The deterministic shared-memory simulator (re-export of `st-sim`).
pub use st_sim as sim;

/// Schedule generators and proof-derived adversaries (re-export of
/// `st-sched`).
pub use st_sched as sched;

/// Failure detectors: Figure 2 k-anti-Ω and Ω (re-export of `st-fd`).
pub use st_fd as fd;

/// Agreement protocols and the adaptive adversary (re-export of
/// `st-agreement`).
pub use st_agreement as agreement;

/// The BG simulation substrate (re-export of `st-bgsim`).
pub use st_bgsim as bgsim;

/// The scenario-campaign engine: declarative scenario lists executed in
/// parallel with a deterministic merge (re-export of `st-campaign`).
pub use st_campaign as campaign;

/// The campaign daemon, wire protocol, and client (re-export of
/// `st-serve`).
pub use st_serve as serve;

/// The experiment harness (re-export of `st-lab`).
pub use st_lab as lab;
