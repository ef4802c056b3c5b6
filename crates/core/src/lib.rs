//! Model layer for *Partial Synchrony Based on Set Timeliness*
//! (Aguilera, Delporte-Gallet, Fauconnier, Toueg — PODC 2009).
//!
//! This crate holds the paper's conceptual core, independent of any
//! simulator:
//!
//! - processes and process sets ([`ProcessId`], [`ProcSet`], [`Universe`]);
//! - enumeration of `Π^k_n` ([`subsets`]);
//! - finite [`Schedule`]s and the **set timeliness** analyzer
//!   ([`timeliness`], Definition 1);
//! - the partially synchronous system family `S^i_{j,n}` ([`SystemSpec`],
//!   Section 2.2) with Observations 4–5;
//! - the `(t,k,n)`-agreement task and outcome checkers ([`AgreementTask`],
//!   Section 3);
//! - the main characterization, Theorem 27, as the executable
//!   [`solvability()`] predicate.
//!
//! # Example: the Figure 1 phenomenon
//!
//! A set can be timely even when none of its members is:
//!
//! ```
//! use st_core::{Schedule, ProcSet, timeliness::empirical_bound};
//!
//! // Prefix of [(p0·q)^i (p1·q)^i] with q = p2 and growing i.
//! let mut steps = Vec::new();
//! for i in 1..=6usize {
//!     for _ in 0..i { steps.extend([0, 2]); }
//!     for _ in 0..i { steps.extend([1, 2]); }
//! }
//! let s = Schedule::from_indices(steps);
//!
//! let p0 = ProcSet::from_indices([0]);
//! let p1 = ProcSet::from_indices([1]);
//! let pair = ProcSet::from_indices([0, 1]);
//! let q = ProcSet::from_indices([2]);
//!
//! // Individually, the bound grows with the prefix (not timely in the limit)…
//! assert!(empirical_bound(&s, p0, q) >= 6);
//! assert!(empirical_bound(&s, p1, q) >= 6);
//! // …but as a set the two are timely with bound 2.
//! assert_eq!(empirical_bound(&s, pair, q), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreementspec;
pub mod error;
pub mod frame;
pub mod json;
pub mod parallel;
pub mod process;
pub mod procset;
pub mod profile;
pub mod schedule;
pub mod solvability;
pub mod stepsource;
pub mod subsets;
pub mod system;
pub mod timeliness;

pub use agreementspec::{
    check_outcome, AgreementOutcome, AgreementTask, AgreementViolation, Value,
};
pub use error::ModelError;
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
pub use json::{Cursor, Json, JsonError};
pub use process::{ProcessId, Universe, MAX_PROCESSES, PROCSET_CAPACITY};
pub use procset::{words_for, ProcSet, WideProcSet};
pub use profile::SynchronyProfile;
pub use schedule::Schedule;
pub use solvability::{matching_system, solvability, Solvability, UnsolvableReason};
pub use stepsource::{ScheduleCursor, StepSource};
pub use system::SystemSpec;
pub use timeliness::TimelyPair;
