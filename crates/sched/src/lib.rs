//! Schedule generators with ground-truth set-timeliness properties.
//!
//! Experiments need schedules whose membership in `S^i_{j,n}` is known *by
//! construction*, not just observed. This crate provides:
//!
//! - **Basic sources** — [`RoundRobin`], [`SeededRandom`] (deterministic per
//!   seed).
//! - **The Figure 1 family** — [`Figure1`] and [`GeneralizedFigure1`]: a set
//!   that is timely while none of its members is.
//! - **Conforming generators** — [`SetTimely`] enforces a chosen timely pair
//!   over any adversarial filler; [`Eventually`] prepends chaotic prefixes
//!   (absorbed by Definition 1's bound).
//! - **Proof-derived adversaries** — [`RotatingStarvation`] (Theorem 26
//!   part 2: only sets of size `> k` are timely) and [`FictitiousCrash`]
//!   (Theorem 27 case 2b: in `S^i_{j,n}` yet outside `S^k_{t+1,n}`).
//! - **Crash plans** — [`CrashPlan`] / [`CrashAfter`] model faulty processes
//!   as processes with finitely many steps.
//! - **Fault injection** — [`FlappingTimely`], [`GrayFailure`],
//!   [`BurstClog`], and [`CrashRecovery`] model dynamic synchrony: flapping
//!   timeliness, slow-but-live processes, schedule monopolization, and
//!   crash-with-rejoin, all deterministic per seed.
//! - **Declarative specs** — [`GeneratorSpec`] describes any of the above as
//!   plain data and builds it on demand (`Box<dyn StepSource>`); scenario
//!   campaigns (`st-campaign`) grid over specs, not generators.
//! - **Spec mutation** — [`SpecMutator`] generates arbitrary valid spec
//!   trees and perturbs them as plain data (the genetic half of
//!   `st-campaign::fuzz`), driven by the dependency-free [`SpecRng`].
//! - **Certification** — [`validate`] cross-checks every generator claim
//!   against the `st-core` analyzer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alternating;
mod basic;
mod crashes;
mod cycle;
mod faults;
mod fictitious;
mod figure1;
pub mod mutate;
mod set_timely;
pub mod spec;
mod starvation;
pub mod validate;

pub use alternating::AlternatingRotation;
pub use basic::{BurstyRotation, RoundRobin, SeededRandom};
pub use crashes::{CrashAfter, CrashPlan};
pub use cycle::Cycle;
pub use faults::{BurstClog, CrashRecovery, FlappingTimely, GrayFailure, PhaseSegment};
pub use fictitious::FictitiousCrash;
pub use figure1::{Figure1, GeneralizedFigure1};
pub use mutate::{SpecMutator, SpecRng};
pub use set_timely::{Eventually, SetTimely};
pub use spec::GeneratorSpec;
pub use starvation::RotatingStarvation;

/// `field "{field}"`: a length or count of at least one step — the one
/// wording of every such precondition. `Ok` allocates nothing.
pub(crate) fn positive(field: &str, what: &str, value: u64) -> Result<(), String> {
    if value == 0 {
        return Err(format!("field \"{field}\": {what} must be positive, got 0"));
    }
    Ok(())
}

/// `field "{field}"`: an inclusive range `[lo, hi]` of step counts to draw
/// from, `1 ≤ lo ≤ hi`.
pub(crate) fn draw_range(field: &str, what: &str, (lo, hi): (u64, u64)) -> Result<(), String> {
    if lo == 0 || lo > hi {
        return Err(format!(
            "field \"{field}\": {what} ranges need 1 <= lo <= hi, got [{lo}, {hi}]"
        ));
    }
    Ok(())
}
