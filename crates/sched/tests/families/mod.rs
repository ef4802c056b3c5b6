//! One representative spec per `GeneratorSpec` family, shared by the tests
//! that must cover them all: `stream_identity.rs` here and
//! `crates/campaign/tests/invariants.rs` (by `#[path]`), whose
//! `every_generator_family_runs_on_a_fleet_past_the_procset_capacity`
//! fails when a wire-table family has no entry in the list.

use st_core::{ProcSet, ProcessId, Schedule};
use st_sched::{CrashPlan, GeneratorSpec};

/// One spec per generator family that is meaningful in a universe of 130:
/// sets name indices below the `ProcSet` capacity, decorators wrap
/// `round_robin`, whose steps run past it.
pub fn one_spec_per_family() -> Vec<GeneratorSpec> {
    let set = |ix: &[usize]| ProcSet::from_indices(ix.iter().copied());
    let pid = ProcessId::new;
    let rr = GeneratorSpec::round_robin;
    let (p, q) = (set(&[0]), set(&[0, 1, 2]));
    vec![
        rr(),
        GeneratorSpec::bursty(7),
        GeneratorSpec::seeded_random(1),
        GeneratorSpec::set_timely(p, q, 4, rr()),
        GeneratorSpec::Eventually {
            prefix: Box::new(GeneratorSpec::seeded_random(2)),
            prefix_len: 1_000,
            body: Box::new(rr()),
        },
        GeneratorSpec::Figure1 {
            p1: pid(0),
            p2: pid(1),
            q: pid(2),
        },
        GeneratorSpec::GeneralizedFigure1 {
            p: set(&[0, 1]),
            q: set(&[2, 3]),
        },
        GeneratorSpec::RotatingStarvation { k: 1, base: 8 },
        GeneratorSpec::FictitiousCrash {
            i: 1,
            j: 1,
            t: 1,
            k: 1,
            base: 8,
        },
        GeneratorSpec::Cycle {
            period: Schedule::from_indices([0, 100, 1, 129]),
        },
        GeneratorSpec::AlternatingRotation {
            groups: vec![set(&[0, 1]), set(&[2, 3, 4])],
            base: 4,
        },
        rr().crashed(CrashPlan::new().crash(pid(1), 50)),
        GeneratorSpec::flapping(p, q, 4, rr(), (10, 20), (10, 20)),
        GeneratorSpec::gray_failure(rr(), set(&[0]), 2),
        GeneratorSpec::burst_clog(rr(), pid(3), 16, (20, 40)),
        GeneratorSpec::crash_recovery(rr(), pid(2), 100, 900),
        GeneratorSpec::replay(rr(), Schedule::from_indices([0, 100, 1, 129, 2])),
    ]
}
