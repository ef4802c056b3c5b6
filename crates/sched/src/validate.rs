//! Cross-checks between generators and the `st-core` timeliness analyzer.
//!
//! Generators in this crate make *constructive* claims ("this output is in
//! `S^i_{j,n}`", "no size-`k` set is timely here"). These helpers turn those
//! claims into checkable evidence over finite prefixes. They are test
//! oracles: the generator-contract and streamed-run suites certify every
//! family's claim with them. (A scenario certifies its own schedule through
//! `st_core::timeliness` directly.)

use st_core::subsets::KSubsets;
use st_core::timeliness::{empirical_bound, max_q_steps_in_p_free_interval};
use st_core::{ProcSet, ProcessId, Schedule, StepSource, Universe};

use crate::faults::PhaseSegment;

/// Generates a prefix and verifies a claimed timely pair against it.
/// Returns the prefix (for further analysis) on success.
///
/// # Errors
///
/// Returns the offending empirical bound when the claim fails.
pub fn certify_timely<S: StepSource>(
    gen: &mut S,
    prefix_len: usize,
    p: ProcSet,
    q: ProcSet,
    bound: usize,
) -> Result<Schedule, usize> {
    let s = gen.take_schedule(prefix_len);
    let eb = empirical_bound(&s, p, q);
    if eb <= bound {
        Ok(s)
    } else {
        Err(eb)
    }
}

/// Starvation evidence for the claim "no size-`k` set is timely with respect
/// to any size-`q_size` set": the **minimum**, over all pairs, of the longest
/// `K`-free `Q`-run. The claim is supported when this value is large (and
/// keeps growing with the prefix); a timely pair would pin it to a constant.
pub fn min_starvation_evidence(s: &Schedule, universe: Universe, k: usize, q_size: usize) -> usize {
    let mut min_evidence = usize::MAX;
    for kset in KSubsets::new(universe, k) {
        for qset in KSubsets::new(universe, q_size) {
            let run = max_q_steps_in_p_free_interval(s, kset, qset);
            min_evidence = min_evidence.min(run);
            if min_evidence == 0 {
                return 0;
            }
        }
    }
    min_evidence
}

/// Certifies that `p` takes no step at schedule positions in `[from, to)` —
/// the claim a crash window ([`CrashAfter`](crate::CrashAfter)) or outage
/// window ([`CrashRecovery`](crate::CrashRecovery)) makes about the emitted
/// schedule. An open-ended window is expressed with `to = u64::MAX`.
///
/// # Errors
///
/// Returns the first offending position.
pub fn certify_absence_window(s: &Schedule, p: ProcessId, from: u64, to: u64) -> Result<(), u64> {
    for (pos, step) in s.iter().enumerate() {
        let pos = pos as u64;
        if pos >= to {
            break;
        }
        if pos >= from && step == p {
            return Err(pos);
        }
    }
    Ok(())
}

/// Certifies that every member of `set` appears in the schedule — the
/// liveness claim of [`GrayFailure`](crate::GrayFailure): slow, but not
/// silent.
///
/// # Errors
///
/// Returns the first member with no step.
pub fn certify_all_live(s: &Schedule, set: ProcSet) -> Result<(), ProcessId> {
    let seen = s.participants();
    match set.difference(seen).min() {
        Some(missing) => Err(missing),
        None => Ok(()),
    }
}

/// Certifies a [`FlappingTimely`](crate::FlappingTimely) phase log against
/// the schedule it was recorded for: every *enforcing* segment's slice must
/// satisfy the bound.
///
/// # Errors
///
/// Returns `(segment index, offending empirical bound)` for the first
/// enforcing segment that fails.
pub fn certify_flapping_segments(
    s: &Schedule,
    segments: &[PhaseSegment],
    p: ProcSet,
    q: ProcSet,
    bound: usize,
) -> Result<(), (usize, usize)> {
    for (ix, seg) in segments.iter().enumerate() {
        if !seg.enforcing {
            continue;
        }
        let slice = s.prefix(seg.end as usize).suffix(seg.start as usize);
        let eb = empirical_bound(&slice, p, q);
        if eb > bound {
            return Err((ix, eb));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CrashRecovery, FlappingTimely, GrayFailure, RotatingStarvation, SeededRandom, SetTimely,
    };

    fn u(n: usize) -> Universe {
        Universe::new(n).unwrap()
    }

    #[test]
    fn certify_accepts_conforming_generator() {
        let p = ProcSet::from_indices([0]);
        let q = ProcSet::from_indices([1, 2]);
        let mut gen = SetTimely::new(p, q, 3, SeededRandom::new(u(3), 4));
        assert!(certify_timely(&mut gen, 5_000, p, q, 3).is_ok());
    }

    #[test]
    fn certify_rejects_false_claim() {
        // Pure random filler over 3 processes: {p0} wrt {p1,p2} with bound 2
        // will be violated quickly.
        let mut gen = SeededRandom::new(u(3), 11);
        let p = ProcSet::from_indices([0]);
        let q = ProcSet::from_indices([1, 2]);
        let res = certify_timely(&mut gen, 5_000, p, q, 2);
        assert!(res.is_err());
        assert!(res.unwrap_err() > 2);
    }

    #[test]
    fn starvation_evidence_grows_for_adversary() {
        let long = RotatingStarvation::new(u(4), 1).take_schedule(40_000);
        let short = min_starvation_evidence(&long.prefix(3_000), u(4), 1, 2);
        let long = min_starvation_evidence(&long, u(4), 1, 2);
        assert!(short >= 1);
        assert!(long > short, "evidence must grow: {short} vs {long}");
    }

    #[test]
    fn starvation_evidence_bounded_for_timely_schedule() {
        // Round-robin: every singleton timely wrt everything → evidence stays
        // below n.
        let mut gen = crate::RoundRobin::new(u(4));
        let s = gen.take_schedule(20_000);
        assert!(min_starvation_evidence(&s, u(4), 1, 2) < 4);
    }

    #[test]
    fn absence_window_certifies_crash_recovery() {
        let victim = ProcessId::new(1);
        let mut gen = CrashRecovery::new(SeededRandom::new(u(3), 5), victim, 100, 400);
        let s = gen.take_schedule(2_000);
        assert_eq!(certify_absence_window(&s, victim, 100, 400), Ok(()));
        // The victim rejoins, so widening the window finds a step.
        let err = certify_absence_window(&s, victim, 100, u64::MAX);
        assert!(err.is_err_and(|pos| pos >= 400));
    }

    #[test]
    fn all_live_certifies_gray_failure() {
        let gray = ProcSet::from_indices([0, 2]);
        let mut gen = GrayFailure::new(SeededRandom::new(u(4), 1), gray, 6, 3);
        let s = gen.take_schedule(5_000);
        assert_eq!(certify_all_live(&s, ProcSet::full(u(4))), Ok(()));
        // A process with no steps is reported.
        let silent = Schedule::from_indices([0, 1, 0, 1]);
        assert_eq!(
            certify_all_live(&silent, ProcSet::from_indices([1, 3])),
            Err(ProcessId::new(3))
        );
    }

    #[test]
    fn flapping_segments_certify_against_recorded_log() {
        let p = ProcSet::from_indices([0]);
        let q = ProcSet::from_indices([1, 2]);
        let mut gen =
            FlappingTimely::new(p, q, 3, SeededRandom::new(u(3), 7), (50, 150), (30, 80), 13);
        let s = gen.take_schedule(4_000);
        assert_eq!(
            certify_flapping_segments(&s, gen.segments(), p, q, 3),
            Ok(())
        );
        // A deliberately wrong (tighter) claim fails with a witness.
        assert!(certify_flapping_segments(&s, gen.segments(), p, q, 0).is_err());
    }
}
