//! Convergence analysis: verifying the k-anti-Ω specification and the
//! stronger Lemma 22 stabilization on run traces.
//!
//! The *t-resilient k-anti-Ω* specification (Section 4.1): every process `p`
//! continuously outputs a set `fdOutput_p` of `n − k` processes such that,
//! if at most `t` processes are faulty, there exist a correct process `c`
//! and a time after which `c ∉ fdOutput_p` for every correct `p`.
//! Equivalently, in terms of the winnerset (`Π_n − fdOutput`): eventually
//! `c ∈ winnerset_p` forever.
//!
//! The Figure 2 algorithm guarantees more (Lemma 22): eventually every
//! correct process outputs the *same* winnerset `A0`, which contains a
//! correct process. [`winnerset_stabilization`] detects that; the
//! k-parallel-Paxos agreement layer relies on it.

use st_core::{ProcSet, ProcessId};
use st_sim::RunReport;

use crate::kanti::WINNERSET_PROBE;

/// Evidence that the k-anti-Ω specification held on a finite trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KAntiOmegaWitness {
    /// A correct process eventually never output (i.e., always in the
    /// winnerset of every correct process).
    pub trusted: ProcessId,
    /// The earliest step from which the property holds through the end of
    /// the trace.
    pub from_step: u64,
}

/// Checks the t-resilient k-anti-Ω property on a trace: finds a correct
/// process `c` and a step from which every correct process's winnerset
/// contains `c` until the end of the run.
///
/// Returns the witness with the smallest `from_step` (preferring the
/// lowest-indexed process on ties), or `None` if the property failed on this
/// trace. A `None` on a *finite* trace is definitive only for runs long
/// enough that stabilization was owed; experiments pick budgets accordingly.
pub fn kanti_omega_witness(report: &RunReport, correct: ProcSet) -> Option<KAntiOmegaWitness> {
    let mut best: Option<KAntiOmegaWitness> = None;
    for c in correct.iter() {
        let mut worst_from = 0u64;
        let mut ok = true;
        for p in correct.iter() {
            let timeline = report.probes.timeline(p, WINNERSET_PROBE);
            if timeline.is_empty() {
                ok = false;
                break;
            }
            // Last point where p's winnerset did NOT contain c; the property
            // holds from the following publication (or from the start).
            let mut from = timeline[0].0;
            let mut holds_at_end = false;
            for &(step, bits) in &timeline {
                if ProcSet::from_bits(bits).contains(c) {
                    if !holds_at_end {
                        from = step;
                        holds_at_end = true;
                    }
                } else {
                    holds_at_end = false;
                }
            }
            if !holds_at_end {
                ok = false;
                break;
            }
            worst_from = worst_from.max(from);
        }
        if ok {
            let candidate = KAntiOmegaWitness {
                trusted: c,
                from_step: worst_from,
            };
            best = match best {
                Some(b) if b.from_step <= candidate.from_step => Some(b),
                _ => Some(candidate),
            };
        }
    }
    best
}

/// Evidence of Lemma 22 stabilization: a common final winnerset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stabilization {
    /// The common final winnerset `A0`.
    pub winnerset: ProcSet,
    /// Step by which every correct process had converged to it (and stayed).
    pub step: u64,
}

/// Detects whether all correct processes converged to one common winnerset
/// by the end of the trace (Lemma 22), returning the set and the
/// stabilization step: [`wide_winnerset_stabilization`] decoded at W = 1,
/// where the probe payload is the set's bits.
pub fn winnerset_stabilization(report: &RunReport, correct: ProcSet) -> Option<Stabilization> {
    wide_winnerset_stabilization(report, correct.iter()).map(|w| Stabilization {
        winnerset: ProcSet::from_bits(w.winnerset_rank),
        step: w.step,
    })
}

/// Evidence of Lemma 22 stabilization at bitset widths beyond one word: a
/// common final winnerset, identified by its **colex rank** in `Π^k_n` —
/// the encoding wide detectors publish under [`WINNERSET_PROBE`] (see the
/// probe's docs). Decode the members with
/// [`wide_unrank`](st_core::subsets::wide_unrank) at the detector's width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WideStabilization {
    /// Colex rank of the common final winnerset `A0` within `Π^k_n`.
    pub winnerset_rank: u64,
    /// Step by which every correct process had converged to it (and stayed).
    pub step: u64,
}

/// Detects whether all correct processes converged to one common winnerset
/// by the end of the trace (Lemma 22), for detectors publishing the
/// **rank-encoded** probe of the `W > 1` regime. Rank equality is set
/// equality, so no decode is needed to judge convergence; pass the correct
/// processes by id (index-based, valid at any `n`).
pub fn wide_winnerset_stabilization(
    report: &RunReport,
    correct: impl IntoIterator<Item = ProcessId>,
) -> Option<WideStabilization> {
    let mut common: Option<u64> = None;
    let mut step = 0u64;
    for p in correct {
        let last = report.probes.last_value(p, WINNERSET_PROBE)?;
        match common {
            None => common = Some(last),
            Some(c) if c != last => return None,
            _ => {}
        }
        step = step.max(report.probes.stabilization_step(p, WINNERSET_PROBE)?);
    }
    // An empty `correct` leaves `common` at `None`.
    Some(WideStabilization {
        winnerset_rank: common?,
        step,
    })
}

/// Counts winnerset changes published by `p` after `step` — a liveness-of-
/// instability measure for adversarial runs (a stack that keeps flapping is
/// evidence of non-convergence).
pub fn changes_after(report: &RunReport, p: ProcessId, step: u64) -> usize {
    report
        .probes
        .timeline(p, WINNERSET_PROBE)
        .iter()
        .filter(|&&(s, _)| s > step)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{Schedule, ScheduleCursor, Universe};
    use st_sim::{Automaton, RunConfig, Sim, Status, StepAccess};

    /// Publishes one scripted winnerset per step, then halts.
    struct Script(std::vec::IntoIter<u64>);

    impl Automaton for Script {
        fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
            match self.0.next() {
                Some(bits) => {
                    mem.probe(WINNERSET_PROBE, bits);
                    mem.pause();
                    Status::Running
                }
                None => Status::Done,
            }
        }
    }

    /// Builds a report by having scripted processes publish winnerset
    /// sequences.
    fn scripted(n: usize, scripts: Vec<Vec<u64>>) -> RunReport {
        let mut sim = Sim::new(Universe::new(n).unwrap());
        let mut fleet: Vec<_> = scripts
            .into_iter()
            .map(|script| Script(script.into_iter()))
            .collect();
        let order: Vec<usize> = (0..200).map(|s| s % n).collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(order));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(200))
            .unwrap();
        sim.report()
    }

    #[test]
    fn witness_found_on_converged_trace() {
        // Both processes end at winnerset {p0} = bits 0b01.
        let report = scripted(2, vec![vec![0b10, 0b01, 0b01], vec![0b01]]);
        let correct = ProcSet::from_indices([0, 1]);
        let w = kanti_omega_witness(&report, correct).expect("witness");
        assert_eq!(w.trusted, ProcessId::new(0));
        let stab = winnerset_stabilization(&report, correct).expect("stabilized");
        assert_eq!(stab.winnerset, ProcSet::from_indices([0]));
    }

    #[test]
    fn no_witness_when_outputs_diverge() {
        // p0 ends trusting {p0}, p1 ends trusting {p1}: no common c.
        let report = scripted(2, vec![vec![0b01], vec![0b10]]);
        let correct = ProcSet::from_indices([0, 1]);
        assert!(kanti_omega_witness(&report, correct).is_none());
        assert!(winnerset_stabilization(&report, correct).is_none());
    }

    #[test]
    fn witness_tolerates_faulty_divergence() {
        // p1 is faulty: only p0's output matters.
        let report = scripted(2, vec![vec![0b01], vec![0b10]]);
        let correct = ProcSet::from_indices([0]);
        let w = kanti_omega_witness(&report, correct).unwrap();
        assert_eq!(w.trusted, ProcessId::new(0));
    }

    #[test]
    fn witness_requires_holding_to_the_end() {
        // p0 trusts {p1} briefly, then flips away and never returns.
        let report = scripted(2, vec![vec![0b10, 0b01], vec![0b01]]);
        let correct = ProcSet::from_indices([0, 1]);
        let w = kanti_omega_witness(&report, correct).unwrap();
        // c = p0 works (both end on {p0}); c = p1 must not.
        assert_eq!(w.trusted, ProcessId::new(0));
    }

    #[test]
    fn changes_after_counts_flapping() {
        let report = scripted(1, vec![vec![1, 2, 1, 2, 1]]);
        // One publication per step, at steps 0..=4: four events strictly
        // after step 0.
        assert_eq!(changes_after(&report, ProcessId::new(0), 0), 4);
        assert_eq!(
            report
                .probes
                .timeline(ProcessId::new(0), WINNERSET_PROBE)
                .len(),
            5
        );
    }

    #[test]
    fn missing_probes_mean_no_verdict() {
        let report = scripted(2, vec![vec![0b01], vec![]]);
        let correct = ProcSet::from_indices([0, 1]);
        assert!(kanti_omega_witness(&report, correct).is_none());
        assert!(winnerset_stabilization(&report, correct).is_none());
    }
}
