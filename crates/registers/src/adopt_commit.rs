//! Adopt-commit objects (Gafni's reconciliation primitive).
//!
//! An adopt-commit object supports a single `propose(v)` per process and
//! returns either `Commit(w)` or `Adopt(w)` such that:
//!
//! - **Validity** — `w` was proposed by some process;
//! - **Convergence** — if every proposer proposes the same `v`, every
//!   outcome is `Commit(v)`;
//! - **Coherence** — if any process gets `Commit(w)`, every outcome is
//!   `Commit(w)` or `Adopt(w)`.
//!
//! It is the classic safety core of round-based consensus: commitment is
//! safe, adoption carries the value into the next round. Implemented with
//! two store-collect phases over SWMR registers (`2n + 2` steps per
//! propose).

use st_sim::{ProcessCtx, Reg, RegValue, Sim, StepAccess};

/// Outcome of [`AdoptCommit::propose`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcOutcome<T> {
    /// Safe to decide `T`: every other proposer adopts it.
    Commit(T),
    /// Must carry `T` forward; deciding would be unsafe.
    Adopt(T),
}

impl<T> AcOutcome<T> {
    /// The carried value, whichever the verdict.
    pub fn value(&self) -> &T {
        match self {
            AcOutcome::Commit(v) | AcOutcome::Adopt(v) => v,
        }
    }

    /// Returns `true` for `Commit`.
    pub fn is_commit(&self) -> bool {
        matches!(self, AcOutcome::Commit(_))
    }
}

/// Phase-two cell: `(saw_unanimity, carried_value)`.
type Phase2Cell<T> = (bool, T);

/// An adopt-commit object. Clone into each participating process.
#[derive(Clone, Debug)]
pub struct AdoptCommit<T> {
    phase1: Vec<Reg<Option<T>>>,
    phase2: Vec<Reg<Option<Phase2Cell<T>>>>,
}

impl<T: RegValue + Ord> AdoptCommit<T> {
    /// Allocates the object's registers in `sim` (two single-writer
    /// registers per process: `name.A[p]`, `name.B[p]`).
    pub fn alloc(sim: &mut Sim, name: &str) -> Self {
        AdoptCommit {
            phase1: sim.alloc_per_process(&format!("{name}.A"), None),
            phase2: sim.alloc_per_process(&format!("{name}.B"), None),
        }
    }

    /// Proposes `value`; at most one call per process per object.
    ///
    /// **`2n + 2` steps.**
    pub async fn propose(&self, ctx: &ProcessCtx, value: T) -> AcOutcome<T> {
        let me = ctx.pid().index();

        // Phase 1: publish the proposal, then look for disagreement.
        ctx.write(self.phase1[me], Some(value.clone())).await;
        let mut unanimous = true;
        let mut carried = value.clone();
        for &reg in &self.phase1 {
            if let Some(seen) = ctx.read(reg).await {
                if seen != value {
                    unanimous = false;
                    carried = carried.min(seen);
                }
            }
        }

        // Phase 2: publish the verdict, then reconcile.
        ctx.write(self.phase2[me], Some((unanimous, carried.clone())))
            .await;
        let mut all_unanimous = true;
        let mut committed: Option<T> = None;
        let mut fallback = carried;
        for &reg in &self.phase2 {
            if let Some((flag, v)) = ctx.read(reg).await {
                if flag {
                    committed = Some(v);
                } else {
                    all_unanimous = false;
                    fallback = fallback.min(v);
                }
            }
        }

        match committed {
            Some(v) if all_unanimous => AcOutcome::Commit(v),
            Some(v) => AcOutcome::Adopt(v),
            None => AcOutcome::Adopt(fallback),
        }
    }

    /// Begins a machine-ABI propose of `value`: the `2n + 2`-step sequence
    /// of [`propose`](Self::propose) as a resumable step core (one register
    /// operation per [`AcPropose::step`] call), for automata that inline
    /// the object's step sequence. At most one propose per process per
    /// object, as for the async path.
    pub fn propose_machine(&self, value: T) -> AcPropose<T> {
        AcPropose {
            phase1: self.phase1.clone(),
            phase2: self.phase2.clone(),
            value,
            phase: AcPhase::Phase1Write,
        }
    }
}

/// Control state of a machine-ABI propose: which of the `2n + 2` operations
/// the next step performs.
#[derive(Clone, Debug)]
enum AcPhase<T> {
    Phase1Write,
    Phase1Read {
        q: usize,
        unanimous: bool,
        carried: T,
    },
    Phase2Write {
        unanimous: bool,
        carried: T,
    },
    Phase2Read {
        q: usize,
        all_unanimous: bool,
        committed: Option<T>,
        fallback: T,
    },
}

/// A machine-ABI adopt-commit propose in progress — the state-machine port
/// of [`AdoptCommit::propose`], operation for operation. Obtain from
/// [`AdoptCommit::propose_machine`].
#[derive(Clone, Debug)]
pub struct AcPropose<T> {
    phase1: Vec<Reg<Option<T>>>,
    phase2: Vec<Reg<Option<Phase2Cell<T>>>>,
    value: T,
    phase: AcPhase<T>,
}

impl<T: RegValue + Ord> AcPropose<T> {
    /// Performs this step's operation. Returns the outcome once the final
    /// phase-2 read completes (after exactly `2n + 2` calls). **Costs the
    /// step's one operation.**
    pub fn step(&mut self, mem: &mut StepAccess<'_>) -> Option<AcOutcome<T>> {
        let me = mem.pid().index();
        let n = self.phase1.len();
        match std::mem::replace(&mut self.phase, AcPhase::Phase1Write) {
            AcPhase::Phase1Write => {
                mem.write(self.phase1[me], Some(self.value.clone()));
                self.phase = AcPhase::Phase1Read {
                    q: 0,
                    unanimous: true,
                    carried: self.value.clone(),
                };
                None
            }
            AcPhase::Phase1Read {
                q,
                mut unanimous,
                mut carried,
            } => {
                if let Some(seen) = mem.read(self.phase1[q]) {
                    if seen != self.value {
                        unanimous = false;
                        carried = carried.min(seen);
                    }
                }
                self.phase = if q + 1 < n {
                    AcPhase::Phase1Read {
                        q: q + 1,
                        unanimous,
                        carried,
                    }
                } else {
                    AcPhase::Phase2Write { unanimous, carried }
                };
                None
            }
            AcPhase::Phase2Write { unanimous, carried } => {
                mem.write(self.phase2[me], Some((unanimous, carried.clone())));
                self.phase = AcPhase::Phase2Read {
                    q: 0,
                    all_unanimous: true,
                    committed: None,
                    fallback: carried,
                };
                None
            }
            AcPhase::Phase2Read {
                q,
                mut all_unanimous,
                mut committed,
                mut fallback,
            } => {
                if let Some((flag, v)) = mem.read(self.phase2[q]) {
                    if flag {
                        committed = Some(v);
                    } else {
                        all_unanimous = false;
                        fallback = fallback.min(v);
                    }
                }
                if q + 1 < n {
                    self.phase = AcPhase::Phase2Read {
                        q: q + 1,
                        all_unanimous,
                        committed,
                        fallback,
                    };
                    return None;
                }
                Some(match committed {
                    Some(v) if all_unanimous => AcOutcome::Commit(v),
                    Some(v) => AcOutcome::Adopt(v),
                    None => AcOutcome::Adopt(fallback),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe};
    use st_sim::{RunConfig, Sim, StopWhen};

    /// Runs an adopt-commit with the given proposals and interleaving;
    /// returns (is_commit, value) per process.
    fn run_ac(proposals: &[u64], schedule: Vec<usize>) -> Vec<Option<(bool, u64)>> {
        let n = proposals.len();
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let ac: AdoptCommit<u64> = AdoptCommit::alloc(&mut sim, "AC");
        let results = sim.alloc_array("result", n, None::<(bool, u64)>);
        for p in u.processes() {
            let ac = ac.clone();
            let my_result = results[p.index()];
            let proposal = proposals[p.index()];
            sim.spawn(p, move |ctx| async move {
                let outcome = ac.propose(&ctx, proposal).await;
                ctx.write(my_result, Some((outcome.is_commit(), *outcome.value())))
                    .await;
            })
            .unwrap();
        }
        let mut src = ScheduleCursor::new(Schedule::from_indices(schedule));
        sim.run(
            &mut src,
            RunConfig::steps(10_000).stop_when(StopWhen::AllFinished(ProcSet::full(u))),
        )
        .unwrap();
        results.iter().map(|&r| sim.peek(r)).collect()
    }

    fn round_robin(n: usize, len: usize) -> Vec<usize> {
        (0..len).map(|i| i % n).collect()
    }

    fn sequential(n: usize, per: usize) -> Vec<usize> {
        (0..n).flat_map(|p| std::iter::repeat_n(p, per)).collect()
    }

    #[test]
    fn unanimous_proposals_commit() {
        for sched in [round_robin(3, 60), sequential(3, 10)] {
            let out = run_ac(&[7, 7, 7], sched);
            for (i, r) in out.iter().enumerate() {
                let (commit, v) = r.expect("all must finish");
                assert!(commit, "p{i} must commit on unanimity");
                assert_eq!(v, 7);
            }
        }
    }

    #[test]
    fn solo_proposal_commits() {
        // Only p0 moves; others never step. p0 must commit its own value.
        let out = run_ac(&[3, 8, 9], sequential(1, 10));
        let (commit, v) = out[0].expect("p0 finishes");
        assert!(commit);
        assert_eq!(v, 3);
    }

    #[test]
    fn coherence_under_contention() {
        // Many interleavings of conflicting proposals: if anyone commits w,
        // everyone carries w.
        for seed in 0..30u64 {
            let n = 3;
            let sched: Vec<usize> = (0..200)
                .map(|i| ((seed * 31 + i * 17 + i / 7) % n as u64) as usize)
                .collect();
            let out = run_ac(&[1, 2, 3], sched);
            let finished: Vec<(bool, u64)> = out.iter().flatten().copied().collect();
            if let Some((_, w)) = finished.iter().find(|(c, _)| *c) {
                for (_, v) in &finished {
                    assert_eq!(v, w, "seed {seed}: committed {w}, saw {v}");
                }
            }
            // Validity: all carried values were proposed.
            for (_, v) in &finished {
                assert!([1, 2, 3].contains(v));
            }
        }
    }

    #[test]
    fn disagreement_seen_sequentially_adopts() {
        // p0 completes fully, then p1 proposes a different value: p1 sees
        // p0's committed value and must adopt/commit that value, never its
        // own.
        let mut sched = sequential(1, 10);
        sched.extend(std::iter::repeat_n(1, 10));
        let out = run_ac(&[4, 9, 0], sched);
        let (c0, v0) = out[0].unwrap();
        assert!(c0 && v0 == 4);
        let (_, v1) = out[1].unwrap();
        assert_eq!(v1, 4, "p1 must carry p0's committed value");
    }

    /// The machine-ABI propose is observationally identical to the async
    /// transcription: same outcomes, same op counts, same register
    /// statistics, on identical schedules.
    #[test]
    fn propose_machine_differential() {
        use st_sim::{Automaton, Status};

        struct AcRunner {
            propose: crate::AcPropose<u64>,
            result: st_sim::Reg<Option<(bool, u64)>>,
            outcome: Option<(bool, u64)>,
        }
        impl Automaton for AcRunner {
            fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
                if let Some(out) = self.outcome {
                    mem.write(self.result, Some(out));
                    return Status::Done;
                }
                if let Some(out) = self.propose.step(mem) {
                    self.outcome = Some((out.is_commit(), *out.value()));
                }
                Status::Running
            }
        }

        let run_machine = |proposals: &[u64], schedule: Vec<usize>| {
            let n = proposals.len();
            let u = Universe::new(n).unwrap();
            let mut sim = Sim::new(u);
            let ac: AdoptCommit<u64> = AdoptCommit::alloc(&mut sim, "AC");
            let results = sim.alloc_array("result", n, None::<(bool, u64)>);
            for p in u.processes() {
                sim.spawn_automaton(
                    p,
                    AcRunner {
                        propose: ac.propose_machine(proposals[p.index()]),
                        result: results[p.index()],
                        outcome: None,
                    },
                )
                .unwrap();
            }
            let mut src = ScheduleCursor::new(Schedule::from_indices(schedule));
            sim.run(
                &mut src,
                RunConfig::steps(10_000).stop_when(StopWhen::AllFinished(ProcSet::full(u))),
            )
            .unwrap();
            let outs: Vec<Option<(bool, u64)>> = results.iter().map(|&r| sim.peek(r)).collect();
            (outs, sim.report().op_counts, crate::access_stats(&sim))
        };
        let run_async = |proposals: &[u64], schedule: Vec<usize>| {
            let n = proposals.len();
            let u = Universe::new(n).unwrap();
            let mut sim = Sim::new(u);
            let ac: AdoptCommit<u64> = AdoptCommit::alloc(&mut sim, "AC");
            let results = sim.alloc_array("result", n, None::<(bool, u64)>);
            for p in u.processes() {
                let ac = ac.clone();
                let my_result = results[p.index()];
                let proposal = proposals[p.index()];
                sim.spawn(p, move |ctx| async move {
                    let outcome = ac.propose(&ctx, proposal).await;
                    ctx.write(my_result, Some((outcome.is_commit(), *outcome.value())))
                        .await;
                })
                .unwrap();
            }
            let mut src = ScheduleCursor::new(Schedule::from_indices(schedule));
            sim.run(
                &mut src,
                RunConfig::steps(10_000).stop_when(StopWhen::AllFinished(ProcSet::full(u))),
            )
            .unwrap();
            let outs: Vec<Option<(bool, u64)>> = results.iter().map(|&r| sim.peek(r)).collect();
            (outs, sim.report().op_counts, crate::access_stats(&sim))
        };

        for (label, proposals, sched) in [
            ("rr unanimous", vec![7u64, 7, 7], round_robin(3, 60)),
            ("rr conflict", vec![1, 2, 3], round_robin(3, 60)),
            ("seq", vec![4, 9, 0], sequential(3, 12)),
            (
                "scrambled",
                vec![5, 5, 8, 2],
                (0..200).map(|i| (i * 13 + i / 7) % 4).collect(),
            ),
        ] {
            assert_eq!(
                run_async(&proposals, sched.clone()),
                run_machine(&proposals, sched),
                "{label}: ABIs diverged"
            );
        }
    }

    #[test]
    fn outcome_accessors() {
        let c: AcOutcome<u64> = AcOutcome::Commit(5);
        let a: AcOutcome<u64> = AcOutcome::Adopt(6);
        assert!(c.is_commit() && !a.is_commit());
        assert_eq!(*c.value(), 5);
        assert_eq!(*a.value(), 6);
    }

    // Silence an unused-import lint in non-test builds.
    #[allow(unused)]
    fn _unused(_: ProcessId) {}
}
