//! The fictitious-crash adversary for the `j − i < t + 1 − k` impossibility
//! side (Theorem 27, case 2b).
//!
//! The paper's proof builds a system of `n` processes in which `j − i`
//! *fictitious* processes are crashed from the start (set `C`) and the
//! remaining `m = n − (j − i)` *real* processes run asynchronously. Any set
//! `P_i` of `i` real processes is then timely with respect to `P_i ∪ C`
//! (size `j`) — trivially, with bound 1, because every step of `P_i ∪ C` *is*
//! a step of `P_i` — so every such schedule lies in `S^i_{j,n}`.
//!
//! This generator sharpens "run asynchronously" into a growing-epoch **solo
//! rotation** over the real processes: epoch `e` runs one real process alone
//! for `base · (e+1)` steps. Then for any set `K` of size `k` and any set
//! `Q'` of size `t + 1`: `Q'` contains at least `t + 1 − (j − i)` real
//! processes, which exceeds `k` exactly when `j − i < t + 1 − k`; hence `Q'`
//! has a real member outside `K`, whose growing solo epochs starve `K`
//! unboundedly. So **no size-`k` set is timely wrt any size-`(t+1)` set** —
//! the schedule is in `S^i_{j,n}` but outside `S^k_{t+1,n}`, and a complete
//! `(t,k,n)` protocol stack must stall on it while preserving safety.
//! (`|C| = j − i ≤ t − k < t`, so the fault budget is respected and
//! termination *is* owed — that is the contradiction the proof exploits.)

use st_core::{
    AgreementTask, ProcSet, ProcessId, StepSource, SystemSpec, Universe, PROCSET_CAPACITY,
};

/// What the construction needs of `S^i_{j,n}` and the task `(t, k)`: a
/// system ([`SystemSpec::check`]), a task `1 ≤ k ≤ t ≤ n − 1`
/// ([`AgreementTask::check_nontrivial`]), `i ≤ k`, the
/// unsolvability condition `j − i < t + 1 − k`, a positive base epoch, and
/// — because the fictitious set is a [`ProcSet`] — no fictitious process
/// past its capacity.
pub(crate) fn check_fictitious(
    i: usize,
    j: usize,
    n: usize,
    t: usize,
    k: usize,
    base: u64,
) -> Result<(), String> {
    SystemSpec::check(i, j, n)?;
    AgreementTask::check_nontrivial(t, k, n)?;
    if i > k {
        return Err(format!(
            "field \"i\": for i > k use RotatingStarvation, got i = {i} > k = {k}"
        ));
    }
    if j - i >= t + 1 - k {
        return Err(format!(
            "field \"j\": S^{i}_{{{j},{n}}} solves ({t},{k},{n})-agreement; no adversary exists"
        ));
    }
    if j > i && n > PROCSET_CAPACITY {
        return Err(format!(
            "field \"j\": the j − i = {} fictitious processes end at p{}, past the process-set \
             capacity of {PROCSET_CAPACITY}",
            j - i,
            n - 1
        ));
    }
    crate::positive("base", "the base epoch length", base)
}

/// The Theorem 27 case-2b construction as a generator.
#[derive(Clone, Debug)]
pub struct FictitiousCrash {
    real: Vec<ProcessId>,
    crashed: ProcSet,
    spec: SystemSpec,
    base: u64,
    epoch: u64,
    left: u64,
}

impl FictitiousCrash {
    /// Builds the adversary for system `S^i_{j,n}` against task parameters
    /// `(t, k)`.
    ///
    /// # Panics
    ///
    /// Panics unless the unsolvability condition `j − i < t + 1 − k` holds
    /// with `i ≤ k` (for `i > k` use
    /// [`RotatingStarvation`](crate::RotatingStarvation)), unless
    /// parameters are in range (`1 ≤ i ≤ j ≤ n`, `1 ≤ k ≤ t ≤ n−1`), and
    /// when a fictitious process lies past the [`ProcSet`] capacity.
    pub fn new(spec: SystemSpec, t: usize, k: usize) -> Self {
        Self::with_base(spec, t, k, 8)
    }

    /// Like [`new`](Self::new) with an explicit base epoch length.
    ///
    /// # Panics
    ///
    /// See [`new`](Self::new); additionally panics if `base == 0`.
    pub fn with_base(spec: SystemSpec, t: usize, k: usize, base: u64) -> Self {
        let (i, j, n) = (spec.i(), spec.j(), spec.n());
        check_fictitious(i, j, n, t, k, base).unwrap_or_else(|e| panic!("{e}"));
        let universe = spec.universe();
        let crashed_count = j - i;
        let real: Vec<ProcessId> = universe.processes().take(n - crashed_count).collect();
        let crashed: ProcSet = universe.processes().skip(n - crashed_count).collect();
        FictitiousCrash {
            real,
            crashed,
            spec,
            base,
            epoch: 0,
            left: base,
        }
    }

    /// The fictitious processes, crashed from the start (`|C| = j − i`).
    pub fn crashed(&self) -> ProcSet {
        self.crashed
    }

    /// The witness pair certifying membership in `S^i_{j,n}`: the first `i`
    /// real processes against themselves plus the crashed set, timely with
    /// bound 1.
    pub fn membership_witness(&self) -> (ProcSet, ProcSet) {
        let p_i: ProcSet = self.real.iter().copied().take(self.spec.i()).collect();
        (p_i, p_i.union(self.crashed))
    }

    /// The universe.
    pub fn universe(&self) -> Universe {
        self.spec.universe()
    }
}

impl StepSource for FictitiousCrash {
    fn next_step(&mut self) -> Option<ProcessId> {
        if self.left == 0 {
            self.epoch += 1;
            self.left = self.base * (self.epoch + 1);
        }
        self.left -= 1;
        let soloist = self.real[(self.epoch as usize) % self.real.len()];
        Some(soloist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::subsets::KSubsets;
    use st_core::timeliness::{empirical_bound, max_q_steps_in_p_free_interval};

    fn spec(i: usize, j: usize, n: usize) -> SystemSpec {
        SystemSpec::new(i, j, n).unwrap()
    }

    #[test]
    fn membership_witness_has_bound_one() {
        // S^2_{3,5} vs (3,2,5): j−i = 1 < t+1−k = 2 → unsolvable.
        let mut gen = FictitiousCrash::new(spec(2, 3, 5), 3, 2);
        let (p, q) = gen.membership_witness();
        assert_eq!(p.len(), 2);
        assert_eq!(q.len(), 3);
        let s = gen.take_schedule(20_000);
        assert_eq!(empirical_bound(&s, p, q), 1);
    }

    #[test]
    fn crashed_processes_never_step() {
        let mut gen = FictitiousCrash::new(spec(1, 3, 6), 4, 2);
        let crashed = gen.crashed();
        assert_eq!(crashed.len(), 2);
        let s = gen.take_schedule(10_000);
        for c in crashed.iter() {
            assert_eq!(s.occurrences(c), 0);
        }
    }

    #[test]
    fn no_k_set_timely_wrt_any_t_plus_1_set() {
        // S^1_{2,5} vs (3,2,5): j−i = 1 < t+1−k = 2.
        let t = 3;
        let k = 2;
        let mut gen = FictitiousCrash::new(spec(1, 2, 5), t, k);
        let u = gen.universe();
        let s = gen.take_schedule(60_000);
        for kset in KSubsets::new(u, k) {
            for qset in KSubsets::new(u, t + 1) {
                assert!(
                    max_q_steps_in_p_free_interval(&s, kset, qset) >= 40,
                    "{kset} wrt {qset} must be starved"
                );
            }
        }
    }

    #[test]
    fn fault_budget_is_respected() {
        // |C| = j − i must stay strictly below t.
        let gen = FictitiousCrash::new(spec(2, 4, 6), 5, 2);
        assert!(gen.crashed().len() < 5);
    }

    #[test]
    fn real_processes_all_correct() {
        let mut gen = FictitiousCrash::new(spec(1, 2, 4), 2, 1);
        let crashed = gen.crashed();
        let s = gen.take_schedule(50_000);
        let tail = s.suffix(s.len() * 3 / 4);
        let u = gen.universe();
        assert_eq!(tail.participants(), crashed.complement(u));
    }

    #[test]
    #[should_panic(expected = "no adversary exists")]
    fn solvable_parameters_rejected() {
        // S^2_{4,6} solves (3,2,6): j−i = 2 ≥ t+1−k = 2.
        let _ = FictitiousCrash::new(spec(2, 4, 6), 3, 2);
    }

    #[test]
    #[should_panic(expected = "RotatingStarvation")]
    fn i_greater_than_k_rejected() {
        let _ = FictitiousCrash::new(spec(3, 3, 6), 3, 2);
    }
}
