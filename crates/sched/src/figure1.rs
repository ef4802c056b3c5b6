//! The Figure 1 schedule family.
//!
//! The paper's Figure 1 exhibits the phenomenon that motivates set
//! timeliness: in `S = [(p1·q)^i (p2·q)^i]_{i=1..∞}`, neither `p1` nor `p2`
//! is timely with respect to `q` (each suffers ever-longer absences), yet the
//! *set* `{p1, p2}` is timely with respect to `{q}` with bound 2.
//!
//! [`GeneralizedFigure1`] extends the construction to a timely set `P` of any
//! size against an observed set `Q`: epoch `e` schedules, for each `m ∈ P` in
//! turn, `e` repetitions of the unit `m · q_1 · q_2 ⋯ q_|Q|`. Then `P` is
//! timely wrt `Q` with bound `|Q| + 1`, while each proper subset of `P` is
//! starved for ever-longer stretches (hence no strict subset of `P` is timely
//! wrt `Q` in the limit).

use st_core::{ProcSet, ProcessId, StepSource, PROCSET_CAPACITY};

/// What [`Figure1`] needs: three distinct processes, each one a
/// [`ProcSet`] can hold.
pub(crate) fn check_figure1(p1: ProcessId, p2: ProcessId, q: ProcessId) -> Result<(), String> {
    for (field, p) in [("p1", p1), ("p2", p2), ("q", q)] {
        if p.index() >= PROCSET_CAPACITY {
            return Err(format!(
                "field \"{field}\": {p} is past the process-set capacity of {PROCSET_CAPACITY}"
            ));
        }
    }
    let field = if p1 == p2 {
        "p2"
    } else if q == p1 || q == p2 {
        "q"
    } else {
        return Ok(());
    };
    Err(format!(
        "field \"{field}\": processes must be distinct, got p1 = {p1}, p2 = {p2}, q = {q}"
    ))
}

/// What [`GeneralizedFigure1`] needs: non-empty `P` and `Q`, disjoint so
/// that subsets of `P` are really starved while `Q` steps.
pub(crate) fn check_generalized(p: ProcSet, q: ProcSet) -> Result<(), String> {
    if p.is_empty() {
        return Err("field \"p\": P must be non-empty".into());
    }
    if q.is_empty() {
        return Err("field \"q\": Q must be non-empty".into());
    }
    if !p.is_disjoint(q) {
        return Err(format!(
            "field \"q\": P and Q must be disjoint, got p = {p}, q = {q}"
        ));
    }
    Ok(())
}

/// The literal Figure 1 schedule `[(p1·q)^i (p2·q)^i]` with growing `i`.
///
/// # Examples
///
/// ```
/// use st_core::{ProcessId, StepSource, Schedule};
/// use st_sched::Figure1;
///
/// let mut f = Figure1::new(ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
/// // i = 1: p1 q p2 q; i = 2: p1 q p1 q p2 q p2 q; ...
/// assert_eq!(
///     f.take_schedule(12),
///     Schedule::from_indices([0, 2, 1, 2, 0, 2, 0, 2, 1, 2, 1, 2])
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Figure1 {
    inner: GeneralizedFigure1,
}

impl Figure1 {
    /// Creates the schedule for processes `p1`, `p2` and observed process
    /// `q`.
    ///
    /// # Panics
    ///
    /// Panics if the three processes are not distinct.
    pub fn new(p1: ProcessId, p2: ProcessId, q: ProcessId) -> Self {
        check_figure1(p1, p2, q).unwrap_or_else(|e| panic!("{e}"));
        Figure1 {
            inner: GeneralizedFigure1::new(ProcSet::singleton(p1).with(p2), ProcSet::singleton(q)),
        }
    }
}

impl StepSource for Figure1 {
    fn next_step(&mut self) -> Option<ProcessId> {
        self.inner.next_step()
    }
}

/// The generalized construction: `P` collectively timely wrt `Q` with bound
/// `|Q| + 1`, while every proper subset of `P` is starved without bound.
#[derive(Clone, Debug)]
pub struct GeneralizedFigure1 {
    p_members: Vec<ProcessId>,
    q_members: Vec<ProcessId>,
    /// Current epoch (the `i` of Figure 1); units per member double role.
    epoch: u64,
    /// Index into `p_members` of the member owning the current block.
    member: usize,
    /// Units of the current member's block already emitted.
    unit: u64,
    /// Position within the current unit: 0 = the member step, 1..=|Q| = the
    /// Q sweep.
    offset: usize,
}

impl GeneralizedFigure1 {
    /// Creates the generator for timely set `p` against observed set `q`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is empty, `q` is empty, or the sets intersect (the
    /// construction needs disjointness so that subsets of `P` are really
    /// starved while `Q` steps).
    pub fn new(p: ProcSet, q: ProcSet) -> Self {
        check_generalized(p, q).unwrap_or_else(|e| panic!("{e}"));
        GeneralizedFigure1 {
            p_members: p.to_vec(),
            q_members: q.to_vec(),
            epoch: 1,
            member: 0,
            unit: 0,
            offset: 0,
        }
    }

    /// The guaranteed timeliness bound of `P` wrt `Q`: `|Q| + 1`.
    pub fn guaranteed_bound(&self) -> usize {
        self.q_members.len() + 1
    }
}

impl StepSource for GeneralizedFigure1 {
    fn next_step(&mut self) -> Option<ProcessId> {
        let step = if self.offset == 0 {
            self.p_members[self.member]
        } else {
            self.q_members[self.offset - 1]
        };
        // Advance position: unit = member step followed by the Q sweep.
        self.offset += 1;
        if self.offset > self.q_members.len() {
            self.offset = 0;
            self.unit += 1;
            if self.unit >= self.epoch {
                self.unit = 0;
                self.member += 1;
                if self.member >= self.p_members.len() {
                    self.member = 0;
                    self.epoch += 1;
                }
            }
        }
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::timeliness::{empirical_bound, max_q_steps_in_p_free_interval};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn figure1_literal_prefix() {
        let mut f = Figure1::new(p(0), p(1), p(2));
        let s = f.take_schedule(4 + 8 + 12);
        // Epoch boundaries: i=1 has 4 steps, i=2 has 8, i=3 has 12.
        assert_eq!(s.prefix(4), st_core::Schedule::from_indices([0, 2, 1, 2]));
        assert_eq!(
            s.suffix(4).prefix(8),
            st_core::Schedule::from_indices([0, 2, 0, 2, 1, 2, 1, 2])
        );
    }

    #[test]
    fn pair_timely_with_bound_two() {
        let mut f = Figure1::new(p(0), p(1), p(2));
        let s = f.take_schedule(5000);
        assert_eq!(
            empirical_bound(
                &s,
                ProcSet::from_indices([0, 1]),
                ProcSet::from_indices([2])
            ),
            2
        );
    }

    #[test]
    fn singletons_starve_without_bound() {
        let mut f = Figure1::new(p(0), p(1), p(2));
        let short = f.take_schedule(500);
        let mut f2 = Figure1::new(p(0), p(1), p(2));
        let long = f2.take_schedule(5000);
        for target in [0usize, 1] {
            let pset = ProcSet::from_indices([target]);
            let q = ProcSet::from_indices([2]);
            let b_short = empirical_bound(&short, pset, q);
            let b_long = empirical_bound(&long, pset, q);
            assert!(
                b_long > b_short,
                "singleton p{target} bound must keep growing: {b_short} vs {b_long}"
            );
        }
    }

    #[test]
    fn generalized_bound_holds() {
        let pset = ProcSet::from_indices([0, 1, 2]);
        let qset = ProcSet::from_indices([3, 4]);
        let mut g = GeneralizedFigure1::new(pset, qset);
        let bound = g.guaranteed_bound();
        assert_eq!(bound, 3);
        let s = g.take_schedule(20_000);
        assert!(empirical_bound(&s, pset, qset) <= bound);
    }

    #[test]
    fn generalized_proper_subsets_starve() {
        let pset = ProcSet::from_indices([0, 1, 2]);
        let qset = ProcSet::from_indices([3]);
        let mut g = GeneralizedFigure1::new(pset, qset);
        let s = g.take_schedule(30_000);
        // Every 2-subset of P misses a member whose blocks grow unboundedly.
        for drop in 0..3usize {
            let sub = pset.without(p(drop));
            assert!(
                max_q_steps_in_p_free_interval(&s, sub, qset) > 20,
                "subset without p{drop} must starve"
            );
        }
    }

    #[test]
    fn all_processes_are_correct() {
        let mut g =
            GeneralizedFigure1::new(ProcSet::from_indices([0, 1]), ProcSet::from_indices([2, 3]));
        let s = g.take_schedule(10_000);
        // Everyone keeps appearing in the last quarter.
        let tail = s.suffix(7_500);
        assert_eq!(tail.participants(), ProcSet::from_indices([0, 1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_sets_rejected() {
        let _ = GeneralizedFigure1::new(ProcSet::from_indices([0, 1]), ProcSet::from_indices([1]));
    }
}
