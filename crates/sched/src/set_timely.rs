//! Conforming generators: schedules guaranteed to lie in `S^i_{j,n}`.
//!
//! [`SetTimely`] wraps an arbitrary (typically adversarial) *filler* source
//! and enforces, by construction, that the designated set `P` is timely with
//! respect to `Q` with a chosen bound: whenever the filler has produced
//! `bound − 1` consecutive `Q`-steps without a `P`-step, a `P`-step is
//! injected before the next `Q`-step is let through. Everything else the
//! filler does — starvation of other sets, bursts, crashes via
//! [`CrashAfter`](crate::CrashAfter) — passes through untouched, so the
//! output is "as adversarial as possible subject to membership in
//! `S^{|P|}_{|Q|,n}`".

use st_core::{ProcSet, ProcessId, StepSource, TimelyPair};

use crate::crashes::CrashPlan;

/// What an enforcing generator ([`SetTimely`],
/// [`FlappingTimely`](crate::FlappingTimely)) needs: a non-empty `p` to
/// inject, and `bound ≥ 1` — a bound of 1 only with `Q ⊆ P`, since any
/// let-through `Q`-step would already break it.
pub(crate) fn check_enforced(p: ProcSet, q: ProcSet, bound: usize) -> Result<(), String> {
    if p.is_empty() {
        return Err("field \"p\": the timely set must be non-empty".into());
    }
    if bound == 0 {
        return Err("field \"bound\": the bound must be positive, got bound = 0".into());
    }
    if bound == 1 && !q.is_subset(p) {
        return Err(format!(
            "field \"bound\": bound 1 requires Q ⊆ P (every Q-step a P-step), got bound = 1 \
             for p = {p}, q = {q}"
        ));
    }
    Ok(())
}

/// Enforces `P` timely wrt `Q` (with an explicit bound) over a filler source.
///
/// # Examples
///
/// ```
/// use st_core::{ProcSet, Universe, StepSource, timeliness::empirical_bound};
/// use st_sched::{SeededRandom, SetTimely};
///
/// let u = Universe::new(5).unwrap();
/// let p = ProcSet::from_indices([0, 1]);
/// let q = ProcSet::from_indices([2, 3, 4]);
/// let filler = SeededRandom::new(u, 99);
/// let mut gen = SetTimely::new(p, q, 4, filler);
/// let s = gen.take_schedule(10_000);
/// assert!(empirical_bound(&s, p, q) <= 4);
/// ```
pub struct SetTimely<S> {
    p: ProcSet,
    /// `p`'s members in ascending order: the injection rotation.
    p_members: Vec<ProcessId>,
    q: ProcSet,
    bound: usize,
    filler: S,
    /// Q-steps seen since the last P-step.
    q_run: usize,
    /// Which member of P to inject next (rotates).
    next_inject: usize,
    /// A filler step held back while an injection happens.
    pending: Option<ProcessId>,
    /// Crash plan consulted when choosing an injectable P member.
    plan: CrashPlan,
    /// Global emitted-step counter (for crash-plan queries).
    emitted: u64,
}

impl<S: StepSource> SetTimely<S> {
    /// Creates the generator: `p` will be timely wrt `q` with `bound` in the
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `p` is empty or `bound < 1`. A bound of 1 requires
    /// `Q ⊆ P` (otherwise any let-through `Q`-step already violates it);
    /// this is checked too.
    pub fn new(p: ProcSet, q: ProcSet, bound: usize, filler: S) -> Self {
        check_enforced(p, q, bound).unwrap_or_else(|e| panic!("{e}"));
        SetTimely {
            p,
            p_members: p.to_vec(),
            q,
            bound,
            filler,
            q_run: 0,
            next_inject: 0,
            pending: None,
            plan: CrashPlan::new(),
            emitted: 0,
        }
    }

    /// Registers a crash plan so injected `P`-steps only use still-live
    /// members. At least one member of `P` must outlive the run for the
    /// guarantee to stay meaningful; injections stop silently once every
    /// member is crashed (the caller has then left `S^{|P|}_{|Q|,n}`
    /// deliberately).
    pub fn with_crashes(mut self, plan: CrashPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The timeliness guarantee as a [`TimelyPair`].
    pub fn guarantee(&self) -> TimelyPair {
        TimelyPair {
            p: self.p,
            q: self.q,
            bound: self.bound,
        }
    }

    /// The step emitted in place of `step`, a `Q`-step that would complete
    /// a run of `bound`: a live member of `P`, with `step` held back for the
    /// next pull. Out of line — over a random filler it is the rare case,
    /// and the pull's common path stays a leaf around the filler call.
    #[cold]
    #[inline(never)]
    fn inject_before(&mut self, step: ProcessId) -> ProcessId {
        match self.live_injectable() {
            Some(injected) => {
                self.pending = Some(step);
                self.q_run = 0;
                injected
            }
            None => step, // all of P crashed: guarantee void
        }
    }

    fn live_injectable(&mut self) -> Option<ProcessId> {
        let members = &self.p_members;
        for offset in 0..members.len() {
            let candidate = members[(self.next_inject + offset) % members.len()];
            if !self.plan.is_crashed(candidate, self.emitted) {
                self.next_inject = (self.next_inject + offset + 1) % members.len();
                return Some(candidate);
            }
        }
        None
    }
}

/// The let-through/inject decision of an enforcing generator
/// ([`SetTimely`], [`FlappingTimely`](crate::FlappingTimely) in a timely
/// phase) for one filler step, with `q_run` the `Q`-steps emitted since the
/// last `P`-step. `false` means `step` is a `Q`-step that would complete a
/// run of `bound` with no `P`-step: the caller injects a `P`-step first,
/// holds `step` back and restarts `q_run`.
#[inline]
pub(crate) fn lets_through(
    p: ProcSet,
    q: ProcSet,
    bound: usize,
    q_run: &mut usize,
    step: ProcessId,
) -> bool {
    debug_assert!(*q_run < bound, "a run of `bound` is never let through");
    // `P` and `Q` name processes below the `ProcSet` capacity only; in a
    // larger universe the filler's other steps are in neither (no bit).
    let bit = 1u64.checked_shl(step.index() as u32).unwrap_or(0);
    let in_p = (p.bits() & bit != 0) as usize;
    let in_q = (q.bits() & bit != 0) as usize;
    // Which set a random filler's step falls in is a coin toss, so the run
    // is updated by arithmetic — `in_p − 1` is all ones outside `P` and zero
    // inside — and the one branch left is the rare injection: the run was
    // below `bound`, so only a `Q`-step outside `P` can bring it there.
    let run = (*q_run + in_q) & in_p.wrapping_sub(1);
    if run >= bound {
        return false;
    }
    *q_run = run;
    true
}

impl<S: StepSource> StepSource for SetTimely<S> {
    fn next_step(&mut self) -> Option<ProcessId> {
        let step = match self.pending.take() {
            Some(held) => held,
            None => self.filler.next_step()?,
        };

        let emit = if lets_through(self.p, self.q, self.bound, &mut self.q_run, step) {
            step
        } else {
            self.inject_before(step)
        };
        self.emitted += 1;
        Some(emit)
    }
}

/// Prepends an arbitrary finite prefix to a source: the "eventually"
/// decorator.
///
/// Definition 1 absorbs any finite prefix into the bound, so
/// `Eventually::new(chaos_prefix, SetTimely::…)` still produces schedules of
/// `S^i_{j,n}` — with a larger (but finite) bound. This is how the
/// experiments model synchrony that only holds after an unknown
/// stabilization time, as in classic partial synchrony.
pub struct Eventually<A, B> {
    prefix: A,
    prefix_left: u64,
    body: B,
}

impl<A: StepSource, B: StepSource> Eventually<A, B> {
    /// Runs `prefix` for `prefix_len` steps, then switches to `body`.
    pub fn new(prefix: A, prefix_len: u64, body: B) -> Self {
        Eventually {
            prefix,
            prefix_left: prefix_len,
            body,
        }
    }
}

impl<A: StepSource, B: StepSource> StepSource for Eventually<A, B> {
    fn next_step(&mut self) -> Option<ProcessId> {
        while self.prefix_left > 0 {
            self.prefix_left -= 1;
            match self.prefix.next_step() {
                Some(p) => return Some(p),
                None => self.prefix_left = 0,
            }
        }
        self.body.next_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{RoundRobin, SeededRandom};
    use st_core::timeliness::{empirical_bound, max_q_steps_in_p_free_interval};
    use st_core::{Schedule, ScheduleCursor, Universe, PROCSET_CAPACITY};

    fn u(n: usize) -> Universe {
        Universe::new(n).unwrap()
    }

    fn set(ix: &[usize]) -> ProcSet {
        ProcSet::from_indices(ix.iter().copied())
    }

    #[test]
    fn bound_enforced_over_random_filler() {
        for seed in 0..10u64 {
            let p = set(&[1, 4]);
            let q = set(&[0, 2, 3]);
            let mut gen = SetTimely::new(p, q, 3, SeededRandom::new(u(5), seed));
            let s = gen.take_schedule(20_000);
            assert!(
                empirical_bound(&s, p, q) <= 3,
                "seed {seed} violated the bound"
            );
        }
    }

    #[test]
    fn bound_enforced_over_hostile_filler() {
        // Filler tries to starve P completely: only Q steps.
        let p = set(&[0]);
        let q = set(&[1]);
        let filler = ScheduleCursor::new(Schedule::from_indices(vec![1; 1000]));
        let mut gen = SetTimely::new(p, q, 2, filler);
        let s = gen.take_schedule(5000);
        assert!(empirical_bound(&s, p, q) <= 2);
        // Roughly every other step is the injected p0.
        assert!(s.occurrences(ProcessId::new(0)) >= s.len() / 3);
    }

    #[test]
    fn non_pq_processes_flow_through() {
        let p = set(&[0]);
        let q = set(&[1]);
        // p2 is neither: its steps never trigger or reset injections.
        let filler = ScheduleCursor::new(Schedule::from_indices([2, 2, 2, 1, 2, 2, 1]));
        let mut gen = SetTimely::new(p, q, 2, filler);
        let s = gen.take_schedule(100);
        // The second q-step (p1) forces an injection before it.
        assert_eq!(s.occurrences(ProcessId::new(0)), 1);
        assert_eq!(s.occurrences(ProcessId::new(2)), 5);
    }

    #[test]
    fn steps_a_procset_cannot_name_flow_through() {
        // n = 128: the filler schedules processes past the ProcSet capacity.
        // They are in neither P nor Q — never counted, never a panic.
        let p = set(&[0]);
        let q = set(&[0, 1, 2]);
        let mut gen = SetTimely::new(p, q, 4, RoundRobin::new(u(128)));
        let s = gen.take_schedule(10 * 128);
        assert_eq!(s.occurrences(ProcessId::new(100)), 10);
        let nameable: Schedule = s.iter().filter(|p| p.index() < PROCSET_CAPACITY).collect();
        assert!(empirical_bound(&nameable, p, q) <= 4);
    }

    #[test]
    fn injection_rotates_members() {
        let p = set(&[0, 1]);
        let q = set(&[2]);
        let filler = ScheduleCursor::new(Schedule::from_indices(vec![2; 100]));
        let mut gen = SetTimely::new(p, q, 2, filler);
        let s = gen.take_schedule(200);
        // Injections alternate p0, p1, p0, p1…
        assert!(s.occurrences(ProcessId::new(0)) > 20);
        assert!(s.occurrences(ProcessId::new(1)) > 20);
    }

    #[test]
    fn crash_plan_redirects_injections() {
        let p = set(&[0, 1]);
        let q = set(&[2]);
        let filler = ScheduleCursor::new(Schedule::from_indices(vec![2; 1000]));
        let plan = CrashPlan::new().crash(ProcessId::new(0), 10);
        let mut gen = SetTimely::new(p, q, 2, filler).with_crashes(plan);
        let s = gen.take_schedule(2000);
        // After step 10 only p1 is injected; the guarantee still holds.
        assert!(empirical_bound(&s, p, q) <= 2);
        let tail = s.suffix(50);
        assert_eq!(tail.occurrences(ProcessId::new(0)), 0);
        assert!(tail.occurrences(ProcessId::new(1)) > 0);
    }

    #[test]
    fn guarantee_reports_the_pair() {
        let gen = SetTimely::new(set(&[0]), set(&[1]), 5, RoundRobin::new(u(2)));
        let g = gen.guarantee();
        assert_eq!(g.p, set(&[0]));
        assert_eq!(g.q, set(&[1]));
        assert_eq!(g.bound, 5);
    }

    #[test]
    fn eventually_absorbs_chaotic_prefix() {
        let p = set(&[0]);
        let q = set(&[1]);
        // 200 steps of pure starvation, then enforced timeliness.
        let chaos = ScheduleCursor::new(Schedule::from_indices(vec![1; 200]));
        let body = SetTimely::new(p, q, 2, SeededRandom::new(u(2), 5));
        let mut gen = Eventually::new(chaos, 200, body);
        let s = gen.take_schedule(10_000);
        // Not bound-2 timely overall…
        assert!(max_q_steps_in_p_free_interval(&s, p, q) >= 200);
        // …but the bound is finite (absorbed prefix), and the suffix is clean.
        assert!(empirical_bound(&s.suffix(200), p, q) <= 2);
    }

    #[test]
    #[should_panic(expected = "bound 1 requires")]
    fn bound_one_needs_subset() {
        let _ = SetTimely::new(set(&[0]), set(&[1]), 1, RoundRobin::new(u(2)));
    }
}
