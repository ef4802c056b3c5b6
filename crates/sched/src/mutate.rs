//! Spec mutation: deterministic generation and perturbation of
//! [`GeneratorSpec`] trees, the genetic half of the coverage-guided fuzzer
//! (`st-campaign::fuzz`).
//!
//! Both halves — [`SpecMutator::arbitrary`] (grow a fresh valid-by-
//! construction tree) and [`SpecMutator::mutate`] (perturb an existing one)
//! — draw from a [`SpecRng`], a self-contained SplitMix64 stream, so a
//! fuzz round is a pure function of `(corpus, master seed, round index)`
//! and the engine's byte-identical-across-workers contract extends to the
//! fuzzer for free. The generator doubles as the proptest strategy for the
//! store-codec round-trip tests: any tree it can emit, the codec must
//! round-trip.
//!
//! Every emitted tree is valid — [`GeneratorSpec::validate`] accepts it
//! over the mutator's universe (`st-campaign`'s `tests/validity.rs` holds
//! `arbitrary` and `mutate` to that as a property) — and crash plans never
//! silence the whole universe. The mutation operators are the ones the
//! fuzzer issue card names: parameter nudges, member-set reseating (the
//! path to starvation counterexamples — restrict a filler's `over` set and
//! a correct process outside it never steps again), decorator
//! stacking/unstacking, crash-plan edits, and whole-subtree replacement.

use st_core::{ProcSet, ProcessId, Schedule, Universe, PROCSET_CAPACITY};

use crate::crashes::CrashPlan;
use crate::spec::GeneratorSpec;

/// SplitMix64: a tiny deterministic RNG with no dependencies. Streams are
/// pure functions of the seed, which is all the fuzzer's determinism
/// contract needs.
#[derive(Clone, Debug)]
pub struct SpecRng {
    state: u64,
}

impl SpecRng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SpecRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..bound` (`bound > 0`; modulo bias is irrelevant here).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SpecRng::below(0)");
        self.next_u64() % bound
    }

    /// A draw in the inclusive range `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "SpecRng::range lo > hi");
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Caps stacked decorators so mutation doesn't grow unbounded towers.
const MAX_DECORATOR_DEPTH: usize = 3;

/// Generator and mutator of [`GeneratorSpec`] trees over a fixed universe.
#[derive(Clone, Copy, Debug)]
pub struct SpecMutator {
    universe: Universe,
}

impl SpecMutator {
    /// A mutator over `universe`.
    ///
    /// # Panics
    ///
    /// Panics when the universe is wider than a [`ProcSet`]
    /// ([`PROCSET_CAPACITY`]): every tree this mutator emits names its
    /// members by set.
    pub fn new(universe: Universe) -> Self {
        assert!(
            universe.n() <= PROCSET_CAPACITY,
            "SpecMutator universe of {} exceeds PROCSET_CAPACITY ({PROCSET_CAPACITY})",
            universe.n()
        );
        SpecMutator { universe }
    }

    fn n(&self) -> usize {
        self.universe.n()
    }

    fn pid(&self, rng: &mut SpecRng) -> ProcessId {
        ProcessId::new(rng.below(self.n() as u64) as usize)
    }

    fn nonempty_subset(&self, rng: &mut SpecRng) -> ProcSet {
        // `below(2^n)` is the draw every pinned session and corpus was made
        // with; at n = 64 the bound does not fit a word, and a whole word is
        // that same uniform draw.
        let bits = match 1u64.checked_shl(self.n() as u32) {
            Some(bound) => rng.below(bound),
            None => rng.next_u64(),
        };
        if bits == 0 {
            ProcSet::singleton(self.pid(rng))
        } else {
            ProcSet::from_bits(bits)
        }
    }

    /// An inclusive range with `1 <= lo <= hi <= max`.
    fn dwell(&self, rng: &mut SpecRng, max: u64) -> (u64, u64) {
        let lo = rng.range(1, max);
        let hi = rng.range(lo, max);
        (lo, hi)
    }

    /// A crash plan silencing 1 to `n − 1` processes at steps in
    /// `0..=4096`; never the whole universe.
    fn random_plan(&self, rng: &mut SpecRng) -> CrashPlan {
        let victims = rng.range(1, (self.n() - 1) as u64);
        let mut plan = CrashPlan::new();
        for _ in 0..victims {
            plan = plan.crash(self.pid(rng), rng.below(4097));
        }
        plan
    }

    /// A leaf spec: round-robin, seeded-random (full universe or a
    /// non-empty subset), or a short cycle.
    pub fn base(&self, rng: &mut SpecRng) -> GeneratorSpec {
        match rng.below(5) {
            0 => GeneratorSpec::RoundRobin { over: None },
            1 => GeneratorSpec::RoundRobin {
                over: Some(self.nonempty_subset(rng)),
            },
            2 => GeneratorSpec::SeededRandom {
                over: None,
                seed_offset: rng.below(1024),
                weights: None,
            },
            3 => GeneratorSpec::SeededRandom {
                over: Some(self.nonempty_subset(rng)),
                seed_offset: rng.below(1024),
                weights: None,
            },
            _ => {
                let len = rng.range(1, 8);
                let steps = (0..len).map(|_| self.pid(rng).index());
                GeneratorSpec::Cycle {
                    period: Schedule::from_indices(steps),
                }
            }
        }
    }

    /// An arbitrary valid spec tree of decorator depth at most `depth`.
    /// Only the data-driven families appear (the literal paper
    /// constructions — Figure 1, rotations, fictitious crashes — have their
    /// own harnesses and nothing to fuzz).
    pub fn arbitrary(&self, rng: &mut SpecRng, depth: usize) -> GeneratorSpec {
        if depth == 0 {
            return self.base(rng);
        }
        match rng.below(8) {
            0 => self.base(rng),
            1 => GeneratorSpec::SetTimely {
                p: self.nonempty_subset(rng),
                q: self.nonempty_subset(rng),
                bound: rng.range(2, 8) as usize,
                filler: Box::new(self.arbitrary(rng, depth - 1)),
                crashes: CrashPlan::new(),
            },
            2 => GeneratorSpec::Eventually {
                prefix: Box::new(self.base(rng)),
                prefix_len: rng.range(1, 64),
                body: Box::new(self.arbitrary(rng, depth - 1)),
            },
            3 => GeneratorSpec::Flapping {
                p: self.nonempty_subset(rng),
                q: self.nonempty_subset(rng),
                bound: rng.range(2, 8) as usize,
                filler: Box::new(self.arbitrary(rng, depth - 1)),
                timely_dwell: self.dwell(rng, 128),
                untimely_dwell: self.dwell(rng, 128),
                seed_offset: rng.below(1024),
            },
            4 => GeneratorSpec::GrayFailure {
                inner: Box::new(self.arbitrary(rng, depth - 1)),
                gray: self.nonempty_subset(rng),
                stretch: rng.range(1, 12),
                seed_offset: rng.below(1024),
            },
            5 => GeneratorSpec::BurstClog {
                inner: Box::new(self.arbitrary(rng, depth - 1)),
                clogger: self.pid(rng),
                window: rng.range(1, 64),
                gap: self.dwell(rng, 128),
                seed_offset: rng.below(1024),
            },
            6 => {
                let crash = rng.below(4097);
                GeneratorSpec::CrashRecovery {
                    inner: Box::new(self.arbitrary(rng, depth - 1)),
                    victim: self.pid(rng),
                    crash,
                    rejoin: crash + rng.below(4097),
                }
            }
            _ => GeneratorSpec::CrashAfter {
                inner: Box::new(self.arbitrary(rng, depth - 1)),
                plan: self.random_plan(rng),
            },
        }
    }

    /// One mutation step: a perturbed clone of `spec` that still satisfies
    /// every constructor precondition.
    pub fn mutate(&self, spec: &GeneratorSpec, rng: &mut SpecRng) -> GeneratorSpec {
        match rng.below(6) {
            0 if decorator_depth(spec) < MAX_DECORATOR_DEPTH => self.stack(spec, rng),
            1 => match unstack(spec) {
                Some(inner) => inner,
                None => self.nudge(spec, rng),
            },
            2 => self.reseat_sets(spec, rng),
            3 => self.edit_crash_plan(spec, rng),
            4 => self.arbitrary(rng, 2),
            _ => self.nudge(spec, rng),
        }
    }

    /// Wraps `spec` in one of the PR-6 fault decorators (or a crash plan).
    fn stack(&self, spec: &GeneratorSpec, rng: &mut SpecRng) -> GeneratorSpec {
        let inner = Box::new(spec.clone());
        match rng.below(5) {
            0 => GeneratorSpec::Flapping {
                p: self.nonempty_subset(rng),
                q: self.nonempty_subset(rng),
                bound: rng.range(2, 8) as usize,
                filler: inner,
                timely_dwell: self.dwell(rng, 128),
                untimely_dwell: self.dwell(rng, 128),
                seed_offset: rng.below(1024),
            },
            1 => GeneratorSpec::GrayFailure {
                inner,
                gray: self.nonempty_subset(rng),
                stretch: rng.range(1, 12),
                seed_offset: rng.below(1024),
            },
            2 => GeneratorSpec::BurstClog {
                inner,
                clogger: self.pid(rng),
                window: rng.range(1, 64),
                gap: self.dwell(rng, 128),
                seed_offset: rng.below(1024),
            },
            3 => {
                let crash = rng.below(4097);
                GeneratorSpec::CrashRecovery {
                    inner,
                    victim: self.pid(rng),
                    crash,
                    rejoin: crash + rng.below(4097),
                }
            }
            _ => GeneratorSpec::CrashAfter {
                inner,
                plan: self.random_plan(rng),
            },
        }
    }

    /// Randomizes one member set somewhere in the tree — the mutation that
    /// reaches starvation counterexamples (restrict a filler's `over` set
    /// and every correct process outside it is starved forever).
    fn reseat_sets(&self, spec: &GeneratorSpec, rng: &mut SpecRng) -> GeneratorSpec {
        match spec {
            GeneratorSpec::RoundRobin { .. } => GeneratorSpec::RoundRobin {
                over: Some(self.nonempty_subset(rng)),
            },
            GeneratorSpec::SeededRandom {
                seed_offset,
                weights,
                ..
            } => GeneratorSpec::SeededRandom {
                over: Some(self.nonempty_subset(rng)),
                seed_offset: *seed_offset,
                // Weights are per-member; a reseated set invalidates them.
                weights: if weights.is_some() {
                    None
                } else {
                    weights.clone()
                },
            },
            GeneratorSpec::SetTimely {
                p,
                q,
                bound,
                filler,
                crashes,
            } => {
                if rng.chance(1, 2) {
                    GeneratorSpec::SetTimely {
                        p: self.nonempty_subset(rng),
                        q: self.nonempty_subset(rng),
                        bound: *bound,
                        filler: filler.clone(),
                        crashes: crashes.clone(),
                    }
                } else {
                    GeneratorSpec::SetTimely {
                        p: *p,
                        q: *q,
                        bound: *bound,
                        filler: Box::new(self.reseat_sets(filler, rng)),
                        crashes: crashes.clone(),
                    }
                }
            }
            GeneratorSpec::Flapping {
                p,
                q,
                bound,
                filler,
                timely_dwell,
                untimely_dwell,
                seed_offset,
            } => {
                let (p, q, filler) = if rng.chance(1, 2) {
                    (
                        self.nonempty_subset(rng),
                        self.nonempty_subset(rng),
                        filler.clone(),
                    )
                } else {
                    (*p, *q, Box::new(self.reseat_sets(filler, rng)))
                };
                GeneratorSpec::Flapping {
                    p,
                    q,
                    bound: *bound,
                    filler,
                    timely_dwell: *timely_dwell,
                    untimely_dwell: *untimely_dwell,
                    seed_offset: *seed_offset,
                }
            }
            GeneratorSpec::GrayFailure {
                inner,
                gray,
                stretch,
                seed_offset,
            } => {
                let (inner, gray) = if rng.chance(1, 2) {
                    (inner.clone(), self.nonempty_subset(rng))
                } else {
                    (Box::new(self.reseat_sets(inner, rng)), *gray)
                };
                GeneratorSpec::GrayFailure {
                    inner,
                    gray,
                    stretch: *stretch,
                    seed_offset: *seed_offset,
                }
            }
            GeneratorSpec::Eventually {
                prefix,
                prefix_len,
                body,
            } => GeneratorSpec::Eventually {
                prefix: prefix.clone(),
                prefix_len: *prefix_len,
                body: Box::new(self.reseat_sets(body, rng)),
            },
            GeneratorSpec::BurstClog {
                inner,
                clogger,
                window,
                gap,
                seed_offset,
            } => GeneratorSpec::BurstClog {
                inner: Box::new(self.reseat_sets(inner, rng)),
                clogger: *clogger,
                window: *window,
                gap: *gap,
                seed_offset: *seed_offset,
            },
            GeneratorSpec::CrashRecovery {
                inner,
                victim,
                crash,
                rejoin,
            } => GeneratorSpec::CrashRecovery {
                inner: Box::new(self.reseat_sets(inner, rng)),
                victim: *victim,
                crash: *crash,
                rejoin: *rejoin,
            },
            GeneratorSpec::CrashAfter { inner, plan } => GeneratorSpec::CrashAfter {
                inner: Box::new(self.reseat_sets(inner, rng)),
                plan: plan.clone(),
            },
            // Cycles, the literal paper constructions, and replays carry no
            // free member set to reseat.
            other => other.clone(),
        }
    }

    /// Edits the crash plan of a root `CrashAfter` (add / remove / move a
    /// victim, keeping at least one process alive) or wraps a plan-less
    /// spec in a fresh one.
    fn edit_crash_plan(&self, spec: &GeneratorSpec, rng: &mut SpecRng) -> GeneratorSpec {
        match spec {
            GeneratorSpec::CrashAfter { inner, plan } => {
                let entries: Vec<(ProcessId, u64)> = plan.entries().collect();
                let plan = match rng.below(3) {
                    // Add a victim, unless that would silence everyone.
                    0 if entries.len() < self.n() - 1 => {
                        plan.clone().crash(self.pid(rng), rng.below(4097))
                    }
                    // Remove one.
                    1 if !entries.is_empty() => {
                        let drop = rng.below(entries.len() as u64) as usize;
                        entries
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != drop)
                            .fold(CrashPlan::new(), |acc, (_, &(p, s))| acc.crash(p, s))
                    }
                    // Move one's crash step.
                    _ if !entries.is_empty() => {
                        let moved = rng.below(entries.len() as u64) as usize;
                        let step = rng.below(4097);
                        entries
                            .iter()
                            .enumerate()
                            .fold(CrashPlan::new(), |acc, (i, &(p, s))| {
                                acc.crash(p, if i == moved { step } else { s })
                            })
                    }
                    _ => plan.clone(),
                };
                if plan.is_empty() {
                    (**inner).clone()
                } else {
                    GeneratorSpec::CrashAfter {
                        inner: inner.clone(),
                        plan,
                    }
                }
            }
            other => GeneratorSpec::CrashAfter {
                inner: Box::new(other.clone()),
                plan: self.random_plan(rng),
            },
        }
    }

    /// Nudges one numeric parameter somewhere in the tree, preserving every
    /// constructor precondition. Parameterless nodes recurse or return a
    /// clone.
    fn nudge(&self, spec: &GeneratorSpec, rng: &mut SpecRng) -> GeneratorSpec {
        match spec {
            GeneratorSpec::SeededRandom { over, weights, .. } => GeneratorSpec::SeededRandom {
                over: *over,
                seed_offset: rng.below(1024),
                weights: weights.clone(),
            },
            GeneratorSpec::SetTimely {
                p,
                q,
                bound,
                filler,
                crashes,
            } => {
                if rng.chance(1, 2) {
                    GeneratorSpec::SetTimely {
                        p: *p,
                        q: *q,
                        bound: nudge_usize(*bound, 2, 64, rng),
                        filler: filler.clone(),
                        crashes: crashes.clone(),
                    }
                } else {
                    GeneratorSpec::SetTimely {
                        p: *p,
                        q: *q,
                        bound: *bound,
                        filler: Box::new(self.nudge(filler, rng)),
                        crashes: crashes.clone(),
                    }
                }
            }
            GeneratorSpec::Eventually {
                prefix,
                prefix_len,
                body,
            } => GeneratorSpec::Eventually {
                prefix: prefix.clone(),
                prefix_len: nudge_u64(*prefix_len, 1, 8192, rng),
                body: body.clone(),
            },
            GeneratorSpec::Flapping {
                p,
                q,
                bound,
                filler,
                timely_dwell,
                untimely_dwell,
                seed_offset,
            } => {
                let (timely_dwell, untimely_dwell) = if rng.chance(1, 2) {
                    (nudge_range(*timely_dwell, rng), *untimely_dwell)
                } else {
                    (*timely_dwell, nudge_range(*untimely_dwell, rng))
                };
                GeneratorSpec::Flapping {
                    p: *p,
                    q: *q,
                    bound: nudge_usize(*bound, 2, 64, rng),
                    filler: filler.clone(),
                    timely_dwell,
                    untimely_dwell,
                    seed_offset: *seed_offset,
                }
            }
            GeneratorSpec::GrayFailure {
                inner,
                gray,
                stretch,
                seed_offset,
            } => GeneratorSpec::GrayFailure {
                inner: inner.clone(),
                gray: *gray,
                stretch: nudge_u64(*stretch, 1, 32, rng),
                seed_offset: *seed_offset,
            },
            GeneratorSpec::BurstClog {
                inner,
                clogger,
                window,
                gap,
                seed_offset,
            } => GeneratorSpec::BurstClog {
                inner: inner.clone(),
                clogger: *clogger,
                window: nudge_u64(*window, 1, 256, rng),
                gap: nudge_range(*gap, rng),
                seed_offset: *seed_offset,
            },
            GeneratorSpec::CrashRecovery {
                inner,
                victim,
                crash,
                rejoin,
            } => {
                // Shift the window or resize the outage, keeping crash ≤ rejoin.
                let span = rejoin - crash;
                let (crash, span) = if rng.chance(1, 2) {
                    (nudge_u64(*crash, 0, 8192, rng), span)
                } else {
                    (*crash, nudge_u64(span, 0, 8192, rng))
                };
                GeneratorSpec::CrashRecovery {
                    inner: inner.clone(),
                    victim: *victim,
                    crash,
                    rejoin: crash + span,
                }
            }
            GeneratorSpec::CrashAfter { inner, plan } => GeneratorSpec::CrashAfter {
                inner: Box::new(self.nudge(inner, rng)),
                plan: plan.clone(),
            },
            // RoundRobin, cycles, replays, and the literal paper
            // constructions have no free numeric knob worth nudging.
            other => other.clone(),
        }
    }
}

/// Doubles, halves, or steps `v`, clamped to `lo..=hi`.
fn nudge_u64(v: u64, lo: u64, hi: u64, rng: &mut SpecRng) -> u64 {
    let nudged = match rng.below(4) {
        0 => v.saturating_mul(2),
        1 => v / 2,
        2 => v.saturating_add(1),
        _ => v.saturating_sub(1),
    };
    nudged.clamp(lo, hi)
}

fn nudge_usize(v: usize, lo: u64, hi: u64, rng: &mut SpecRng) -> usize {
    nudge_u64(v as u64, lo, hi, rng) as usize
}

/// Nudges an inclusive `(lo, hi)` range keeping `1 <= lo <= hi`.
fn nudge_range((lo, hi): (u64, u64), rng: &mut SpecRng) -> (u64, u64) {
    let lo = nudge_u64(lo, 1, 4096, rng);
    let hi = nudge_u64(hi, 1, 4096, rng).max(lo);
    (lo, hi)
}

/// Stacked fault-decorator layers above the first node that is not one
/// (`SetTimely` and `Eventually` have a child but are generators proper).
fn decorator_depth(spec: &GeneratorSpec) -> usize {
    match spec {
        GeneratorSpec::SetTimely { .. } | GeneratorSpec::Eventually { .. } => 0,
        _ => spec.child().map_or(0, |inner| 1 + decorator_depth(inner)),
    }
}

/// Strips the outermost wrapper, if any (the decorator-unstacking
/// mutation).
pub fn unstack(spec: &GeneratorSpec) -> Option<GeneratorSpec> {
    spec.child().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::StepSource;

    fn u(n: usize) -> Universe {
        Universe::new(n).unwrap()
    }

    /// Every arbitrary tree builds (constructor preconditions hold) and
    /// emits a schedule.
    #[test]
    fn arbitrary_trees_build_and_emit() {
        let m = SpecMutator::new(u(5));
        let mut rng = SpecRng::new(0xF00D);
        for _ in 0..200 {
            let spec = m.arbitrary(&mut rng, 3);
            let s = spec.build(u(5), 42).take_schedule(256);
            // Crash-heavy trees can end early, but something always runs
            // unless every emitter is crashed at step 0 — allow empty, just
            // don't panic.
            assert!(s.len() <= 256);
        }
    }

    /// Mutation chains stay valid and deterministic: the same seed yields
    /// the same chain.
    #[test]
    fn mutation_chains_are_valid_and_deterministic() {
        let m = SpecMutator::new(u(5));
        let start = GeneratorSpec::set_timely(
            ProcSet::from_indices([0, 1]),
            ProcSet::from_indices([0, 1, 2]),
            6,
            GeneratorSpec::seeded_random(0),
        );
        let chain = |seed: u64| {
            let mut rng = SpecRng::new(seed);
            let mut spec = start.clone();
            let mut out = Vec::new();
            for _ in 0..100 {
                spec = m.mutate(&spec, &mut rng);
                spec.build(u(5), 7).take_schedule(64);
                out.push(spec.clone());
            }
            out
        };
        assert_eq!(chain(99), chain(99));
        assert_ne!(chain(99), chain(100));
    }

    /// Decorator stacking is capped, and unstack inverts stack.
    #[test]
    fn stacking_is_capped_and_unstack_strips() {
        let m = SpecMutator::new(u(4));
        let mut rng = SpecRng::new(1);
        let mut spec = GeneratorSpec::round_robin();
        for _ in 0..500 {
            spec = m.mutate(&spec, &mut rng);
            assert!(decorator_depth(&spec) <= MAX_DECORATOR_DEPTH + 1);
        }
        let wrapped = GeneratorSpec::gray_failure(
            GeneratorSpec::round_robin(),
            ProcSet::from_indices([1]),
            3,
        );
        assert_eq!(unstack(&wrapped), Some(GeneratorSpec::round_robin()));
        assert_eq!(unstack(&GeneratorSpec::round_robin()), None);
    }

    /// Subsets at the edge of the `ProcSet` width: n = 63 still draws
    /// `below(2^63)` (the pinned stream), n = 64 draws a whole word instead
    /// of overflowing the shift, and both reach the top process.
    #[test]
    fn subsets_at_the_procset_width_do_not_overflow() {
        for n in [63, 64] {
            let m = SpecMutator::new(u(n));
            let mut rng = SpecRng::new(n as u64);
            let mut reference = rng.clone();
            let mut seen = ProcSet::EMPTY;
            for _ in 0..64 {
                let word = reference.next_u64();
                let expected = if n == 64 { word } else { word % (1 << 63) };
                let subset = m.nonempty_subset(&mut rng);
                assert_eq!(subset.bits(), expected, "n = {n}");
                assert!(!subset.is_empty() && subset.iter().all(|p| p.index() < n));
                seen = seen.union(subset);
            }
            assert_eq!(seen.len(), n, "every process is drawn at n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds PROCSET_CAPACITY")]
    fn universes_wider_than_a_procset_are_rejected() {
        SpecMutator::new(u(65));
    }

    /// No single emitted crash plan silences the whole universe (stacked
    /// plans may union wider, but each layer leaves a survivor).
    #[test]
    fn crash_plans_leave_a_survivor() {
        fn check_plans(spec: &GeneratorSpec, n: usize) {
            match spec {
                GeneratorSpec::CrashAfter { inner, plan } => {
                    assert!(plan.faulty().len() < n, "plan silences everyone");
                    check_plans(inner, n);
                }
                GeneratorSpec::SetTimely { filler, .. }
                | GeneratorSpec::Flapping { filler, .. } => check_plans(filler, n),
                GeneratorSpec::GrayFailure { inner, .. }
                | GeneratorSpec::BurstClog { inner, .. }
                | GeneratorSpec::CrashRecovery { inner, .. } => check_plans(inner, n),
                GeneratorSpec::Eventually { prefix, body, .. } => {
                    check_plans(prefix, n);
                    check_plans(body, n);
                }
                _ => {}
            }
        }
        let m = SpecMutator::new(u(3));
        let mut rng = SpecRng::new(7);
        let mut spec = GeneratorSpec::round_robin();
        for _ in 0..300 {
            spec = m.mutate(&spec, &mut rng);
            check_plans(&spec, 3);
        }
    }
}
