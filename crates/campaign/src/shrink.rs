//! Counterexample shrinking: delta-debugging a violating scenario down to
//! a minimal still-violating one.
//!
//! The oracle is exact re-execution: every candidate is re-run through
//! [`Scenario::run`] (checker always on) and accepted **iff the same
//! [`InvariantViolation`](crate::InvariantViolation) kind still fires** —
//! never merely "some violation", so a shrink can't walk from a
//! termination bug to an unrelated guarantee artifact. Two phases:
//!
//! 1. **Spec-level** (to fixpoint): drop decorator layers anywhere in the
//!    tree, halve the step budget, halve dwell/gap/window/stretch spans,
//!    and bisect the scenario seed toward 0.
//! 2. **Schedule-level**: the recorded counterexample [`Schedule`] is
//!    re-executed through a [`GeneratorSpec::Replay`] wrapper (which
//!    inherits the original spec's armed claims), then ddmin-style chunk
//!    removal and per-process subsequence removal grind it down,
//!    re-running the checker after every candidate.
//!
//! Everything is deterministic — candidate order is fixed and the oracle
//! is a deterministic re-run — so a shrink is reproducible from the
//! original finding alone. The `accepted` trail in the report exists for
//! the property test that every accepted candidate still violates the
//! original kind.

use st_core::Schedule;
use st_sched::GeneratorSpec;

use crate::scenario::{Scenario, ScenarioOutcome};

/// What a shrink produced.
#[derive(Clone, Debug)]
pub struct ShrinkReport {
    /// The minimal still-violating scenario (a `Replay` when the schedule
    /// phase ran).
    pub scenario: Scenario,
    /// Its outcome (the violation still present).
    pub outcome: ScenarioOutcome,
    /// The preserved violation kind.
    pub kind: &'static str,
    /// Counterexample length before shrinking.
    pub original_len: usize,
    /// Counterexample length after (0 when even the empty schedule
    /// violates).
    pub shrunk_len: usize,
    /// Accepted spec-level shrink steps.
    pub spec_steps: usize,
    /// Accepted schedule-level shrink steps.
    pub schedule_steps: usize,
    /// Total oracle re-runs spent.
    pub runs: usize,
    /// Every accepted candidate, in acceptance order (each still violates
    /// `kind`; property-tested).
    pub accepted: Vec<Scenario>,
}

/// The deterministic delta-debugger. See the module docs.
#[derive(Default)]
pub struct Shrinker;

/// Oracle runs one [`Shrinker::shrink`] call may spend.
const MAX_RUNS: usize = 1024;

/// Rebuilds `s` with a new generator, recomputing the faulty set (layer
/// drops change it) while keeping label, workload, stop rule, budget, and
/// seed.
fn with_generator(s: &Scenario, generator: GeneratorSpec) -> Scenario {
    let mut c = Scenario::new(
        s.label.clone(),
        s.universe,
        generator,
        s.workload.clone(),
        s.budget,
        s.seed,
    );
    c.stop = s.stop;
    c
}

/// Every reduction `reduce` finds in `layer`'s pass-through child, each
/// with the layer kept around it (all of its other fields unchanged).
fn in_child(
    layer: &GeneratorSpec,
    reduce: fn(&GeneratorSpec) -> Vec<GeneratorSpec>,
) -> Vec<GeneratorSpec> {
    let Some(child) = layer.child() else {
        return Vec::new();
    };
    let rewrap = |reduced| {
        let mut layer = layer.clone();
        *layer.child_mut().expect("child() was Some") = reduced;
        layer
    };
    reduce(child).into_iter().map(rewrap).collect()
}

/// Every single-layer-drop variant of `spec`, outermost first: the layer
/// itself dropped, then each drop inside its child with the layer kept.
fn layer_drops(spec: &GeneratorSpec) -> Vec<GeneratorSpec> {
    let mut out: Vec<GeneratorSpec> = spec.child().cloned().into_iter().collect();
    out.extend(in_child(spec, layer_drops));
    out
}

/// One numeric span of a layer, borrowed for halving in place.
enum Span<'a> {
    /// A length (stretch, window, prefix): halves, never below 1.
    Count(&'a mut u64),
    /// The end of a range or outage that keeps its start: the distance
    /// from the start halves.
    From(u64, &'a mut u64),
}

impl Span<'_> {
    /// Halves the span; `false` when it was already minimal.
    fn halve(self) -> bool {
        let halved = match &self {
            Span::Count(v) => (**v / 2).max(1),
            Span::From(start, v) => start + v.saturating_sub(*start) / 2,
        };
        let (Span::Count(value) | Span::From(_, value)) = self;
        let shrunk = halved < *value;
        *value = halved;
        shrunk
    }
}

/// The spans of `spec`'s own layer (dwell/gap/window/stretch/prefix/outage),
/// in candidate order.
fn spans(spec: &mut GeneratorSpec) -> Vec<Span<'_>> {
    match spec {
        GeneratorSpec::Flapping {
            timely_dwell: timely,
            untimely_dwell: untimely,
            ..
        } => vec![
            Span::From(timely.0, &mut timely.1),
            Span::From(untimely.0, &mut untimely.1),
        ],
        GeneratorSpec::GrayFailure { stretch, .. } => vec![Span::Count(stretch)],
        GeneratorSpec::BurstClog { window, gap, .. } => {
            vec![Span::Count(window), Span::From(gap.0, &mut gap.1)]
        }
        GeneratorSpec::CrashRecovery { crash, rejoin, .. } => vec![Span::From(*crash, rejoin)],
        GeneratorSpec::Eventually { prefix_len, .. } => vec![Span::Count(prefix_len)],
        _ => Vec::new(),
    }
}

/// Halved numeric spans anywhere in the tree, one change per candidate:
/// this layer's own spans first, then its child's with the layer kept.
fn span_halvings(spec: &GeneratorSpec) -> Vec<GeneratorSpec> {
    let mut out = Vec::new();
    for i in 0.. {
        let mut candidate = spec.clone();
        let halved = spans(&mut candidate).into_iter().nth(i).map(Span::halve);
        match halved {
            Some(true) => out.push(candidate),
            Some(false) => {}
            None => break,
        }
    }
    out.extend(in_child(spec, span_halvings));
    out
}

/// `schedule` without positions `start..end`.
fn remove_range(schedule: &Schedule, start: usize, end: usize) -> Schedule {
    schedule
        .iter()
        .enumerate()
        .filter(|(i, _)| *i < start || *i >= end)
        .map(|(_, p)| p)
        .collect()
}

impl Shrinker {
    /// A shrinker; each [`shrink`](Self::shrink) spends at most 1 024
    /// oracle runs.
    pub fn new() -> Self {
        Shrinker
    }

    /// Shrinks `(scenario, outcome)` to a minimal scenario still violating
    /// the outcome's first violation kind. Returns `None` when the outcome
    /// has no violation.
    pub fn shrink(&self, scenario: &Scenario, outcome: &ScenarioOutcome) -> Option<ShrinkReport> {
        let kind = outcome.violations.first()?.kind();
        let original_len = outcome.counterexample.as_ref().map_or(0, Schedule::len);
        let mut cur = scenario.clone();
        let mut cur_out = outcome.clone();
        let mut runs = 0usize;
        let mut spec_steps = 0usize;
        let mut schedule_steps = 0usize;
        let mut accepted: Vec<Scenario> = Vec::new();
        let try_accept = |cand: Scenario,
                          runs: &mut usize,
                          cur: &mut Scenario,
                          cur_out: &mut ScenarioOutcome,
                          accepted: &mut Vec<Scenario>|
         -> bool {
            *runs += 1;
            let out = cand.run();
            if out.violations.iter().any(|v| v.kind() == kind) {
                accepted.push(cand.clone());
                *cur = cand;
                *cur_out = out;
                true
            } else {
                false
            }
        };

        // Phase 1: spec-level, to fixpoint.
        loop {
            if runs >= MAX_RUNS {
                break;
            }
            let mut candidates: Vec<Scenario> = Vec::new();
            for g in layer_drops(&cur.generator) {
                candidates.push(with_generator(&cur, g));
            }
            if cur.budget > 0 {
                let mut halved = cur.clone();
                halved.budget /= 2;
                candidates.push(with_generator(&halved, cur.generator.clone()));
            }
            for g in span_halvings(&cur.generator) {
                candidates.push(with_generator(&cur, g));
            }
            if cur.seed > 0 {
                for seed in [0, cur.seed / 2] {
                    let mut reseeded = cur.clone();
                    reseeded.seed = seed;
                    candidates.push(with_generator(&reseeded, cur.generator.clone()));
                }
            }
            let mut advanced = false;
            for cand in candidates {
                if runs >= MAX_RUNS {
                    break;
                }
                if try_accept(cand, &mut runs, &mut cur, &mut cur_out, &mut accepted) {
                    spec_steps += 1;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
        }

        // Phase 2: schedule-level ddmin over the counterexample, replayed
        // with the current spec's claims still armed.
        if let Some(mut sched) = cur_out.counterexample.clone() {
            let of = match &cur.generator {
                GeneratorSpec::Replay { of, .. } => (**of).clone(),
                g => g.clone(),
            };
            let replay = |s: &Schedule, base: &Scenario| {
                let mut c = with_generator(base, GeneratorSpec::replay(of.clone(), s.clone()));
                c.budget = s.len() as u64;
                c
            };
            loop {
                let before = sched.len();
                // Chunk removal, coarse to fine.
                let mut granularity = 2usize;
                while !sched.is_empty() && runs < MAX_RUNS {
                    let chunk = sched.len().div_ceil(granularity);
                    let mut reduced = false;
                    let mut start = 0usize;
                    while start < sched.len() && runs < MAX_RUNS {
                        let end = (start + chunk).min(sched.len());
                        let cand_sched = remove_range(&sched, start, end);
                        let cand = replay(&cand_sched, &cur);
                        if try_accept(cand, &mut runs, &mut cur, &mut cur_out, &mut accepted) {
                            schedule_steps += 1;
                            sched = cand_sched;
                            reduced = true;
                            // Re-scan from the same offset at the same
                            // granularity: content shifted left.
                        } else {
                            start = end;
                        }
                    }
                    if !reduced {
                        if chunk <= 1 {
                            break;
                        }
                        granularity = (granularity * 2).min(sched.len().max(2));
                    }
                }
                // Per-process subsequence removal.
                for p in sched.participants().iter() {
                    if runs >= MAX_RUNS {
                        break;
                    }
                    let cand_sched: Schedule = sched.iter().filter(|&q| q != p).collect();
                    if cand_sched.len() == sched.len() {
                        continue;
                    }
                    let cand = replay(&cand_sched, &cur);
                    if try_accept(cand, &mut runs, &mut cur, &mut cur_out, &mut accepted) {
                        schedule_steps += 1;
                        sched = cand_sched;
                    }
                }
                if sched.len() == before || runs >= MAX_RUNS {
                    break;
                }
            }
        }

        let shrunk_len = cur_out.counterexample.as_ref().map_or(0, Schedule::len);
        Some(ShrinkReport {
            scenario: cur,
            outcome: cur_out,
            kind,
            original_len,
            shrunk_len,
            spec_steps,
            schedule_steps,
            runs,
            accepted,
        })
    }
}
