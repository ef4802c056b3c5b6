//! Every seeded schedule held to the code that first produced it.
//!
//! The goldens, the store fixture, the pinned fuzz sessions and the corpus
//! were all captured from generators that drew with `sample_below` (two
//! divisions per draw), scanned their weights linearly and decided a
//! let-through with a branch chain. PR 24 replaced the three on the hot
//! path — a held [`Uniform`], a ticket that indexes the member list, selects
//! in `lets_through` — and this file keeps the replaced code, verbatim and
//! test-only, as the oracle: the same draws in the same order, rejections
//! included, or a golden somewhere has silently changed meaning.
//!
//! Hand mutants this file fails on (each applied, seen red, reverted):
//! dropping the conditional subtract in `Uniform::reduce`; a reciprocal one
//! too large; the exact (not over-strict) rejection zone for a power-of-two
//! bound; reducing a bound that is not a power of two by mask (while
//! `reduce` had a mask path — it has one path now); starting `SetTimely`'s
//! injection rotation at 1. Run it after touching a generator or the `rand`
//! shim.
//!
//! The structured leaves (round-robin, bursty, cycle, alternating, rotating
//! starvation) are held the same way: their parent-commit bodies, which
//! wrapped every position with a `%`, are kept below as closures. And every
//! family's block pull (`StepSource::fill`) is held to its own step pull
//! (`next_step`), interleaved at random, through the trait object the fleet
//! drives pull through. Hand mutants the `fill` tests fail on: a `Bursty`
//! fill that does not end the dwell when it ends exactly at `want`; an
//! off-by-one wrap in the round-robin fill; a default `fill` that returns
//! `want` after its source ended; a `Box` impl that does not forward
//! `fill`.

use rand::distr::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use st_core::stepsource::FromFn;
use st_core::subsets::{binomial, wide_unrank};
use st_core::{
    ProcSet, ProcessId, Schedule, ScheduleCursor, StepSource, Universe, MAX_PROCESSES,
    PROCSET_CAPACITY,
};
use st_sched::{
    BurstClog, CrashAfter, CrashPlan, CrashRecovery, Eventually, GeneratorSpec, GrayFailure,
};

mod families;

/// The parent commit's `rand::sample_below`.
fn sample_below<G: Rng + ?Sized>(rng: &mut G, bound: u64) -> u64 {
    debug_assert!(bound > 0, "empty sampling range");
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

/// (a) The sampler against the `next_u64`-level reference. Equal generator
/// state afterwards means equal rejections, not just equal values.
#[test]
fn the_held_sampler_draws_what_sample_below_drew() {
    const DRAWS: usize = 10_000;
    let bounds = (1..=4096u64)
        .chain([(1 << 32) - 1, 1 << 32, (1 << 32) + 1])
        // Past 2^63 every other raw output is rejected.
        .chain([(1 << 63) - 1, 1 << 63, (1 << 63) + 1])
        .chain([u64::MAX - 1, u64::MAX]);
    for bound in bounds {
        let mut new = StdRng::seed_from_u64(bound.wrapping_mul(0x9E37_79B9));
        let mut old = new.clone();
        let uniform = Uniform::new(bound);
        for draw in 0..DRAWS {
            assert_eq!(
                uniform.sample(&mut new),
                sample_below(&mut old, bound),
                "bound {bound}, draw {draw}"
            );
        }
        assert_eq!(new, old, "bound {bound}: generator state");
    }
}

/// `random_range` is the same sampler behind the range types the workspace
/// draws from, offset by the range's start.
#[test]
fn random_range_draws_what_sample_below_drew() {
    for span in [1u64, 2, 3, 7, 64, 1000, (1 << 32) - 1] {
        let mut new = StdRng::seed_from_u64(span);
        let mut old = new.clone();
        for _ in 0..2_000 {
            let lo = 5 + span % 3;
            assert_eq!(
                new.random_range(lo..lo + span),
                lo + sample_below(&mut old, span)
            );
            let (lo, hi) = (lo as u32, (lo + span.min(1 << 31)) as u32);
            assert_eq!(
                new.random_range(lo..hi),
                lo + sample_below(&mut old, (hi - lo) as u64) as u32
            );
            let (lo, hi) = (lo as usize, hi as usize);
            assert_eq!(
                new.random_range(lo..hi),
                lo + sample_below(&mut old, (hi - lo) as u64) as usize
            );
        }
        assert_eq!(new, old, "span {span}: generator state");
    }
}

/// The parent commit's `SeededRandom`: a ticket below the total weight,
/// located by a linear scan of the weights — ones included.
struct ReferenceRandom {
    members: Vec<ProcessId>,
    weights: Vec<u32>,
    total_weight: u64,
    rng: StdRng,
}

impl ReferenceRandom {
    fn new(members: Vec<ProcessId>, weights: Option<&Vec<u32>>, seed: u64) -> Self {
        let weights = weights.cloned().unwrap_or_else(|| vec![1; members.len()]);
        assert_eq!(weights.len(), members.len());
        ReferenceRandom {
            total_weight: weights.iter().map(|&w| w as u64).sum(),
            members,
            weights,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl StepSource for ReferenceRandom {
    fn next_step(&mut self) -> Option<ProcessId> {
        let mut ticket = sample_below(&mut self.rng, self.total_weight);
        for (i, &w) in self.weights.iter().enumerate() {
            let w = w as u64;
            if ticket < w {
                return Some(self.members[i]);
            }
            ticket -= w;
        }
        unreachable!("ticket below total weight always lands")
    }
}

/// The parent commit's `set_timely::lets_through`.
fn lets_through(p: ProcSet, q: ProcSet, bound: usize, q_run: &mut usize, step: ProcessId) -> bool {
    if step.index() >= PROCSET_CAPACITY {
        return true;
    }
    if p.contains(step) {
        *q_run = 0;
    } else if q.contains(step) {
        if *q_run + 1 >= bound {
            return false;
        }
        *q_run += 1;
    }
    true
}

/// The parent commit's `SetTimely`, `p.to_vec()` per injection and all.
struct ReferenceSetTimely {
    p: ProcSet,
    q: ProcSet,
    bound: usize,
    filler: Box<dyn StepSource>,
    q_run: usize,
    next_inject: usize,
    pending: Option<ProcessId>,
    plan: CrashPlan,
    emitted: u64,
}

impl ReferenceSetTimely {
    fn live_injectable(&mut self) -> Option<ProcessId> {
        let members: Vec<ProcessId> = self.p.to_vec();
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

impl StepSource for ReferenceSetTimely {
    fn next_step(&mut self) -> Option<ProcessId> {
        let step = match self.pending.take() {
            Some(held) => held,
            None => self.filler.next_step()?,
        };
        let emit = if lets_through(self.p, self.q, self.bound, &mut self.q_run, step) {
            step
        } else {
            match self.live_injectable() {
                Some(injected) => {
                    self.pending = Some(step);
                    self.q_run = 0;
                    injected
                }
                None => step,
            }
        };
        self.emitted += 1;
        Some(emit)
    }
}

/// The parent commit's `FlappingTimely`, less its phase log (the log never
/// fed back into the stream).
struct ReferenceFlapping {
    p: ProcSet,
    q: ProcSet,
    bound: usize,
    filler: Box<dyn StepSource>,
    timely_dwell: (u64, u64),
    untimely_dwell: (u64, u64),
    rng: StdRng,
    enforcing: bool,
    remaining: u64,
    q_run: usize,
    next_inject: usize,
    pending: Option<ProcessId>,
}

fn draw(rng: &mut StdRng, (lo, hi): (u64, u64)) -> u64 {
    lo + sample_below(rng, hi - lo + 1)
}

impl StepSource for ReferenceFlapping {
    fn next_step(&mut self) -> Option<ProcessId> {
        if self.remaining == 0 {
            self.enforcing = !self.enforcing;
            self.remaining = draw(
                &mut self.rng,
                if self.enforcing {
                    self.timely_dwell
                } else {
                    self.untimely_dwell
                },
            );
            if self.enforcing {
                self.q_run = 0;
            }
        }
        let step = match self.pending.take() {
            Some(held) => held,
            None => self.filler.next_step()?,
        };
        let emit =
            if !self.enforcing || lets_through(self.p, self.q, self.bound, &mut self.q_run, step) {
                step
            } else {
                let members = self.p.to_vec();
                let injected = members[self.next_inject % members.len()];
                self.next_inject = (self.next_inject + 1) % members.len();
                self.pending = Some(step);
                self.q_run = 0;
                injected
            };
        self.remaining -= 1;
        Some(emit)
    }
}

/// `GeneratorSpec::build` with the three reference generators in place of
/// the production ones, recursively. The pass-through decorators are the
/// production types over a reference child (their own seeded draws go
/// through `random_range`, held above); a leaf with no child and no
/// generator of its own is the production build.
fn reference_build(spec: &GeneratorSpec, universe: Universe, seed: u64) -> Box<dyn StepSource> {
    let child = |spec: &GeneratorSpec| reference_build(spec, universe, seed);
    match spec {
        GeneratorSpec::SeededRandom {
            over,
            seed_offset,
            weights,
        } => {
            let members = match over {
                Some(set) => set.to_vec(),
                None => universe.processes().collect(),
            };
            let seed = seed.wrapping_add(*seed_offset);
            Box::new(ReferenceRandom::new(members, weights.as_ref(), seed))
        }
        GeneratorSpec::SetTimely {
            p,
            q,
            bound,
            filler,
            crashes,
        } => Box::new(ReferenceSetTimely {
            p: *p,
            q: *q,
            bound: *bound,
            filler: child(filler),
            q_run: 0,
            next_inject: 0,
            pending: None,
            plan: crashes.clone(),
            emitted: 0,
        }),
        GeneratorSpec::Flapping {
            p,
            q,
            bound,
            filler,
            timely_dwell,
            untimely_dwell,
            seed_offset,
        } => {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(*seed_offset));
            let remaining = draw(&mut rng, *timely_dwell);
            Box::new(ReferenceFlapping {
                p: *p,
                q: *q,
                bound: *bound,
                filler: child(filler),
                timely_dwell: *timely_dwell,
                untimely_dwell: *untimely_dwell,
                rng,
                enforcing: true,
                remaining,
                q_run: 0,
                next_inject: 0,
                pending: None,
            })
        }
        GeneratorSpec::Eventually {
            prefix,
            prefix_len,
            body,
        } => Box::new(Eventually::new(child(prefix), *prefix_len, child(body))),
        GeneratorSpec::CrashAfter { inner, plan } => {
            Box::new(CrashAfter::new(child(inner), plan.clone()))
        }
        GeneratorSpec::GrayFailure {
            inner,
            gray,
            stretch,
            seed_offset,
        } => Box::new(GrayFailure::new(
            child(inner),
            *gray,
            *stretch,
            seed.wrapping_add(*seed_offset),
        )),
        GeneratorSpec::BurstClog {
            inner,
            clogger,
            window,
            gap,
            seed_offset,
        } => Box::new(BurstClog::new(
            child(inner),
            *clogger,
            *window,
            *gap,
            seed.wrapping_add(*seed_offset),
        )),
        GeneratorSpec::CrashRecovery {
            inner,
            victim,
            crash,
            rejoin,
        } => Box::new(CrashRecovery::new(child(inner), *victim, *crash, *rejoin)),
        GeneratorSpec::RoundRobin { over } => {
            let members = over.map_or_else(|| universe.processes().collect(), |s| s.to_vec());
            Box::new(reference_cycle(members))
        }
        GeneratorSpec::Cycle { period } => Box::new(reference_cycle(period.as_slice().to_vec())),
        GeneratorSpec::Bursty { burst } => {
            let (members, burst): (Vec<ProcessId>, u64) = (universe.processes().collect(), *burst);
            let (mut pos, mut left) = (0, burst);
            Box::new(FromFn(move || {
                let p = members[pos];
                left -= 1;
                if left == 0 {
                    pos = (pos + 1) % members.len();
                    left = burst;
                }
                Some(p)
            }))
        }
        GeneratorSpec::AlternatingRotation { groups, base } => {
            let groups: Vec<Vec<ProcessId>> = groups.iter().map(|g| g.to_vec()).collect();
            let base = *base;
            let mut state: Vec<(usize, u64, u64)> = groups.iter().map(|_| (0, base, 0)).collect();
            let mut at_group = 0;
            Box::new(FromFn(move || {
                let g = at_group;
                at_group = (at_group + 1) % groups.len();
                let (rep, left, run) = &mut state[g];
                let p = groups[g][*rep];
                *left -= 1;
                if *left == 0 {
                    *rep = (*rep + 1) % groups[g].len();
                    *run += 1;
                    *left = base * (*run + 1);
                }
                Some(p)
            }))
        }
        GeneratorSpec::RotatingStarvation { k, base } => {
            let (k, base) = (*k, *base);
            let running = move |e: u64| -> Vec<ProcessId> {
                let rank = e % binomial(universe.n(), k);
                let starved = wide_unrank::<{ MAX_PROCESSES / 64 }>(universe, k, rank);
                universe
                    .processes()
                    .filter(|p| !starved.contains(*p))
                    .collect()
            };
            let (mut epoch, mut left, mut members, mut pos) = (0, base, running(0), 0);
            Box::new(FromFn(move || {
                if left == 0 {
                    epoch += 1;
                    left = base * (epoch + 1);
                    members = running(epoch);
                    pos = 0;
                }
                left -= 1;
                let p = members[pos];
                pos = (pos + 1) % members.len();
                Some(p)
            }))
        }
        leaf => {
            assert!(leaf.child().is_none(), "{} has a child", leaf.family());
            leaf.build(universe, seed)
        }
    }
}

/// The parent commit's `RoundRobin` and `Cycle`: `period` repeated, the
/// position wrapped by `%`.
fn reference_cycle(period: Vec<ProcessId>) -> impl StepSource {
    let mut pos = 0;
    FromFn(move || {
        let p = period[pos];
        pos = (pos + 1) % period.len();
        Some(p)
    })
}

/// The specs whose every step is a draw or a let-through decision, shaped
/// for a universe of `n ≥ 3`: what the E-tables and the fault grid build.
fn random_heavy_specs(n: usize) -> Vec<GeneratorSpec> {
    let set = |ix: &[usize]| ProcSet::from_indices(ix.iter().copied());
    let pid = ProcessId::new;
    let random = GeneratorSpec::seeded_random;
    let weighted = |over: Option<ProcSet>, weights: Vec<u32>| GeneratorSpec::SeededRandom {
        over,
        seed_offset: 3,
        weights: Some(weights),
    };
    // The E3 grid's shape: P the first k processes, Q the first t + 1.
    let t = (n - 1).min(4);
    let p: ProcSet = (0..t.div_ceil(2)).map(pid).collect();
    let q: ProcSet = (0..=t).map(pid).collect();
    let timely = || GeneratorSpec::set_timely(p, q, 2 * (t + 1), random(0));
    // A filler that never schedules P: an injection every other step.
    let hostile = || GeneratorSpec::RoundRobin {
        over: Some(set(&[2])),
    };
    vec![
        timely(),
        GeneratorSpec::set_timely(set(&[1]), set(&[0, 2]), 2, random(5)),
        // One weight silences its process; the ones-only vector takes the
        // unweighted path; a subset carries its own weight order.
        weighted(None, (0..n).map(|i| [2, 0, 1, 5][i % 4]).collect()),
        weighted(None, vec![1; n]),
        weighted(Some(set(&[0, 2])), vec![3, 1]),
        GeneratorSpec::set_timely(
            p,
            q,
            3,
            weighted(None, (0..n as u32).map(|i| 1 + i % 3).collect()),
        ),
        // A crash plan that kills one member of P: the rotation skips it,
        // over a random filler and over the hostile one.
        GeneratorSpec::set_timely(set(&[0, 1]), set(&[0, 1, 2]), 3, random(0))
            .crashed(CrashPlan::new().crash(pid(0), 500)),
        GeneratorSpec::SetTimely {
            p: set(&[0, 1]),
            q: set(&[2]),
            bound: 2,
            filler: Box::new(hostile()),
            crashes: CrashPlan::new().crash(pid(1), 301),
        },
        GeneratorSpec::set_timely(set(&[0, 1]), set(&[2]), 2, hostile()),
        GeneratorSpec::flapping(set(&[0, 1]), set(&[2]), 2, hostile(), (3, 9), (1, 4)),
        GeneratorSpec::flapping(p, q, 3, random(2), (10, 40), (5, 30)),
        GeneratorSpec::gray_failure(random(0), set(&[1]), 3),
        GeneratorSpec::burst_clog(random(0), pid(0), 5, (3, 9)),
        GeneratorSpec::crash_recovery(timely(), pid(2), 100, 900),
        GeneratorSpec::Eventually {
            prefix: Box::new(random(2)),
            prefix_len: 1_000,
            body: Box::new(timely()),
        },
    ]
}

/// (b) Every generator family, and the random-heavy shapes above, step for
/// step against the reference build.
#[test]
fn every_family_emits_the_stream_the_reference_emits() {
    const STEPS: usize = 20_000;
    for n in [3, 4, 5, 8, 12, 64, 130] {
        let universe = Universe::new(n).unwrap();
        let specs = families::one_spec_per_family()
            .into_iter()
            .chain(random_heavy_specs(n));
        for spec in specs {
            for seed in [0, 7, 0xDEAD_BEEF_u64] {
                let mut new = spec.build(universe, seed);
                let mut old = reference_build(&spec, universe, seed);
                for at in 0..STEPS {
                    let (a, b) = (new.next_step(), old.next_step());
                    assert_eq!(a, b, "{} at n = {n}, seed {seed}, step {at}", spec.family());
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}

/// The bursts and periods `fill` must not get wrong at their edges, for
/// every family: one step short of a dwell, a whole dwell, one step past
/// it; the same around a rotation of `n`; a fleet block.
fn edge_wants(n: usize, burst: usize) -> Vec<usize> {
    vec![0, 1, burst - 1, burst, burst + 1, n - 1, n, n + 1, 1 << 16]
}

/// Runs of one process that end inside, at and past the wants above, each
/// with its dwell.
fn bursty_specs(n: usize) -> Vec<(GeneratorSpec, usize)> {
    [1, 2, 3, n, n * n, 1 << 16, (1 << 16) + 3]
        .into_iter()
        .map(|burst| (GeneratorSpec::bursty(burst as u64), burst))
        .collect()
}

/// (c) Pulled a block at a time or a step at a time, through
/// `Box<dyn StepSource>`, every family emits one stream: `next_step` and
/// `fill(k)` interleaved at random, `k` drawn from the edge list, from small
/// counts and so that the fill ends one step short of, at or one step past
/// a dwell's end, against `next_step` alone. Each `fill` appends to what the
/// buffer already holds and reports how many it appended — short only when
/// a finite source ended.
#[test]
fn fill_and_next_step_give_the_same_stream() {
    const STEPS: usize = 200_000;
    // `families::one_spec_per_family`'s bursty dwell.
    const FAMILY_BURST: usize = 7;
    for n in [3, 8, 64, 130] {
        let universe = Universe::new(n).unwrap();
        let specs = families::one_spec_per_family()
            .into_iter()
            .chain(random_heavy_specs(n))
            .map(|spec| (spec, FAMILY_BURST))
            .chain(bursty_specs(n));
        for (ix, (spec, burst)) in specs.enumerate() {
            let seed = ix as u64;
            let mut reference = spec.build(universe, seed);
            let mut steps = Vec::new();
            while steps.len() < STEPS {
                match reference.next_step() {
                    Some(p) => steps.push(p),
                    None => break,
                }
            }
            let what = |at: usize| format!("{} at n = {n}, step {at}", spec.family());

            let wants = edge_wants(n, burst);
            let mut pick = StdRng::seed_from_u64(seed ^ n as u64);
            let mut src = spec.build(universe, seed);
            let mut out = Schedule::new();
            while out.len() < STEPS {
                let at = out.len();
                let left = steps.len() - at;
                match pick.random_range(0..5u32) {
                    0 => {
                        let p = src.next_step();
                        assert_eq!(p, steps.get(at).copied(), "{}", what(at));
                        match p {
                            Some(p) => out.push(p),
                            None => break,
                        }
                    }
                    draw => {
                        let k = match draw {
                            1 => pick.random_range(0..2 * n + 2),
                            // To one step short of, at and one step past the
                            // end of the dwell `at` is in (a bursty stream
                            // starts a dwell every `burst` steps).
                            2 => burst - at % burst + pick.random_range(0..3usize) - 1,
                            _ => wants[pick.random_range(0..wants.len())],
                        };
                        let got = src.fill(&mut out, k);
                        let expected = if steps.len() < STEPS { k.min(left) } else { k };
                        assert_eq!(got, expected, "fill({k}): {}", what(at));
                        assert_eq!(out.len(), at + got, "fill({k}): {}", what(at));
                        if got < k {
                            break;
                        }
                    }
                }
            }
            let n_out = out.len().min(steps.len());
            assert_eq!(&out.as_slice()[..n_out], &steps[..n_out], "{}", what(n_out));
            if steps.len() < STEPS {
                assert_eq!(out.len(), steps.len(), "{}", what(out.len()));
                assert_eq!(src.fill(&mut out, 5), 0, "{} after its end", spec.family());
            }
        }
    }
}

/// A finite source's `fill` reports the short count — and, once it has
/// ended, zero — on the default body, boxed or not.
#[test]
fn fill_from_a_finite_source_returns_the_short_count() {
    let schedule = Schedule::from_indices([2, 0, 1, 1]);
    let mut cursor: Box<dyn StepSource> = Box::new(ScheduleCursor::new(schedule.clone()));
    let mut out = Schedule::from_indices([9]);
    assert_eq!(cursor.fill(&mut out, 3), 3);
    assert_eq!(cursor.fill(&mut out, 3), 1);
    assert_eq!(cursor.fill(&mut out, 3), 0);
    assert_eq!(out, Schedule::from_indices([9]).concat(&schedule));

    let mut left = 5u32;
    let mut closure = FromFn(move || {
        left = left.checked_sub(1)?;
        Some(ProcessId::new(left as usize))
    });
    let mut out = Schedule::new();
    assert_eq!(closure.fill(&mut out, 0), 0);
    assert_eq!(closure.fill(&mut out, 1 << 16), 5);
    assert_eq!(closure.fill(&mut out, 1), 0);
    assert_eq!(out, Schedule::from_indices([4, 3, 2, 1, 0]));
    assert_eq!(
        ScheduleCursor::new(schedule.clone()).take_schedule(1 << 40),
        schedule
    );
}

/// Counts how it is pulled: a `fill` override that appends a run of p0.
#[derive(Default)]
struct Counting {
    steps: usize,
    fills: usize,
}

impl StepSource for Counting {
    fn next_step(&mut self) -> Option<ProcessId> {
        self.steps += 1;
        Some(ProcessId::new(0))
    }

    fn fill(&mut self, out: &mut Schedule, want: usize) -> usize {
        self.fills += 1;
        out.extend(std::iter::repeat_n(ProcessId::new(0), want));
        want
    }
}

/// `Box<S>` and `&mut S` forward `fill` to the source's own: a block pulled
/// through either (or `take_schedule` on either) reaches the override with
/// no `next_step` call. Nothing in the output tells a lost forwarding
/// apart; it only brings back a virtual call per step.
#[test]
fn box_and_mut_ref_forward_fill() {
    let mut out = Schedule::new();
    let mut boxed: Box<dyn StepSource> = Box::new(Counting::default());
    assert_eq!(boxed.fill(&mut out, 1 << 16), 1 << 16);
    assert_eq!(boxed.take_schedule(100).len(), 100);
    let mut inner = Counting::default();
    {
        let mut by_ref = &mut inner;
        assert_eq!(by_ref.fill(&mut out, 10), 10);
        assert_eq!((&mut by_ref).take_schedule(7).len(), 7);
        let mut boxed_ref: Box<&mut Counting> = Box::new(by_ref);
        assert_eq!(boxed_ref.fill(&mut out, 3), 3);
    }
    assert_eq!((inner.fills, inner.steps), (3, 0));
    assert_eq!(out.len(), (1 << 16) + 10 + 3);
    // The boxed one, looked at through a fresh pull: the count of fills.
    let mut probe = Box::new(Counting::default());
    let mut dyn_probe: &mut dyn StepSource = &mut *probe;
    dyn_probe.fill(&mut out, 1);
    (&mut dyn_probe).fill(&mut out, 1);
    assert_eq!((probe.fills, probe.steps), (2, 0));
}
