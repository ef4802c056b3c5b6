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

use rand::distr::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use st_core::{ProcSet, ProcessId, StepSource, Universe, PROCSET_CAPACITY};
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
        leaf => {
            assert!(leaf.child().is_none(), "{} has a child", leaf.family());
            leaf.build(universe, seed)
        }
    }
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
