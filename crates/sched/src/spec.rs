//! Declarative generator specifications: every generator of this crate as
//! plain data.
//!
//! A [`GeneratorSpec`] describes a schedule generator without constructing
//! it — the construction happens in [`GeneratorSpec::build`], which closes
//! over a [`Universe`] and a *scenario seed* and returns a
//! `Box<dyn StepSource>`. That inversion is what makes scenario *grids*
//! possible: a campaign can hold a heterogeneous list of specs (round-robin
//! next to Figure 1 next to a crash-decorated `SetTimely`), clone them
//! across seed and crash axes, ship them to worker threads (`Spec` is
//! `Send + Sync`), and only materialize the stateful generator inside the
//! worker that runs the scenario.
//!
//! Seeding: specs never hold an absolute seed, only a `seed_offset`. At
//! build time the offset is added (wrapping) to the scenario seed, so one
//! spec reused across a seed axis produces the distinct-but-deterministic
//! filler streams the experiments use (`cfg.seed`, `cfg.seed + 1`, …).
//!
//! Crashes: [`GeneratorSpec::crashed`] applies a [`CrashPlan`] the way the
//! experiments do by hand — a [`SetTimely`] spec gets the plan both as its
//! injection filter and as a [`CrashAfter`] wrapper around its filler; any
//! other spec is wrapped in [`CrashAfter`] directly. [`GeneratorSpec::faulty`]
//! reports every process the spec silences, so outcome checking can derive
//! the correct set without re-deriving the plan.

use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, StepSource, SystemSpec, Universe};

use crate::alternating::{check_groups, AlternatingRotation};
use crate::basic::{
    check_burst, check_over, check_weights, BurstyRotation, RoundRobin, SeededRandom,
};
use crate::crashes::{CrashAfter, CrashPlan};
use crate::cycle::{check_period, Cycle};
use crate::faults::{
    check_clog, check_flapping, check_recovery, check_stretch, BurstClog, CrashRecovery,
    FlappingTimely, GrayFailure,
};
use crate::fictitious::{check_fictitious, FictitiousCrash};
use crate::figure1::{check_figure1, check_generalized, Figure1, GeneralizedFigure1};
use crate::set_timely::{check_enforced, Eventually, SetTimely};
use crate::starvation::{check_starvation, RotatingStarvation};

/// A schedule generator as declarative data. See the module docs for the
/// build/seed/crash conventions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GeneratorSpec {
    /// [`RoundRobin`] over the universe (`over: None`) or an explicit set.
    RoundRobin {
        /// Explicit member set; `None` means the whole universe.
        over: Option<ProcSet>,
    },
    /// [`BurstyRotation`]: round-robin over the whole universe where each
    /// process takes `burst` consecutive steps per turn. The schedule shape
    /// large-n lean workloads need — a dwell of a full O(n²) detector
    /// iteration per turn keeps the fleet's convergence cost linear in the
    /// rotation instead of interleaving scans step by step — and, unlike a
    /// materialized [`Cycle`], it serializes in O(1).
    Bursty {
        /// Consecutive steps each process takes per rotation turn.
        burst: u64,
    },
    /// [`SeededRandom`] with seed `scenario_seed + seed_offset`.
    SeededRandom {
        /// Explicit member set; `None` means the whole universe.
        over: Option<ProcSet>,
        /// Added (wrapping) to the scenario seed at build time.
        seed_offset: u64,
        /// Optional per-member weights (same order as the member list).
        weights: Option<Vec<u32>>,
    },
    /// [`SetTimely`]: `p` timely wrt `q` with `bound` over the filler spec.
    SetTimely {
        /// The enforced timely set.
        p: ProcSet,
        /// The observed set.
        q: ProcSet,
        /// The enforced bound.
        bound: usize,
        /// Adversarial filler, itself a spec.
        filler: Box<GeneratorSpec>,
        /// Crash plan consulted when injecting `P`-steps (empty = none).
        crashes: CrashPlan,
    },
    /// [`Eventually`]: a finite prefix spec, then the body spec.
    Eventually {
        /// The chaotic prefix.
        prefix: Box<GeneratorSpec>,
        /// Steps taken from the prefix before switching.
        prefix_len: u64,
        /// The eventual body.
        body: Box<GeneratorSpec>,
    },
    /// The literal [`Figure1`] schedule.
    Figure1 {
        /// First flapping process.
        p1: ProcessId,
        /// Second flapping process.
        p2: ProcessId,
        /// The observed process.
        q: ProcessId,
    },
    /// [`GeneralizedFigure1`]: `p` collectively timely wrt `q`.
    GeneralizedFigure1 {
        /// The collectively timely set.
        p: ProcSet,
        /// The observed set.
        q: ProcSet,
    },
    /// [`RotatingStarvation`] of every size-`k` subset.
    RotatingStarvation {
        /// The starved subset size.
        k: usize,
        /// Base epoch length.
        base: u64,
    },
    /// [`FictitiousCrash`] for system `S^i_{j,n}` against task `(t, k)`
    /// (`n` comes from the build universe).
    FictitiousCrash {
        /// System parameter `i`.
        i: usize,
        /// System parameter `j`.
        j: usize,
        /// Task resilience `t`.
        t: usize,
        /// Task agreement degree `k`.
        k: usize,
        /// Base epoch length.
        base: u64,
    },
    /// [`Cycle`]: infinite repetition of a finite schedule.
    Cycle {
        /// The repeated period.
        period: Schedule,
    },
    /// [`AlternatingRotation`] over a group partition.
    AlternatingRotation {
        /// The disjoint groups.
        groups: Vec<ProcSet>,
        /// Base representative-run length.
        base: u64,
    },
    /// [`CrashAfter`]: the inner spec with a crash plan applied.
    CrashAfter {
        /// The wrapped spec.
        inner: Box<GeneratorSpec>,
        /// When each faulty process takes its last step.
        plan: CrashPlan,
    },
    /// [`FlappingTimely`]: `p` timely wrt `q` only during seeded timely
    /// dwells, alternating with unchecked untimely dwells.
    Flapping {
        /// The intermittently enforced timely set.
        p: ProcSet,
        /// The observed set.
        q: ProcSet,
        /// The bound enforced during timely dwells.
        bound: usize,
        /// Adversarial filler, itself a spec.
        filler: Box<GeneratorSpec>,
        /// Inclusive range of timely-phase lengths (emitted steps).
        timely_dwell: (u64, u64),
        /// Inclusive range of untimely-phase lengths (emitted steps).
        untimely_dwell: (u64, u64),
        /// Added (wrapping) to the scenario seed for the dwell RNG.
        seed_offset: u64,
    },
    /// [`GrayFailure`]: the gray processes' steps thinned to one in
    /// `stretch`, with seeded phases — slow but live.
    GrayFailure {
        /// The wrapped spec.
        inner: Box<GeneratorSpec>,
        /// The slow-but-live processes.
        gray: ProcSet,
        /// Dilation factor (1 = identity).
        stretch: u64,
        /// Added (wrapping) to the scenario seed for the phase RNG.
        seed_offset: u64,
    },
    /// [`BurstClog`]: one process monopolizes the schedule for fixed
    /// windows separated by seeded gaps.
    BurstClog {
        /// The wrapped spec.
        inner: Box<GeneratorSpec>,
        /// The monopolizing process.
        clogger: ProcessId,
        /// Burst length in emitted steps.
        window: u64,
        /// Inclusive range of gap lengths between bursts.
        gap: (u64, u64),
        /// Added (wrapping) to the scenario seed for the gap RNG.
        seed_offset: u64,
    },
    /// [`CrashRecovery`]: the victim silent at emitted positions
    /// `[crash, rejoin)`, then back — and therefore *not* faulty.
    CrashRecovery {
        /// The wrapped spec.
        inner: Box<GeneratorSpec>,
        /// The process that crashes and rejoins.
        victim: ProcessId,
        /// First silent position.
        crash: u64,
        /// First position the victim may step at again.
        rejoin: u64,
    },
    /// A [`ScheduleCursor`] replay of a fixed finite schedule, carrying the
    /// spec whose run produced it. The carried spec is never built — it
    /// exists so the replay inherits the original's constructive claims
    /// (root guarantee, crash windows, faulty set), which is what lets the
    /// shrinker and `stlab --replay` re-arm the same invariants on a
    /// truncated schedule. The source ends after the last step.
    Replay {
        /// The spec whose constructive claims this replay inherits.
        of: Box<GeneratorSpec>,
        /// The replayed schedule.
        schedule: Schedule,
    },
}

impl GeneratorSpec {
    /// Round-robin over the full universe.
    pub fn round_robin() -> Self {
        GeneratorSpec::RoundRobin { over: None }
    }

    /// Bursty rotation over the full universe: `burst` consecutive steps
    /// per process per turn.
    pub fn bursty(burst: u64) -> Self {
        GeneratorSpec::Bursty { burst }
    }

    /// Uniform seeded-random over the full universe, at the given offset
    /// from the scenario seed.
    pub fn seeded_random(seed_offset: u64) -> Self {
        GeneratorSpec::SeededRandom {
            over: None,
            seed_offset,
            weights: None,
        }
    }

    /// `SetTimely` with the given guarantee over a filler spec.
    pub fn set_timely(p: ProcSet, q: ProcSet, bound: usize, filler: GeneratorSpec) -> Self {
        GeneratorSpec::SetTimely {
            p,
            q,
            bound,
            filler: Box::new(filler),
            crashes: CrashPlan::new(),
        }
    }

    /// `FlappingTimely` with the given intermittent guarantee over a filler
    /// spec (dwell RNG at offset 0 from the scenario seed).
    pub fn flapping(
        p: ProcSet,
        q: ProcSet,
        bound: usize,
        filler: GeneratorSpec,
        timely_dwell: (u64, u64),
        untimely_dwell: (u64, u64),
    ) -> Self {
        GeneratorSpec::Flapping {
            p,
            q,
            bound,
            filler: Box::new(filler),
            timely_dwell,
            untimely_dwell,
            seed_offset: 0,
        }
    }

    /// `GrayFailure` over an inner spec (phase RNG at offset 0).
    pub fn gray_failure(inner: GeneratorSpec, gray: ProcSet, stretch: u64) -> Self {
        GeneratorSpec::GrayFailure {
            inner: Box::new(inner),
            gray,
            stretch,
            seed_offset: 0,
        }
    }

    /// `BurstClog` over an inner spec (gap RNG at offset 0).
    pub fn burst_clog(
        inner: GeneratorSpec,
        clogger: ProcessId,
        window: u64,
        gap: (u64, u64),
    ) -> Self {
        GeneratorSpec::BurstClog {
            inner: Box::new(inner),
            clogger,
            window,
            gap,
            seed_offset: 0,
        }
    }

    /// `CrashRecovery` over an inner spec.
    pub fn crash_recovery(
        inner: GeneratorSpec,
        victim: ProcessId,
        crash: u64,
        rejoin: u64,
    ) -> Self {
        GeneratorSpec::CrashRecovery {
            inner: Box::new(inner),
            victim,
            crash,
            rejoin,
        }
    }

    /// A replay of `schedule` inheriting the constructive claims of `of`
    /// (the spec whose run produced the schedule). Replaying a replay
    /// reuses the original carried spec instead of nesting.
    pub fn replay(of: GeneratorSpec, schedule: Schedule) -> Self {
        let of = match of {
            GeneratorSpec::Replay { of, .. } => of,
            other => Box::new(other),
        };
        GeneratorSpec::Replay { of, schedule }
    }

    /// Applies a crash plan the way the experiments do by hand: a
    /// [`SetTimely`] spec keeps injecting only live `P`-members **and** has
    /// its filler crash-filtered; every other spec is wrapped in
    /// [`CrashAfter`]. An empty plan returns the spec unchanged.
    pub fn crashed(self, plan: CrashPlan) -> Self {
        if plan.is_empty() {
            return self;
        }
        match self {
            GeneratorSpec::SetTimely {
                p,
                q,
                bound,
                filler,
                crashes,
            } => {
                debug_assert!(crashes.is_empty(), "crash plan already applied");
                GeneratorSpec::SetTimely {
                    p,
                    q,
                    bound,
                    filler: Box::new(GeneratorSpec::CrashAfter {
                        inner: filler,
                        plan: plan.clone(),
                    }),
                    crashes: plan,
                }
            }
            other => GeneratorSpec::CrashAfter {
                inner: Box::new(other),
                plan,
            },
        }
    }

    /// Every process this spec silences — crash-plan victims plus the
    /// fictitious pre-crashed set. The scenario's correct set is the
    /// complement.
    pub fn faulty(&self, universe: Universe) -> ProcSet {
        match self {
            GeneratorSpec::RoundRobin { .. }
            | GeneratorSpec::Bursty { .. }
            | GeneratorSpec::SeededRandom { .. }
            | GeneratorSpec::Figure1 { .. }
            | GeneratorSpec::GeneralizedFigure1 { .. }
            | GeneratorSpec::RotatingStarvation { .. }
            | GeneratorSpec::Cycle { .. }
            | GeneratorSpec::AlternatingRotation { .. } => ProcSet::EMPTY,
            GeneratorSpec::SetTimely {
                filler, crashes, ..
            } => crashes.faulty().union(filler.faulty(universe)),
            GeneratorSpec::Eventually { prefix, body, .. } => {
                // A prefix crash only holds for finitely many steps; the
                // body decides who is faulty in the limit.
                let _ = prefix;
                body.faulty(universe)
            }
            GeneratorSpec::FictitiousCrash { i, j, .. } => {
                // The last j − i processes never step (see `FictitiousCrash`).
                let n = universe.n();
                ((n - (j - i))..n).map(ProcessId::new).collect()
            }
            GeneratorSpec::CrashAfter { inner, plan } => {
                plan.faulty().union(inner.faulty(universe))
            }
            // Fault decorators silence nobody forever: flapping only relaxes
            // enforcement, gray processes stay live, the clogger adds steps,
            // and a crash-recovery victim rejoins.
            GeneratorSpec::Flapping { filler, .. } => filler.faulty(universe),
            GeneratorSpec::GrayFailure { inner, .. }
            | GeneratorSpec::BurstClog { inner, .. }
            | GeneratorSpec::CrashRecovery { inner, .. } => inner.faulty(universe),
            // A replay silences exactly what the replayed spec silenced.
            GeneratorSpec::Replay { of, .. } => of.faulty(universe),
        }
    }

    /// The one spec a decorator passes steps through: the `filler` of
    /// `SetTimely`/`Flapping`, the `body` of `Eventually`, the `inner` of
    /// `CrashAfter`/`GrayFailure`/`BurstClog`/`CrashRecovery`. `None` for
    /// leaves and for `Replay`, whose carried spec is never built. Walks
    /// over the decorator stack (shrinker, mutator, coverage fingerprint)
    /// recurse through this instead of re-listing every variant.
    pub fn child(&self) -> Option<&GeneratorSpec> {
        match self {
            GeneratorSpec::SetTimely { filler, .. } | GeneratorSpec::Flapping { filler, .. } => {
                Some(filler)
            }
            GeneratorSpec::Eventually { body, .. } => Some(body),
            GeneratorSpec::CrashAfter { inner, .. }
            | GeneratorSpec::GrayFailure { inner, .. }
            | GeneratorSpec::BurstClog { inner, .. }
            | GeneratorSpec::CrashRecovery { inner, .. } => Some(inner),
            _ => None,
        }
    }

    /// [`child`](Self::child), mutably: `*spec.child_mut()? = reduced`
    /// swaps the wrapped spec and keeps every other field of the layer.
    pub fn child_mut(&mut self) -> Option<&mut GeneratorSpec> {
        match self {
            GeneratorSpec::SetTimely { filler, .. } | GeneratorSpec::Flapping { filler, .. } => {
                Some(filler)
            }
            GeneratorSpec::Eventually { body, .. } => Some(body),
            GeneratorSpec::CrashAfter { inner, .. }
            | GeneratorSpec::GrayFailure { inner, .. }
            | GeneratorSpec::BurstClog { inner, .. }
            | GeneratorSpec::CrashRecovery { inner, .. } => Some(inner),
            _ => None,
        }
    }

    /// Short family name for tables and labels.
    pub fn family(&self) -> &'static str {
        match self {
            GeneratorSpec::RoundRobin { .. } => "RoundRobin",
            GeneratorSpec::Bursty { .. } => "Bursty",
            GeneratorSpec::SeededRandom { .. } => "SeededRandom",
            GeneratorSpec::SetTimely { .. } => "SetTimely",
            GeneratorSpec::Eventually { .. } => "Eventually",
            GeneratorSpec::Figure1 { .. } => "Figure1",
            GeneratorSpec::GeneralizedFigure1 { .. } => "GeneralizedFigure1",
            GeneratorSpec::RotatingStarvation { .. } => "RotatingStarvation",
            GeneratorSpec::FictitiousCrash { .. } => "FictitiousCrash",
            GeneratorSpec::Cycle { .. } => "Cycle",
            GeneratorSpec::AlternatingRotation { .. } => "AlternatingRotation",
            GeneratorSpec::CrashAfter { .. } => "CrashAfter",
            GeneratorSpec::Flapping { .. } => "Flapping",
            GeneratorSpec::GrayFailure { .. } => "GrayFailure",
            GeneratorSpec::BurstClog { .. } => "BurstClog",
            GeneratorSpec::CrashRecovery { .. } => "CrashRecovery",
            GeneratorSpec::Replay { .. } => "Replay",
        }
    }

    /// Holds the spec to what [`build`](Self::build) needs over
    /// `universe`, refusing the first breach with its field path
    /// (`field "filler": field "bound": …`). Every built spec is walked —
    /// `filler`, `prefix`, `body`, `inner` — but never a replay's carried
    /// spec, which is not built. Each family is held to the check its own
    /// constructor asserts through, so the two cannot drift:
    ///
    /// - `RoundRobin` / `SeededRandom` over an explicit set: a member;
    ///   `weights`: one per member, not all zero; `Bursty`: `burst ≥ 1`;
    /// - `SetTimely`: `p` non-empty, `bound ≥ 1`, and `bound = 1` only
    ///   with `q ⊆ p`; `Flapping`: the same, and both dwell ranges inside
    ///   `1 ≤ lo ≤ hi`;
    /// - `GrayFailure`: `stretch ≥ 1`; `BurstClog`: `window ≥ 1` and a gap
    ///   range inside `1 ≤ lo ≤ hi`; `CrashRecovery`: `crash ≤ rejoin`;
    /// - `Figure1`: three distinct processes, each one a [`ProcSet`] can
    ///   hold; `GeneralizedFigure1`: non-empty, disjoint `p` and `q`;
    /// - `RotatingStarvation`: `1 ≤ k < n`, `base ≥ 1`;
    /// - `FictitiousCrash`: `1 ≤ i ≤ j ≤ n`, `1 ≤ k ≤ t ≤ n − 1`, `i ≤ k`,
    ///   the unsolvable side `j − i < t + 1 − k` (Theorem 27), `base ≥ 1`,
    ///   and no fictitious process past the [`ProcSet`] capacity;
    /// - `Cycle`: a non-empty period; `AlternatingRotation`: at least one
    ///   group, each non-empty, pairwise disjoint, `base ≥ 1`
    ///
    /// — and every process or set member a built spec names — a set, a
    /// process, a crash-plan victim, a period's or a replayed schedule's
    /// step — inside the universe. `Ok` allocates nothing.
    pub fn validate(&self, universe: Universe) -> Result<(), String> {
        use GeneratorSpec as G;
        let n = universe.n();
        let members = |field: &str, set: ProcSet| inside(field, set.max(), n);
        match self {
            G::RoundRobin { over: None } => {}
            G::RoundRobin { over: Some(over) } => {
                check_over("round robin", *over)?;
                members("over", *over)?;
            }
            G::Bursty { burst } => check_burst(*burst)?,
            G::SeededRandom { over, weights, .. } => {
                if let Some(over) = over {
                    check_over("random source", *over)?;
                    members("over", *over)?;
                }
                if let Some(weights) = weights {
                    check_weights(over.map_or(n, ProcSet::len), weights)?;
                }
            }
            G::SetTimely {
                p,
                q,
                bound,
                crashes,
                ..
            } => {
                check_enforced(*p, *q, *bound)?;
                members("p", *p)?;
                members("q", *q)?;
                inside("crashes", victims(crashes), n)?;
            }
            G::Eventually { prefix, .. } => nested(universe, "prefix", prefix)?,
            G::Figure1 { p1, p2, q } => {
                check_figure1(*p1, *p2, *q)?;
                inside("p1", [*p1], n)?;
                inside("p2", [*p2], n)?;
                inside("q", [*q], n)?;
            }
            G::GeneralizedFigure1 { p, q } => {
                check_generalized(*p, *q)?;
                members("p", *p)?;
                members("q", *q)?;
            }
            G::RotatingStarvation { k, base } => check_starvation(n, *k, *base)?,
            G::FictitiousCrash { i, j, t, k, base } => check_fictitious(*i, *j, n, *t, *k, *base)?,
            G::Cycle { period } => {
                check_period(period)?;
                inside("period", period.as_slice().iter().copied(), n)?;
            }
            G::AlternatingRotation { groups, base } => {
                check_groups(groups, *base)?;
                inside("groups", groups.iter().filter_map(|g| ProcSet::max(*g)), n)?;
            }
            G::CrashAfter { plan, .. } => inside("plan", victims(plan), n)?,
            G::Flapping {
                p,
                q,
                bound,
                timely_dwell,
                untimely_dwell,
                ..
            } => {
                check_flapping(*p, *q, *bound, *timely_dwell, *untimely_dwell)?;
                members("p", *p)?;
                members("q", *q)?;
            }
            G::GrayFailure { gray, stretch, .. } => {
                check_stretch(*stretch)?;
                members("gray", *gray)?;
            }
            G::BurstClog {
                clogger,
                window,
                gap,
                ..
            } => {
                check_clog(*window, *gap)?;
                inside("clogger", [*clogger], n)?;
            }
            G::CrashRecovery {
                victim,
                crash,
                rejoin,
                ..
            } => {
                check_recovery(*crash, *rejoin)?;
                inside("victim", [*victim], n)?;
            }
            G::Replay { schedule, .. } => {
                inside("schedule", schedule.as_slice().iter().copied(), n)?
            }
        }
        // The spec built beneath this one, if any.
        let field = match self {
            G::SetTimely { .. } | G::Flapping { .. } => "filler",
            G::Eventually { .. } => "body",
            _ => "inner",
        };
        self.child()
            .map_or(Ok(()), |child| nested(universe, field, child))
    }

    /// Materializes the generator for `universe`, offsetting every embedded
    /// seed by `seed` (wrapping).
    ///
    /// # Panics
    ///
    /// Panics when the described generator's own constructor would — where
    /// [`validate`](Self::validate) refuses the spec. Specs are built
    /// eagerly at campaign construction in tests, so these fire where the
    /// grid is defined; a spec from the wire is validated when it is
    /// decoded, so none fires inside a worker.
    pub fn build(&self, universe: Universe, seed: u64) -> Box<dyn StepSource> {
        match self {
            GeneratorSpec::RoundRobin { over } => match over {
                Some(set) => Box::new(RoundRobin::over(*set)),
                None => Box::new(RoundRobin::new(universe)),
            },
            GeneratorSpec::Bursty { burst } => Box::new(BurstyRotation::new(universe, *burst)),
            GeneratorSpec::SeededRandom {
                over,
                seed_offset,
                weights,
            } => {
                let s = seed.wrapping_add(*seed_offset);
                let src = match over {
                    Some(set) => SeededRandom::over(*set, s),
                    None => SeededRandom::new(universe, s),
                };
                match weights {
                    Some(w) => Box::new(src.with_weights(w.clone())),
                    None => Box::new(src),
                }
            }
            GeneratorSpec::SetTimely {
                p,
                q,
                bound,
                filler,
                crashes,
            } => Box::new(
                SetTimely::new(*p, *q, *bound, filler.build(universe, seed))
                    .with_crashes(crashes.clone()),
            ),
            GeneratorSpec::Eventually {
                prefix,
                prefix_len,
                body,
            } => Box::new(Eventually::new(
                prefix.build(universe, seed),
                *prefix_len,
                body.build(universe, seed),
            )),
            GeneratorSpec::Figure1 { p1, p2, q } => Box::new(Figure1::new(*p1, *p2, *q)),
            GeneratorSpec::GeneralizedFigure1 { p, q } => Box::new(GeneralizedFigure1::new(*p, *q)),
            GeneratorSpec::RotatingStarvation { k, base } => {
                Box::new(RotatingStarvation::with_base(universe, *k, *base))
            }
            GeneratorSpec::FictitiousCrash { i, j, t, k, base } => {
                let spec = SystemSpec::new(*i, *j, universe.n())
                    .expect("FictitiousCrash spec parameters in range");
                Box::new(FictitiousCrash::with_base(spec, *t, *k, *base))
            }
            GeneratorSpec::Cycle { period } => Box::new(Cycle::new(period.clone())),
            GeneratorSpec::AlternatingRotation { groups, base } => {
                Box::new(AlternatingRotation::with_base(groups, *base))
            }
            GeneratorSpec::CrashAfter { inner, plan } => {
                Box::new(CrashAfter::new(inner.build(universe, seed), plan.clone()))
            }
            GeneratorSpec::Flapping {
                p,
                q,
                bound,
                filler,
                timely_dwell,
                untimely_dwell,
                seed_offset,
            } => Box::new(FlappingTimely::new(
                *p,
                *q,
                *bound,
                filler.build(universe, seed),
                *timely_dwell,
                *untimely_dwell,
                seed.wrapping_add(*seed_offset),
            )),
            GeneratorSpec::GrayFailure {
                inner,
                gray,
                stretch,
                seed_offset,
            } => Box::new(GrayFailure::new(
                inner.build(universe, seed),
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
                inner.build(universe, seed),
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
            } => Box::new(CrashRecovery::new(
                inner.build(universe, seed),
                *victim,
                *crash,
                *rejoin,
            )),
            GeneratorSpec::Replay { schedule, .. } => {
                Box::new(ScheduleCursor::new(schedule.clone()))
            }
        }
    }
}

/// `field "{field}"`: `child`'s refusal, one level down.
fn nested(universe: Universe, field: &str, child: &GeneratorSpec) -> Result<(), String> {
    child
        .validate(universe)
        .map_err(|e| format!("field \"{field}\": {e}"))
}

/// `field "{field}"`: the first of `names` outside the universe of `n`
/// processes, if any.
fn inside(field: &str, names: impl IntoIterator<Item = ProcessId>, n: usize) -> Result<(), String> {
    match names.into_iter().find(|p| p.index() >= n) {
        Some(p) => Err(format!(
            "field \"{field}\": names {p}, outside the {n} processes of the universe"
        )),
        None => Ok(()),
    }
}

/// The processes a crash plan silences.
fn victims(plan: &CrashPlan) -> impl Iterator<Item = ProcessId> + '_ {
    plan.entries().map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::timeliness::empirical_bound;

    fn u(n: usize) -> Universe {
        Universe::new(n).unwrap()
    }

    fn set(ix: &[usize]) -> ProcSet {
        ProcSet::from_indices(ix.iter().copied())
    }

    /// Every spec builds exactly the generator its hand-rolled twin builds.
    #[test]
    fn specs_match_hand_built_generators() {
        let n = 5;
        let len = 4_000;
        let cases: Vec<(GeneratorSpec, Schedule)> = vec![
            (
                GeneratorSpec::round_robin(),
                RoundRobin::new(u(n)).take_schedule(len),
            ),
            (
                GeneratorSpec::RoundRobin {
                    over: Some(set(&[1, 3])),
                },
                RoundRobin::over(set(&[1, 3])).take_schedule(len),
            ),
            (
                GeneratorSpec::seeded_random(3),
                SeededRandom::new(u(n), 42 + 3).take_schedule(len),
            ),
            (
                GeneratorSpec::SeededRandom {
                    over: Some(set(&[0, 2, 4])),
                    seed_offset: 0,
                    weights: Some(vec![1, 0, 2]),
                },
                SeededRandom::over(set(&[0, 2, 4]), 42)
                    .with_weights(vec![1, 0, 2])
                    .take_schedule(len),
            ),
            (
                GeneratorSpec::set_timely(
                    set(&[0]),
                    set(&[1, 2]),
                    3,
                    GeneratorSpec::seeded_random(0),
                ),
                SetTimely::new(set(&[0]), set(&[1, 2]), 3, SeededRandom::new(u(n), 42))
                    .take_schedule(len),
            ),
            (
                GeneratorSpec::Eventually {
                    prefix: Box::new(GeneratorSpec::RoundRobin {
                        over: Some(set(&[1])),
                    }),
                    prefix_len: 100,
                    body: Box::new(GeneratorSpec::round_robin()),
                },
                Eventually::new(RoundRobin::over(set(&[1])), 100, RoundRobin::new(u(n)))
                    .take_schedule(len),
            ),
            (
                GeneratorSpec::Figure1 {
                    p1: ProcessId::new(0),
                    p2: ProcessId::new(1),
                    q: ProcessId::new(2),
                },
                Figure1::new(ProcessId::new(0), ProcessId::new(1), ProcessId::new(2))
                    .take_schedule(len),
            ),
            (
                GeneratorSpec::GeneralizedFigure1 {
                    p: set(&[0, 1]),
                    q: set(&[2, 3]),
                },
                GeneralizedFigure1::new(set(&[0, 1]), set(&[2, 3])).take_schedule(len),
            ),
            (
                GeneratorSpec::RotatingStarvation { k: 2, base: 8 },
                RotatingStarvation::with_base(u(n), 2, 8).take_schedule(len),
            ),
            (
                GeneratorSpec::FictitiousCrash {
                    i: 2,
                    j: 3,
                    t: 3,
                    k: 2,
                    base: 8,
                },
                FictitiousCrash::with_base(SystemSpec::new(2, 3, n).unwrap(), 3, 2, 8)
                    .take_schedule(len),
            ),
            (
                GeneratorSpec::Cycle {
                    period: Schedule::from_indices([0, 1, 1]),
                },
                Cycle::new(Schedule::from_indices([0, 1, 1])).take_schedule(len),
            ),
            (
                GeneratorSpec::AlternatingRotation {
                    groups: vec![set(&[0, 1]), set(&[2, 3])],
                    base: 8,
                },
                AlternatingRotation::with_base(&[set(&[0, 1]), set(&[2, 3])], 8).take_schedule(len),
            ),
            (
                GeneratorSpec::Flapping {
                    p: set(&[0, 1]),
                    q: set(&[2, 3, 4]),
                    bound: 3,
                    filler: Box::new(GeneratorSpec::seeded_random(2)),
                    timely_dwell: (100, 300),
                    untimely_dwell: (50, 150),
                    seed_offset: 5,
                },
                FlappingTimely::new(
                    set(&[0, 1]),
                    set(&[2, 3, 4]),
                    3,
                    SeededRandom::new(u(n), 42 + 2),
                    (100, 300),
                    (50, 150),
                    42 + 5,
                )
                .take_schedule(len),
            ),
            (
                GeneratorSpec::GrayFailure {
                    inner: Box::new(GeneratorSpec::seeded_random(0)),
                    gray: set(&[1, 4]),
                    stretch: 4,
                    seed_offset: 9,
                },
                GrayFailure::new(SeededRandom::new(u(n), 42), set(&[1, 4]), 4, 42 + 9)
                    .take_schedule(len),
            ),
            (
                GeneratorSpec::burst_clog(
                    GeneratorSpec::round_robin(),
                    ProcessId::new(2),
                    16,
                    (30, 90),
                ),
                BurstClog::new(RoundRobin::new(u(n)), ProcessId::new(2), 16, (30, 90), 42)
                    .take_schedule(len),
            ),
            (
                GeneratorSpec::crash_recovery(
                    GeneratorSpec::seeded_random(1),
                    ProcessId::new(3),
                    200,
                    900,
                ),
                CrashRecovery::new(SeededRandom::new(u(n), 42 + 1), ProcessId::new(3), 200, 900)
                    .take_schedule(len),
            ),
        ];
        for (spec, expected) in cases {
            let got = spec.build(u(n), 42).take_schedule(len);
            assert_eq!(got, expected, "spec {spec:?} diverged");
        }
    }

    /// `crashed` on SetTimely reproduces the experiments' hand construction:
    /// crash-filtered filler plus live-member injection.
    #[test]
    fn crashed_set_timely_matches_hand_construction() {
        let n = 5;
        let p = set(&[0, 1]);
        let q = set(&[2, 3, 4]);
        let plan = CrashPlan::all_at(set(&[1, 4]), 500);
        let spec = GeneratorSpec::set_timely(p, q, 3, GeneratorSpec::seeded_random(1))
            .crashed(plan.clone());
        let hand = SetTimely::new(
            p,
            q,
            3,
            CrashAfter::new(SeededRandom::new(u(n), 8), plan.clone()),
        )
        .with_crashes(plan.clone());
        assert_eq!(
            spec.build(u(n), 7).take_schedule(6_000),
            { hand }.take_schedule(6_000)
        );
        assert_eq!(spec.faulty(u(n)), set(&[1, 4]));
        // The guarantee survives the crashes (p0 stays alive).
        let s = spec.build(u(n), 7).take_schedule(6_000);
        assert!(empirical_bound(&s.suffix(1_000), p, q) <= 3);
    }

    /// `crashed` on a non-SetTimely spec is a plain CrashAfter wrapper; an
    /// empty plan is the identity.
    #[test]
    fn crashed_wraps_and_empty_plan_is_identity() {
        let base = GeneratorSpec::round_robin();
        assert_eq!(base.clone().crashed(CrashPlan::new()), base);
        let plan = CrashPlan::new().crash(ProcessId::new(2), 10);
        let spec = base.crashed(plan.clone());
        assert_eq!(spec.family(), "CrashAfter");
        assert_eq!(spec.faulty(u(3)), set(&[2]));
        let s = spec.build(u(3), 0).take_schedule(1_000);
        assert_eq!(s.suffix(10).occurrences(ProcessId::new(2)), 0);
    }

    /// The fault decorators silence nobody by themselves: their faulty set
    /// is exactly their inner spec's, and `crashed` composes around them as
    /// a plain CrashAfter wrapper.
    #[test]
    fn fault_decorators_compose_with_faulty_and_crashed() {
        let n = 5;
        let inner_crashed =
            GeneratorSpec::seeded_random(0).crashed(CrashPlan::new().crash(ProcessId::new(4), 100));
        // Gray over a crash-wrapped inner: faulty passes through.
        let gray = GeneratorSpec::gray_failure(inner_crashed.clone(), set(&[1]), 3);
        assert_eq!(gray.faulty(u(n)), set(&[4]));
        // Crash-recovery victims are NOT faulty (they rejoin).
        let recov =
            GeneratorSpec::crash_recovery(GeneratorSpec::round_robin(), ProcessId::new(2), 10, 50);
        assert_eq!(recov.faulty(u(n)), ProcSet::EMPTY);
        // Flapping reports its filler's faulty set.
        let flap = GeneratorSpec::flapping(
            set(&[0]),
            set(&[1, 2]),
            2,
            inner_crashed,
            (10, 20),
            (10, 20),
        );
        assert_eq!(flap.faulty(u(n)), set(&[4]));
        // Clog adds steps and silences nobody.
        let clog =
            GeneratorSpec::burst_clog(GeneratorSpec::round_robin(), ProcessId::new(0), 8, (5, 9));
        assert_eq!(clog.faulty(u(n)), ProcSet::EMPTY);
        // `crashed` on a decorator wraps it (default arm) and the plan's
        // victims join the faulty set.
        let plan = CrashPlan::new().crash(ProcessId::new(3), 40);
        let crashed_clog = clog.crashed(plan);
        assert_eq!(crashed_clog.family(), "CrashAfter");
        assert_eq!(crashed_clog.faulty(u(n)), set(&[3]));
        let s = crashed_clog.build(u(n), 0).take_schedule(2_000);
        assert_eq!(s.suffix(40).occurrences(ProcessId::new(3)), 0);
    }

    /// FictitiousCrash reports its fictitious set as faulty.
    #[test]
    fn fictitious_faulty_set() {
        let spec = GeneratorSpec::FictitiousCrash {
            i: 1,
            j: 3,
            t: 4,
            k: 2,
            base: 8,
        };
        assert_eq!(spec.faulty(u(6)), set(&[4, 5]));
    }

    /// Replay builds a cursor over the carried schedule, inherits the
    /// carried spec's faulty set, and never nests.
    #[test]
    fn replay_replays_and_inherits() {
        let of =
            GeneratorSpec::round_robin().crashed(CrashPlan::new().crash(ProcessId::new(2), 10));
        let sched = Schedule::from_indices([0, 1, 0, 1]);
        let spec = GeneratorSpec::replay(of.clone(), sched.clone());
        assert_eq!(spec.family(), "Replay");
        assert_eq!(spec.faulty(u(3)), set(&[2]));
        // The cursor ends after the last step: the take is exactly `sched`.
        assert_eq!(spec.build(u(3), 9).take_schedule(100), sched);
        // Replaying a replay reuses the original carried spec.
        match GeneratorSpec::replay(spec, Schedule::from_indices([1])) {
            GeneratorSpec::Replay { of: inner, .. } => assert_eq!(*inner, of),
            other => panic!("expected Replay, got {other:?}"),
        }
    }

    /// `child` names the pass-through spec of every decorator and nothing
    /// else; `child_mut` swaps it in place.
    #[test]
    fn child_is_the_pass_through_spec() {
        let leaf = GeneratorSpec::seeded_random(1);
        let layers = [
            GeneratorSpec::set_timely(set(&[0]), set(&[1]), 2, leaf.clone()),
            GeneratorSpec::flapping(set(&[0]), set(&[1]), 2, leaf.clone(), (1, 2), (1, 2)),
            GeneratorSpec::Eventually {
                prefix: Box::new(GeneratorSpec::round_robin()),
                prefix_len: 4,
                body: Box::new(leaf.clone()),
            },
            leaf.clone()
                .crashed(CrashPlan::new().crash(ProcessId::new(1), 3)),
            GeneratorSpec::gray_failure(leaf.clone(), set(&[1]), 2),
            GeneratorSpec::burst_clog(leaf.clone(), ProcessId::new(0), 4, (1, 2)),
            GeneratorSpec::crash_recovery(leaf.clone(), ProcessId::new(0), 1, 2),
        ];
        for mut layer in layers {
            assert_eq!(layer.child(), Some(&leaf), "{}", layer.family());
            let before = layer.clone();
            *layer.child_mut().unwrap() = GeneratorSpec::round_robin();
            assert_eq!(layer.child(), Some(&GeneratorSpec::round_robin()));
            *layer.child_mut().unwrap() = leaf.clone();
            assert_eq!(layer, before, "only the child moved");
        }
        let mut replay = GeneratorSpec::replay(leaf.clone(), Schedule::from_indices([0]));
        assert_eq!(replay.child(), None);
        assert!(replay.child_mut().is_none());
        assert_eq!(GeneratorSpec::round_robin().child(), None);
    }

    /// Specs are Send + Sync: a grid can be shipped to worker threads.
    #[test]
    fn specs_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeneratorSpec>();
    }
}
