//! Differential tests: the batched engine — on
//! [`Sim::run_automata_replay_soa`] over a materialized schedule, and on
//! [`Sim::run_automata`], the one drive every fleet scenario runs, pulling
//! blocks from a generator — against the scalar fleet replay
//! ([`Sim::run_automata_replay`]) on identical schedules.
//!
//! Batching is only admissible if it is **observationally identical** to
//! the scalar replay: the same probe sequences at the same step indices,
//! the same decisions at the same steps, the same per-process op counts,
//! the same per-register access statistics, and the same final register
//! contents. This suite enforces that for every batching machine in the
//! workspace — `KAntiOmegaMachine`, `KSetAgreementMachine`,
//! `PaxosMachine`, and the first two again as the lean stack builds them
//! (`k = 1`, width `LEAN_WIDTH`) — across:
//!
//! - every schedule family the experiments use (round-robin, bursty,
//!   seeded-random, Figure 1, crash prefixes, `SetTimely`) **and all four
//!   fault decorators** (`Flapping`, `GrayFailure`, `BurstClog`,
//!   `CrashRecovery`), via [`GeneratorSpec::build`];
//! - proptest-driven *arbitrary* `GeneratorSpec` trees
//!   ([`SpecMutator::arbitrary`]), so no hand-picked family shields a
//!   divergence;
//! - slice lengths {1, 7, 64, 1024} of the engine's bucketed slices:
//!   degenerate scalar fallback, mixed pure/impure slices, and slices
//!   spanning many whole phases;
//! - large universes (lean stack at n = 256), where the batch paths
//!   actually win and the purity checks see long allotments;
//! - on [`Sim::run_automata`], E9's cells past one word and past n = 256:
//!   the wide fleet at `W = 4`, n = 256 and the lean fleet at n = 1024, on
//!   E9's dwells, whole iterations and phase ends included, and a dwell
//!   that crosses a phase end mid-dwell.
//!
//! The sims here run with [`StopWhen::Never`](st_sim::StopWhen::Never):
//! under a stop condition every drive steps one by one, so a stopped
//! comparison would not exercise the batching engine.

use proptest::prelude::*;
use st_agreement::{KSetAgreement, KSetAgreementMachine, LeanConsensus, Paxos, PaxosMachine};
use st_core::{ProcSet, ProcessId, Schedule, StepSource, Universe, Value};
use st_fd::{KAntiOmega, KAntiOmegaConfig, KAntiOmegaMachine, LeanOmega, TimeoutPolicy};
use st_sched::{Figure1, GeneratorSpec, SpecMutator, SpecRng};
use st_sim::{Automaton, RegisterStats, RunConfig, RunReport, Sim};

/// Which drive executes the schedule.
#[derive(Clone, Copy, Debug)]
enum Drive<'g> {
    /// The scalar reference, [`Sim::run_automata_replay`].
    Plain,
    /// The batching engine at this slice length, at any n,
    /// [`Sim::run_automata_replay_soa`].
    Soa(usize),
    /// [`Sim::run_automata`], pulling blocks from the generator the
    /// schedule was taken from.
    Fleet(&'g Generated),
}

impl Drive<'_> {
    /// Runs the whole of `schedule` over `fleet` on this drive.
    fn replay<A: Automaton>(self, sim: &mut Sim, fleet: &mut [A], schedule: &Schedule) {
        let cfg = RunConfig::steps(schedule.len() as u64);
        match self {
            Drive::Plain => sim.run_automata_replay(fleet, schedule, cfg),
            Drive::Soa(sl) => sim.run_automata_replay_soa(fleet, schedule, sl, cfg),
            Drive::Fleet(g) => {
                assert_eq!(&g.schedule, schedule, "the fleet drive's generator");
                let mut src = g.spec.build(sim.universe(), g.seed);
                sim.run_automata(fleet, &mut src, cfg)
            }
        }
        .unwrap();
    }
}

/// A generator's first `len` steps: the spec and seed a fleet drive pulls
/// from, and the schedule the replays are handed.
#[derive(Debug)]
struct Generated {
    spec: GeneratorSpec,
    seed: u64,
    schedule: Schedule,
}

impl Generated {
    fn new(spec: GeneratorSpec, n: usize, seed: u64, len: usize) -> Self {
        let schedule = from_spec(&spec, n, seed, len);
        Generated {
            spec,
            seed,
            schedule,
        }
    }
}

/// Slice lengths every identity check sweeps: scalar degenerate, short
/// mixed, a typical batch, and slices longer than most schedules.
const SLICE_LENS: [usize; 4] = [1, 7, 64, 1024];

fn inputs(n: usize) -> Vec<Value> {
    (0..n as Value).map(|v| 100 + 3 * v).collect()
}

fn round_robin(n: usize, len: usize) -> Schedule {
    Schedule::from_indices((0..len).map(|s| s % n))
}

fn from_spec(spec: &GeneratorSpec, n: usize, seed: u64, len: usize) -> Schedule {
    let u = Universe::new(n).unwrap();
    spec.build(u, seed).take_schedule(len)
}

/// What one run is observed through: its report, its per-register access
/// statistics, and the final register contents.
type Observation = (RunReport, Vec<RegisterStats>, Vec<String>);

/// The run's per-register access statistics, checked to be worth
/// comparing: an empty or all-zero list would make the comparison vacuous.
fn access_stats(sim: &Sim) -> Vec<RegisterStats> {
    let stats = sim.memory().stats();
    assert!(
        stats.iter().any(|s| s.reads > 0),
        "no register was ever read"
    );
    stats
}

/// Compares two observations, field by field.
fn assert_observations_eq(plain: &Observation, soa: &Observation, label: &str, drive: Drive<'_>) {
    assert_eq!(
        plain.0.steps, soa.0.steps,
        "{label}/{drive:?}: step counts diverged"
    );
    assert_eq!(
        plain.0.probes.events(),
        soa.0.probes.events(),
        "{label}/{drive:?}: probe sequences diverged"
    );
    assert_eq!(
        plain.0.decisions, soa.0.decisions,
        "{label}/{drive:?}: decisions diverged"
    );
    assert_eq!(
        plain.0.finished, soa.0.finished,
        "{label}/{drive:?}: completion flags diverged"
    );
    assert_eq!(
        plain.0.op_counts, soa.0.op_counts,
        "{label}/{drive:?}: per-process op counts diverged"
    );
    assert_eq!(
        plain.1, soa.1,
        "{label}/{drive:?}: register access statistics diverged"
    );
    assert_eq!(
        plain.2, soa.2,
        "{label}/{drive:?}: final register contents diverged"
    );
}

// ---------------------------------------------------------------------------
// Per-stack runners: build a fresh sim + fleet, run one drive, observe.
// ---------------------------------------------------------------------------

/// A Figure 2 fleet with process sets `W` words wide.
fn run_kanti<const W: usize>(
    n: usize,
    k: usize,
    t: usize,
    schedule: &Schedule,
    drive: Drive,
) -> Observation {
    let u = Universe::new(n).unwrap();
    let mut sim = Sim::new(u);
    let fd = KAntiOmega::<W>::alloc_wide(&mut sim, KAntiOmegaConfig::new(k, t));
    let mut fleet: Vec<KAntiOmegaMachine<W>> = u.processes().map(|_| fd.machine()).collect();
    drive.replay(&mut sim, &mut fleet, schedule);
    let mut regs = Vec::new();
    for p in u.processes() {
        regs.push(fd.peek_heartbeat(&sim, p).to_string());
    }
    for rank in 0..fd.set_count() {
        for q in u.processes() {
            regs.push(fd.peek_counter(&sim, rank, q).to_string());
        }
    }
    (sim.report(), access_stats(&sim), regs)
}

fn run_paxos_fleet(n: usize, schedule: &Schedule, drive: Drive) -> Observation {
    let u = Universe::new(n).unwrap();
    let mut sim = Sim::new(u);
    let paxos = Paxos::alloc(&mut sim, "px");
    let proposals = inputs(n);
    let mut fleet: Vec<PaxosMachine> = u
        .processes()
        .map(|p| paxos.machine(proposals[p.index()]))
        .collect();
    drive.replay(&mut sim, &mut fleet, schedule);
    let mut regs: Vec<String> = paxos
        .peek_records(&sim)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    regs.push(format!("{:?}", paxos.peek_decision(&sim)));
    (sim.report(), access_stats(&sim), regs)
}

fn run_kset_fleet(n: usize, k: usize, t: usize, schedule: &Schedule, drive: Drive) -> Observation {
    let u = Universe::new(n).unwrap();
    let mut sim = Sim::new(u);
    let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t));
    let kset = KSetAgreement::alloc(&mut sim, k);
    let proposals = inputs(n);
    let mut fleet: Vec<KSetAgreementMachine> = u
        .processes()
        .map(|p| kset.machine(&fd, proposals[p.index()]))
        .collect();
    drive.replay(&mut sim, &mut fleet, schedule);
    let mut regs = Vec::new();
    for p in u.processes() {
        regs.push(fd.peek_heartbeat(&sim, p).to_string());
    }
    for rank in 0..fd.set_count() {
        for q in u.processes() {
            regs.push(fd.peek_counter(&sim, rank, q).to_string());
        }
    }
    for instance in kset.instances() {
        for rec in instance.peek_records(&sim) {
            regs.push(format!("{rec:?}"));
        }
        regs.push(format!("{:?}", instance.peek_decision(&sim)));
    }
    (sim.report(), access_stats(&sim), regs)
}

fn run_lean_fd(n: usize, t: usize, schedule: &Schedule, drive: Drive) -> Observation {
    let u = Universe::new(n).unwrap();
    let mut sim = Sim::new(u);
    let fd = LeanOmega::alloc(&mut sim, t, TimeoutPolicy::Increment);
    let mut fleet: Vec<_> = u.processes().map(|_| fd.machine()).collect();
    drive.replay(&mut sim, &mut fleet, schedule);
    let det = fd.detector();
    let mut regs = Vec::new();
    for q in 0..n {
        regs.push(det.peek_heartbeat(&sim, ProcessId::new(q)).to_string());
    }
    // The n×n counter matrix in full at small n; a diagonal + edge sample
    // at large n (the full matrix comparison would dominate the test).
    if n <= 16 {
        for a in 0..n {
            for q in 0..n {
                regs.push(det.peek_counter(&sim, a, ProcessId::new(q)).to_string());
            }
        }
    } else {
        for i in 0..n {
            regs.push(det.peek_counter(&sim, i, ProcessId::new(i)).to_string());
            regs.push(det.peek_counter(&sim, i, ProcessId::new(0)).to_string());
            regs.push(det.peek_counter(&sim, 0, ProcessId::new(i)).to_string());
        }
    }
    (sim.report(), access_stats(&sim), regs)
}

fn run_lean_consensus(n: usize, t: usize, schedule: &Schedule, drive: Drive) -> Observation {
    let u = Universe::new(n).unwrap();
    let mut sim = Sim::new(u);
    let fd = LeanOmega::alloc(&mut sim, t, TimeoutPolicy::Increment);
    let cons = LeanConsensus::alloc(&mut sim);
    let proposals = inputs(n);
    let mut fleet: Vec<_> = u
        .processes()
        .map(|p| cons.machine(&fd, proposals[p.index()]))
        .collect();
    drive.replay(&mut sim, &mut fleet, schedule);
    let det = fd.detector();
    let mut regs = Vec::new();
    for q in 0..n {
        regs.push(det.peek_heartbeat(&sim, ProcessId::new(q)).to_string());
    }
    let instance = &cons.kset().instances()[0];
    for rec in instance.peek_records(&sim) {
        regs.push(format!("{rec:?}"));
    }
    regs.push(format!("{:?}", instance.peek_decision(&sim)));
    (sim.report(), access_stats(&sim), regs)
}

/// Runs `runner` under the plain drive and under the SoA drive at every
/// slice length, asserting observational identity each time.
fn assert_soa_identical<F>(label: &str, runner: F)
where
    F: Fn(Drive) -> Observation,
{
    let plain = runner(Drive::Plain);
    for sl in SLICE_LENS {
        let soa = runner(Drive::Soa(sl));
        assert_observations_eq(&plain, &soa, label, Drive::Soa(sl));
    }
}

// ---------------------------------------------------------------------------
// Named schedule families, including all four fault decorators.
// ---------------------------------------------------------------------------

/// The schedule families every stack is checked on: the base families of
/// `tests/differential.rs` plus a `SetTimely` guarantee and one of each
/// fault decorator wrapped around it.
fn family_schedules(n: usize, len: usize) -> Vec<(String, Schedule)> {
    let mut out = Vec::new();
    out.push(("round-robin".into(), round_robin(n, len)));
    let burst = 2 * n + 2;
    out.push((
        "bursty".into(),
        Schedule::from_indices((0..len).map(|s| (s / burst) % n)),
    ));
    out.push((
        "seeded-random".into(),
        from_spec(&GeneratorSpec::seeded_random(0), n, 0xDEAD, len),
    ));
    if n >= 3 {
        out.push((
            "figure1".into(),
            Figure1::new(ProcessId::new(0), ProcessId::new(1), ProcessId::new(2))
                .take_schedule(len),
        ));
    }
    // Crash: p0 stops being scheduled a third of the way in.
    let mut crash: Vec<usize> = (0..len / 3).map(|s| s % n).collect();
    crash.extend((0..2 * len / 3).map(|s| 1 + s % (n - 1)));
    out.push(("crash".into(), Schedule::from_indices(crash)));

    let p = ProcSet::from_iter([ProcessId::new(0)]);
    let q = ProcSet::from_iter((0..n).map(ProcessId::new));
    let timely = GeneratorSpec::set_timely(p, q, 3 * n, GeneratorSpec::seeded_random(7));
    out.push(("set-timely".into(), from_spec(&timely, n, 11, len)));
    out.push((
        "flapping".into(),
        from_spec(
            &GeneratorSpec::flapping(
                p,
                q,
                3 * n,
                GeneratorSpec::seeded_random(3),
                (200, 600),
                (100, 300),
            ),
            n,
            12,
            len,
        ),
    ));
    out.push((
        "gray-failure".into(),
        from_spec(
            &GeneratorSpec::gray_failure(timely.clone(), p, 4),
            n,
            13,
            len,
        ),
    ));
    out.push((
        "burst-clog".into(),
        from_spec(
            &GeneratorSpec::burst_clog(timely.clone(), ProcessId::new(n - 1), 64, (100, 400)),
            n,
            14,
            len,
        ),
    ));
    out.push((
        "crash-recovery".into(),
        from_spec(
            &GeneratorSpec::crash_recovery(
                timely,
                ProcessId::new(0),
                len as u64 / 4,
                len as u64 / 2,
            ),
            n,
            15,
            len,
        ),
    ));
    out
}

// ---------------------------------------------------------------------------
// Identity on every family, for every batching machine type.
// ---------------------------------------------------------------------------

#[test]
fn kanti_fleet_soa_identical_on_all_families() {
    for (name, sched) in family_schedules(4, 20_000) {
        assert_soa_identical(&format!("kanti n=4 {name}"), |d| {
            run_kanti::<1>(4, 2, 2, &sched, d)
        });
    }
}

#[test]
fn paxos_fleet_soa_identical_on_all_families() {
    for (name, sched) in family_schedules(5, 4_000) {
        assert_soa_identical(&format!("paxos n=5 {name}"), |d| {
            run_paxos_fleet(5, &sched, d)
        });
    }
}

#[test]
fn kset_fleet_soa_identical_on_all_families() {
    for (name, sched) in family_schedules(4, 30_000) {
        assert_soa_identical(&format!("kset n=4 {name}"), |d| {
            run_kset_fleet(4, 1, 2, &sched, d)
        });
    }
    // A second task shape: k = 2 on round-robin and seeded-random.
    for (name, sched) in family_schedules(4, 30_000).into_iter().take(3) {
        assert_soa_identical(&format!("kset k=2 n=4 {name}"), |d| {
            run_kset_fleet(4, 2, 3, &sched, d)
        });
    }
}

#[test]
fn lean_fd_soa_identical_on_all_families() {
    for (name, sched) in family_schedules(6, 20_000) {
        assert_soa_identical(&format!("lean-fd n=6 {name}"), |d| {
            run_lean_fd(6, 1, &sched, d)
        });
    }
}

#[test]
fn lean_consensus_soa_identical_on_all_families() {
    for (name, sched) in family_schedules(5, 20_000) {
        assert_soa_identical(&format!("lean-cons n=5 {name}"), |d| {
            run_lean_consensus(5, 1, &sched, d)
        });
    }
}

// ---------------------------------------------------------------------------
// Large n: the regime where the SoA batch paths actually engage.
// ---------------------------------------------------------------------------

/// One whole Figure 2 iteration plus one step at k = 1 (`n² + n + 2`,
/// E9's lean dwell): a bursty turn of this length finishes its counter
/// scan, so slices cross a phase end inside one process's dwell.
fn whole_iteration_dwells(n: usize, len: usize) -> Schedule {
    let dwell = n * n + n + 2;
    Schedule::from_indices((0..len).map(|s| (s / dwell) % n))
}

/// Lean FD identity at n = 256: allotments regularly sit inside the n²-step
/// counter scan, so the span-read batch path (not the scalar fallback) is
/// what executes most slices. The bursty dwells are whole iterations, so
/// six turns each finish a scan mid-dwell, where the dwell window must
/// stop: this case kills a `read_run` one step too long in the counter
/// scan (`ReadCounters`).
#[test]
fn lean_fd_soa_identical_at_n256() {
    let n = 256;
    for (name, sched) in [
        ("round-robin".to_string(), round_robin(n, 400_000)),
        (
            "seeded-random".into(),
            from_spec(&GeneratorSpec::seeded_random(0), n, 99, 400_000),
        ),
        ("bursty".into(), whole_iteration_dwells(n, 400_000)),
    ] {
        assert_soa_identical(&format!("lean-fd n=256 {name}"), |d| {
            run_lean_fd(n, 8, &sched, d)
        });
    }
}

/// Lean consensus identity at n = 256 (FD + decision scan + proposer core
/// hand-offs all crossing batch boundaries), on whole-iteration dwells as
/// above: it kills the same `read_run` mutant through the k-set machine's
/// FD phase.
#[test]
fn lean_consensus_soa_identical_at_n256() {
    let n = 256;
    let sched = whole_iteration_dwells(n, 400_000);
    assert_soa_identical("lean-cons n=256 bursty", |d| {
        run_lean_consensus(n, 8, &sched, d)
    });
}

/// The k-anti-Ω fleet at its ProcSet capacity boundary, n = 64, on
/// round-robin (a machine gets 3 125 of the 4 096 steps its first scan
/// needs) and on whole-iteration dwells, where 48 turns each finish a scan
/// mid-dwell: the dwells kill a `read_run` one step too long in the counter
/// scan.
#[test]
fn kanti_fleet_soa_identical_at_n64() {
    let n = 64;
    for (name, sched) in [
        ("rr", round_robin(n, 200_000)),
        ("bursty", whole_iteration_dwells(n, 200_000)),
    ] {
        assert_soa_identical(&format!("kanti n=64 {name}"), |d| {
            run_kanti::<1>(n, 1, 1, &sched, d)
        });
    }
}

// ---------------------------------------------------------------------------
// Large n on the one drive every fleet scenario runs, block-pulled from the
// generator: the cells of E9 past one word and past n = 256.
// ---------------------------------------------------------------------------

/// Runs `runner` on the scalar reference over `generated`'s schedule and on
/// [`Sim::run_automata`] pulling from its generator, asserting
/// observational identity.
fn assert_fleet_identical<F>(label: &str, generated: &Generated, runner: F)
where
    F: Fn(&Schedule, Drive<'_>) -> Observation,
{
    let schedule = &generated.schedule;
    let plain = runner(schedule, Drive::Plain);
    let fleet = Drive::Fleet(generated);
    assert_observations_eq(&plain, &runner(schedule, fleet), label, fleet);
}

/// The wide Figure 2 fleet past one word (`W = 4`, n = 256, k = 1, E9's
/// `t`): on a bursty dwell of exactly one accusation-free iteration
/// (`|Π¹_n|·n + 1 + n` steps, E9's wide dwell) across three dwell ends,
/// and on round-robin, where the engine takes round windows.
#[test]
fn wide_kanti_fleet_identical_at_n256() {
    let (n, k, t) = (256, 1, 16);
    let dwell = n * n + 1 + n;
    for (name, generated) in [
        (
            "bursty",
            Generated::new(GeneratorSpec::bursty(dwell as u64), n, 0, 3 * dwell + 4_096),
        ),
        (
            "round-robin",
            Generated::new(GeneratorSpec::round_robin(), n, 0, 300_000),
        ),
    ] {
        assert_fleet_identical(
            &format!("wide kanti W=4 n=256 {name}"),
            &generated,
            |s, d| run_kanti::<4>(n, k, t, s, d),
        );
    }
}

/// E9's lean dwell at n = 1024: one whole iteration plus one step
/// (`n² + n + 2`), across two dwell ends. Each turn finishes a counter
/// scan, publishes, writes its heartbeat, scans the heartbeats and starts
/// the next scan.
fn e9_lean_dwell_n1024() -> Generated {
    let n = 1024;
    let dwell = n * n + n + 2;
    Generated::new(GeneratorSpec::bursty(dwell as u64), n, 0, 2 * dwell + 4_096)
}

/// A lean FD fleet at n = 1024 on E9's lean dwell, and on dwells shorter
/// than a counter scan and a multiple of neither n nor 64, so that every
/// dwell end cuts a scan mid-row and the next turn resumes it.
#[test]
fn lean_fd_fleet_identical_at_n1024() {
    let n = 1024;
    let short = 5 * n + 37;
    for (name, generated) in [
        ("E9 dwell", e9_lean_dwell_n1024()),
        (
            "short dwells",
            Generated::new(GeneratorSpec::bursty(short as u64), n, 0, 5 * short),
        ),
    ] {
        assert_fleet_identical(&format!("lean-fd n=1024 {name}"), &generated, |s, d| {
            run_lean_fd(n, n / 16, s, d)
        });
    }
}

/// A dwell that crosses a phase end mid-dwell, on the production drive:
/// the k-anti-Ω fleet at n = 64 on dwells of half a counter scan plus 7
/// steps, so every second turn of a process starts mid-scan and runs on
/// through the scan's end, its heartbeat write, its heartbeat scan and
/// into the next scan. The dwell window must stop at each read run's end
/// and resume after the write. It kills a `read_run` one step too long
/// reached through the dwell window (the engine's dwell cap taken as
/// `read_run() + 1`): the window runs one step into the heartbeat write.
/// Every other case here whose dwells cross a phase end kills it too; this
/// one does so at n = 64, on the production drive, in a fraction of a
/// second.
#[test]
fn kanti_fleet_dwell_crossing_a_phase_end_is_identical() {
    let n = 64;
    let dwell = n * n / 2 + 7;
    let generated = Generated::new(
        GeneratorSpec::bursty(dwell as u64),
        n,
        0,
        2 * n * dwell + 99,
    );
    assert_fleet_identical("kanti n=64 mid-dwell phase ends", &generated, |s, d| {
        run_kanti::<1>(n, 1, 1, s, d)
    });
}

// ---------------------------------------------------------------------------
// Property test: arbitrary GeneratorSpec trees.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SoA identity holds on schedules drawn from *arbitrary* spec trees —
    /// random nestings of fillers, guarantees, and all four fault
    /// decorators — not just the named families above.
    #[test]
    fn soa_identical_on_arbitrary_spec_trees(seed in 0u64..1_000_000) {
        let n = 4;
        let u = Universe::new(n).unwrap();
        let mut rng = SpecRng::new(seed);
        let spec = SpecMutator::new(u).arbitrary(&mut rng, 3);
        let sched = spec.build(u, seed ^ 0xA5A5).take_schedule(12_000);
        // Kset exercises every phase kind (FD scans, decision scans,
        // proposer cores); slice lengths cover fallback and batch paths.
        let plain = run_kset_fleet(n, 1, 2, &sched, Drive::Plain);
        for sl in [1usize, 7, 64] {
            let soa = run_kset_fleet(n, 1, 2, &sched, Drive::Soa(sl));
            assert_observations_eq(&plain, &soa, &format!("arb-spec seed={seed}"), Drive::Soa(sl));
        }
    }

    /// Same property for the lean consensus stack (index-based FD), whose
    /// batch path takes span reads through the n² counter matrix.
    #[test]
    fn lean_soa_identical_on_arbitrary_spec_trees(seed in 0u64..1_000_000) {
        let n = 8;
        let u = Universe::new(n).unwrap();
        let mut rng = SpecRng::new(seed);
        let spec = SpecMutator::new(u).arbitrary(&mut rng, 3);
        let sched = spec.build(u, seed ^ 0x5A5A).take_schedule(12_000);
        let plain = run_lean_consensus(n, 2, &sched, Drive::Plain);
        for sl in [1usize, 7, 64] {
            let soa = run_lean_consensus(n, 2, &sched, Drive::Soa(sl));
            assert_observations_eq(&plain, &soa, &format!("lean arb-spec seed={seed}"), Drive::Soa(sl));
        }
    }
}

// ---------------------------------------------------------------------------
// Non-vacuity: the SoA runs above actually decide / elect.
// ---------------------------------------------------------------------------

/// The large-n lean consensus run is not vacuous: under a bursty schedule
/// long enough for the FD to stabilize, processes decide — on the SoA
/// drive, with agreement and validity intact.
#[test]
fn lean_consensus_soa_decides_at_n64() {
    let n = 64;
    let u = Universe::new(n).unwrap();
    let mut sim = Sim::new(u);
    let fd = LeanOmega::alloc(&mut sim, 4, TimeoutPolicy::Increment);
    let cons = LeanConsensus::alloc(&mut sim);
    let proposals = inputs(n);
    let mut fleet: Vec<_> = u
        .processes()
        .map(|p| cons.machine(&fd, proposals[p.index()]))
        .collect();
    // Bursts of n² + n + 2 steps: a whole FD iteration plus the decision
    // scan per turn, so the appointed leader gets uncontended ballots.
    let burst = n * n + n + 2;
    let len = 40 * n * burst / 8;
    let sched = Schedule::from_indices((0..len).map(|s| (s / burst) % n));
    sim.run_automata_replay_soa(&mut fleet, &sched, 64, RunConfig::steps(len as u64))
        .unwrap();
    let decided: std::collections::BTreeSet<Value> =
        sim.decisions().iter().flatten().map(|d| d.value).collect();
    assert_eq!(decided.len(), 1, "consensus: one value, got {decided:?}");
    assert!(
        sim.decisions().iter().filter(|d| d.is_some()).count() > n / 2,
        "most processes decide under bursty scheduling"
    );
}
