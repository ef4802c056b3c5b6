//! Heap budgets CI can hold without a clock: the allocations of one
//! E3-shaped scenario (the regression guard for "register metadata costs
//! nothing until someone asks for it"), the memory and allocations the
//! outcome store needs to load, save, record and look up (the guard for
//! "store I/O holds one entry at a time, never a document, and builds no
//! tree"), the memory a generator-driven
//! run needs as its budget grows (the guard for "no drive holds its
//! executed schedule"), and the memory a Figure 2 fleet needs (the guards for
//! "no process holds the counter matrix" and "a machine allocates its local
//! state when it first reaches the phase that uses it").
//!
//! A counting `#[global_allocator]` tallies the calling thread's
//! allocations (`alloc`, `alloc_zeroed` and `realloc` calls alike) and the
//! bytes it has live, with their high-water mark. The tallies are per
//! thread and every `#[test]` runs on its own, so the tests here do not
//! see each other. Live bytes are signed: a test thread may free a block
//! the spawning thread allocated and start below zero, and an unsigned
//! count that wrapped there would hide every peak under its starting value.
//!
//! Pinned on the ladder's cell, `(n, k, t) = (8, 3, 4)` at seed 1. Before
//! registers were block-allocated with on-demand names, one
//! `Scenario::run` there made 2 363 allocations — 1 840 of them in
//! the stack build (a `String` per `Counter[A, q]`, a row
//! `Vec` per set, the layout tables deep-cloned into all 8 machines) and
//! 487 in `Sim::report()` (every name cloned into the report). It now makes
//! 220, 182 of them in the build; the budget leaves room for a toolchain's
//! `Vec` growth policy to differ, not for a per-register allocation to
//! come back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use st_agreement::{drive_adversarially, AgreementStack, Paxos};
use st_campaign::{
    FdAbi, FdDetector, FleetReplayDrive, GeneratorSpec, OutcomeStore, Scenario, Workload,
};
use st_core::{AgreementTask, ProcSet, ProcessId, Schedule, ScheduleCursor, StepSource, Universe};
use st_fd::TimeoutPolicy;
use st_sim::Sim;

struct Counting;

thread_local! {
    // Const-initialized and without a destructor: touching it from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread has allocated and not freed (signed: a block may be
    // freed by another thread than the one that allocated it).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// One allocator call that takes `size` more bytes.
fn bump(size: usize) {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
    let live = LIVE.with(|live| {
        live.set(live.get() + size as isize);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

fn release(size: usize) {
    LIVE.with(|live| live.set(live.get() - size as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is plain thread-local
// data that the allocator itself never allocates for.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the worst case, a move: the new block is live before
        // the old one goes.
        bump(new_size);
        release(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// What running `f` cost the calling thread's heap.
struct HeapUse<T> {
    out: T,
    allocations: u64,
    /// High-water mark of live bytes while `f` ran, over what was live
    /// when it started.
    peak: usize,
    /// Bytes still live when `f` returned, over the same baseline: what
    /// `out` keeps.
    kept: usize,
}

fn heap_use<T>(f: impl FnOnce() -> T) -> HeapUse<T> {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let (allocations, out) = allocations(f);
    HeapUse {
        out,
        allocations,
        peak: (PEAK.with(Cell::get) - base) as usize,
        kept: (LIVE.with(Cell::get) - base) as usize,
    }
}

const N: usize = 8;
const T: usize = 4;
const RUN_BUDGET: u64 = 300;

fn inputs() -> Vec<u64> {
    (0..N as u64).map(|v| 1000 + 7 * v).collect()
}

/// The E3-shaped scenario of `(N, k, T)`: a `{p0..p_{k-1}}`-timely
/// schedule observed by `t + 1` processes, the full FD + k-parallel-Paxos
/// stack, all checks on.
fn e3_scenario(k: usize, seed: u64) -> Scenario {
    let p: ProcSet = (0..k).map(ProcessId::new).collect();
    let q: ProcSet = (0..=T).map(ProcessId::new).collect();
    Scenario::new(
        format!("t{T}k{k}n{N}/seed{seed}"),
        Universe::new(N).unwrap(),
        GeneratorSpec::set_timely(p, q, 2 * (T + 1), GeneratorSpec::seeded_random(0)),
        Workload::Agreement {
            t: T,
            k,
            inputs: inputs(),
            policy: TimeoutPolicy::Increment,
            certify: None,
        },
        400_000,
        seed,
    )
}

fn build_allocations(k: usize) -> u64 {
    let task = AgreementTask::new(T, k, N).unwrap();
    let inputs = inputs();
    let (count, stack) = allocations(|| AgreementStack::build(task, &inputs));
    drop(stack);
    count
}

#[test]
fn e3_cell_scenario_stays_within_its_allocation_budget() {
    let scenario = e3_scenario(3, 1);
    let (run, outcome) = allocations(|| scenario.run());
    let agreement = outcome.data.as_agreement().expect("an agreement workload");
    assert!(agreement.clean && outcome.violations.is_empty());
    assert!(
        run <= RUN_BUDGET,
        "Scenario::run on the E3 cell made {run} heap allocations (budget {RUN_BUDGET})"
    );

    // |Π^k_8| is 8, 28, 56 for k = 1, 2, 3. Every process costs a fixed
    // number of allocations per Paxos instance it may lead and the set
    // tables are O(1) vectors, so k → k + 1 costs O(n) more — while one
    // allocation per counter would cost n·Δ|Π^k_n| = 160 and 224 more.
    let builds: Vec<u64> = (1..=3).map(build_allocations).collect();
    for (k, pair) in builds.windows(2).enumerate() {
        let grown = pair[1] - pair[0];
        assert!(
            grown <= 4 * N as u64,
            "the stack build allocates per (set, process): k = {} → {} costs {grown} more \
             allocations (builds: {builds:?})",
            k + 1,
            k + 2
        );
    }
    assert!(builds[2] <= run, "the build is part of the run");
}

/// `Paxos::alloc`'s heap allocations in a fresh `n`-process simulation.
fn paxos_allocations(n: usize) -> u64 {
    let mut sim = Sim::new(Universe::new(n).unwrap());
    allocations(|| Paxos::alloc(&mut sim, "px")).0
}

/// Allocator calls of one `Paxos::alloc` in a fresh simulation, as
/// measured: for each of its two register blocks (the records, the
/// decision) the name, the two stored recipes and the arena's growth. A
/// handle per process is not among them: `alloc_per_process` returns the
/// block's base handle, where a `Vec` of n handles cost one more.
const PAXOS_ALLOCATIONS: u64 = 15;

/// A Paxos instance's records and decision are arena words: allocating one
/// costs the same whatever n. Boxing every record and decision register
/// cost one allocation per register, 27 per E3 stack build (k = 3
/// instances × (8 records + 1 decision)).
#[test]
fn a_paxos_instance_allocates_nothing_per_process() {
    let counts = [2, 8, 64, 256].map(paxos_allocations);
    assert_eq!(
        counts, [PAXOS_ALLOCATIONS; 4],
        "Paxos::alloc at n = 2, 8, 64, 256"
    );
}

/// Entries in the store the memory guard loads and saves.
const STORE_ENTRIES: usize = 4096;
/// Allocator calls per loaded entry, as measured: the campaign key, the
/// spec's canonical text (one exact copy of the file's bytes, which are
/// canonical already), the outcome's label and its `decisions` vector (two: it
/// grows as it is read), with the file's text and the entry list's growth
/// amortized below one. Reading each entry through a tree cost 77: a `Vec`
/// per container and a `String` per key and string.
const LOAD_ALLOCATIONS_PER_ENTRY: u64 = 5;
/// Allocator calls per `record`, as measured: the spec's text (a scratch
/// buffer and its exact copy), the campaign key, and the outcome's clone
/// (its label and `decisions`). Encoding the spec through a tree cost one
/// more per container, key and string.
const RECORD_ALLOCATIONS: u64 = 5;
/// What `save` may hold beyond the store itself: the file writer's 64 KiB
/// buffer and one line.
const SAVE_HEADROOM: usize = 72 * 1024;

#[test]
fn store_load_and_save_hold_one_entry_at_a_time() {
    // An E3-shaped store: the cell's spec and outcome under 64 keys.
    let scenario = e3_scenario(3, 1);
    let mut outcome = scenario.run();
    let mut store = OutcomeStore::new();
    let recorded = heap_use(|| {
        for i in 0..STORE_ENTRIES {
            outcome.rank = i % 64;
            store.record(&format!("sweep{:03}", i / 64), &scenario, &outcome);
        }
    });
    // The key each call is handed is formatted here, not by `record`.
    let per_record = recorded.allocations / STORE_ENTRIES as u64 - 1;
    assert!(
        per_record <= RECORD_ALLOCATIONS,
        "record made {per_record} allocations per call (budget {RECORD_ALLOCATIONS})"
    );
    let dir = std::env::temp_dir().join(format!("st-store-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.json");
    store.save(&path).unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len() as usize;

    // Load: the file's text and the store being filled.
    let loaded = heap_use(|| OutcomeStore::load(&path).unwrap());
    assert_eq!(loaded.out.len(), STORE_ENTRIES);
    assert!(
        loaded.peak <= file_bytes + loaded.kept + loaded.kept / 4,
        "load peaked at {} live bytes for a {file_bytes}-byte file and a {}-byte store",
        loaded.peak,
        loaded.kept
    );
    let per_entry = loaded.allocations / STORE_ENTRIES as u64;
    assert!(
        per_entry <= LOAD_ALLOCATIONS_PER_ENTRY,
        "load made {per_entry} allocations per entry (budget {LOAD_ALLOCATIONS_PER_ENTRY})"
    );
    // From text already in memory the same holds without the file.
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = heap_use(|| OutcomeStore::from_json_str(&text).unwrap());
    assert!(
        parsed.peak <= parsed.kept + parsed.kept / 4,
        "from_json_str peaked at {} live bytes for a {}-byte store",
        parsed.peak,
        parsed.kept
    );

    // Save: streamed, so nothing of the document's size is ever live.
    let saved = heap_use(|| loaded.out.save(&path).unwrap());
    assert!(
        saved.peak <= SAVE_HEADROOM,
        "save held {} bytes beyond the store (budget {SAVE_HEADROOM})",
        saved.peak
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);

    // Lookup: the probe spec's text is the one allocation a call adds to
    // the outcome it hands back.
    let (cloning, _) = allocations(|| outcome.clone());
    for (i, entry) in loaded.out.entries().iter().enumerate().step_by(97) {
        let (count, hit) =
            allocations(|| loaded.out.lookup(&entry.campaign, entry.rank, &scenario));
        assert!(hit.is_some(), "entry {i} is found");
        assert!(
            count <= cloning + 1,
            "lookup made {count} allocations, {cloning} of them the outcome's clone"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a run's peak may grow by when its budget grows eightfold: probe-log
/// slack, nothing proportional to the steps (8 M steps of schedule are
/// 32 MB).
const BUDGET_HEADROOM: usize = 64 * 1024;

/// Peak live bytes of one checked `Scenario::run`, which must be clean.
fn run_peak(scenario: &Scenario) -> usize {
    let run = heap_use(|| scenario.run());
    assert!(run.out.violations.is_empty(), "{:?}", run.out.violations);
    run.peak
}

fn assert_peak_is_budget_free(what: &str, small: &Scenario, large: &Scenario) {
    let (small_peak, large_peak) = (run_peak(small), run_peak(large));
    assert!(
        large_peak.abs_diff(small_peak) < BUDGET_HEADROOM,
        "{what}: peak live bytes follow the budget — {small_peak} at {} steps, \
         {large_peak} at {}",
        small.budget,
        large.budget
    );
}

#[test]
fn a_fleet_run_holds_one_block_of_its_schedule_whatever_the_budget() {
    // An E9-shaped cell: dwells of one lean iteration, stabilized well
    // inside the smaller budget, so the probe log is the same in both.
    let n = 64;
    let cell = |drive, budget| {
        Scenario::new(
            "lean/n64",
            Universe::new(n).unwrap(),
            GeneratorSpec::bursty((n * n + n + 2) as u64),
            Workload::LeanConvergence {
                t: 4,
                policy: TimeoutPolicy::Increment,
                drive,
            },
            budget,
            1,
        )
    };
    // A slice longer than any budget still runs one block at a time.
    for drive in [
        FleetReplayDrive::Plain,
        FleetReplayDrive::Soa { slice_len: 1024 },
        FleetReplayDrive::Soa {
            slice_len: usize::MAX,
        },
    ] {
        assert_peak_is_budget_free(
            &format!("{drive:?}"),
            &cell(drive, 1_000_000),
            &cell(drive, 8_000_000),
        );
    }
}

#[test]
fn a_wide_fleet_holds_no_counter_matrix_per_process() {
    // The verbatim Figure 2 fleet: one iteration's dwells for a few
    // iterations. A private `|Π^k_n| × n` snapshot per process would be
    // 134 MB at n = 256, k = 1 and 66 MB at n = 64, k = 2; what is live is
    // the arena's `|Π^k_n|·n` cells plus O(|Π^k_n| + n) per process.
    let cell = |n: usize, k: usize, drive| {
        let sets = st_core::subsets::binomial(n, k) as usize;
        let iteration = (sets * n + n + 1) as u64;
        Scenario::new(
            format!("wide/n{n}/k{k}"),
            Universe::new(n).unwrap(),
            GeneratorSpec::bursty(iteration),
            Workload::WideFdConvergence {
                k,
                t: 4,
                policy: TimeoutPolicy::Increment,
                drive,
            },
            4 * iteration,
            1,
        )
    };
    let soa = FleetReplayDrive::Soa { slice_len: 1024 };
    for (n, k, drive, limit_mb) in [
        (256, 1, FleetReplayDrive::Plain, 16),
        (256, 1, soa, 16),
        (64, 2, FleetReplayDrive::Plain, 8),
    ] {
        let peak = run_peak(&cell(n, k, drive));
        assert!(
            peak <= limit_mb << 20,
            "n = {n}, k = {k}, {drive:?}: the run peaked at {peak} live bytes \
             (budget {limit_mb} MB)"
        );
    }
}

#[test]
fn a_fleet_machine_that_has_not_run_holds_no_vector_of_its_own() {
    // A lean fleet at n = 256, k = 1, where each of a machine's five
    // Figure 2 vectors is n words (|Π^1_n| = n). Before this guard every
    // machine wrote all five at construction, 10 KB each whether it ran or
    // not; now each is allocated by the first step of the phase that uses
    // it, so the run's peak is what every run holds plus what its stepping
    // machines have reached.
    let n = 256;
    let word = std::mem::size_of::<u64>();
    // The arena: n heartbeats and n·n counters, each a kind byte, a payload
    // and the read and write counts. Then the machines themselves, and
    // 512 KB for the schedule block (64 Ki four-byte steps), the layout
    // tables, the probe log and the report.
    let arena = (n + n * n) * (1 + 3 * word);
    let fixed = arena + n * std::mem::size_of::<st_fd::LeanOmegaMachine>() + (512 << 10);
    // A machine's first line 2 read: its row buffer and its own column.
    let scanning = 2 * n * word;
    // Its first line 7 write adds prevHeartbeat, timeout and timer; then
    // its expired list (a u32 per set) and the SoA drive's heartbeat buffer.
    let iterating = scanning + 3 * n * word + n * 4 + n * word;
    let iteration = (n * n + n + 2) as u64;
    let cell = |generator, budget, drive| {
        Scenario::new(
            "lean/n256",
            Universe::new(n).unwrap(),
            generator,
            Workload::LeanConvergence {
                t: 4,
                policy: TimeoutPolicy::Increment,
                drive,
            },
            budget,
            1,
        )
    };
    for drive in [
        FleetReplayDrive::Plain,
        FleetReplayDrive::Soa { slice_len: 1024 },
    ] {
        for (what, generator, budget, limit) in [
            // Two dwells of one iteration each: two machines step, and
            // both run a whole iteration. Bound ≈ 2.37 MB; plain / SoA peak
            // at 2.15 / 2.17 MB, and at 4.75 / 4.78 MB with eager vectors.
            (
                "bursty",
                GeneratorSpec::bursty(iteration),
                2 * iteration,
                fixed + 2 * iterating,
            ),
            // Four rows per machine, short of one n·n-step scan: every
            // machine steps, none reaches line 7. Bound ≈ 3.39 MB; plain /
            // SoA peak at 3.18 / 3.19 MB, and at 4.75 / 4.76 MB with eager
            // vectors.
            (
                "round-robin",
                GeneratorSpec::round_robin(),
                (4 * n * n) as u64,
                fixed + n * scanning,
            ),
        ] {
            let peak = run_peak(&cell(generator, budget, drive));
            assert!(
                peak <= limit,
                "{what}, {drive:?}: the run peaked at {peak} live bytes (budget {limit})"
            );
        }
    }
}

#[test]
fn a_checked_fd_run_does_not_record_what_it_certifies() {
    // E7's shape: the typed machine fleet at n = 4 under a `SetTimely`
    // root, so the guarantee is armed and watched through the whole run.
    let cell = |budget| {
        Scenario::new(
            "fd/n4",
            Universe::new(4).unwrap(),
            GeneratorSpec::set_timely(
                ProcSet::from_indices([0]),
                ProcSet::from_indices([0, 1, 2]),
                8,
                GeneratorSpec::seeded_random(1),
            ),
            Workload::FdConvergence {
                k: 1,
                t: 2,
                policy: TimeoutPolicy::Increment,
                abi: FdAbi::MachineFleet,
                detector: FdDetector::SetBased,
                certify_membership: false,
            },
            budget,
            1,
        )
    };
    assert_peak_is_budget_free("MachineFleet", &cell(500_000), &cell(4_000_000));
}

#[test]
fn the_adversary_allocates_nothing_per_step() {
    // E5's (2,2,4) cell, certificate on. The adversary reads decisions and
    // records off the arena the step kernel holds, keeps its frozen set
    // across steps and measures its witness online: what grows with the
    // budget is the probe log — a `Vec` doubling a handful of times on the
    // way from 10 000 to 100 000 steps, where one allocation per step (the
    // record `Vec` the per-step loop collected per instance) is 180 000.
    let task = AgreementTask::new(2, 2, 4).unwrap();
    let inputs: Vec<u64> = (0..4).map(|v| 11 * (v + 1)).collect();
    let trio = ProcSet::from_indices([0, 1, 2]);
    let certify = Some((trio, ProcSet::full(task.universe())));
    let drive = |budget| {
        let stack = AgreementStack::build(task, &inputs);
        let (count, adv) =
            allocations(|| drive_adversarially(stack, budget, ProcSet::EMPTY, certify));
        assert!(adv.freeze_events > 0 && adv.run.outcome.decisions.iter().all(Option::is_none));
        assert!(adv.certificate.is_some_and(|c| c.bound <= 4 * 4));
        count
    };
    let (short, long) = (drive(10_000), drive(100_000));
    assert!(
        long <= short + 8,
        "{short} allocations at 10 000 steps, {long} at 100 000"
    );
}

#[test]
fn an_enforcing_generator_allocates_nothing_per_pulled_step() {
    // A filler that never schedules `P`: at bound 2 every other emitted
    // step is an injection. Building the generator allocates (member lists,
    // the boxes); pulling from it does not, however long — where collecting
    // `P`'s members per injection was one `Vec` per two steps, 45 000
    // allocations apart between these two lengths.
    let set = |ix: &[usize]| ProcSet::from_indices(ix.iter().copied());
    let (p, q) = (set(&[0, 1]), set(&[2]));
    let hostile = || GeneratorSpec::RoundRobin { over: Some(q) };
    // One timely dwell longer than the run: every step is enforced, and the
    // phase log stays at its first segment.
    let dwell = (1 << 40, 1 << 40);
    for spec in [
        GeneratorSpec::set_timely(p, q, 2, hostile()),
        GeneratorSpec::flapping(p, q, 2, hostile(), dwell, dwell),
    ] {
        let pull = |steps: usize| {
            let (count, injected) = allocations(|| {
                let mut source = spec.build(Universe::new(3).unwrap(), 1);
                (0..steps)
                    .filter(|_| p.contains(source.next_step().expect("an endless source")))
                    .count()
            });
            assert_eq!(injected, steps / 2, "{}", spec.family());
            count
        };
        let (short, long) = (pull(10_000), pull(100_000));
        assert_eq!(
            short,
            long,
            "{}: allocations at 10 000 and at 100 000 pulled steps",
            spec.family()
        );
    }
}

#[test]
fn take_schedule_reserves_what_it_is_asked_for_up_to_a_cap() {
    // A prefix is one allocation, not log₂(len) reallocations …
    let mut endless = GeneratorSpec::round_robin().build(Universe::new(5).unwrap(), 0);
    let (count, prefix) = allocations(|| endless.take_schedule(1 << 16));
    assert_eq!(prefix.len(), 1 << 16);
    assert!(count <= 2, "take_schedule(65 536) made {count} allocations");
    // … but the requested length is not trusted beyond a few megabytes.
    let mut short = ScheduleCursor::new(Schedule::from_indices([0, 1]));
    let taken = heap_use(|| short.take_schedule(1 << 40));
    assert_eq!(taken.out.len(), 2);
    assert!(
        taken.peak <= 8 << 20,
        "a two-step source asked for 2^40 steps reserved {} bytes",
        taken.peak
    );
}

/// Validation runs on every decoded scenario, so a valid one costs no
/// allocation: a refusal's text is the only thing `validate` builds.
#[test]
fn validating_a_valid_scenario_allocates_nothing() {
    let set = |ix: &[usize]| ProcSet::from_indices(ix.iter().copied());
    let deep = GeneratorSpec::crash_recovery(
        GeneratorSpec::burst_clog(
            GeneratorSpec::flapping(
                set(&[0, 1]),
                set(&[0, 1, 2]),
                3,
                GeneratorSpec::Eventually {
                    prefix: Box::new(GeneratorSpec::Cycle {
                        period: Schedule::from_indices([0, 1, 2]),
                    }),
                    prefix_len: 10,
                    body: Box::new(GeneratorSpec::SeededRandom {
                        over: Some(set(&[0, 2, 4])),
                        seed_offset: 1,
                        weights: Some(vec![1, 0, 2]),
                    }),
                },
                (1, 4),
                (2, 8),
            ),
            ProcessId::new(3),
            4,
            (1, 2),
        ),
        ProcessId::new(5),
        10,
        20,
    );
    let scenarios = [
        e3_scenario(3, 1),
        Scenario::new(
            "deep",
            Universe::new(N).unwrap(),
            deep,
            Workload::FdConvergence {
                k: 2,
                t: 3,
                policy: TimeoutPolicy::Increment,
                abi: FdAbi::MachineSlot,
                detector: FdDetector::SetBased,
                certify_membership: true,
            },
            1_000,
            0,
        ),
        Scenario::new(
            "wide",
            Universe::new(130).unwrap(),
            GeneratorSpec::FictitiousCrash {
                i: 2,
                j: 2,
                t: 3,
                k: 2,
                base: 8,
            },
            Workload::WideFdConvergence {
                k: 2,
                t: 3,
                policy: TimeoutPolicy::Increment,
                drive: FleetReplayDrive::Soa { slice_len: 64 },
            },
            1_000,
            0,
        ),
    ];
    for scenario in &scenarios {
        let (count, verdict) = allocations(|| scenario.validate());
        assert_eq!(verdict, Ok(()), "{}", scenario.label);
        assert_eq!(count, 0, "{}", scenario.label);
    }
}
