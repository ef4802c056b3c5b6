//! Heap-allocation budget of one E3-shaped scenario: the regression guard
//! for "register metadata costs nothing until someone asks for it" that CI
//! can run without a clock.
//!
//! A counting `#[global_allocator]` tallies the calling thread's
//! allocations (`alloc`, `alloc_zeroed` and `realloc` calls alike). This
//! binary holds exactly one `#[test]`, so nothing else allocates on that
//! thread while it measures.
//!
//! Pinned on the ladder's cell, `(n, k, t) = (8, 3, 4)` at seed 1. Before
//! registers were block-allocated with on-demand names, one
//! `Scenario::run` there made 2 363 allocations — 1 840 of them in
//! `AgreementStack::build_full` (a `String` per `Counter[A, q]`, a row
//! `Vec` per set, the layout tables deep-cloned into all 8 machines) and
//! 487 in `Sim::report()` (every name cloned into the report). It now makes
//! 220, 182 of them in the build; the budget leaves room for a toolchain's
//! `Vec` growth policy to differ, not for a per-register allocation to
//! come back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use st_agreement::AgreementStack;
use st_campaign::{GeneratorSpec, Scenario, Workload};
use st_core::{AgreementTask, ProcSet, ProcessId, Universe};
use st_fd::TimeoutPolicy;

struct Counting;

thread_local! {
    // Const-initialized and without a destructor: touching it from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is plain thread-local
// data that the allocator itself never allocates for.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
    let (count, stack) =
        allocations(|| AgreementStack::build_full(task, &inputs, TimeoutPolicy::Increment, true));
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
            "build_full allocates per (set, process): k = {} → {} costs {grown} more \
             allocations (builds: {builds:?})",
            k + 1,
            k + 2
        );
    }
    assert!(builds[2] <= run, "the build is part of the run");
}
