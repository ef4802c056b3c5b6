//! The sweep engine's "zero allocations at steady state", held: once a
//! `TimelinessAnalyzer` has decomposed a schedule for a `P` with at least
//! as many distinct runs, decomposing it again — for any `P` — and
//! answering every query allocates nothing.
//!
//! A counting `#[global_allocator]` tallies the calling thread's
//! allocations (`alloc`, `alloc_zeroed` and `realloc` calls alike); every
//! `#[test]` runs on its own thread, so tests do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use st_core::subsets::{binomial, KSubsets};
use st_core::timeliness::TimelinessAnalyzer;
use st_core::{ProcSet, Schedule, Universe};

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

/// `len` uniformly random steps over `n` processes (SplitMix64).
fn random_schedule(n: usize, len: usize, mut seed: u64) -> Schedule {
    Schedule::from_indices((0..len).map(move |_| {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % n
    }))
}

/// The warm-up decomposes for `{p0}`: a singleton cuts this schedule into
/// the most distinct runs (≈ 6 000, against ≤ 5 600 for any `P` of Π³₁₂),
/// so the histogram storage is at the sweep's high-water mark after it,
/// and the hash table is sized from the schedule's length.
#[test]
fn a_warm_analyzer_decomposes_and_sweeps_without_allocating() {
    let n = 12;
    let universe = Universe::new(n).unwrap();
    let s = random_schedule(n, 100_000, 12);
    let mut az = TimelinessAnalyzer::new(universe);
    az.decompose(&s, ProcSet::from_indices([0]));
    let warm_runs = az.runs();

    let (count, most_runs) = allocations(|| {
        let mut most = 0;
        for p in KSubsets::new(universe, 3) {
            az.decompose(&s, p);
            most = most.max(az.runs());
        }
        most
    });
    assert_eq!(count, 0, "decomposing every P of Π³₁₂");
    assert!(most_runs <= warm_runs, "{most_runs} > {warm_runs}");

    let cells = binomial(n, 3) as usize;
    let mut pairs = Vec::with_capacity(cells * cells);
    let (count, ()) = allocations(|| az.all_timely_pairs_into(&s, 3, 3, 2 * n, &mut pairs));
    assert_eq!(count, 0, "all_timely_pairs_into a reserved vector");
    assert!(!pairs.is_empty());
}
