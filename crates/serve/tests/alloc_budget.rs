//! The request reader's heap cost, counted without a clock: reading a
//! 1 024-entry `submit` frame — the frame's text, one cursor walk over it,
//! every scenario decoded where it stands — makes one allocation per entry
//! (the scenario's label) and a few dozen for the frame and the growing
//! lists: 1 053 in all. When the frame was first parsed into a `Json` tree
//! and each scenario re-serialized and decoded again, the same frame cost
//! 40 979, 40 per entry (32 for the tree, 8 for the decodes); a tree or a
//! re-serialization coming back shows here as a count several times the
//! pin.
//!
//! A counting `#[global_allocator]` tallies the calling thread's
//! allocations (`alloc`, `alloc_zeroed` and `realloc` calls alike); the
//! tally is per thread, so other tests running at the same time do not
//! show in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use st_campaign::{
    policy_from_spec, Campaign, FdAbi, FdDetector, GeneratorSpec, Scenario, TimeoutPolicySpec,
    Workload,
};
use st_core::frame::{read_frame_text, write_frame_text};
use st_core::Universe;
use st_serve::protocol::{campaign_entries, read_request, Envelope, Request};
use st_serve::Verb;

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
        // SAFETY: the caller's block, layout and size are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's block and layout are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Entries in the pinned `submit`: a `campaign_served` job's size.
const ENTRIES: usize = 1024;

/// Allocations per entry the request reader makes on it.
const READ_ALLOCATIONS_PER_ENTRY: u64 = 1;

/// Allocations on top of those, whatever the entry count: the frame's
/// text, and the doubling growth of the entry list and the campaign's two
/// (29 measured; the rest is room for another toolchain's growth policy).
const READ_ALLOCATIONS_FIXED: u64 = 48;

#[test]
fn reading_a_submit_frame_makes_the_pinned_allocations_per_entry() {
    let mut campaign = Campaign::new();
    for seed in 0..ENTRIES as u64 {
        campaign.push(Scenario::new(
            format!("served/seed{seed}"),
            Universe::new(3).unwrap(),
            GeneratorSpec::round_robin(),
            Workload::FdConvergence {
                k: 1,
                t: 1,
                policy: policy_from_spec(TimeoutPolicySpec::Increment),
                abi: FdAbi::MachineSlot,
                detector: FdDetector::SetBased,
                certify_membership: false,
            },
            2_000,
            seed,
        ));
    }
    let request = Envelope::request(Verb::Submit)
        .string("key", "job")
        .member("entries", |out| campaign_entries(&campaign, out))
        .finish();
    let mut frame = Vec::new();
    write_frame_text(&mut frame, &request).unwrap();

    let before = allocations();
    let text = read_frame_text(&mut frame.as_slice()).unwrap();
    let read = read_request(&text);
    let spent = allocations() - before;

    let Ok(Request::Submit {
        key,
        campaign: read,
    }) = read
    else {
        panic!("the frame is a submit: {read:?}");
    };
    assert_eq!((key.as_str(), read.len()), ("job", ENTRIES));
    assert_eq!(read.scenarios(), campaign.scenarios());
    assert!(
        spent <= READ_ALLOCATIONS_PER_ENTRY * ENTRIES as u64 + READ_ALLOCATIONS_FIXED,
        "{spent} allocations for {ENTRIES} entries"
    );
}
