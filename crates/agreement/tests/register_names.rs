//! The exact name of every register each allocator creates, on a small
//! universe.
//!
//! Names are formatted on demand from per-block recipes, and they are part
//! of the observable surface: `SimError` messages quote them and the
//! transcription fixture digests them. The differential suites compare
//! `RegisterStats` by arena index, so these literal tables, which cover
//! both set widths, are what pins the names: a recipe that drifts — an
//! off-by-one at a block boundary, a swapped row and column — fails here
//! with the offending name in the diff.

use st_agreement::{KSetAgreement, LeanConsensus};
use st_core::{ProcessId, Universe};
use st_fd::{KAntiOmega, KAntiOmegaConfig, LeanOmega, TimeoutPolicy};
use st_sim::{Sim, WriteDiscipline};

fn sim(n: usize) -> Sim {
    Sim::new(Universe::new(n).unwrap())
}

/// Every register name of `sim`, in allocation order.
fn names(sim: &Sim) -> Vec<String> {
    let memory = sim.memory();
    let stats = memory.stats();
    stats
        .iter()
        .map(|s| memory.name(s.index).unwrap())
        .collect()
}

const FIGURE2_N3_K2: [&str; 12] = [
    "Heartbeat[0]",
    "Heartbeat[1]",
    "Heartbeat[2]",
    "Counter[{p0,p1}#0,p0]",
    "Counter[{p0,p1}#0,p1]",
    "Counter[{p0,p1}#0,p2]",
    "Counter[{p0,p2}#1,p0]",
    "Counter[{p0,p2}#1,p1]",
    "Counter[{p0,p2}#1,p2]",
    "Counter[{p1,p2}#2,p0]",
    "Counter[{p1,p2}#2,p1]",
    "Counter[{p1,p2}#2,p2]",
];

#[test]
fn figure2_detector_names_at_both_widths() {
    let config = KAntiOmegaConfig::new(2, 2);
    let mut narrow = sim(3);
    KAntiOmega::alloc(&mut narrow, config);
    assert_eq!(names(&narrow), FIGURE2_N3_K2);
    let mut wide = sim(3);
    KAntiOmega::<2>::alloc_wide(&mut wide, config);
    assert_eq!(names(&wide), FIGURE2_N3_K2);
}

/// The lean constructors allocate what the paper's do at `k = 1`: no names
/// of their own.
#[test]
fn lean_detector_and_consensus_names() {
    let mut sim = sim(3);
    let _fd = LeanOmega::alloc(&mut sim, 1, TimeoutPolicy::Increment);
    let _cons = LeanConsensus::alloc(&mut sim);
    assert_eq!(
        names(&sim),
        [
            "Heartbeat[0]",
            "Heartbeat[1]",
            "Heartbeat[2]",
            "Counter[{p0}#0,p0]",
            "Counter[{p0}#0,p1]",
            "Counter[{p0}#0,p2]",
            "Counter[{p1}#1,p0]",
            "Counter[{p1}#1,p1]",
            "Counter[{p1}#1,p2]",
            "Counter[{p2}#2,p0]",
            "Counter[{p2}#2,p1]",
            "Counter[{p2}#2,p2]",
            "kset[0].rec[0]",
            "kset[0].rec[1]",
            "kset[0].rec[2]",
            "kset[0].decision",
        ]
    );
}

#[test]
fn kset_agreement_names() {
    let mut sim = sim(3);
    KSetAgreement::alloc(&mut sim, 2);
    assert_eq!(
        names(&sim),
        [
            "kset[0].rec[0]",
            "kset[0].rec[1]",
            "kset[0].rec[2]",
            "kset[0].decision",
            "kset[1].rec[0]",
            "kset[1].rec[1]",
            "kset[1].rec[2]",
            "kset[1].decision",
        ]
    );
}

#[test]
fn sim_allocator_names() {
    let mut sim = sim(2);
    let multi = |_| WriteDiscipline::MultiWriter;
    sim.alloc_block(3, 0u64, multi, |i| format!("out[{i}]"));
    sim.alloc("lone", 0u64);
    sim.alloc_sw("mine", ProcessId::new(1), 0u64);
    sim.alloc_per_process("slot", 0u64);
    sim.alloc_block(0, 0u64, multi, |_| "none".into());
    sim.alloc("last", 0u64);
    assert_eq!(
        names(&sim),
        ["out[0]", "out[1]", "out[2]", "lone", "mine", "slot[0]", "slot[1]", "last",]
    );
}
