//! The state-dependent drive: `Sim::run_adaptive` against per-step
//! `peek` + a one-step cursor drive, its typed error, and the arena write
//! counter its chooser leans on (`Memory::version`).

mod common;

use common::{step_once, SumScan};
use proptest::prelude::*;
use st_core::{ProcessId, Universe};
use st_sim::{Memory, Reg, Sim, SimError, WriteDiscipline};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

const N: usize = 3;

/// Three scan machines over four shared cells, each writing the wrapping
/// sum of all four into its own: every write changes what the others read,
/// and each machine finishes after `limit` rounds.
fn scan_sim(limit: u64) -> (Sim, Vec<SumScan>, Vec<Reg<u64>>) {
    let mut sim = Sim::new(Universe::new(N).unwrap());
    let cells = (0..N + 1)
        .map(|i| sim.alloc(format!("cell[{i}]"), 1u64))
        .collect::<Vec<_>>();
    let fleet = (0..N)
        .map(|i| SumScan::new(cells[0], cells[i], N + 1, limit))
        .collect();
    (sim, fleet, cells)
}

/// A schedule that depends on the register contents: the wrapping sum of
/// the cells picks the next process.
fn by_contents(cells: &[u64]) -> ProcessId {
    let sum = cells.iter().fold(0u64, |a, &c| a.wrapping_add(c));
    pid((sum % N as u64) as usize)
}

/// Everything a drive leaves behind that another drive could differ in.
fn observable(sim: &Sim) -> impl PartialEq + std::fmt::Debug {
    let report = sim.report();
    (
        (report.steps, report.decisions, report.finished),
        report.probes.events().to_vec(),
        report.op_counts,
        sim.memory().stats(),
    )
}

/// Two `run_adaptive` calls back to back are one run: the second continues
/// the step counter and the op counts — and both together are step-for-step
/// what `peek` + a one-step drive execute.
#[test]
fn run_adaptive_continues_and_matches_the_per_step_loop() {
    for (first, second) in [(0, 0), (1, 0), (40, 160), (200, 1)] {
        let (mut sim, mut fleet, cells) = scan_sim(6);
        let choose = |memory: &Memory| {
            let now: Vec<u64> = cells.iter().map(|&c| memory.peek(c).unwrap()).collect();
            by_contents(&now)
        };
        sim.run_adaptive(&mut fleet, first, choose).unwrap();
        assert_eq!(sim.steps_executed(), first);
        let ops_after_first: u64 = (0..N).map(|i| sim.op_count(pid(i))).sum();
        sim.run_adaptive(&mut fleet, second, choose).unwrap();
        assert_eq!(sim.steps_executed(), first + second);
        let ops: u64 = (0..N).map(|i| sim.op_count(pid(i))).sum();
        assert!(ops >= ops_after_first);

        let (mut oracle, mut oracle_fleet, cells) = scan_sim(6);
        for _ in 0..first + second {
            let now: Vec<u64> = cells.iter().map(|&c| oracle.peek(c)).collect();
            step_once(&mut oracle, &mut oracle_fleet, by_contents(&now).index());
        }
        assert_eq!(observable(&sim), observable(&oracle));
        if first + second > 100 {
            // A machine is done after 30 steps of its own, and once a
            // finished one is chosen the contents stop moving.
            assert!(
                (0..N).any(|i| sim.is_finished(pid(i))),
                "the run covers a finished machine's idle steps"
            );
        }
    }
}

/// A choice outside the universe is the typed error of the other drives:
/// the steps chosen before it executed, and the `Sim` goes on.
#[test]
fn an_out_of_universe_choice_is_typed_and_leaves_the_sim_usable() {
    let (mut sim, mut fleet, _) = scan_sim(6);
    let mut calls = 0;
    let err = sim
        .run_adaptive(&mut fleet, 10, |_| {
            calls += 1;
            pid(if calls <= 5 { calls % N } else { N + 4 })
        })
        .unwrap_err();
    assert_eq!(
        err,
        SimError::ScheduleOutOfUniverse {
            process: pid(N + 4),
            n: N
        }
    );
    assert_eq!((calls, sim.steps_executed()), (6, 5));
    let ops: u64 = (0..N).map(|i| sim.op_count(pid(i))).sum();
    assert_eq!(
        ops, 5,
        "the kernel's op counts are written back on the error path"
    );

    sim.run_adaptive(&mut fleet, 7, |_| pid(0)).unwrap();
    assert_eq!(sim.steps_executed(), 12);
}

/// A multi-word block, a word block (single- and multi-writer cells
/// alternating), and one more multi-word cell: handles offset past their
/// own block land on a register of the other type, or outside the arena.
const WORDS: usize = 6;
const NOTES: usize = 3;
const REGISTERS: usize = NOTES + WORDS + 1;
/// Arena words: two per note and for the tail, one per word register.
const ARENA: usize = 2 * NOTES + WORDS + 2;

struct Mixed {
    words: Reg<u64>,
    notes: Reg<Option<u64>>,
    tail: Reg<Option<u64>>,
}

fn mixed_arena() -> (Memory, Mixed) {
    let mut m = Memory::new();
    let notes = m.alloc_block(
        NOTES,
        Some(7),
        |i| WriteDiscipline::SingleWriter(pid(i)),
        |i| format!("note[{i}]"),
    );
    let words = m.alloc_block(
        WORDS,
        0u64,
        |i| match i % 2 {
            0 => WriteDiscipline::SingleWriter(pid(i / 2)),
            _ => WriteDiscipline::MultiWriter,
        },
        |i| format!("w[{i}]"),
    );
    let tail = m.alloc("tail", WriteDiscipline::MultiWriter, None);
    (m, Mixed { words, notes, tail })
}

fn contents(m: &Memory, arena: &Mixed) -> (Vec<u64>, Vec<Option<u64>>) {
    let notes = (0..NOTES).map(|i| arena.notes.at(i)).chain([arena.tail]);
    (
        (0..WORDS)
            .map(|i| m.peek(arena.words.at(i)).unwrap())
            .collect(),
        notes.map(|b| m.peek(b).unwrap()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `version()` rises by exactly one per completed write and with
    /// nothing else — reads, span reads, peeks, a refused writer, a type
    /// mismatch, an unknown register — and while it stands still every
    /// register peeks what it peeked before.
    #[test]
    fn version_counts_completed_writes_only(draws in prop::collection::vec(any::<u64>(), 0..200)) {
        let (mut m, arena) = mixed_arena();
        let (words, notes) = (arena.words, arena.notes);
        prop_assert_eq!(m.version(), 0, "allocation is not a write");
        prop_assert_eq!((m.len(), arena.tail.index()), (ARENA, ARENA - 2));
        let mut before = contents(&m, &arena);
        for draw in draws {
            let (op, at) = (draw % 10, (draw >> 8) as usize % 16);
            let (writer, value) = (pid((draw >> 16) as usize % 4), draw >> 20);
            let (w, b) = (words.at(at % WORDS), notes.at(at % NOTES));
            let version = m.version();
            let completed_write = match op {
                0 => m.write_word(writer, w, value).is_ok(),
                1 => m.write(writer, w, value).is_ok(),
                2 => m.write(writer, b, Some(value)).is_ok(),
                // Either word of the multi-word tail written as a word, a
                // word cell written or read as an option: type mismatches.
                // None completes.
                3 => {
                    let tail_word = words.at(WORDS + at % 2);
                    prop_assert!(m.write_word(writer, tail_word, value).is_err());
                    let forged = notes.at(NOTES + at % (WORDS / 2));
                    prop_assert!(m.write(writer, forged, None).is_err());
                    prop_assert!(m.read(forged).is_err() && m.peek(forged).is_err());
                    false
                }
                4 => {
                    let unknown = words.at(WORDS + 2 + at);
                    prop_assert!(m.write_word(writer, unknown, value).is_err());
                    prop_assert!(m.read_word(unknown).is_err() && m.peek(unknown).is_err());
                    false
                }
                5 => {
                    prop_assert!(m.read_word(w).is_ok() && m.read(b).is_ok());
                    false
                }
                6 => {
                    let mut dest = vec![0u64; at % (WORDS + 1)];
                    prop_assert!(m.read_word_span(words, 0, &mut dest).is_ok());
                    false
                }
                // A span checks bounds only: one that runs into the tail
                // reads it, one that leaves the arena is refused whole.
                7 => {
                    let mut dest = vec![0u64; WORDS + 2];
                    prop_assert!(m.read_word_span(words, 0, &mut dest).is_ok());
                    let mut dest = vec![0u64; WORDS + 3];
                    prop_assert!(m.read_word_span(words, 0, &mut dest).is_err());
                    false
                }
                8 => {
                    prop_assert!(m.peek(w).is_ok() && m.peek(b).is_ok());
                    false
                }
                _ => {
                    prop_assert_eq!(m.stats().len(), REGISTERS);
                    prop_assert_eq!(m.name(at).is_ok(), at < ARENA);
                    false
                }
            };
            prop_assert_eq!(m.version(), version + completed_write as u64, "op {}", op);
            let after = contents(&m, &arena);
            if !completed_write {
                prop_assert_eq!(&after, &before, "contents moved under version {}", version);
            }
            before = after;
        }
        let writes: u64 = m.stats().iter().map(|s| s.writes).sum();
        prop_assert_eq!(m.version(), writes);
    }
}
