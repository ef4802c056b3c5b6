//! The register arena: the shared memory `Ξ` of the model.
//!
//! Registers are allocated before the run, hold either a raw `u64` word or a
//! type-erased value, and are accessed atomically (the simulator is
//! single-threaded; atomicity is by construction). Accounting (read/write
//! counts, versions) feeds the trace.
//!
//! # The typed word fast path, and the arena layout
//!
//! Every register of the paper's protocols (Figure 2's `Heartbeat[p]` and
//! `Counter[A, q]`, ballot numbers, round counters) is a `u64`, and the
//! k-anti-Ω inner loop reads `|Π^k_n|·n` of them per iteration — so the
//! register representation sits on the hottest path of the whole simulator.
//! Three layout decisions follow:
//!
//! 1. **Unboxed words.** `u64` registers are stored as plain words:
//!    [`Memory::read_word`] / [`Memory::write_word`] touch them with a byte
//!    compare and an array load (no vtable, no downcast, no clone), and the
//!    generic [`Memory::read`] / [`Memory::write`] route `T = u64` to the
//!    same representation via a compile-time [`TypeId`] check that
//!    monomorphizes away.
//! 2. **Structure of arrays.** The arena keeps parallel dense arrays —
//!    kinds (1 byte), word values (8 bytes), read and write counts (8 bytes
//!    each) — instead of an array of register structs. A protocol that
//!    sweeps hundreds of registers per iteration (the Figure 2 counter
//!    matrix) then streams a few KiB of dense values: the per-step cost of
//!    the sweep is the load, the count bump, and nothing else.
//! 3. **Blocks, with names and disciplines by rule.** Registers are
//!    allocated in *blocks* ([`Memory::alloc_block`]): `count` consecutive
//!    registers with one initial value, a per-index *write-discipline rule*
//!    (`Fn(usize) -> WriteDiscipline`) and a per-index *name recipe*
//!    (`Fn(usize) -> String`). The dense arrays are extended once per block
//!    and the two closures are stored once per block, in a block table
//!    sorted by first index — no name is formatted, no `String` and no
//!    per-register discipline is stored, at allocation time.
//!    [`Memory::alloc`] is the one-register block.
//!
//! What **allocation costs**: 25 bytes of address space per register and
//! one table entry per block, of which only the kind byte is written. A
//! zero-initialized word block extends the value and count arrays through a
//! zeroed allocation, which for a large block is untouched pages: a cell
//! becomes resident when a run first reads or writes it, so a fleet that
//! executes few steps pays for few cells (Figure 2's `|Π^k_n|·n` counters,
//! or the lean detector's `n²` = 1 048 576 at n = 1024, used to be written
//! — and page-faulted in — 33 bytes apiece before the first step). Blocks
//! with a non-zero initial value, and boxed ones, are written as before.
//!
//! What is **hot** (touched by every simulated step): the kind byte, the
//! payload word, and the read or write count of the accessed register.
//! What is **asked per write**: the discipline — the block table is
//! binary-searched and the block's rule run, behind a small direct-mapped
//! memo of the registers written last (a process keeps writing the same few
//! registers; reads outnumber writes `n·|Π^k_n|` to 1 in Figure 2). What is
//! **on demand**: names. [`Memory::name`] searches the same table and runs
//! the recipe; only the [`SimError`] constructors (a protocol bug is being
//! reported), [`Memory::stats`] and tests ever call it, so a run that
//! reports no error and asks for no statistics formats nothing.
//!
//! Handles, disciplines, and error behavior are independent of the layout.

use std::any::{Any, TypeId};

use st_core::ProcessId;

use crate::error::SimError;
use crate::register::{Reg, RegValue, WriteDiscipline};

/// Storage class of a register: words live inline in the hot cell,
/// everything else is boxed in the side table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Word,
    Boxed,
}

/// One allocation: a run of consecutive registers sharing a name recipe
/// and a write-discipline rule.
struct Block {
    /// Arena index of the block's first register.
    start: usize,
    /// Formats the name of the block's `i`-th register.
    name: Box<dyn Fn(usize) -> String>,
    /// The write discipline of the block's `i`-th register.
    discipline: Box<dyn Fn(usize) -> WriteDiscipline>,
}

/// Extends `cells` with zeros up to `end` entries. A block at least as long
/// as everything before it goes through a fresh zeroed allocation, which
/// the allocator hands out without writing it (large ones are untouched
/// pages: a cell costs memory when a run first touches it, not when it is
/// allocated), at the price of copying the shorter prefix — never more
/// bytes than `resize` would have written.
fn extend_zeroed(cells: &mut Vec<u64>, end: usize) {
    let len = cells.len();
    if end - len >= len {
        let mut grown = vec![0; end];
        grown[..len].copy_from_slice(cells);
        *cells = grown;
    } else {
        cells.resize(end, 0);
    }
}

/// The register arena (see the module docs for the layout): genuine
/// structure-of-arrays — kinds, payloads, and access counts in parallel
/// dense vectors, so a scan streams 8-byte values (plus a 1-byte kind
/// check and an 8-byte count bump in their own sequential streams) instead
/// of dragging a 32-byte per-register struct through the cache with every
/// read. The counter-matrix scan is the hottest loop in the repository;
/// the split layout roughly halves its memory traffic and lets the span
/// paths compile to `memcpy` + a vectorized increment loop.
pub struct Memory {
    /// Storage class per register (1 byte, dense).
    kinds: Vec<Kind>,
    /// The value for `Kind::Word`, the index into `Memory::boxed` for
    /// `Kind::Boxed`.
    payloads: Vec<u64>,
    /// Completed reads per register.
    reads: Vec<u64>,
    /// Completed writes per register (version counter).
    writes: Vec<u64>,
    /// The non-empty allocations in arena order (strictly increasing
    /// `start`): where names (on demand) and write disciplines (on writes)
    /// come from.
    blocks: Vec<Block>,
    /// The disciplines the write path looked up last, direct-mapped by
    /// register index (`u32::MAX`, which no register has, marks a free
    /// entry): a process writes the same few registers over and over, and
    /// this keeps those writes off the block search. Never stale — a
    /// register's discipline is fixed at allocation and indices are not
    /// reused.
    written: [(u32, WriteDiscipline); WRITTEN_MEMO],
    /// Side table for non-word values.
    boxed: Vec<Box<dyn Any>>,
    /// Completed writes over the whole arena (see [`Memory::version`]).
    version: u64,
}

/// Entries in [`Memory`]'s memo of recently written registers' disciplines.
const WRITTEN_MEMO: usize = 64;

impl Default for Memory {
    fn default() -> Self {
        Memory {
            kinds: Vec::new(),
            payloads: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            blocks: Vec::new(),
            written: [(u32::MAX, WriteDiscipline::MultiWriter); WRITTEN_MEMO],
            boxed: Vec::new(),
            version: 0,
        }
    }
}

/// Per-register access statistics, reported after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisterStats {
    /// Name given at allocation.
    pub name: String,
    /// Completed writes.
    pub writes: u64,
    /// Completed reads.
    pub reads: u64,
}

fn is_word<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<u64>()
}

/// Converts a `T` proven (by [`is_word`]) to be `u64`. The `dyn Any` hop is
/// how safe Rust spells a checked transmute; it compiles to a move once
/// monomorphized.
fn to_word<T: RegValue>(value: T) -> u64 {
    *(&value as &dyn Any)
        .downcast_ref::<u64>()
        .expect("caller checked T = u64")
}

/// Inverse of [`to_word`].
fn from_word<T: RegValue>(word: u64) -> T {
    (&word as &dyn Any)
        .downcast_ref::<T>()
        .expect("caller checked T = u64")
        .clone()
}

impl Memory {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of allocated registers.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if no register has been allocated.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Allocates a register with the given write discipline and initial
    /// value, returning its typed handle: the one-register
    /// [`alloc_block`](Self::alloc_block). `u64` values take the word fast
    /// path (see the module docs).
    pub fn alloc<T: RegValue>(
        &mut self,
        name: impl Into<String>,
        discipline: WriteDiscipline,
        init: T,
    ) -> Reg<T> {
        let name = name.into();
        self.alloc_block(1, init, move |_| discipline, move |_| name.clone())
    }

    /// Allocates `count` consecutive registers holding `init` and returns
    /// the handle of the first; the `i`-th is [`Reg::at`]`(i)`. Register
    /// `i` of the block gets write discipline `discipline(i)` — asked on
    /// every write to it — and, when somebody asks (see
    /// [`name`](Self::name)), the name `name(i)`: both recipes are stored,
    /// neither is run here. The dense arrays grow once for the whole block,
    /// and a zero-initialized word block writes none of its value or count
    /// cells (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed the `u32` handle space.
    pub fn alloc_block<T: RegValue>(
        &mut self,
        count: usize,
        init: T,
        discipline: impl Fn(usize) -> WriteDiscipline + 'static,
        name: impl Fn(usize) -> String + 'static,
    ) -> Reg<T> {
        let start = self.kinds.len();
        let end = start + count;
        u32::try_from(end).expect("register arena exceeds the u32 handle space");
        let base = Reg::new(start as u32);
        if count == 0 {
            return base;
        }
        if is_word::<T>() {
            self.kinds.resize(end, Kind::Word);
            match to_word(init) {
                0 => extend_zeroed(&mut self.payloads, end),
                word => self.payloads.resize(end, word),
            }
        } else {
            let slot = self.boxed.len();
            self.kinds.resize(end, Kind::Boxed);
            self.payloads.extend((slot..slot + count).map(|s| s as u64));
            self.boxed
                .extend((0..count).map(|_| Box::new(init.clone()) as Box<dyn Any>));
        }
        extend_zeroed(&mut self.reads, end);
        extend_zeroed(&mut self.writes, end);
        self.blocks.push(Block {
            start,
            name: Box::new(name),
            discipline: Box::new(discipline),
        });
        base
    }

    fn type_mismatch(&self, index: usize) -> SimError {
        SimError::TypeMismatch {
            register: index,
            name: self.format_name(index),
        }
    }

    /// The block of in-arena register `index`, and its position in it: the
    /// last block starting at or before it.
    #[inline]
    fn block_of(&self, index: usize) -> (&Block, usize) {
        let block = &self.blocks[self.blocks.partition_point(|b| b.start <= index) - 1];
        (block, index - block.start)
    }

    /// Enforces the write discipline of in-arena register `index`: its
    /// block's rule, asked once per stretch of writes to the register (see
    /// the `written` memo).
    #[inline]
    fn check_writer(&mut self, index: usize, writer: ProcessId) -> Result<(), SimError> {
        let (tag, slot) = (index as u32, index % WRITTEN_MEMO);
        let mut memo = self.written[slot];
        if memo.0 != tag {
            let (block, i) = self.block_of(index);
            memo = (tag, (block.discipline)(i));
            self.written[slot] = memo;
        }
        match memo.1 {
            WriteDiscipline::SingleWriter(owner) if owner != writer => {
                Err(self.writer_violation(index, owner, writer))
            }
            _ => Ok(()),
        }
    }

    /// Atomic read: returns a clone of the current value and counts the
    /// access.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`] for a foreign handle,
    /// [`SimError::TypeMismatch`] if `T` differs from the allocation type.
    pub fn read<T: RegValue>(&mut self, reg: Reg<T>) -> Result<T, SimError> {
        if is_word::<T>() {
            // Monomorphizes to the word path for T = u64.
            let forged: Reg<u64> = Reg::new(reg.index);
            return self.read_word(forged).map(from_word);
        }
        let idx = reg.index();
        match self.kinds.get(idx) {
            Some(Kind::Boxed) => {
                let value = self.boxed[self.payloads[idx] as usize]
                    .downcast_ref::<T>()
                    .ok_or_else(|| self.type_mismatch(idx))?
                    .clone();
                self.reads[idx] += 1;
                Ok(value)
            }
            Some(Kind::Word) => Err(self.type_mismatch(idx)),
            None => Err(SimError::UnknownRegister { register: idx }),
        }
    }

    /// Atomic word read: the non-generic fast path for `u64` registers — a
    /// bounds check, a kind compare, and a count bump on one hot cell.
    ///
    /// # Errors
    ///
    /// Same as [`Memory::read`].
    #[inline]
    pub fn read_word(&mut self, reg: Reg<u64>) -> Result<u64, SimError> {
        let idx = reg.index();
        match self.kinds.get(idx) {
            Some(Kind::Word) => {
                self.reads[idx] += 1;
                Ok(self.payloads[idx])
            }
            Some(_) => Err(self.type_mismatch(idx)),
            None => Err(SimError::UnknownRegister { register: idx }),
        }
    }

    /// Atomic write: replaces the value and counts the access, enforcing the
    /// register's write discipline.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`], [`SimError::TypeMismatch`], or
    /// [`SimError::WriteDisciplineViolation`] when a single-writer register
    /// is written by a foreign process.
    pub fn write<T: RegValue>(
        &mut self,
        writer: ProcessId,
        reg: Reg<T>,
        value: T,
    ) -> Result<(), SimError> {
        if is_word::<T>() {
            let forged: Reg<u64> = Reg::new(reg.index);
            return self.write_word(writer, forged, to_word(value));
        }
        let idx = reg.index();
        let kind = *self
            .kinds
            .get(idx)
            .ok_or(SimError::UnknownRegister { register: idx })?;
        self.check_writer(idx, writer)?;
        match kind {
            Kind::Boxed => {
                match self.boxed[self.payloads[idx] as usize].downcast_mut::<T>() {
                    Some(slot) => *slot = value,
                    None => return Err(self.type_mismatch(idx)),
                }
                self.writes[idx] += 1;
                self.version += 1;
                Ok(())
            }
            Kind::Word => Err(self.type_mismatch(idx)),
        }
    }

    /// Atomic reads of `dest.len()` consecutive word registers starting
    /// `offset` slots after `base` — the span form of
    /// [`read_word`](Self::read_word), one bounds check for the whole range
    /// and a tight copy/count loop the compiler can vectorize. Each slot
    /// counts as one completed read, exactly as `dest.len()` calls to
    /// `read_word` would.
    ///
    /// The span is *not* one atomic operation of the model — callers (the
    /// batched SoA drive) are responsible for only using it where the
    /// per-slot reads are known to commute with every concurrently
    /// scheduled operation.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`] if the span leaves the arena,
    /// [`SimError::TypeMismatch`] if any slot holds a non-word register. No
    /// access is counted on error.
    pub fn read_word_span(
        &mut self,
        base: Reg<u64>,
        offset: usize,
        dest: &mut [u64],
    ) -> Result<(), SimError> {
        let start = base.index() + offset;
        let end = start + dest.len();
        if end > self.kinds.len() {
            return Err(SimError::UnknownRegister {
                register: end.saturating_sub(1),
            });
        }
        // Three tight passes over the parallel arrays: a 1-byte kind scan,
        // a payload memcpy, and a vectorized count bump — each its own
        // sequential stream.
        if let Some(bad) = self.kinds[start..end].iter().position(|&k| k != Kind::Word) {
            return Err(self.type_mismatch(start + bad));
        }
        dest.copy_from_slice(&self.payloads[start..end]);
        for r in &mut self.reads[start..end] {
            *r += 1;
        }
        Ok(())
    }

    /// Atomic word write: the non-generic fast path for `u64` registers.
    ///
    /// # Errors
    ///
    /// Same as [`Memory::write`].
    #[inline]
    pub fn write_word(
        &mut self,
        writer: ProcessId,
        reg: Reg<u64>,
        value: u64,
    ) -> Result<(), SimError> {
        let idx = reg.index();
        let kind = *self
            .kinds
            .get(idx)
            .ok_or(SimError::UnknownRegister { register: idx })?;
        // The discipline is the block's rule, looked up on writes only
        // (reads outnumber writes ~n·|Π^k_n| to 1 in Figure 2).
        self.check_writer(idx, writer)?;
        match kind {
            Kind::Word => {
                self.payloads[idx] = value;
                self.writes[idx] += 1;
                self.version += 1;
                Ok(())
            }
            Kind::Boxed => Err(self.type_mismatch(idx)),
        }
    }

    #[cold]
    fn writer_violation(&self, index: usize, owner: ProcessId, writer: ProcessId) -> SimError {
        SimError::WriteDisciplineViolation {
            register: index,
            name: self.format_name(index),
            owner,
            writer,
        }
    }

    /// Non-step observation of a register (for tests and instrumentation):
    /// does not count as an access.
    ///
    /// # Errors
    ///
    /// Same as [`Memory::read`], minus accounting.
    pub fn peek<T: RegValue>(&self, reg: Reg<T>) -> Result<T, SimError> {
        let idx = reg.index();
        let kind = *self
            .kinds
            .get(idx)
            .ok_or(SimError::UnknownRegister { register: idx })?;
        match kind {
            Kind::Word if is_word::<T>() => Ok(from_word(self.payloads[idx])),
            Kind::Boxed => self.boxed[self.payloads[idx] as usize]
                .downcast_ref::<T>()
                .cloned()
                .ok_or_else(|| self.type_mismatch(idx)),
            Kind::Word => Err(self.type_mismatch(idx)),
        }
    }

    /// Name of a register, formatted now from its block's recipe (see the
    /// module docs): cold by design — error paths, statistics and tests.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`] for a foreign handle.
    pub fn name(&self, index: usize) -> Result<String, SimError> {
        if index < self.kinds.len() {
            Ok(self.format_name(index))
        } else {
            Err(SimError::UnknownRegister { register: index })
        }
    }

    /// Name of in-arena register `index`, from its block's recipe.
    fn format_name(&self, index: usize) -> String {
        let (block, i) = self.block_of(index);
        (block.name)(i)
    }

    /// Access statistics for all registers, in allocation order. Formats
    /// every name: O(registers) allocations, paid only by callers that ask.
    pub fn stats(&self) -> Vec<RegisterStats> {
        (0..self.kinds.len())
            .map(|index| RegisterStats {
                name: self.format_name(index),
                writes: self.writes[index],
                reads: self.reads[index],
            })
            .collect()
    }

    /// Completed writes over the whole arena: rises by exactly one with
    /// every write that completes and with nothing else — not with reads,
    /// peeks or refused writes, and allocation leaves it alone. Register
    /// contents are a function of it between allocations: equal versions
    /// mean every register [`peek`](Self::peek)s equal, which is what lets
    /// an observer of the arena (the chooser of
    /// [`Sim::run_adaptive`](crate::Sim::run_adaptive)) keep anything it
    /// derived from the contents until the version moves.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total completed register operations (reads + writes).
    pub fn total_ops(&self) -> u64 {
        self.reads.iter().chain(&self.writes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut m = Memory::new();
        let r = m.alloc("x", WriteDiscipline::MultiWriter, 0u64);
        assert_eq!(m.read(r).unwrap(), 0);
        m.write(p(0), r, 42).unwrap();
        assert_eq!(m.read(r).unwrap(), 42);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn word_fast_path_roundtrip() {
        let mut m = Memory::new();
        let r = m.alloc("hb", WriteDiscipline::MultiWriter, 7u64);
        // Word and generic accessors see the same cell.
        assert_eq!(m.read_word(r).unwrap(), 7);
        m.write_word(p(1), r, 9).unwrap();
        assert_eq!(m.read(r).unwrap(), 9);
        m.write(p(0), r, 11).unwrap();
        assert_eq!(m.read_word(r).unwrap(), 11);
        let stats = m.stats();
        assert_eq!(stats[0].reads, 3);
        assert_eq!(stats[0].writes, 2);
    }

    #[test]
    fn word_accessors_reject_boxed_cells() {
        let mut m = Memory::new();
        let r = m.alloc("s", WriteDiscipline::MultiWriter, String::from("x"));
        let forged: Reg<u64> = Reg::new(r.index);
        assert!(matches!(
            m.read_word(forged),
            Err(SimError::TypeMismatch { .. })
        ));
        assert!(matches!(
            m.write_word(p(0), forged, 1),
            Err(SimError::TypeMismatch { .. })
        ));
        // Failed accesses are not counted.
        assert_eq!(m.stats()[0].reads + m.stats()[0].writes, 0);
    }

    #[test]
    fn structured_values() {
        let mut m = Memory::new();
        let r = m.alloc(
            "pair",
            WriteDiscipline::MultiWriter,
            (0u64, Vec::<u32>::new()),
        );
        m.write(p(1), r, (7, vec![1, 2])).unwrap();
        assert_eq!(m.read(r).unwrap(), (7, vec![1, 2]));
    }

    #[test]
    fn word_and_boxed_registers_interleave() {
        // The boxed side table must stay aligned when allocations alternate
        // between the dense and boxed classes.
        let mut m = Memory::new();
        let w0 = m.alloc("w0", WriteDiscipline::MultiWriter, 10u64);
        let b0 = m.alloc("b0", WriteDiscipline::MultiWriter, String::from("a"));
        let w1 = m.alloc("w1", WriteDiscipline::MultiWriter, 20u64);
        let b1 = m.alloc("b1", WriteDiscipline::MultiWriter, vec![1u32]);
        m.write(p(0), b0, "z".into()).unwrap();
        m.write_word(p(0), w1, 21).unwrap();
        assert_eq!(m.read(b0).unwrap(), "z");
        assert_eq!(m.read(b1).unwrap(), vec![1u32]);
        assert_eq!(m.read_word(w0).unwrap(), 10);
        assert_eq!(m.read_word(w1).unwrap(), 21);
    }

    #[test]
    fn single_writer_enforced() {
        let mut m = Memory::new();
        let r = m.alloc("hb", WriteDiscipline::SingleWriter(p(2)), 0u64);
        assert!(m.write(p(2), r, 1).is_ok());
        let err = m.write(p(0), r, 9).unwrap_err();
        assert!(matches!(err, SimError::WriteDisciplineViolation { .. }));
        // The word path enforces the same discipline.
        let err = m.write_word(p(0), r, 9).unwrap_err();
        assert!(matches!(err, SimError::WriteDisciplineViolation { .. }));
        // Failed write must not change the value or counts.
        assert_eq!(m.peek(r).unwrap(), 1);
        assert_eq!(m.stats()[0].writes, 1);
    }

    #[test]
    fn type_mismatch_detected() {
        let mut m = Memory::new();
        let r = m.alloc("x", WriteDiscipline::MultiWriter, 5u64);
        // Forge a handle with the wrong type at the same index.
        let wrong: Reg<String> = Reg::new(r.index);
        assert!(matches!(m.peek(wrong), Err(SimError::TypeMismatch { .. })));
        let mut_err = m.read(wrong);
        assert!(matches!(mut_err, Err(SimError::TypeMismatch { .. })));
        assert!(matches!(
            m.write(p(0), wrong, "s".into()),
            Err(SimError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_register_detected() {
        let mut m = Memory::new();
        let r: Reg<u64> = Reg::new(9);
        assert!(matches!(
            m.peek(r),
            Err(SimError::UnknownRegister { register: 9 })
        ));
        assert!(matches!(
            m.read_word(r),
            Err(SimError::UnknownRegister { register: 9 })
        ));
    }

    #[test]
    fn accounting() {
        let mut m = Memory::new();
        let r = m.alloc("x", WriteDiscipline::MultiWriter, 0u64);
        let s = m.alloc("y", WriteDiscipline::MultiWriter, 0u64);
        m.write(p(0), r, 1).unwrap();
        let _ = m.read(r).unwrap();
        let _ = m.read(r).unwrap();
        let _ = m.peek(s).unwrap(); // peek not counted
        let stats = m.stats();
        assert_eq!(stats[0].writes, 1);
        assert_eq!(stats[0].reads, 2);
        assert_eq!(stats[1].reads, 0);
        assert_eq!(m.total_ops(), 3);
        assert_eq!(m.name(0).unwrap(), "x");
    }

    #[test]
    fn block_is_contiguous_with_per_index_discipline_and_name() {
        let mut m = Memory::new();
        let lone = m.alloc("lone", WriteDiscipline::MultiWriter, 1u64);
        let base = m.alloc_block(
            4,
            9u64,
            |i| WriteDiscipline::SingleWriter(p(i)),
            |i| format!("row[{i}]"),
        );
        assert_eq!((lone.index(), base.index(), m.len()), (0, 1, 5));
        for i in 0..4 {
            assert_eq!(m.peek(base.at(i)).unwrap(), 9);
            assert_eq!(m.name(1 + i).unwrap(), format!("row[{i}]"));
            m.write_word(p(i), base.at(i), i as u64).unwrap();
        }
        assert_eq!(m.name(0).unwrap(), "lone");
        assert_eq!(m.name(5), Err(SimError::UnknownRegister { register: 5 }));
        // An empty block allocates nothing and names nothing.
        let empty = m.alloc_block(
            0,
            0u64,
            |_| WriteDiscipline::MultiWriter,
            |_| "never".into(),
        );
        assert_eq!((empty.index(), m.len()), (5, 5));
        let after = m.alloc("after", WriteDiscipline::MultiWriter, 0u64);
        assert_eq!(m.name(after.index()).unwrap(), "after");
        let stats = m.stats();
        assert_eq!(stats.len(), 6);
        assert_eq!((stats[3].name.as_str(), stats[3].writes), ("row[2]", 1));
    }

    #[test]
    fn a_zero_extended_block_keeps_everything_before_it() {
        let mut m = Memory::new();
        let early = m.alloc_block(
            3,
            5u64,
            |i| WriteDiscipline::SingleWriter(p(i)),
            |i| format!("early[{i}]"),
        );
        m.write_word(p(1), early.at(1), 8).unwrap();
        m.read_word(early.at(1)).unwrap();
        m.read_word(early.at(2)).unwrap();
        // Longer than the arena before it: the untouched-allocation path.
        let late = m.alloc_block(
            64,
            0u64,
            |i| WriteDiscipline::SingleWriter(p(i % 4)),
            |i| format!("late[{i}]"),
        );
        // Shorter than the arena before it: extended in place.
        let tail = m.alloc("tail", WriteDiscipline::MultiWriter, 0u64);
        assert_eq!((late.index(), tail.index(), m.len()), (3, 67, 68));
        let values: Vec<u64> = (0..3).map(|i| m.peek(early.at(i)).unwrap()).collect();
        assert_eq!(values, [5, 8, 5]);
        let stats = m.stats();
        let counts: Vec<(u64, u64)> = stats[..3].iter().map(|s| (s.reads, s.writes)).collect();
        assert_eq!(counts, [(0, 0), (1, 1), (1, 0)]);
        assert_eq!(stats[2].name, "early[2]");
        assert!(stats[3..]
            .iter()
            .all(|s| (s.reads, s.writes) == (0, 0) && s.name != "early[2]"));
        assert!((0..64).all(|i| m.peek(late.at(i)).unwrap() == 0));
        // The early block's rule still guards it, the late block's its own:
        // a foreign write into the middle of either names owner and cell.
        assert_eq!(
            m.write_word(p(0), early.at(2), 1),
            Err(SimError::WriteDisciplineViolation {
                register: 2,
                name: "early[2]".into(),
                owner: p(2),
                writer: p(0),
            })
        );
        assert_eq!(
            m.write_word(p(0), late.at(41), 1),
            Err(SimError::WriteDisciplineViolation {
                register: 44,
                name: "late[41]".into(),
                owner: p(1),
                writer: p(0),
            })
        );
        m.write_word(p(1), late.at(41), 9).unwrap();
        m.write_word(p(3), tail, 4).unwrap();
        assert_eq!((m.peek(late.at(41)), m.peek(tail)), (Ok(9), Ok(4)));
        assert_eq!((m.peek(late.at(40)), m.peek(late.at(42))), (Ok(0), Ok(0)));
    }

    #[test]
    fn the_written_memo_never_answers_for_another_register() {
        // Registers WRITTEN_MEMO apart share a memo entry; each keeps its
        // own owner however the writes to them interleave.
        let mut m = Memory::new();
        let regs = m.alloc_block(
            3 * WRITTEN_MEMO,
            0u64,
            |i| match i / WRITTEN_MEMO {
                0 => WriteDiscipline::SingleWriter(p(0)),
                1 => WriteDiscipline::SingleWriter(p(1)),
                _ => WriteDiscipline::MultiWriter,
            },
            |i| format!("r[{i}]"),
        );
        let (first, second, open) = (
            regs.at(5),
            regs.at(5 + WRITTEN_MEMO),
            regs.at(5 + 2 * WRITTEN_MEMO),
        );
        for round in 1..=3 {
            m.write_word(p(0), first, round).unwrap();
            assert!(m.write_word(p(0), second, round).is_err());
            m.write_word(p(1), second, round).unwrap();
            m.write_word(p(0), open, round).unwrap();
            assert_eq!(
                m.write_word(p(1), first, round),
                Err(SimError::WriteDisciplineViolation {
                    register: first.index(),
                    name: "r[5]".into(),
                    owner: p(0),
                    writer: p(1),
                })
            );
        }
        let stats = m.stats();
        let writes = |r: Reg<u64>| stats[r.index()].writes;
        assert_eq!((writes(first), writes(second), writes(open)), (3, 3, 3));
    }

    #[test]
    fn non_zero_and_boxed_blocks_are_written_however_long() {
        // Both blocks outgrow the arena before them, as a zeroed extension
        // must; neither may take it.
        let mut m = Memory::new();
        let lone = m.alloc("lone", WriteDiscipline::MultiWriter, 0u64);
        let sevens = m.alloc_block(
            8,
            7u64,
            |_| WriteDiscipline::MultiWriter,
            |i| format!("seven[{i}]"),
        );
        let notes = m.alloc_block(
            32,
            String::from("init"),
            |_| WriteDiscipline::MultiWriter,
            |i| format!("note[{i}]"),
        );
        assert!((0..8).all(|i| m.read_word(sevens.at(i)) == Ok(7)));
        m.write(p(0), notes.at(30), String::from("changed"))
            .unwrap();
        for i in 0..32 {
            let want = if i == 30 { "changed" } else { "init" };
            assert_eq!(m.read(notes.at(i)).unwrap(), want);
        }
        assert_eq!(m.peek(lone), Ok(0));
        assert_eq!(m.total_ops(), 8 + 1 + 32);
    }

    #[test]
    fn errors_in_the_middle_of_a_block_carry_the_register_name() {
        let mut m = Memory::new();
        let _pad = m.alloc_block(
            3,
            0u64,
            |_| WriteDiscipline::MultiWriter,
            |i| format!("pad[{i}]"),
        );
        let words = m.alloc_block(
            5,
            0u64,
            |i| WriteDiscipline::SingleWriter(p(i)),
            |i| format!("Counter[{i}]"),
        );
        let boxed = m.alloc_block(
            4,
            String::new(),
            |i| WriteDiscipline::SingleWriter(p(i)),
            |i| format!("note[{i}]"),
        );
        assert_eq!(
            m.write_word(p(0), words.at(2), 1),
            Err(SimError::WriteDisciplineViolation {
                register: 5,
                name: "Counter[2]".into(),
                owner: p(2),
                writer: p(0),
            })
        );
        assert_eq!(
            m.write(p(3), boxed.at(1), "x".to_string()),
            Err(SimError::WriteDisciplineViolation {
                register: 9,
                name: "note[1]".into(),
                owner: p(1),
                writer: p(3),
            })
        );
        let forged: Reg<String> = Reg::new(words.at(3).index);
        assert_eq!(
            m.read(forged),
            Err(SimError::TypeMismatch {
                register: 6,
                name: "Counter[3]".into(),
            })
        );
        let forged: Reg<u64> = Reg::new(boxed.at(2).index);
        assert_eq!(
            m.read_word(forged),
            Err(SimError::TypeMismatch {
                register: 10,
                name: "note[2]".into(),
            })
        );
        // The span path names the first offending slot, not the span start.
        let mut dest = [0u64; 4];
        assert_eq!(
            m.read_word_span(words, 3, &mut dest),
            Err(SimError::TypeMismatch {
                register: 8,
                name: "note[0]".into(),
            })
        );
    }
}
