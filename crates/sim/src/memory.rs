//! The register arena: the shared memory `Ξ` of the model.
//!
//! Registers are allocated before the run, hold a value of a fixed-width
//! word type ([`RegValue`]), and are accessed atomically (the simulator is
//! single-threaded; atomicity is by construction). Accounting (read/write
//! counts, versions) feeds the trace.
//!
//! # Every register is words, and the arena layout
//!
//! Every register of the paper's protocols is a few words: Figure 2's
//! `Heartbeat[p]` and `Counter[A, q]`, ballots and round counters are one
//! `u64`; decisions and published values are `Option<Value>` (two words),
//! BG's cell copies `(u64, Option<Value>)` three and the Paxos record four.
//! The k-anti-Ω inner loop reads `|Π^k_n|·n` word registers per iteration —
//! so the register representation sits on the hottest path of the whole
//! simulator. Three layout decisions follow:
//!
//! 1. **One storage class.** A register of type `T` is `T::WORDS`
//!    consecutive words of one dense `Vec<u64>`, read or written whole in
//!    one step, and its handle is the index of its first word.
//!    [`Memory::read_word`] / [`Memory::write_word`] touch a `u64` register
//!    with a bounds check and an array load; the generic [`Memory::read`] /
//!    [`Memory::write`] route one-word types to the same path at compile
//!    time and decode / encode the others in place. There is no side table
//!    and no type erasure: the arena's contents are plain words, so a clone
//!    of a [`Memory`] is a snapshot of it.
//! 2. **Structure of arrays.** Values, read counts and write counts are
//!    three parallel dense word vectors (a register's counts sit at its
//!    first word) instead of an array of register structs. A protocol that
//!    sweeps hundreds of registers per iteration (the Figure 2 counter
//!    matrix) then streams a few KiB of dense values: the per-step cost of
//!    the sweep is the load, the count bump, and nothing else.
//! 3. **Blocks, with names, disciplines and types by rule.** Registers are
//!    allocated in *blocks* ([`Memory::alloc_block`]): `count` consecutive
//!    registers of one type with one initial value, a per-index
//!    *write-discipline rule* (`Fn(usize) -> WriteDiscipline`) and a
//!    per-index *name recipe* (`Fn(usize) -> String`). The dense vectors
//!    are extended once per block, and the two closures, the register width
//!    and the type's `TypeId` are stored once per block, in a block table
//!    sorted by first word — no name is formatted, no `String` and no
//!    per-register discipline or type is stored, at allocation time.
//!    [`Memory::alloc`] is the one-register block.
//!
//! What **allocation costs**: 24 bytes of address space per arena word
//! (value, read count, write count), `24 · WORDS` per register, and one
//! table entry per block. A block whose initial value encodes to zeros
//! (`0`, `None`, a default Paxos record) writes nothing: it extends the
//! three vectors through a zeroed allocation, which for a large block is
//! untouched pages, so a cell becomes resident when a run first reads or
//! writes it and a fleet that executes few steps pays for few cells
//! (Figure 2's `|Π^k_n|·n` counters, or the lean detector's `n²` =
//! 1 048 576 at n = 1024, used to be written — and page-faulted in —
//! 33 bytes apiece before the first step). Only a block with a non-zero
//! initial value is written.
//!
//! What is **hot** (touched by every simulated step): the value words and
//! the read or write count of the accessed register. What is **asked per
//! write**: the discipline — the block table is binary-searched and the
//! block's rule run, behind a small direct-mapped memo of the word
//! registers written last (a process keeps writing the same few registers;
//! reads outnumber writes `n·|Π^k_n|` to 1 in Figure 2). What is **on
//! demand**: names. [`Memory::name`] searches the same table and runs the
//! recipe; only the [`SimError`] constructors (a protocol bug is being
//! reported) and tests ever call it, so a run that reports no error
//! formats nothing — [`Memory::stats`] included, which reports indices.
//!
//! # What is type-checked
//!
//! [`Memory::peek`] and the multi-word [`Memory::read`] / [`Memory::write`]
//! look the block up and return [`SimError::TypeMismatch`] unless the
//! handle is the first word of a register of the block's type. A word
//! write finds the block on a memo miss anyway, so it also refuses a
//! multi-word block. The word *read* paths ([`Memory::read_word`],
//! [`StepAccess::read_word_array`](crate::StepAccess::read_word_array),
//! [`Memory::read_word_span`]) check bounds only: a word read of a
//! multi-word register reads its first word. That is the one detection an
//! arena of words gives up, and it was never much: the per-register kind
//! byte this arena used to keep only told words from boxed values, and a
//! scan that overran into the next *word* block passed it too.
//!
//! Handles, disciplines, and error behavior are independent of the layout.

use std::any::TypeId;
use std::rc::Rc;

use st_core::ProcessId;

use crate::error::SimError;
use crate::register::{Reg, RegValue, WriteDiscipline};

/// Words of the widest register type the arena takes.
const MAX_WORDS: usize = 8;

/// One allocation: a run of consecutive registers of one type sharing a
/// name recipe and a write-discipline rule. The recipes are shared, so a
/// clone of the table copies no closure.
#[derive(Clone)]
struct Block {
    /// Arena index of the block's first word.
    start: usize,
    /// Words per register (`T::WORDS`).
    width: usize,
    /// The register type, `TypeId::of::<T>()`.
    ty: TypeId,
    /// Formats the name of the block's `i`-th register.
    name: Rc<dyn Fn(usize) -> String>,
    /// The write discipline of the block's `i`-th register.
    discipline: Rc<dyn Fn(usize) -> WriteDiscipline>,
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
/// structure-of-arrays — values and access counts in parallel dense word
/// vectors, so a scan streams 8-byte values (plus an 8-byte count bump in
/// its own sequential stream) instead of dragging a per-register struct
/// through the cache with every read. The counter-matrix scan is the
/// hottest loop in the repository; the split layout roughly halves its
/// memory traffic and lets the span paths compile to `memcpy` + a
/// vectorized increment loop.
///
/// A clone is an independent snapshot: contents, counts and version.
#[derive(Clone)]
pub struct Memory {
    /// Register contents, `T::WORDS` consecutive words per register.
    values: Vec<u64>,
    /// Completed reads, at each register's first word.
    reads: Vec<u64>,
    /// Completed writes (version counter), at each register's first word.
    writes: Vec<u64>,
    /// The non-empty allocations in arena order (strictly increasing
    /// `start`): where names (on demand), write disciplines (on writes) and
    /// register types (on typed accesses) come from.
    blocks: Vec<Block>,
    /// The disciplines the word write path looked up last, direct-mapped by
    /// word index (`u32::MAX`, which no word has, marks a free entry): a
    /// process writes the same few registers over and over, and this keeps
    /// those writes off the block search. Never stale — a register's
    /// discipline is fixed at allocation and indices are not reused — and
    /// only ever filled for one-word blocks.
    written: [(u32, WriteDiscipline); WRITTEN_MEMO],
    /// Completed writes over the whole arena (see [`Memory::version`]).
    version: u64,
}

/// Entries in [`Memory`]'s memo of recently written registers' disciplines.
const WRITTEN_MEMO: usize = 64;

impl Default for Memory {
    fn default() -> Self {
        Memory {
            values: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            blocks: Vec::new(),
            written: [(u32::MAX, WriteDiscipline::MultiWriter); WRITTEN_MEMO],
            version: 0,
        }
    }
}

/// Per-register access statistics, reported after a run. The register's
/// name is [`Memory::name`]`(index)`, formatted only when asked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisterStats {
    /// Arena index of the register's first word: its handle's
    /// [`index`](Reg::index).
    pub index: usize,
    /// Completed writes.
    pub writes: u64,
    /// Completed reads.
    pub reads: u64,
}

impl Memory {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of allocated arena words (a register takes its type's
    /// [`WORDS`](RegValue::WORDS)).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no register has been allocated.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Allocates a register with the given write discipline and initial
    /// value, returning its typed handle: the one-register
    /// [`alloc_block`](Self::alloc_block).
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
    /// neither is run here. The dense vectors grow once for the whole block,
    /// and a block whose `init` encodes to zeros writes none of its cells
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed the `u32` handle space. A type wider
    /// than 8 words does not compile.
    pub fn alloc_block<T: RegValue>(
        &mut self,
        count: usize,
        init: T,
        discipline: impl Fn(usize) -> WriteDiscipline + 'static,
        name: impl Fn(usize) -> String + 'static,
    ) -> Reg<T> {
        const { assert!(T::WORDS >= 1 && T::WORDS <= MAX_WORDS) };
        let start = self.values.len();
        let end = start + count * T::WORDS;
        u32::try_from(end).expect("register arena exceeds the u32 handle space");
        if count == 0 {
            return Reg::new(start as u32);
        }
        let mut first = [0; MAX_WORDS];
        init.encode(&mut first[..T::WORDS]);
        if first.iter().all(|&w| w == 0) {
            extend_zeroed(&mut self.values, end);
        } else {
            let words = first[..T::WORDS].iter().cycle().take(end - start);
            self.values.extend(words);
        }
        extend_zeroed(&mut self.reads, end);
        extend_zeroed(&mut self.writes, end);
        self.blocks.push(Block {
            start,
            width: T::WORDS,
            ty: TypeId::of::<T>(),
            name: Rc::new(name),
            discipline: Rc::new(discipline),
        });
        Reg::new(start as u32)
    }

    #[cold]
    fn type_mismatch(&self, index: usize) -> SimError {
        SimError::TypeMismatch {
            register: index,
            name: self.format_name(index),
        }
    }

    /// The block of in-arena word `index`, and the position in it of the
    /// register that word belongs to: the last block starting at or before
    /// it.
    #[inline]
    fn block_of(&self, index: usize) -> (&Block, usize) {
        let block = &self.blocks[self.blocks.partition_point(|b| b.start <= index) - 1];
        (block, (index - block.start) / block.width)
    }

    /// The block of the `T` register `reg` and its position in it, checked:
    /// `reg` must be the first word of a register of a block of `T`s.
    fn typed<T: RegValue>(&self, reg: Reg<T>) -> Result<(&Block, usize), SimError> {
        let idx = reg.index();
        if idx >= self.values.len() {
            return Err(SimError::UnknownRegister { register: idx });
        }
        let (block, i) = self.block_of(idx);
        if block.ty != TypeId::of::<T>() || block.start + i * block.width != idx {
            return Err(self.type_mismatch(idx));
        }
        Ok((block, i))
    }

    /// Enforces the write discipline of in-arena word register `index`: its
    /// block's rule, asked once per stretch of writes to the register (see
    /// the `written` memo). A miss also refuses a multi-word block.
    #[inline]
    fn check_writer(&mut self, index: usize, writer: ProcessId) -> Result<(), SimError> {
        let (tag, slot) = (index as u32, index % WRITTEN_MEMO);
        let mut memo = self.written[slot];
        if memo.0 != tag {
            let (block, i) = self.block_of(index);
            if block.width != 1 {
                return Err(self.type_mismatch(index));
            }
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

    /// Atomic read: returns the current value and counts the access.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`] for a foreign handle, and for a
    /// multi-word `T` [`SimError::TypeMismatch`] if `reg` is not a `T`
    /// register (a one-word `T` reads as [`read_word`](Self::read_word)).
    pub fn read<T: RegValue>(&mut self, reg: Reg<T>) -> Result<T, SimError> {
        if T::WORDS == 1 {
            return self.read_word(Reg::new(reg.index)).map(|w| T::decode(&[w]));
        }
        let value = self.peek(reg)?;
        self.reads[reg.index()] += 1;
        Ok(value)
    }

    /// Atomic word read: the non-generic fast path for `u64` registers — a
    /// bounds check and a count bump on one hot cell.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`] for a foreign handle.
    #[inline]
    pub fn read_word(&mut self, reg: Reg<u64>) -> Result<u64, SimError> {
        let idx = reg.index();
        match self.values.get(idx) {
            Some(&value) => {
                self.reads[idx] += 1;
                Ok(value)
            }
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
        let idx = reg.index();
        if T::WORDS == 1 {
            let mut word = [0];
            value.encode(&mut word);
            return self.write_word(writer, Reg::new(reg.index), word[0]);
        }
        let (block, i) = self.typed(reg)?;
        if let WriteDiscipline::SingleWriter(owner) = (block.discipline)(i) {
            if owner != writer {
                return Err(self.writer_violation(idx, owner, writer));
            }
        }
        value.encode(&mut self.values[idx..idx + T::WORDS]);
        self.writes[idx] += 1;
        self.version += 1;
        Ok(())
    }

    /// Atomic reads of `dest.len()` consecutive word registers starting
    /// `offset` words after `base` — the span form of
    /// [`read_word`](Self::read_word), one bounds check for the whole range
    /// and a tight copy/count loop the compiler can vectorize. Each word
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
    /// [`SimError::UnknownRegister`] if the span leaves the arena; no access
    /// is counted then. Like every word read it checks nothing else.
    pub fn read_word_span(
        &mut self,
        base: Reg<u64>,
        offset: usize,
        dest: &mut [u64],
    ) -> Result<(), SimError> {
        let start = base.index() + offset;
        let end = start + dest.len();
        if end > self.values.len() {
            return Err(SimError::UnknownRegister {
                register: end.saturating_sub(1),
            });
        }
        // Two tight passes over the parallel vectors: a value memcpy and a
        // vectorized count bump, each its own sequential stream.
        dest.copy_from_slice(&self.values[start..end]);
        for r in &mut self.reads[start..end] {
            *r += 1;
        }
        Ok(())
    }

    /// Atomic word write: the non-generic fast path for `u64` registers.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`], [`SimError::TypeMismatch`] for a word
    /// of a multi-word register, or [`SimError::WriteDisciplineViolation`].
    #[inline]
    pub fn write_word(
        &mut self,
        writer: ProcessId,
        reg: Reg<u64>,
        value: u64,
    ) -> Result<(), SimError> {
        let idx = reg.index();
        if idx >= self.values.len() {
            return Err(SimError::UnknownRegister { register: idx });
        }
        // The discipline is the block's rule, looked up on writes only
        // (reads outnumber writes ~n·|Π^k_n| to 1 in Figure 2).
        self.check_writer(idx, writer)?;
        self.values[idx] = value;
        self.writes[idx] += 1;
        self.version += 1;
        Ok(())
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
    /// [`SimError::UnknownRegister`] for a foreign handle,
    /// [`SimError::TypeMismatch`] unless `reg` is a `T` register.
    pub fn peek<T: RegValue>(&self, reg: Reg<T>) -> Result<T, SimError> {
        self.typed(reg)?;
        let idx = reg.index();
        Ok(T::decode(&self.values[idx..idx + T::WORDS]))
    }

    /// Name of the register arena word `index` belongs to, formatted now
    /// from its block's recipe (see the module docs): cold by design —
    /// error paths and tests.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`] for a foreign handle.
    pub fn name(&self, index: usize) -> Result<String, SimError> {
        if index < self.values.len() {
            Ok(self.format_name(index))
        } else {
            Err(SimError::UnknownRegister { register: index })
        }
    }

    /// Name of the register of in-arena word `index`, from its block's
    /// recipe.
    fn format_name(&self, index: usize) -> String {
        let (block, i) = self.block_of(index);
        (block.name)(i)
    }

    /// Access statistics for all registers, one entry per register in
    /// allocation order. Formats no name: one allocation, the vector.
    pub fn stats(&self) -> Vec<RegisterStats> {
        let ends = self.blocks.iter().skip(1).map(|b| b.start);
        let ends = ends.chain([self.values.len()]);
        self.blocks
            .iter()
            .zip(ends)
            .flat_map(|(block, end)| (block.start..end).step_by(block.width))
            .map(|index| RegisterStats {
                index,
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
    fn word_writes_reject_multi_word_cells() {
        let mut m = Memory::new();
        let r = m.alloc("s", WriteDiscipline::MultiWriter, Some(5u64));
        let forged: Reg<u64> = Reg::new(r.index + 1);
        assert_eq!(
            m.write_word(p(0), forged, 1),
            Err(SimError::TypeMismatch {
                register: 1,
                name: "s".into(),
            })
        );
        assert!(matches!(
            m.write_word(p(0), Reg::new(r.index), 1),
            Err(SimError::TypeMismatch { .. })
        ));
        // Refused writes are not counted and change nothing.
        assert_eq!((m.stats()[0].writes, m.version()), (0, 0));
        assert_eq!(m.peek(r), Ok(Some(5)));
        // Word reads check bounds only: they read the word that is there.
        assert_eq!(m.read_word(forged), Ok(5));
    }

    #[test]
    fn structured_values() {
        let mut m = Memory::new();
        let r = m.alloc("pair", WriteDiscipline::MultiWriter, (0u64, None::<u64>));
        m.write(p(1), r, (7, Some(2))).unwrap();
        assert_eq!(m.read(r).unwrap(), (7, Some(2)));
        type Nested = (Option<u64>, (u64, Option<u64>));
        let nested = m.alloc("nested", WriteDiscipline::MultiWriter, (None, (1, None)));
        let value: Nested = (Some(u64::MAX), (0, Some(0)));
        m.write(p(0), nested, value).unwrap();
        assert_eq!((m.read(nested), m.peek(r)), (Ok(value), Ok((7, Some(2)))));
        assert_eq!((r.index(), nested.index(), m.len()), (0, 3, 8));
    }

    #[test]
    fn word_and_multi_word_registers_interleave() {
        // Handles are first words: they stay aligned when allocations
        // alternate between one-word and multi-word types.
        let mut m = Memory::new();
        let w0 = m.alloc("w0", WriteDiscipline::MultiWriter, 10u64);
        let b0 = m.alloc("b0", WriteDiscipline::MultiWriter, Some(1u64));
        let w1 = m.alloc("w1", WriteDiscipline::MultiWriter, 20u64);
        let b1 = m.alloc_block(
            2,
            (3u64, None::<u64>),
            |_| WriteDiscipline::MultiWriter,
            |i| format!("b1[{i}]"),
        );
        m.write(p(0), b0, None).unwrap();
        m.write_word(p(0), w1, 21).unwrap();
        m.write(p(0), b1.at(1), (4, Some(9))).unwrap();
        assert_eq!(m.read(b0).unwrap(), None);
        assert_eq!(m.read(b1).unwrap(), (3, None));
        assert_eq!(m.read(b1.at(1)).unwrap(), (4, Some(9)));
        assert_eq!(m.read_word(w0).unwrap(), 10);
        assert_eq!(m.read_word(w1).unwrap(), 21);
        // One statistics entry per register, at its first word.
        let stats: Vec<(String, usize, u64, u64)> = m
            .stats()
            .into_iter()
            .map(|s| (m.name(s.index).unwrap(), s.index, s.reads, s.writes))
            .collect();
        let want = [("w0", 0, 1, 0), ("b0", 1, 1, 1), ("w1", 3, 1, 1)];
        let want = want.map(|(n, i, r, w)| (n.to_string(), i, r, w)).to_vec();
        let want = [
            want,
            vec![("b1[0]".into(), 4, 1, 0), ("b1[1]".into(), 7, 1, 1)],
        ]
        .concat();
        assert_eq!(stats, want);
        assert_eq!(
            (b1.at(1).index(), m.len(), m.name(8).unwrap()),
            (7, 10, "b1[1]".into())
        );
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
        // Multi-word writes enforce it too.
        let o = m.alloc("o", WriteDiscipline::SingleWriter(p(1)), None::<u64>);
        assert!(matches!(
            m.write(p(0), o, Some(3)),
            Err(SimError::WriteDisciplineViolation { register: 1, .. })
        ));
        m.write(p(1), o, Some(3)).unwrap();
        assert_eq!((m.peek(o), m.stats()[1].writes), (Ok(Some(3)), 1));
    }

    #[test]
    fn type_mismatch_detected() {
        let mut m = Memory::new();
        let r = m.alloc("x", WriteDiscipline::MultiWriter, 5u64);
        let pairs = m.alloc_block(
            2,
            (0u64, None::<u64>),
            |_| WriteDiscipline::MultiWriter,
            |i| format!("pair[{i}]"),
        );
        let _padding = m.alloc("tail", WriteDiscipline::MultiWriter, 0u64);
        // Forge handles with the wrong type at the same index, and one in
        // the middle of a register of the right type.
        let wrong: Reg<Option<u64>> = Reg::new(r.index);
        let unaligned: Reg<(u64, Option<u64>)> = Reg::new(pairs.index + 1);
        let other: Reg<Option<u64>> = Reg::new(pairs.index);
        for err in [
            m.peek(wrong).err(),
            m.peek(unaligned).err(),
            m.peek(other).err(),
        ] {
            assert!(matches!(err, Some(SimError::TypeMismatch { .. })));
        }
        assert!(matches!(
            m.peek(Reg::<u64>::new(pairs.index)),
            Err(SimError::TypeMismatch { .. })
        ));
        assert!(matches!(m.read(wrong), Err(SimError::TypeMismatch { .. })));
        assert_eq!(
            m.write(p(0), unaligned, (1, None)),
            Err(SimError::TypeMismatch {
                register: 2,
                name: "pair[0]".into(),
            })
        );
        // Refused accesses are not counted.
        assert!(m.stats().iter().all(|s| s.reads + s.writes == 0));
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
        assert_eq!(
            (m.name(stats[3].index).unwrap(), stats[3].writes),
            ("row[2]".into(), 1)
        );
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
        assert_eq!(m.name(stats[2].index).unwrap(), "early[2]");
        assert!(stats[3..]
            .iter()
            .all(|s| (s.reads, s.writes) == (0, 0) && m.name(s.index).unwrap() != "early[2]"));
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
    fn non_zero_and_multi_word_blocks_are_written_however_long() {
        // Every block outgrows the arena before it, as a zeroed extension
        // must; only the zero-encoded one may take it.
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
            (5u64, Some(6u64)),
            |_| WriteDiscipline::MultiWriter,
            |i| format!("note[{i}]"),
        );
        let nones = m.alloc_block(
            200,
            None::<u64>,
            |_| WriteDiscipline::MultiWriter,
            |i| format!("none[{i}]"),
        );
        assert!((0..8).all(|i| m.read_word(sevens.at(i)) == Ok(7)));
        m.write(p(0), notes.at(30), (1, None)).unwrap();
        m.write(p(0), nones.at(199), Some(0)).unwrap();
        for i in 0..32 {
            let want = if i == 30 { (1, None) } else { (5, Some(6)) };
            assert_eq!(m.read(notes.at(i)).unwrap(), want);
        }
        assert!((0..199).all(|i| m.peek(nones.at(i)) == Ok(None)));
        assert_eq!((m.peek(nones.at(199)), m.peek(lone)), (Ok(Some(0)), Ok(0)));
        assert_eq!(m.len(), 1 + 8 + 32 * 3 + 200 * 2);
        let ops: u64 = m.stats().iter().map(|s| s.reads + s.writes).sum();
        assert_eq!(ops, 8 + 1 + 32 + 1);
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
        let notes = m.alloc_block(
            4,
            Some(0u64),
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
            m.write(p(3), notes.at(1), None),
            Err(SimError::WriteDisciplineViolation {
                register: 10,
                name: "note[1]".into(),
                owner: p(1),
                writer: p(3),
            })
        );
        let forged: Reg<Option<u64>> = Reg::new(words.at(3).index);
        assert_eq!(
            m.read(forged),
            Err(SimError::TypeMismatch {
                register: 6,
                name: "Counter[3]".into(),
            })
        );
        let forged: Reg<u64> = Reg::new(notes.at(2).index + 1);
        assert_eq!(
            m.write_word(p(2), forged, 1),
            Err(SimError::TypeMismatch {
                register: 13,
                name: "note[2]".into(),
            })
        );
        // The span path checks bounds only: it reads across into the next
        // block, and a span leaving the arena names its last word.
        let mut dest = [9u64; 4];
        assert_eq!(m.read_word_span(words, 3, &mut dest), Ok(()));
        assert_eq!(
            dest,
            [0, 0, 1, 0],
            "Counter[3], Counter[4], note[0] = Some(0)"
        );
        assert_eq!(
            m.read_word_span(words, 11, &mut dest),
            Err(SimError::UnknownRegister { register: 17 })
        );
    }
}
