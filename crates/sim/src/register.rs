//! Typed register handles, and the word codec of register values.
//!
//! The shared memory `Ξ` of the model is a set of atomic read/write
//! registers. A [`Reg<T>`] is a cheap, copyable, typed handle into the
//! simulator's register arena; the value type `T` must implement
//! [`RegValue`], a fixed-width encoding into arena words.

use std::fmt;
use std::marker::PhantomData;

use st_core::ProcessId;

/// A value storable in a register: a fixed-width word codec.
///
/// A register of type `T` is [`WORDS`](Self::WORDS) consecutive arena words,
/// read or written whole in one step. Implemented for `u64`, `Option<u64>`
/// (a tag word and a payload word), pairs of register values (one after the
/// other) and, in `st-agreement`, the Paxos record — every type the
/// protocols store. An implementation must round-trip:
/// `decode(encode(v)) == v`.
pub trait RegValue: Copy + fmt::Debug + 'static {
    /// Arena words one register of this type takes (at most 8).
    const WORDS: usize;

    /// Writes the value into `words` (`WORDS` long).
    fn encode(self, words: &mut [u64]);

    /// Reads a value back from `words` (`WORDS` long).
    fn decode(words: &[u64]) -> Self;
}

impl RegValue for u64 {
    const WORDS: usize = 1;

    fn encode(self, words: &mut [u64]) {
        words[0] = self;
    }

    fn decode(words: &[u64]) -> Self {
        words[0]
    }
}

/// `None` is `[0, 0]`, `Some(v)` is `[1, v]`: a zero block holds `None`.
impl RegValue for Option<u64> {
    const WORDS: usize = 2;

    fn encode(self, words: &mut [u64]) {
        words[0] = u64::from(self.is_some());
        words[1] = self.unwrap_or(0);
    }

    fn decode(words: &[u64]) -> Self {
        (words[0] != 0).then_some(words[1])
    }
}

impl<A: RegValue, B: RegValue> RegValue for (A, B) {
    const WORDS: usize = A::WORDS + B::WORDS;

    fn encode(self, words: &mut [u64]) {
        let (a, b) = words.split_at_mut(A::WORDS);
        self.0.encode(a);
        self.1.encode(b);
    }

    fn decode(words: &[u64]) -> Self {
        let (a, b) = words.split_at(A::WORDS);
        (A::decode(a), B::decode(b))
    }
}

/// Write discipline of a register.
///
/// The model's registers are plain multi-writer multi-reader atomic
/// registers; protocols such as Figure 2 only ever write a register from one
/// process, and declaring that intent lets the simulator flag discipline
/// violations (a protocol bug) at the faulting write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteDiscipline {
    /// Any process may write.
    MultiWriter,
    /// Only the given process may write; other writers trigger a
    /// [`SimError::WriteDisciplineViolation`](crate::SimError).
    SingleWriter(ProcessId),
}

/// A typed handle to a register in the simulator's arena.
///
/// Handles are plain indices of the register's first arena word: copying
/// is free, and a handle is only meaningful for the simulator that
/// allocated it.
pub struct Reg<T> {
    pub(crate) index: u32,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> Reg<T> {
    pub(crate) fn new(index: u32) -> Self {
        Reg {
            index,
            _marker: PhantomData,
        }
    }

    /// The arena index of this register's first word (stable across the
    /// simulation).
    pub fn index(&self) -> usize {
        self.index as usize
    }
}

impl<T: RegValue> Reg<T> {
    /// The handle `offset` registers after this one: register `offset` of
    /// the block ([`Sim::alloc_block`](crate::Sim::alloc_block)) this handle
    /// is the base of, `offset · T::WORDS` words on. Deriving a handle
    /// checks nothing — bounds, type and write discipline are checked at
    /// access time, on the derived register.
    pub fn at(self, offset: usize) -> Self {
        Reg::new((self.index() + offset * T::WORDS) as u32)
    }
}

impl<T> Clone for Reg<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Reg<T> {}

impl<T> PartialEq for Reg<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}

impl<T> Eq for Reg<T> {}

impl<T> fmt::Debug for Reg<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg#{}", self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_copy_and_eq() {
        let a: Reg<u64> = Reg::new(3);
        let b = a;
        assert_eq!(a, b);
        assert_eq!(a.index(), 3);
        assert_eq!(format!("{a:?}"), "Reg#3");
        let pairs: Reg<(u64, Option<u64>)> = Reg::new(3);
        assert_eq!(pairs.at(2).index(), 3 + 2 * 3);
    }

    #[test]
    fn blanket_reg_value() {
        fn assert_reg_value<T: RegValue>() {}
        assert_reg_value::<u64>();
        assert_reg_value::<Option<u64>>();
        assert_reg_value::<(u64, Option<u64>)>();
        assert_reg_value::<(Option<u64>, (u64, u64))>();
    }

    fn round_trip<T: RegValue + PartialEq>(value: T) -> Vec<u64> {
        let mut words = vec![0; T::WORDS];
        value.encode(&mut words);
        assert_eq!(T::decode(&words), value);
        words
    }

    #[test]
    fn codecs_round_trip_at_the_extremes() {
        for v in [0, u64::MAX] {
            assert_eq!(round_trip(v), [v]);
            round_trip(Some(v));
            round_trip((v, Some(v)));
            round_trip((Some(v), (v, None::<u64>)));
        }
        let options = [None, Some(0), Some(u64::MAX)].map(round_trip);
        assert_eq!(options[0], [0, 0], "a zero block holds None");
        assert!(options[0] != options[1] && options[1] != options[2] && options[0] != options[2]);
        assert_eq!(<(u64, Option<u64>)>::WORDS, 3);
    }
}
