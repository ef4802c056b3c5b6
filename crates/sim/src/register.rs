//! Typed register handles.
//!
//! The shared memory `Ξ` of the model is a set of atomic read/write
//! registers. A [`Reg<T>`] is a cheap, copyable, typed handle into the
//! simulator's register arena; the value type `T` must implement
//! [`RegValue`] (cloneable, debuggable, `'static`).

use std::fmt;
use std::marker::PhantomData;

use st_core::ProcessId;

/// Marker trait for values storable in a register.
///
/// Blanket-implemented for every `Clone + Debug + 'static` type; reads
/// return clones (register reads are atomic copies in the model).
pub trait RegValue: Clone + fmt::Debug + 'static {}

impl<T: Clone + fmt::Debug + 'static> RegValue for T {}

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
/// Handles are plain indices: copying is free, and a handle is only
/// meaningful for the simulator that allocated it.
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

    /// The arena index of this register (stable across the simulation).
    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// The handle `offset` slots after this one: register `offset` of the
    /// block ([`Sim::alloc_block`](crate::Sim::alloc_block)) this handle
    /// is the base of. Deriving a handle checks nothing — bounds, storage
    /// class and write discipline are checked at access time, on the
    /// derived slot.
    pub fn at(self, offset: usize) -> Self {
        Reg::new((self.index() + offset) as u32)
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
    }

    #[test]
    fn blanket_reg_value() {
        fn assert_reg_value<T: RegValue>() {}
        assert_reg_value::<u64>();
        assert_reg_value::<Vec<u32>>();
        assert_reg_value::<Option<(u64, u64)>>();
    }
}
