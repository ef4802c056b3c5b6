//! Deterministic step machines: the simulated-algorithm interface.
//!
//! BG simulation requires every simulator to run its *own copy* of each
//! simulated process's automaton and keep the copies in lockstep, which is
//! only possible if the automaton is deterministic given the agreed outcomes
//! of its reads. A [`StepMachine`] makes that structure explicit: it exposes
//! a pending operation over the simulated single-writer-cell memory (the
//! snapshot-style memory of the BG literature) and advances deterministically
//! once the outcome is supplied.

use st_core::Value;

/// A pending operation of a simulated process on the simulated memory.
///
/// The simulated memory has one cell per simulated process (single-writer,
/// as in the BG/IIS setting): `Update` writes the caller's cell, `ReadCell`
/// reads any cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimOp {
    /// Write the caller's own cell.
    Update(Value),
    /// Read the cell of the given simulated process; the agreed value
    /// (or `None` if that cell was never written) is fed to
    /// [`StepMachine::advance`].
    ReadCell(usize),
    /// Decide the given value (recorded by the simulation; the machine
    /// keeps running until `Halt`).
    Decide(Value),
    /// The machine has terminated.
    Halt,
}

/// A deterministic automaton of a simulated process.
pub trait StepMachine {
    /// The pending operation. Must be stable (pure) until [`advance`]
    /// (`Halt` is absorbing).
    ///
    /// [`advance`]: StepMachine::advance
    fn pending(&self) -> SimOp;

    /// Advances past the pending operation; `read_value` carries the agreed
    /// outcome for `ReadCell` (and is `None` for other operations).
    fn advance(&mut self, read_value: Option<Option<Value>>);
}

/// The trivial `t < k` agreement algorithm as a step machine: simulated
/// processes `0..k` update their cell with their proposal and decide it;
/// the rest poll the first `k` cells and adopt the first value seen.
#[derive(Clone, Debug)]
pub struct TrivialKDecide {
    me: usize,
    k: usize,
    proposal: Value,
    state: TrivialState,
    scan_at: usize,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum TrivialState {
    Publish,
    DecideOwn,
    Scan,
    DecideAdopted(Value),
    Done,
}

impl TrivialKDecide {
    /// Creates the machine for simulated process `me` of `n_sim`, degree
    /// `k`, proposing `proposal`.
    ///
    /// # Panics
    ///
    /// Panics where [`check`](Self::check) refuses `k` (callers size
    /// machines by index).
    pub fn new(me: usize, k: usize, proposal: Value) -> Self {
        Self::check(k).unwrap_or_else(|e| panic!("{e}"));
        TrivialKDecide {
            me,
            k,
            proposal,
            state: if me < k {
                TrivialState::Publish
            } else {
                TrivialState::Scan
            },
            scan_at: 0,
        }
    }

    /// The algorithm's one precondition: a degree `k ≥ 1`.
    pub fn check(k: usize) -> Result<(), String> {
        if k == 0 {
            return Err(
                "field \"k\": the simulated k-decide algorithm needs k ≥ 1, got k = 0".into(),
            );
        }
        Ok(())
    }
}

impl StepMachine for TrivialKDecide {
    fn pending(&self) -> SimOp {
        match &self.state {
            TrivialState::Publish => SimOp::Update(self.proposal),
            TrivialState::DecideOwn => SimOp::Decide(self.proposal),
            TrivialState::Scan => SimOp::ReadCell(self.scan_at),
            TrivialState::DecideAdopted(v) => SimOp::Decide(*v),
            TrivialState::Done => SimOp::Halt,
        }
    }

    fn advance(&mut self, read_value: Option<Option<Value>>) {
        self.state = match std::mem::replace(&mut self.state, TrivialState::Done) {
            TrivialState::Publish => TrivialState::DecideOwn,
            TrivialState::DecideOwn => TrivialState::Done,
            TrivialState::Scan => match read_value.expect("ReadCell outcome required") {
                Some(v) => TrivialState::DecideAdopted(v),
                None => {
                    self.scan_at = (self.scan_at + 1) % self.k;
                    TrivialState::Scan
                }
            },
            TrivialState::DecideAdopted(_) => TrivialState::Done,
            TrivialState::Done => TrivialState::Done,
        };
        let _ = self.me;
    }
}

/// A flood-min machine: publish the proposal, read every cell once, decide
/// the minimum value seen (validity-only agreement; exercises reads of all
/// cells).
#[derive(Clone, Debug)]
pub struct FloodMin {
    n_sim: usize,
    proposal: Value,
    min_seen: Value,
    state: FloodState,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum FloodState {
    Publish,
    Read(usize),
    Decide,
    Done,
}

impl FloodMin {
    /// Creates the machine for one of `n_sim` simulated processes.
    pub fn new(n_sim: usize, proposal: Value) -> Self {
        FloodMin {
            n_sim,
            proposal,
            min_seen: proposal,
            state: FloodState::Publish,
        }
    }
}

impl StepMachine for FloodMin {
    fn pending(&self) -> SimOp {
        match self.state {
            FloodState::Publish => SimOp::Update(self.proposal),
            FloodState::Read(u) => SimOp::ReadCell(u),
            FloodState::Decide => SimOp::Decide(self.min_seen),
            FloodState::Done => SimOp::Halt,
        }
    }

    fn advance(&mut self, read_value: Option<Option<Value>>) {
        self.state = match self.state {
            FloodState::Publish => FloodState::Read(0),
            FloodState::Read(u) => {
                if let Some(Some(v)) = read_value {
                    self.min_seen = self.min_seen.min(v);
                }
                if u + 1 < self.n_sim {
                    FloodState::Read(u + 1)
                } else {
                    FloodState::Decide
                }
            }
            FloodState::Decide => FloodState::Done,
            FloodState::Done => FloodState::Done,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_publisher_path() {
        let mut m = TrivialKDecide::new(0, 2, 42);
        assert_eq!(m.pending(), SimOp::Update(42));
        m.advance(None);
        assert_eq!(m.pending(), SimOp::Decide(42));
        m.advance(None);
        assert_eq!(m.pending(), SimOp::Halt);
    }

    #[test]
    fn trivial_adopter_path() {
        let mut m = TrivialKDecide::new(3, 2, 99);
        assert_eq!(m.pending(), SimOp::ReadCell(0));
        m.advance(Some(None)); // cell 0 empty
        assert_eq!(m.pending(), SimOp::ReadCell(1));
        m.advance(Some(Some(7)));
        assert_eq!(m.pending(), SimOp::Decide(7));
        m.advance(None);
        assert_eq!(m.pending(), SimOp::Halt);
    }

    #[test]
    fn adopter_keeps_polling_until_value() {
        let mut m = TrivialKDecide::new(2, 2, 5);
        for _ in 0..10 {
            assert!(matches!(m.pending(), SimOp::ReadCell(_)));
            m.advance(Some(None));
        }
        m.advance(Some(Some(3)));
        assert_eq!(m.pending(), SimOp::Decide(3));
    }

    #[test]
    fn flood_min_takes_minimum() {
        let mut m = FloodMin::new(3, 9);
        assert_eq!(m.pending(), SimOp::Update(9));
        m.advance(None);
        m.advance(Some(Some(4))); // cell 0
        m.advance(Some(None)); // cell 1 empty
        m.advance(Some(Some(6))); // cell 2
        assert_eq!(m.pending(), SimOp::Decide(4));
        m.advance(None);
        assert_eq!(m.pending(), SimOp::Halt);
    }

    #[test]
    fn halt_is_absorbing() {
        let mut m = FloodMin::new(1, 1);
        while m.pending() != SimOp::Halt {
            let arg = matches!(m.pending(), SimOp::ReadCell(_)).then_some(None);
            m.advance(arg);
        }
        m.advance(None);
        assert_eq!(m.pending(), SimOp::Halt);
    }
}
