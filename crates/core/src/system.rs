//! Systems and the partially synchronous family `S^i_{j,n}` (Section 2.2).
//!
//! A system is a set of allowed schedules. `S^i_{j,n}` is the system of `n`
//! processes whose schedules each contain at least one set of `i` processes
//! that is timely with respect to at least one set of `j` processes.
//! `S^i_{i,n}` is the fully asynchronous system (Observation 5), and
//! containment is monotone: smaller `i` and larger `j` give smaller (more
//! synchronous) systems (Observation 4).

use std::fmt;

use crate::error::ModelError;
use crate::process::Universe;
use crate::schedule::Schedule;
use crate::timeliness::{find_timely_pair, TimelyPair};

/// Descriptor of the partially synchronous system `S^i_{j,n}`.
///
/// # Examples
///
/// ```
/// use st_core::SystemSpec;
///
/// let s = SystemSpec::new(2, 4, 6).unwrap();
/// assert_eq!(s.to_string(), "S^2_{4,6}");
/// assert!(!s.is_asynchronous());
/// assert!(SystemSpec::new(3, 3, 6).unwrap().is_asynchronous());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SystemSpec {
    i: usize,
    j: usize,
    n: usize,
}

impl SystemSpec {
    /// Creates `S^i_{j,n}`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSystem`] where [`check`](Self::check)
    /// refuses.
    pub fn new(i: usize, j: usize, n: usize) -> Result<Self, ModelError> {
        Self::check(i, j, n).map_err(|_| ModelError::InvalidSystem { i, j, n })?;
        Ok(SystemSpec { i, j, n })
    }

    /// `1 ≤ i ≤ j ≤ n`, the constraint under which the family is defined
    /// in Section 2.2. The refusal names the field that breaks it; `Ok`
    /// allocates nothing.
    pub fn check(i: usize, j: usize, n: usize) -> Result<(), String> {
        let field = if i == 0 {
            "i"
        } else if j < i || j > n {
            "j"
        } else {
            return Ok(());
        };
        Err(format!(
            "field \"{field}\": S^i_{{j,n}} needs 1 <= i <= j <= n, got i = {i}, j = {j} at n = {n}"
        ))
    }

    /// The asynchronous system of `n` processes, `S_n = S^n_{n,n}`
    /// (any `S^i_{i,n}` works; we use `i = n`).
    pub fn asynchronous(n: usize) -> Result<Self, ModelError> {
        SystemSpec::new(n, n, n)
    }

    /// Size `i` of the timely set.
    pub fn i(&self) -> usize {
        self.i
    }

    /// Size `j` of the observed set.
    pub fn j(&self) -> usize {
        self.j
    }

    /// Number of processes `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The process universe `Π_n`.
    pub fn universe(&self) -> Universe {
        Universe::new(self.n).expect("validated at construction")
    }

    /// Observation 5: `S^i_{i,n}` equals the asynchronous system — every set
    /// is timely with respect to itself, so the timeliness requirement is
    /// vacuous.
    pub fn is_asynchronous(&self) -> bool {
        self.i == self.j
    }

    /// Observation 4 (containment): `other ⊆ self` iff they have the same
    /// `n`, `other.i ≤ self.i`, and `other.j ≥ self.j`.
    ///
    /// Intuitively `other` demands a *smaller* timely set observed against a
    /// *larger* set, which is a stronger synchrony requirement, so all its
    /// schedules also satisfy `self`'s requirement (via Observation 3).
    pub fn contains(&self, other: &SystemSpec) -> bool {
        self.n == other.n && other.i <= self.i && other.j >= self.j
    }

    /// Finite-prefix membership evidence: searches the prefix for a size-`i`
    /// set timely wrt a size-`j` set with empirical bound at most
    /// `bound_cap`.
    ///
    /// Membership of an infinite schedule in `S^i_{j,n}` is a limit property;
    /// a witness pair on a long prefix with a small bound is the evidence our
    /// experiments use (and generators in `st-sched` guarantee the witness by
    /// construction).
    pub fn witness_on_prefix(&self, s: &Schedule, bound_cap: usize) -> Option<TimelyPair> {
        find_timely_pair(s, self.universe(), self.i, self.j, bound_cap)
    }
}

impl fmt::Display for SystemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S^{}_{{{},{}}}", self.i, self.j, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(SystemSpec::new(0, 1, 3).is_err());
        assert!(SystemSpec::new(2, 1, 3).is_err());
        assert!(SystemSpec::new(1, 4, 3).is_err());
        assert!(SystemSpec::new(1, 1, 1).is_ok());
        assert!(SystemSpec::new(2, 3, 5).is_ok());
    }

    #[test]
    fn observation5_asynchronous() {
        for n in 1..=6 {
            for i in 1..=n {
                let s = SystemSpec::new(i, i, n).unwrap();
                assert!(s.is_asynchronous());
            }
        }
        assert!(!SystemSpec::new(1, 2, 3).unwrap().is_asynchronous());
        assert!(SystemSpec::asynchronous(4).unwrap().is_asynchronous());
    }

    #[test]
    fn observation4_containment() {
        let big = SystemSpec::new(3, 4, 6).unwrap(); // weaker requirement
        let small = SystemSpec::new(2, 5, 6).unwrap(); // stronger requirement
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        // Reflexive.
        assert!(big.contains(&big));
        // Different n never contains.
        let other_n = SystemSpec::new(2, 5, 5).unwrap();
        assert!(!big.contains(&other_n));
    }

    #[test]
    fn containment_is_transitive_on_family() {
        let a = SystemSpec::new(1, 5, 6).unwrap();
        let b = SystemSpec::new(2, 4, 6).unwrap();
        let c = SystemSpec::new(3, 3, 6).unwrap();
        assert!(c.contains(&b) && b.contains(&a));
        assert!(c.contains(&a));
    }

    #[test]
    fn witness_on_round_robin_prefix() {
        let spec = SystemSpec::new(1, 3, 3).unwrap();
        let s = Schedule::from_indices((0..120).map(|i| i % 3));
        let w = spec
            .witness_on_prefix(&s, 4)
            .expect("round robin is in S^1_{3,3}");
        assert_eq!(w.p.len(), 1);
        assert_eq!(w.q.len(), 3);
    }

    #[test]
    fn no_witness_under_starvation() {
        // p2 runs alone for a long time: no singleton containing p0/p1 can be
        // timely wrt {p2} with a small cap, and {p2} itself is not size-2.
        let mut idx = vec![0, 1];
        idx.extend(std::iter::repeat_n(2, 100));
        let s = Schedule::from_indices(idx);
        let spec = SystemSpec::new(2, 3, 3).unwrap();
        // With cap 3, the only P candidates of size 2 not containing p2 fail;
        // those containing p2 are timely wrt everything (p2 steps constantly),
        // so a witness DOES exist here.
        assert!(spec.witness_on_prefix(&s, 3).is_some());
        // But requiring P to be {p0,p1} (i = 2) against all three (j = 3)
        // with p0, p1 silent fails under a small cap... construct the check
        // directly:
        let w = spec.witness_on_prefix(&s, 3).unwrap();
        assert!(w.p.contains(crate::process::ProcessId::new(2)));
    }

    #[test]
    fn display_form() {
        assert_eq!(SystemSpec::new(2, 4, 6).unwrap().to_string(), "S^2_{4,6}");
    }
}
