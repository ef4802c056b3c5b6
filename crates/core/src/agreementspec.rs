//! The `(t,k,n)`-agreement problem (Section 3) and outcome checkers.
//!
//! Each of `n` processes has an initial value and must decide a value such
//! that:
//!
//! - **Uniform k-agreement** — processes decide at most `k` distinct values;
//! - **Uniform validity** — every decision is some process's initial value;
//! - **Termination** — if at most `t` processes are faulty, every correct
//!   process eventually decides.
//!
//! The checkers here are *uniform*: agreement and validity are checked over
//! the decisions of all processes (including ones that later crash), exactly
//! as the problem statement requires.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::ModelError;
use crate::process::Universe;
use crate::procset::ProcSet;

/// Values proposed and decided by processes.
///
/// The model only needs equality and a total order (for deterministic
/// reporting); `u64` keeps registers compact. Binary tasks use `{0, 1}`.
pub type Value = u64;

/// The `(t, k, n)`-agreement task descriptor.
///
/// # Examples
///
/// ```
/// use st_core::AgreementTask;
///
/// let task = AgreementTask::new(2, 1, 5).unwrap(); // 2-resilient consensus
/// assert_eq!(task.k(), 1);
/// assert_eq!(task.to_string(), "(2,1,5)-agreement");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AgreementTask {
    t: usize,
    k: usize,
    n: usize,
}

impl AgreementTask {
    /// Creates a `(t,k,n)`-agreement task.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTask`] where [`check`](Self::check)
    /// refuses.
    pub fn new(t: usize, k: usize, n: usize) -> Result<Self, ModelError> {
        Self::check(t, k, n).map_err(|_| ModelError::InvalidTask { t, k, n })?;
        Ok(AgreementTask { t, k, n })
    }

    /// The ranges of Section 3: `1 ≤ t ≤ n − 1`, and `1 ≤ k ≤ n` as
    /// [`check_degree`](Self::check_degree) states it. The refusal names
    /// the field that breaks them; `Ok` allocates nothing.
    pub fn check(t: usize, k: usize, n: usize) -> Result<(), String> {
        if t == 0 || t >= n {
            return Err(format!(
                "field \"t\": resilience out of range (need 1 <= t <= n-1), got t = {t} at n = {n}"
            ));
        }
        Self::check_degree(k, n)
    }

    /// The tasks no asynchronous algorithm solves by itself,
    /// `1 ≤ k ≤ t ≤ n − 1` (for `t < k` the trivial algorithm does): the
    /// range the Figure 2 detectors are built for (Theorem 23), and the
    /// one an adversary can block. The refusal names the field that
    /// breaks it; `Ok` allocates nothing.
    pub fn check_nontrivial(t: usize, k: usize, n: usize) -> Result<(), String> {
        if t == 0 || t >= n {
            return Err(format!(
                "field \"t\": requires 1 <= k <= t <= n-1, got t = {t} at n = {n}"
            ));
        }
        if k == 0 || k > t {
            return Err(format!(
                "field \"k\": requires 1 <= k <= t <= n-1, got k = {k} at t = {t}"
            ));
        }
        Ok(())
    }

    /// The agreement degree's range, `1 ≤ k ≤ n` — also what every
    /// `k`-instance agreement object asserts when it is allocated.
    pub fn check_degree(k: usize, n: usize) -> Result<(), String> {
        if k == 0 || k > n {
            return Err(format!(
                "field \"k\": agreement degree out of range (need 1 <= k <= n), got k = {k} at n = {n}"
            ));
        }
        Ok(())
    }

    /// Resilience: the number of crashes that must be tolerated.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Agreement degree: the maximum number of distinct decisions.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The process universe `Π_n`.
    pub fn universe(&self) -> Universe {
        Universe::new(self.n).expect("validated at construction")
    }

    /// `t < k` makes the task solvable in the asynchronous system by the
    /// trivial first-`k`-decide algorithm (Section 4.3's closing remark).
    pub fn is_trivially_solvable(&self) -> bool {
        self.t < self.k
    }
}

impl fmt::Display for AgreementTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})-agreement", self.t, self.k, self.n)
    }
}

/// The outcome of one run of an agreement protocol: per-process inputs and
/// decisions (indexed by process index; `None` = undecided).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AgreementOutcome {
    /// Initial value of each process.
    pub inputs: Vec<Value>,
    /// Decision of each process, if it decided during the run.
    pub decisions: Vec<Option<Value>>,
    /// Processes that were correct in the run (never crashed).
    pub correct: ProcSet,
}

/// A violation of the agreement task's properties found by [`check_outcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AgreementViolation {
    /// More than `k` distinct values decided.
    KAgreement {
        /// The distinct decided values.
        values: Vec<Value>,
        /// Maximum allowed count `k`.
        k: usize,
    },
    /// A process decided a value nobody proposed.
    Validity {
        /// Index of the deciding process.
        process: usize,
        /// The invalid decided value.
        value: Value,
    },
    /// A correct process failed to decide although at most `t` crashed.
    Termination {
        /// Indexes of correct processes that did not decide.
        undecided: Vec<usize>,
    },
}

impl fmt::Display for AgreementViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgreementViolation::KAgreement { values, k } => {
                write!(
                    f,
                    "k-agreement violated: {} distinct values (k = {k})",
                    values.len()
                )
            }
            AgreementViolation::Validity { process, value } => {
                write!(
                    f,
                    "validity violated: p{process} decided unproposed value {value}"
                )
            }
            AgreementViolation::Termination { undecided } => {
                write!(
                    f,
                    "termination violated: {} correct processes undecided",
                    undecided.len()
                )
            }
        }
    }
}

/// Checks one run outcome against the task.
///
/// Safety (k-agreement, validity) is checked unconditionally; termination is
/// checked only when the number of faulty processes is at most `t`, exactly
/// as the problem statement conditions it. Returns all violations found.
///
/// # Panics
///
/// Panics if `inputs`/`decisions` lengths differ from `n`.
pub fn check_outcome(task: &AgreementTask, outcome: &AgreementOutcome) -> Vec<AgreementViolation> {
    assert_eq!(outcome.inputs.len(), task.n(), "inputs length must be n");
    assert_eq!(
        outcome.decisions.len(),
        task.n(),
        "decisions length must be n"
    );
    let mut violations = Vec::new();

    // Uniform validity.
    let proposed: BTreeSet<Value> = outcome.inputs.iter().copied().collect();
    for (idx, d) in outcome.decisions.iter().enumerate() {
        if let Some(v) = d {
            if !proposed.contains(v) {
                violations.push(AgreementViolation::Validity {
                    process: idx,
                    value: *v,
                });
            }
        }
    }

    // Uniform k-agreement.
    let decided: BTreeSet<Value> = outcome.decisions.iter().flatten().copied().collect();
    if decided.len() > task.k() {
        violations.push(AgreementViolation::KAgreement {
            values: decided.into_iter().collect(),
            k: task.k(),
        });
    }

    // Termination (conditional on the fault bound).
    let faulty = task.n() - outcome.correct.len();
    if faulty <= task.t() {
        let undecided: Vec<usize> = outcome
            .correct
            .iter()
            .map(|p| p.index())
            .filter(|&idx| outcome.decisions[idx].is_none())
            .collect();
        if !undecided.is_empty() {
            violations.push(AgreementViolation::Termination { undecided });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(t: usize, k: usize, n: usize) -> AgreementTask {
        AgreementTask::new(t, k, n).unwrap()
    }

    fn outcome(
        inputs: &[Value],
        decisions: &[Option<Value>],
        correct: &[usize],
    ) -> AgreementOutcome {
        AgreementOutcome {
            inputs: inputs.to_vec(),
            decisions: decisions.to_vec(),
            correct: ProcSet::from_indices(correct.iter().copied()),
        }
    }

    #[test]
    fn construction_validates() {
        assert!(AgreementTask::new(0, 1, 3).is_err());
        assert!(AgreementTask::new(3, 1, 3).is_err());
        assert!(AgreementTask::new(1, 0, 3).is_err());
        assert!(AgreementTask::new(1, 4, 3).is_err());
        assert!(AgreementTask::new(2, 3, 3).is_ok());
    }

    #[test]
    fn special_cases() {
        assert!(task(1, 2, 4).is_trivially_solvable());
        assert!(!task(2, 2, 4).is_trivially_solvable());
    }

    #[test]
    fn clean_outcome_passes() {
        let t = task(1, 2, 3);
        let o = outcome(&[10, 20, 30], &[Some(10), Some(20), Some(10)], &[0, 1, 2]);
        assert!(check_outcome(&t, &o).is_empty());
    }

    #[test]
    fn detects_k_agreement_violation() {
        let t = task(1, 1, 3);
        let o = outcome(&[10, 20, 30], &[Some(10), Some(20), None], &[0, 1]);
        let v = check_outcome(&t, &o);
        assert!(v
            .iter()
            .any(|x| matches!(x, AgreementViolation::KAgreement { .. })));
    }

    #[test]
    fn detects_validity_violation() {
        let t = task(1, 2, 3);
        let o = outcome(&[10, 20, 30], &[Some(99), None, None], &[0, 1, 2]);
        let v = check_outcome(&t, &o);
        assert!(matches!(
            v.as_slice(),
            [
                AgreementViolation::Validity {
                    process: 0,
                    value: 99
                },
                ..
            ]
        ));
    }

    #[test]
    fn detects_termination_violation_within_fault_budget() {
        let t = task(1, 1, 3);
        // One crash (within t = 1): correct p2 undecided → violation.
        let o = outcome(&[1, 2, 3], &[Some(1), None, None], &[0, 2]);
        let v = check_outcome(&t, &o);
        assert!(v.iter().any(
            |x| matches!(x, AgreementViolation::Termination { undecided } if undecided == &vec![2])
        ));
    }

    #[test]
    fn no_termination_check_beyond_fault_budget() {
        let t = task(1, 1, 3);
        // Two crashes (> t = 1): undecided correct process is allowed.
        let o = outcome(&[1, 2, 3], &[None, None, None], &[0]);
        assert!(check_outcome(&t, &o).is_empty());
    }

    #[test]
    fn uniform_agreement_counts_crashed_decisions() {
        // A process that decided then crashed still counts for k-agreement.
        let t = task(2, 1, 3);
        let o = outcome(&[5, 6, 7], &[Some(5), Some(6), None], &[2]);
        let v = check_outcome(&t, &o);
        assert!(v
            .iter()
            .any(|x| matches!(x, AgreementViolation::KAgreement { .. })));
    }

    #[test]
    fn display_forms() {
        assert_eq!(task(2, 1, 5).to_string(), "(2,1,5)-agreement");
        let viol = AgreementViolation::Validity {
            process: 1,
            value: 9,
        };
        assert!(viol.to_string().contains("validity"));
    }
}
