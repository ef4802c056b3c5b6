//! Simulator error types.

use std::error::Error;
use std::fmt;

use st_core::ProcessId;

/// Errors surfaced by the simulator.
///
/// Most are *protocol* bugs (type confusion, write-discipline violations)
/// rather than user-input errors, and abort the run with context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A register was accessed with the wrong value type.
    TypeMismatch {
        /// Arena index of the accessed word (a handle's `index()`).
        register: usize,
        /// Register name given at allocation.
        name: String,
    },
    /// A single-writer register was written by a process other than its
    /// declared writer.
    WriteDisciplineViolation {
        /// Arena index of the accessed word (a handle's `index()`).
        register: usize,
        /// Register name given at allocation.
        name: String,
        /// Declared writer.
        owner: ProcessId,
        /// Faulting writer.
        writer: ProcessId,
    },
    /// A register handle did not belong to this simulator's arena.
    UnknownRegister {
        /// Out-of-range arena index.
        register: usize,
    },
    /// A step source or schedule named a process outside the simulated
    /// universe. Returned (not panicked) by the run/replay entry points so
    /// that a malformed schedule — a user input, not a protocol bug — is a
    /// recoverable error.
    ScheduleOutOfUniverse {
        /// The out-of-universe process named by the schedule.
        process: ProcessId,
        /// Size of the simulated universe (valid indices are `0..n`).
        n: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TypeMismatch { register, name } => {
                write!(f, "type mismatch on register #{register} ({name})")
            }
            SimError::WriteDisciplineViolation {
                register,
                name,
                owner,
                writer,
            } => write!(
                f,
                "write-discipline violation on register #{register} ({name}): owned by {owner}, written by {writer}"
            ),
            SimError::UnknownRegister { register } => {
                write!(f, "unknown register #{register}")
            }
            SimError::ScheduleOutOfUniverse { process, n } => {
                write!(
                    f,
                    "schedule names {process} outside the simulated universe (n = {n})"
                )
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_register_name() {
        let e = SimError::WriteDisciplineViolation {
            register: 7,
            name: "Heartbeat[3]".into(),
            owner: ProcessId::new(3),
            writer: ProcessId::new(1),
        };
        let s = e.to_string();
        assert!(s.contains("Heartbeat[3]") && s.contains("p3") && s.contains("p1"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error>() {}
        assert_err::<SimError>();
    }
}
