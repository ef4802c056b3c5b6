//! Timeout growth policies (line 17 of Figure 2, plus an ablation).

/// How `timeout[A]` grows when the timer for set `A` expires.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TimeoutPolicy {
    /// The paper's rule: `timeout[A] ← timeout[A] + 1` (Figure 2, line 17).
    #[default]
    Increment,
    /// Ablation: exponential growth `timeout[A] ← 2 · timeout[A]`. Reaches a
    /// sufficient timeout in logarithmically many expirations, at the cost
    /// of overshooting (slower detection of genuinely crashed sets).
    Double,
}

impl TimeoutPolicy {
    /// The next timeout after an expiration.
    pub fn grow(self, timeout: u64) -> u64 {
        match self {
            TimeoutPolicy::Increment => timeout + 1,
            TimeoutPolicy::Double => timeout.saturating_mul(2).max(2),
        }
    }

    /// Number of expirations before the timeout reaches at least `target`,
    /// starting from 1. Nothing calls it yet: it is the per-set factor of
    /// the stabilization bound that Theorem 23's armed check is to compute.
    pub fn expirations_to_reach(self, target: u64) -> u64 {
        let mut timeout = 1u64;
        let mut count = 0;
        while timeout < target {
            timeout = self.grow(timeout);
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increment_grows_linearly() {
        let p = TimeoutPolicy::Increment;
        assert_eq!(p.grow(1), 2);
        assert_eq!(p.grow(10), 11);
        assert_eq!(p.expirations_to_reach(100), 99);
    }

    #[test]
    fn double_grows_exponentially() {
        let p = TimeoutPolicy::Double;
        assert_eq!(p.grow(1), 2);
        assert_eq!(p.grow(8), 16);
        assert_eq!(p.expirations_to_reach(1024), 10);
        // Saturation guard.
        assert_eq!(p.grow(u64::MAX), u64::MAX);
    }

    #[test]
    fn default_is_the_paper_rule() {
        assert_eq!(TimeoutPolicy::default(), TimeoutPolicy::Increment);
    }
}
