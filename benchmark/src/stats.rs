//! Order statistics for run samples: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` gives them (the driver's spread
//! rule), and the choice of the tail percentile a sample can support.

/// The median; `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` by the exclusive method (`statistics.quantiles(v, n=4)`):
/// position `i·(len+1)/4` in the sorted sample, linearly interpolated and
/// clamped to the sample's ends. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Signed: the clamp can leave the fraction outside [0, 1], which
        // extrapolates exactly as Python does for tiny samples.
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// Percentile by nearest rank (`p` in `0..=100`).
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The tail percentiles a report may quote, lowest first.
const TAIL_LADDER: [u32; 6] = [75, 80, 90, 95, 99, 100];

/// The highest percentile of the ladder that still has at least
/// `min_beyond` samples above it in a sample of `len`; `None` when even the
/// lowest rung has too few (the report then quotes the median only).
pub fn supported_tail(len: usize, min_beyond: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| {
            let rank = (p as usize * len).div_ceil(100).clamp(1, len.max(1));
            len >= rank && len - rank >= min_beyond
        })
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    /// Values from CPython: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // Two points extrapolate past the ends, as Python does.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 30.0);
        assert_eq!(percentile(&v, 80), 48.0);
        assert_eq!(percentile(&v, 100), 60.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 12 jobs × 5 runs: p80 leaves 12 beyond, p90 only 6.
        assert_eq!(supported_tail(60, 10), Some(80));
        // 12 jobs of one run support no tail at all.
        assert_eq!(supported_tail(12, 10), None);
        assert_eq!(supported_tail(40, 10), Some(75));
        assert_eq!(supported_tail(100, 10), Some(90));
        assert_eq!(supported_tail(1000, 10), Some(99));
        assert_eq!(supported_tail(0, 10), None);
    }
}
