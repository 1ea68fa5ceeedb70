//! Summary statistics with the benchmark's reporting rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it,
//! so a tail figure is never read off a handful of points.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q` quantile (`0 < q < 1`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie strictly between 0 and 1");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of unsorted `values` (mean of the middle pair for even
/// counts), or `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Sorts in place and returns the slice, for chaining into [`quantile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// A JSON number, or `null` for a value the reporting rule withheld.
pub fn json_num(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(quantile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(quantile(&ramp(999), 0.99), None);
    }

    #[test]
    fn p90_and_p50_follow_the_same_rule() {
        assert_eq!(quantile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(quantile(&ramp(99), 0.90), None);
        assert_eq!(quantile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(quantile(&ramp(19), 0.50), None);
        assert_eq!(quantile(&[], 0.50), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn withheld_values_print_as_null() {
        assert_eq!(json_num(None), "null");
        assert_eq!(json_num(Some(f64::NAN)), "null");
        assert_eq!(json_num(Some(1.5)), "1.5");
    }
}
