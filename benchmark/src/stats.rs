//! Order statistics for the benchmark's output.

use std::collections::BTreeMap;

/// The median of `values` (mean of the middle pair for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The mean over groups of each group's median, for `(group, value)`
/// samples: every group weighs the same however many samples it has;
/// 0 for no samples.
pub fn mean_of_medians(samples: &[(u64, f64)]) -> f64 {
    let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(group, value) in samples {
        groups.entry(group).or_default().push(value);
    }
    let medians: Vec<f64> = groups.values().map(|v| median(v)).collect();
    ratio(medians.iter().sum(), medians.len() as f64)
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_medians_weighs_groups_equally() {
        let samples = [(0, 10.0), (1, 4.0), (0, 12.0), (1, 2.0), (1, 100.0), (0, 11.0)];
        assert_eq!(mean_of_medians(&samples), (11.0 + 4.0) / 2.0);
        assert_eq!(mean_of_medians(&[(7, 3.0)]), 3.0);
        assert_eq!(mean_of_medians(&[]), 0.0);
    }
}
