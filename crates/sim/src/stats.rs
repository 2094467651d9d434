//! Statistics containers used to regenerate the paper's figures.
//!
//! The paper reports daily behavior counts (Fig 3), CDFs of pause periods
//! (Fig 5) and weekly exposure series (Fig 9). These containers collect raw
//! samples during a simulation run and expose the derived shapes the
//! figures plot.

/// An empirical distribution built from `f64` samples.
///
/// Used for the pause-period CDF (Fig 5): samples are pause durations in
/// days; the figure plots `P[duration <= x]`.
///
/// # Example
///
/// ```
/// use remnant_sim::stats::Ecdf;
///
/// let mut cdf = Ecdf::new();
/// cdf.extend([1.0, 2.0, 6.0, 8.0]);
/// assert_eq!(cdf.fraction_le(2.0), 0.5);
/// assert_eq!(cdf.fraction_gt(5.0), 0.5);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ecdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Ecdf {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Ecdf::default()
    }

    /// Adds one sample. Non-finite samples are ignored.
    pub fn push(&mut self, sample: f64) {
        if sample.is_finite() {
            self.samples.push(sample);
            self.sorted = false;
        }
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("non-finite samples are rejected"));
            self.sorted = true;
        }
    }

    /// Fraction of samples `<= x`; 0.0 for an empty distribution.
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|s| **s <= x).count();
        n as f64 / self.samples.len() as f64
    }

    /// Fraction of samples `> x`; 0.0 for an empty distribution.
    pub fn fraction_gt(&self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        1.0 - self.fraction_le(x)
    }

    /// The `q`-th quantile (0.0..=1.0) using nearest-rank.
    ///
    /// Returns `None` for an empty distribution.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in 0..=1");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// Mean of the samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

impl Extend<f64> for Ecdf {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for s in iter {
            self.push(s);
        }
    }
}

impl FromIterator<f64> for Ecdf {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut cdf = Ecdf::new();
        cdf.extend(iter);
        cdf
    }
}

/// A labelled (x, y) series, e.g. "JOIN events per day" for Fig 3.
///
/// # Example
///
/// ```
/// use remnant_sim::stats::Series;
///
/// let mut s = Series::new("JOIN");
/// s.push(0.0, 190.0);
/// s.push(1.0, 201.0);
/// assert_eq!(s.mean_y(), Some(195.5));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The collected points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the y values, or `None` if empty.
    pub fn mean_y(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|(_, y)| y).sum::<f64>() / self.points.len() as f64)
        }
    }

    /// Maximum y value, or `None` if empty.
    pub fn max_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|(_, y)| *y)
            .fold(None, |acc, y| Some(acc.map_or(y, |m: f64| m.max(y))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_fractions() {
        let cdf: Ecdf = [1.0, 2.0, 3.0, 10.0].into_iter().collect();
        assert_eq!(cdf.fraction_le(3.0), 0.75);
        assert_eq!(cdf.fraction_gt(3.0), 0.25);
        assert_eq!(cdf.fraction_le(0.0), 0.0);
        assert_eq!(cdf.fraction_le(100.0), 1.0);
    }

    #[test]
    fn ecdf_empty_is_safe() {
        let mut cdf = Ecdf::new();
        assert_eq!(cdf.fraction_le(1.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.mean(), None);
        assert!(cdf.is_empty());
    }

    #[test]
    fn ecdf_rejects_non_finite() {
        let mut cdf = Ecdf::new();
        cdf.push(f64::NAN);
        cdf.push(f64::INFINITY);
        cdf.push(1.0);
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn ecdf_quantiles_nearest_rank() {
        let mut cdf: Ecdf = (1..=10).map(|i| i as f64).collect();
        assert_eq!(cdf.quantile(0.5), Some(5.0));
        assert_eq!(cdf.quantile(1.0), Some(10.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
    }

    #[test]
    fn ecdf_curve_is_monotone() {
        let cdf: Ecdf = [2.0, 4.0, 4.0, 9.0].into_iter().collect();
        let curve: Vec<f64> = (0..12).map(|x| cdf.fraction_le(f64::from(x))).collect();
        for pair in curve.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }

    #[test]
    fn series_stats() {
        let mut s = Series::new("L");
        assert!(s.is_empty());
        assert_eq!(s.mean_y(), None);
        s.push(0.0, 140.0);
        s.push(1.0, 150.0);
        assert_eq!(s.mean_y(), Some(145.0));
        assert_eq!(s.max_y(), Some(150.0));
        assert_eq!(s.len(), 2);
    }
}
