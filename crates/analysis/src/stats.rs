//! Descriptive statistics for measured probe counts and probabilities.

/// A summary of a sample of real values.
///
/// # Examples
///
/// ```
/// use faultnet_analysis::stats::Summary;
///
/// let s = Summary::from_values([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
}

impl Summary {
    /// Builds a summary from a collection of values.
    ///
    /// Non-finite values are ignored. An all-empty input produces a summary
    /// with `len() == 0` whose statistics are `NaN`.
    pub fn from_values<I>(values: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        let mut sorted: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let n = sorted.len();
        if n == 0 {
            return Summary {
                sorted,
                mean: f64::NAN,
            };
        }
        let mean = sorted.iter().sum::<f64>() / n as f64;
        Summary { sorted, mean }
    }

    /// Builds a summary from integer counts (e.g. probe counts).
    pub fn from_counts<I>(values: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        Summary::from_values(values.into_iter().map(|v| v as f64))
    }

    /// Number of (finite) values summarised.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if no values were summarised.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest value.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Largest value.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let position = q * (self.sorted.len() - 1) as f64;
        let lower = position.floor() as usize;
        let upper = position.ceil() as usize;
        let weight = position - lower as f64;
        self.sorted[lower] * (1.0 - weight) + self.sorted[upper] * weight
    }

    /// Median (the 0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_small_sample() {
        let s = Summary::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.len(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.median(), 4.5);
        assert_eq!(s.quantile(0.0), 2.0);
        assert_eq!(s.quantile(1.0), 9.0);
    }

    #[test]
    fn summary_ignores_non_finite_values() {
        let s = Summary::from_values([1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn empty_and_singleton_summaries() {
        let empty = Summary::from_values([]);
        assert!(empty.is_empty());
        assert!(empty.mean().is_nan());
        assert!(empty.median().is_nan());
        let single = Summary::from_values([42.0]);
        assert_eq!(single.mean(), 42.0);
        assert_eq!(single.quantile(0.3), 42.0);
    }

    #[test]
    fn from_counts_and_mean_of_counts() {
        let s = Summary::from_counts([10u64, 20, 30]);
        assert_eq!(s.mean(), 20.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_out_of_range_panics() {
        let s = Summary::from_values([1.0]);
        let _ = s.quantile(1.5);
    }
}
