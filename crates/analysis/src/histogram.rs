//! Equal-width histograms for probe-count distributions.
//!
//! Used by the experiments that look at *distributions* rather than means:
//! the chemical-distance stretch distribution (Lemma 8), and the heavy right
//! tail of local-router probe counts in the hard regimes (Theorems 3(i)
//! and 7).

/// An equal-width histogram over a fixed range.
///
/// # Examples
///
/// ```
/// use faultnet_analysis::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.extend([1.0, 2.5, 7.0, 9.9, 11.0]);
/// assert_eq!(h.counts(), &[1, 1, 0, 1, 1]);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins covering
    /// `[min, max)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, the bounds are not finite, or `max <= min`.
    pub fn new(min: f64, max: f64, bins: usize) -> Self {
        assert!(bins > 0, "at least one bin is required");
        assert!(
            min.is_finite() && max.is_finite() && max > min,
            "histogram bounds must be finite with max > min"
        );
        Histogram {
            min,
            max,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Builds a histogram spanning the observed range of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` contains no finite entries or `bins == 0`.
    pub fn from_values<I>(values: I, bins: usize) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        let finite: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        assert!(!finite.is_empty(), "no finite values to histogram");
        let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let max = if max > min { max } else { min + 1.0 };
        let mut h = Histogram::new(min, max + f64::EPSILON * max.abs().max(1.0), bins);
        h.extend(finite);
        h
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if value < self.min {
            self.underflow += 1;
        } else if value >= self.max {
            self.overflow += 1;
        } else {
            let width = (self.max - self.min) / self.counts.len() as f64;
            let index = ((value - self.min) / width) as usize;
            let index = index.min(self.counts.len() - 1);
            self.counts[index] += 1;
        }
    }

    /// Adds many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.add(v);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `[low, high)` range of bin `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bin_range(&self, index: usize) -> (f64, f64) {
        assert!(index < self.counts.len(), "bin index out of range");
        let width = (self.max - self.min) / self.counts.len() as f64;
        (
            self.min + width * index as f64,
            self.min + width * (index + 1) as f64,
        )
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Renders the histogram as a text bar chart.
    pub fn render(&self, max_bar_width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, count) in self.counts.iter().enumerate() {
            let (lo, hi) = self.bin_range(i);
            let bar_len = (*count as f64 / peak as f64 * max_bar_width as f64).round() as usize;
            out.push_str(&format!(
                "[{lo:>10.3}, {hi:>10.3})  {count:>8}  {}\n",
                "#".repeat(bar_len)
            ));
        }
        if self.underflow > 0 {
            out.push_str(&format!("underflow: {}\n", self.underflow));
        }
        if self.overflow > 0 {
            out.push_str(&format!("overflow:  {}\n", self.overflow));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every recorded observation, including under- and overflow.
    fn observations(h: &Histogram) -> u64 {
        h.counts().iter().sum::<u64>() + h.underflow() + h.overflow()
    }

    #[test]
    fn counts_fall_into_expected_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend([0.0, 1.9, 2.0, 5.5, 9.99]);
        assert_eq!(h.counts(), &[2, 1, 1, 0, 1]);
        assert_eq!(observations(&h), 5);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.bin_range(0), (0.0, 2.0));
        assert_eq!(h.bin_range(4), (8.0, 10.0));
    }

    #[test]
    fn out_of_range_values_are_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.extend([-0.5, 0.5, 1.0, 2.0, f64::NAN]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(observations(&h), 4); // NaN ignored
    }

    #[test]
    fn from_values_covers_the_data() {
        let h = Histogram::from_values((1..=100).map(|i| i as f64), 10);
        assert_eq!(observations(&h), 100);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert!(h.counts().iter().all(|&c| (9..=11).contains(&c)));
    }

    #[test]
    fn constant_data_is_handled() {
        let h = Histogram::from_values([5.0, 5.0, 5.0], 4);
        assert_eq!(observations(&h), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn render_contains_bars() {
        let mut h = Histogram::new(0.0, 4.0, 2);
        h.extend([1.0, 1.0, 3.0, 5.0]);
        let text = h.render(10);
        assert!(text.contains('#'));
        assert!(text.contains("overflow"));
        assert!(!text.contains("underflow"));
    }

    #[test]
    #[should_panic(expected = "bounds")]
    fn invalid_bounds_rejected() {
        let _ = Histogram::new(1.0, 1.0, 3);
    }

    #[test]
    #[should_panic(expected = "no finite values")]
    fn from_values_rejects_empty_input() {
        let _ = Histogram::from_values(std::iter::empty(), 3);
    }
}
