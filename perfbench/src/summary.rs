//! Order statistics for latency samples and run-to-run spreads.
//!
//! A latency is reported as a median and a tail, where the tail is the
//! highest percentile that still has at least [`BEYOND_TAIL`] samples above
//! it. With fewer than [`MIN_TAIL_SAMPLES`] samples no such percentile
//! exists and [`tail`] refuses to answer rather than report the maximum.

/// Samples that must lie strictly above the reported tail value.
pub const BEYOND_TAIL: usize = 10;

/// The smallest sample count from which a tail can be reported.
pub const MIN_TAIL_SAMPLES: usize = BEYOND_TAIL + 1;

/// A tail latency: the value, the percentile it sits at, and how many
/// samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in `(0, 100)`: the share of samples at or below `value`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples the tail was taken from.
    pub samples: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the two middle samples for an even count), or
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest percentile with at least [`BEYOND_TAIL`] samples beyond it,
/// or `None` when there are fewer than [`MIN_TAIL_SAMPLES`] samples.
///
/// With `n` samples sorted ascending the tail is the sample at rank
/// `n − 10` (1-based): exactly ten samples are larger, and it sits at
/// percentile `100 · (n − 10) / n`.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    let sorted = sorted(samples);
    let rank = n - BEYOND_TAIL;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The three cut points of `statistics.quantiles(values, n=4)` in Python's
/// default (`exclusive`) method, or `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread the benchmark's
/// bounds are checked against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}
