//! Threshold and phase-transition detection on measured curves.
//!
//! Several of the paper's statements locate a transition point on an axis:
//! the giant-component threshold of the hypercube at `p ≈ 1/n`, the mesh
//! percolation threshold `p_c` (Theorem 4's applicability boundary), the
//! double-tree connectivity threshold at `p = 1/√2` (Lemma 6), and — the
//! headline result — the *routing* transition of the hypercube at `α = 1/2`
//! (Theorem 3). The experiments measure a monotone curve (giant fraction,
//! connection probability, success rate, or log-complexity) against the
//! control parameter and use the helpers here to locate where the curve
//! crosses a level or rises fastest.

/// Finds the first crossing of `level` on a piecewise-linear curve given by
/// `points` (which are sorted by `x` internally). Returns the interpolated
/// `x` of the crossing, or `None` if the curve never reaches the level from
/// below.
///
/// # Examples
///
/// ```
/// use faultnet_analysis::phase::crossing_point;
///
/// let curve = [(0.0, 0.0), (0.4, 0.1), (0.6, 0.9), (1.0, 1.0)];
/// let x = crossing_point(&curve, 0.5).unwrap();
/// assert!((x - 0.5).abs() < 1e-9);
/// ```
pub fn crossing_point(points: &[(f64, f64)], level: f64) -> Option<f64> {
    let mut sorted: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite x values"));
    if sorted.is_empty() {
        return None;
    }
    if sorted[0].1 >= level {
        return Some(sorted[0].0);
    }
    for window in sorted.windows(2) {
        let (x0, y0) = window[0];
        let (x1, y1) = window[1];
        if y0 < level && y1 >= level {
            if (y1 - y0).abs() < f64::EPSILON {
                return Some(x1);
            }
            let t = (level - y0) / (y1 - y0);
            return Some(x0 + t * (x1 - x0));
        }
    }
    None
}

/// Returns the midpoint of the interval on which the curve rises fastest
/// (largest finite difference quotient) — a crude but robust estimator of the
/// location of a sharp transition.
pub fn steepest_rise(points: &[(f64, f64)]) -> Option<f64> {
    let mut sorted: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite x values"));
    let mut best: Option<(f64, f64)> = None; // (slope, midpoint)
    for window in sorted.windows(2) {
        let (x0, y0) = window[0];
        let (x1, y1) = window[1];
        if x1 == x0 {
            continue;
        }
        let slope = (y1 - y0) / (x1 - x0);
        let midpoint = 0.5 * (x0 + x1);
        if best.map_or(true, |(s, _)| slope > s) {
            best = Some((slope, midpoint));
        }
    }
    best.map(|(_, midpoint)| midpoint)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_point_interpolates() {
        let curve = [(0.0, 0.0), (1.0, 1.0)];
        assert!((crossing_point(&curve, 0.25).unwrap() - 0.25).abs() < 1e-12);
        assert!((crossing_point(&curve, 1.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_point_handles_unsorted_input_and_missing_crossings() {
        let curve = [(0.6, 0.9), (0.0, 0.0), (0.4, 0.1), (1.0, 1.0)];
        let x = crossing_point(&curve, 0.5).unwrap();
        assert!((x - 0.5).abs() < 1e-9);
        assert!(crossing_point(&curve, 1.5).is_none());
        assert!(crossing_point(&[], 0.5).is_none());
        // already above the level at the left end
        assert_eq!(crossing_point(&[(0.2, 0.9), (0.5, 1.0)], 0.5), Some(0.2));
    }

    #[test]
    fn steepest_rise_finds_the_jump() {
        let curve = [
            (0.0, 0.01),
            (0.2, 0.02),
            (0.4, 0.05),
            (0.5, 0.85),
            (0.6, 0.9),
            (0.8, 0.95),
        ];
        let x = steepest_rise(&curve).unwrap();
        assert!((x - 0.45).abs() < 1e-9);
        assert!(steepest_rise(&[(1.0, 1.0)]).is_none());
    }
}
