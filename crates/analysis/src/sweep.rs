//! Seeded parameter sweeps with optional parallel execution.
//!
//! Every experiment in the reproduction has the same outer shape: evaluate a
//! measurement at each point of a parameter grid, several independent trials
//! per point, with deterministic seeds so that re-running the experiment (or
//! a benchmark derived from it) reproduces the same numbers. [`Sweep`] is
//! that outer loop, with a scoped-thread parallel variant for the larger
//! grids.

use std::fmt::Debug;

/// One evaluated point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint<P, R> {
    /// The parameter value the measurement was taken at.
    pub parameter: P,
    /// The measurement.
    pub value: R,
}

/// A parameter sweep over a list of values.
///
/// # Examples
///
/// ```
/// use faultnet_analysis::sweep::Sweep;
///
/// let sweep = Sweep::over(vec![1u32, 2, 3]);
/// let results = sweep.run(|n| n * n);
/// assert_eq!(results[2].value, 9);
/// ```
#[derive(Debug, Clone)]
pub struct Sweep<P> {
    parameters: Vec<P>,
}

impl<P: Clone + Send + Sync> Sweep<P> {
    /// Creates a sweep over the given parameter values.
    pub fn over<I: IntoIterator<Item = P>>(parameters: I) -> Self {
        Sweep {
            parameters: parameters.into_iter().collect(),
        }
    }

    /// The parameter values of this sweep.
    pub fn parameters(&self) -> &[P] {
        &self.parameters
    }

    /// Number of points in the sweep.
    pub fn len(&self) -> usize {
        self.parameters.len()
    }

    /// Returns `true` if the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.parameters.is_empty()
    }

    /// Evaluates `f` at every parameter value, sequentially and in order.
    pub fn run<R, F>(&self, mut f: F) -> Vec<SweepPoint<P, R>>
    where
        F: FnMut(&P) -> R,
    {
        self.parameters
            .iter()
            .map(|p| SweepPoint {
                parameter: p.clone(),
                value: f(p),
            })
            .collect()
    }

    /// Evaluates `f` at every parameter value using up to `threads` worker
    /// threads (`std::thread::scope`), preserving the parameter order in the
    /// returned vector.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or if a worker panics.
    pub fn run_parallel<R, F>(&self, threads: usize, f: F) -> Vec<SweepPoint<P, R>>
    where
        R: Send,
        F: Fn(&P) -> R + Send + Sync,
    {
        assert!(threads > 0, "at least one thread is required");
        if self.parameters.is_empty() {
            return Vec::new();
        }
        let threads = threads.min(self.parameters.len());
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<SweepPoint<P, R>>> =
            (0..self.parameters.len()).map(|_| None).collect();
        let slot_refs: Vec<std::sync::Mutex<&mut Option<SweepPoint<P, R>>>> =
            slots.iter_mut().map(std::sync::Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    loop {
                        let index = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        if index >= self.parameters.len() {
                            break;
                        }
                        let parameter = self.parameters[index].clone();
                        let value = f(&parameter);
                        let mut slot = slot_refs[index].lock().expect("slot lock");
                        **slot = Some(SweepPoint { parameter, value });
                    }
                    // Merge this worker's instrumentation buffers before the
                    // scope returns: scoped-thread TLS destructors are not
                    // guaranteed to run before the join, and the sweep is
                    // where nearly all measurement threads live.
                    faultnet_obs::flush_thread();
                });
            }
        });
        drop(slot_refs);
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_run_preserves_order() {
        let sweep = Sweep::over(vec![1, 2, 3, 4]);
        assert_eq!(sweep.len(), 4);
        assert!(!sweep.is_empty());
        let out = sweep.run(|x| x * 10);
        let values: Vec<i32> = out.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![10, 20, 30, 40]);
        let params: Vec<i32> = out.iter().map(|p| p.parameter).collect();
        assert_eq!(params, vec![1, 2, 3, 4]);
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let sweep = Sweep::over((0u64..37).collect::<Vec<_>>());
        let sequential = sweep.run(|x| x * x + 1);
        let parallel = sweep.run_parallel(4, |x| x * x + 1);
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(parallel.iter()) {
            assert_eq!(a.parameter, b.parameter);
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn parallel_run_with_more_threads_than_points() {
        let sweep = Sweep::over(vec![5u32, 7]);
        let out = sweep.run_parallel(16, |x| x + 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, 6);
        assert_eq!(out[1].value, 8);
    }

    #[test]
    fn empty_sweep() {
        let sweep: Sweep<u32> = Sweep::over(Vec::new());
        assert!(sweep.is_empty());
        assert!(sweep.run(|x| *x).is_empty());
        assert!(sweep.run_parallel(2, |x| *x).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let sweep = Sweep::over(vec![1]);
        let _ = sweep.run_parallel(0, |x| *x);
    }
}
