//! Execution knobs shared by the trial-fan-out measurement functions.
//!
//! [`TrialExec`] lives next to the trial loop it configures,
//! [`faultnet_faultmodel::trials`], and is re-exported here unchanged: every
//! experiment config holds one `exec: TrialExec` (set with its `with_exec`
//! builder, from [`crate::cli::ExpArgs::exec`] in the binaries), so the
//! wall-clock levers — per-trial fan-out (`--threads`) and intra-census
//! fan-out (`--census-threads`) — travel as one value, and a new lever
//! lands in one place instead of every signature. None of them changes a
//! reported number. The instance store is not a lever: the trial loop
//! picks it, and `TrialExec::trial_batch` only forces a lane width for the
//! equivalence suites.

pub use faultnet_faultmodel::trials::TrialExec;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_the_default() {
        assert_eq!(TrialExec::default(), TrialExec::sequential());
        assert_eq!(TrialExec::sequential().threads, 1);
        assert_eq!(TrialExec::sequential().census_threads, 1);
        assert!(!TrialExec::sequential().batched());
    }

    #[test]
    fn builders_clamp_threads_but_not_the_batch() {
        let exec = TrialExec::sequential()
            .with_threads(0)
            .with_census_threads(0)
            .with_trial_batch(0);
        assert_eq!(exec.threads, 1);
        assert_eq!(exec.census_threads, 1);
        // 0 is meaningful for the batch knob: the trial loop decides.
        assert_eq!(exec.trial_batch, 0);
        assert!(TrialExec::sequential().with_trial_batch(200).batched());
    }
}
