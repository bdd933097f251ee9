//! Execution knobs shared by the trial-fan-out measurement functions.
//!
//! [`TrialExec`] lives next to the trial loop it configures,
//! [`faultnet_faultmodel::trials`], and is re-exported here unchanged: every
//! experiment config holds one `exec: TrialExec` (set with its `with_exec`
//! builder, from [`crate::cli::ExpArgs::exec`] in the binaries), so the
//! three wall-clock levers — per-trial fan-out (`--threads`), intra-census
//! fan-out (`--census-threads`), and the trial-batched multispin engine
//! (`--trial-batch`) — travel as one value, and a new lever lands in one
//! place instead of every signature. None of them changes a reported
//! number.

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
        // 0 is meaningful for the batch knob: it means "scalar engine".
        assert_eq!(exec.trial_batch, 0);
        assert!(TrialExec::sequential().with_trial_batch(200).batched());
    }
}
