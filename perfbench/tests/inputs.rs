//! The seeded input generator: the same seed gives byte-identical inputs,
//! a different seed changes them. Run with `--release`: the `churn_walk`
//! inputs are churn schedules over every edge of `H_14`.

use faultnet_perfbench::workloads::{encoded_inputs, NAMES};

#[test]
fn same_seed_gives_identical_inputs() {
    for name in NAMES {
        let a = encoded_inputs(name, 7).expect("known workload");
        let b = encoded_inputs(name, 7).expect("known workload");
        assert!(!a.bytes().is_empty(), "{name}: empty input list");
        assert_eq!(a.bytes(), b.bytes(), "{name}: inputs differ for one seed");
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    for name in NAMES {
        let a = encoded_inputs(name, 7).expect("known workload");
        let b = encoded_inputs(name, 8).expect("known workload");
        assert_ne!(
            a.digest(),
            b.digest(),
            "{name}: seed does not reach the inputs"
        );
    }
}

#[test]
fn unknown_workloads_have_no_inputs() {
    assert!(encoded_inputs("no_such_workload", 1).is_none());
}
