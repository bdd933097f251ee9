use faultnet_perfbench::summary::{median, quartiles, relative_iqr, tail, MIN_TAIL_SAMPLES};

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled so the helpers cannot rely on sorted input.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    if n > 0 {
        v.swap(0, n / 2);
    }
    v
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn tail_refuses_fewer_than_eleven_samples() {
    assert_eq!(MIN_TAIL_SAMPLES, 11);
    for n in 0..MIN_TAIL_SAMPLES {
        assert!(tail(&ramp(n)).is_none(), "{n} samples must not give a tail");
    }
    let t = tail(&ramp(11)).expect("eleven samples give a tail");
    assert_eq!(
        t.value, 1.0,
        "with 11 samples only the minimum has ten beyond it"
    );
    assert_eq!(t.samples, 11);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let samples = ramp(1000);
    let t = tail(&samples).expect("tail");
    assert_eq!(t.value, 990.0);
    assert!((t.percentile - 99.0).abs() < 1e-12);
    assert_eq!(t.samples, 1000);
    let beyond = samples.iter().filter(|&&x| x > t.value).count();
    assert_eq!(beyond, 10);
    let t = tail(&ramp(100)).expect("tail");
    assert_eq!((t.value, t.percentile), (90.0, 90.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[1.0]), None);
    let spread = relative_iqr(&ramp(10)).expect("spread");
    assert!((spread - 5.5 / 5.5).abs() < 1e-12);
}
