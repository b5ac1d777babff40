//! The benchmark's own arithmetic: medians, quartiles and the derived
//! per-layer figures. Kept free of I/O and clocks so it is unit-tested.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile of `values`, computed as
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so spreads printed here match an external
/// recomputation. A single sample is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    // Exclusive method: the i-th cut point sits at 1-based position
    // i*(n+1)/4, interpolated between its neighbours. Python clamps the
    // neighbour index but not the weight, so tiny samples extrapolate.
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Host nanoseconds per event: `wall_s` seconds spread over `events`.
///
/// # Panics
///
/// Panics when `events` is 0; every workload produces events.
pub fn ns_per_event(wall_s: f64, events: u64) -> f64 {
    assert!(events > 0, "ns/event over zero events");
    wall_s * 1e9 / events as f64
}

/// Estimated host time the cluster spends outside generation and pod
/// replay: routing, admission, the failed pod's cut-off replay and
/// aggregation.
///
/// The cluster replays its surviving pods on parallel threads, so the
/// replays cost it roughly the slowest one, not their sum. This is an
/// estimate: the parallel replays share the host with each other and
/// the generator is timed in a separate call, so it can read slightly
/// negative on a noisy host.
pub fn cluster_route_estimate(simulate_s: f64, trace_s: f64, replays_s: &[f64]) -> f64 {
    let slowest = replays_s.iter().copied().fold(0.0, f64::max);
    simulate_s - trace_s - slowest
}

/// Host time `host_s` rescaled to the reference host: `pass_s` is the
/// calibration pass's time on this host at the same moment and
/// `reference_s` its time on the reference host.
pub fn at_reference(host_s: f64, pass_s: f64, reference_s: f64) -> f64 {
    host_s * reference_s / pass_s
}

/// Smallest of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Per-layer counts of several traces, merged into one set for the
/// unit that ran them all: a `*_max` or `p99` figure is the largest of
/// the traces', a `*_mean` their mean, and any other count their sum.
/// Names keep the order of the first trace.
pub fn merge_counts(per_trace: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let Some(first) = per_trace.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|&(name, _)| {
            let values = per_trace
                .iter()
                .map(|counts| counts.iter().find(|c| c.0 == name).map_or(0.0, |c| c.1));
            let merged = if name.ends_with("_max") || name.contains("p99") {
                values.fold(f64::NEG_INFINITY, f64::max)
            } else if name.ends_with("_mean") {
                values.sum::<f64>() / per_trace.len() as f64
            } else {
                values.sum()
            };
            (name, merged)
        })
        .collect()
}

/// Percent change of `traced` over `untraced` wall time.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    (traced_s / untraced_s - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn ns_per_event_scales_seconds() {
        assert_eq!(ns_per_event(2.0, 4), 5e8);
        assert_eq!(ns_per_event(1e-6, 1), 1000.0);
    }

    #[test]
    #[should_panic(expected = "zero events")]
    fn ns_per_event_rejects_zero_events() {
        ns_per_event(1.0, 0);
    }

    #[test]
    fn route_estimate_subtracts_only_the_slowest_replay() {
        assert_eq!(cluster_route_estimate(10.0, 1.0, &[3.0, 5.0]), 4.0);
        assert_eq!(cluster_route_estimate(10.0, 1.0, &[]), 9.0);
        assert_eq!(cluster_route_estimate(4.0, 1.0, &[5.0]), -2.0);
    }

    #[test]
    fn at_reference_scales_by_the_calibration_pass() {
        // The pass took 2x its reference time, so the host ran at half speed.
        assert_eq!(at_reference(4.0, 0.01, 0.005), 2.0);
        assert_eq!(at_reference(4.0, 0.005, 0.005), 4.0);
    }

    #[test]
    fn min_picks_the_smallest() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[7.0]), 7.0);
    }

    #[test]
    fn merge_counts_sums_maxes_and_averages_by_name() {
        let a = vec![
            ("pod.events", 10.0),
            ("scheduler.queue_depth_max", 4.0),
            ("scheduler.queue_depth_mean", 2.0),
            ("metrics.p99_total_cycles", 90.0),
        ];
        let b = vec![
            ("pod.events", 5.0),
            ("scheduler.queue_depth_max", 7.0),
            ("scheduler.queue_depth_mean", 3.0),
            ("metrics.p99_total_cycles", 80.0),
        ];
        assert_eq!(
            merge_counts(&[a.clone(), b]),
            vec![
                ("pod.events", 15.0),
                ("scheduler.queue_depth_max", 7.0),
                ("scheduler.queue_depth_mean", 2.5),
                ("metrics.p99_total_cycles", 90.0),
            ]
        );
        assert_eq!(merge_counts(&[a.clone()]), a);
        assert!(merge_counts(&[]).is_empty());
    }

    #[test]
    fn overhead_is_relative_percent() {
        assert!((overhead_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert!((overhead_pct(0.9, 1.0) + 10.0).abs() < 1e-9);
    }
}
