//! The estimators every reported timing goes through, against
//! hand-computed vectors.

use sa_benchmark::drive::{Cut, Pass};
use sa_benchmark::report::{quiet_cost, quiet_quantile, Bench, Metric, RunResult};
use sa_benchmark::stats::{
    highest_supported_quantile, median, quantile, quartile_distance, quartiles, sorted,
    windowed_quantile,
};

#[test]
fn quantiles_are_nearest_rank_on_the_raw_samples() {
    let v: Vec<u64> = (1..=10).map(|i| i * 10).collect();
    assert_eq!(quantile(&v, 0.5), 50);
    assert_eq!(quantile(&v, 0.9), 90);
    assert_eq!(quantile(&v, 0.91), 100);
    assert_eq!(quantile(&v, 0.0), 10);
    assert_eq!(quantile(&v, 1.0), 100);
    // Not a bucket midpoint: two samples 3 ns apart stay 3 ns apart.
    assert_eq!(
        quantile(&sorted(&[1_245_183, 1_245_186, 7]), 0.5),
        1_245_183
    );
    assert_eq!(quantile(&[42], 0.99), 42);
}

#[test]
fn the_five_window_p99_ignores_a_stall_that_lands_in_one_window() {
    // Five windows of 100 samples at 1..=100; one stall of 1,000,000
    // in the third.
    let mut samples: Vec<u64> = (0..500).map(|i| i % 100 + 1).collect();
    samples[250] = 1_000_000;
    samples[251] = 1_000_000;
    // Whole-run p99 is dragged to the top of the ordinary range's tail…
    assert_eq!(quantile(&sorted(&samples), 0.99), 100);
    samples[252] = 1_000_000;
    samples[253] = 1_000_000;
    samples[254] = 1_000_000;
    samples[255] = 1_000_000;
    assert_eq!(quantile(&sorted(&samples), 0.99), 1_000_000);
    // …the windowed estimate is the median of [99, 99, 1e6, 99, 99].
    assert_eq!(windowed_quantile(&samples, 0.99, 5), 99);
    // Fewer samples than windows: the plain quantile.
    assert_eq!(windowed_quantile(&[5, 1, 3], 0.5, 5), 3);
    // A ragged tail is dropped, not folded into the last window.
    let ragged: Vec<u64> = (1..=52).collect();
    assert_eq!(windowed_quantile(&ragged, 1.0, 5), 30);
}

/// A round whose segment boundaries fall after `cuts` = (window ns,
/// updates, RTT samples so far), with `rtt_ns` as its samples.
fn round(cuts: &[(u64, u64, usize)], rtt_ns: &[u64]) -> Pass {
    Pass {
        cuts: cuts
            .iter()
            .map(|&(window_ns, updates, rtt_len)| Cut {
                window_ns,
                process_cpu_ns: 0,
                other_cpu_ns: 0,
                updates,
                samples: updates,
                rtt_len,
            })
            .collect(),
        rtt_ns: rtt_ns.to_vec(),
        ..Pass::default()
    }
}

#[test]
fn each_segment_is_charged_at_its_quietest_round() {
    let window = |a: &Cut, b: &Cut| (a.window_ns - b.window_ns) as f64;
    let updates = |a: &Cut, b: &Cut| (a.updates - b.updates) as f64;
    // Two segments of 10 and 30 updates. Round 1 stalls in the first
    // (200 ns for what takes 100), round 2 in the second (900 for 600).
    let rounds = [
        round(&[(0, 0, 0), (200, 10, 2), (800, 40, 4)], &[9, 1, 5, 5]),
        round(&[(0, 0, 0), (100, 10, 2), (1_000, 40, 4)], &[4, 2, 7, 3]),
    ];
    // (100 + 600) ns for 40 updates, where either round alone took
    // 800 or 1,000.
    assert_eq!(quiet_cost(&rounds, window, updates), 700.0 / 40.0);
    assert_eq!(quiet_cost(&rounds[..1], window, updates), 800.0 / 40.0);
    // Per segment the lower of the rounds' exact quantiles — p100 here:
    // min(9, 4) and min(5, 7) — then the median of the segments.
    assert_eq!(quiet_quantile(&rounds, |p| &p.rtt_ns, 1.0), 4.5);
    assert_eq!(quiet_quantile(&rounds, |p| &p.rtt_ns, 0.5), 2.0);
    // No samples (a closed loop's send lag): 0, not a panic.
    assert_eq!(quiet_quantile(&rounds, |p| &p.send_lag_ns, 0.99), 0.0);
}

#[test]
fn the_tail_percentile_needs_ten_samples_beyond_it() {
    let of = |n: u64| highest_supported_quantile(&(1..=n).collect::<Vec<u64>>());
    // 20 samples: only the median has ten beyond it.
    assert_eq!(of(20), (0.5, 10, 10));
    // 100 samples: p90 has exactly ten beyond; p99 has one.
    assert_eq!(of(100), (0.9, 90, 10));
    // 999 samples: p99 has 9 beyond (rank 990) — not enough.
    assert_eq!(of(999).0, 0.9);
    assert_eq!(of(1_000), (0.99, 990, 10));
    assert_eq!(of(10_000), (0.999, 9_990, 10));
    // Never above p99.9, whatever the sample size.
    assert_eq!(of(1_000_000).0, 0.999);
    // Fewer than twenty samples: the median, with what there is.
    assert_eq!(of(4), (0.5, 2, 2));
}

#[test]
fn quartiles_match_pythons_statistics_quantiles() {
    // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
    // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
    assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    assert_eq!(median(&ten), 5.5);
    assert_eq!(quartile_distance(&ten), 8.25 - 2.75);
    assert_eq!(quartile_distance(&[7.0]), 0.0);
    assert_eq!(quartile_distance(&[4.0, 4.0, 4.0]), 0.0);
}

#[test]
fn every_timing_is_printed_with_its_sample_count_and_all_its_digits() {
    let result = RunResult {
        workload: "tcp_fleet".to_string(),
        seed: 1,
        seconds: 10,
        traced: false,
        correct: true,
        attempted: 80_563,
        failed: 0,
        metrics: vec![
            Metric::new("reactor.rtt_p50_us", 633.753125, "us", 80_000),
            Metric::new("setup_s", 0.218858723, "s", 3),
        ],
    };
    assert_eq!(result.metrics[0].n, 80_000);
    let line = result.to_line();
    assert!(
        line.contains("\"reactor.rtt_p50_us\": {\"value\": 633.753125,\"unit\": \"us\"}"),
        "{line}"
    );
    assert!(
        line.starts_with("{\"correct\": true,\"attempted\": 80563,\"failed\": 0,\"metrics\": {")
    );
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics_the_code_produces() {
    let bench = Bench::load();
    assert_eq!(bench.workloads, sa_benchmark::spec::WORKLOADS);
    assert!(bench
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && !m.higher_is_better));
    assert!(bench
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(bench.per_layer.iter().all(|m| m.bound.is_none()));
}
