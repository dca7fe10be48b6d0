//! A 30-step miniature of every workload, run twice: everything the
//! benchmark calls *exact* must repeat bit for bit under one seed, the
//! generator's random streams must actually depend on the seed, and the
//! alarms `alarm_churn` installs must change no answer.

use sa_benchmark::drive::{run_pass, Pass, World};
use sa_benchmark::gen::poisson_schedule;
use sa_benchmark::report::{check_firings, end_to_end};
use sa_benchmark::spec::{Spec, WORKLOADS};
use sa_sim::FiredEvent;

/// The exact outputs of one pass: uplinks per 1,000 samples, downlink
/// bytes per sample, the silent share, and the sorted firing list.
fn exact(pass: &Pass) -> (u64, u64, u64, Vec<FiredEvent>) {
    let metrics = end_to_end(std::slice::from_ref(pass));
    let bits = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .expect("end-to-end metric")
            .value
            .to_bits()
    };
    let mut fired = pass.fired.clone();
    fired.sort_unstable();
    (
        bits("uplinks_per_ksample"),
        bits("downlink_bytes_per_sample"),
        (pass.silent as f64 / pass.samples as f64).to_bits(),
        fired,
    )
}

fn miniature_pass(workload: &str, seed: u64) -> Pass {
    let world = World::build(Spec::miniature(workload, seed).expect("a known workload"));
    let pass = run_pass(&world, false);
    let (expected, diverged) = check_firings(&world, &pass);
    assert_eq!(
        diverged, 0,
        "{workload}: firings diverge from the ground truth"
    );
    assert_eq!(pass.failures.total(), 0, "{workload}: {:?}", pass.failures);
    assert_eq!(pass.fired.len() as u64, expected);
    pass
}

#[test]
fn every_workload_repeats_its_exact_metrics_and_firings_under_one_seed() {
    for workload in WORKLOADS {
        let first = exact(&miniature_pass(workload, 7));
        let second = exact(&miniature_pass(workload, 7));
        assert_eq!(
            first, second,
            "{workload} is not a pure function of its seed"
        );
    }
}

#[test]
fn the_poisson_schedule_is_a_function_of_the_seed_and_nothing_else() {
    let a = poisson_schedule(7, 48, 30, 4_000.0);
    assert_eq!(a, poisson_schedule(7, 48, 30, 4_000.0));
    assert_ne!(a, poisson_schedule(8, 48, 30, 4_000.0));
    // Every vehicle sends every step exactly once, in step order, and
    // arrival times never go backwards.
    assert_eq!(a.len(), 48 * 30);
    assert!(a
        .windows(2)
        .all(|w| w[0].at_ns <= w[1].at_ns && w[0].step <= w[1].step));
    for step in 0..30 {
        let mut conns: Vec<u32> = a
            .iter()
            .filter(|e| e.step == step)
            .map(|e| e.conn)
            .collect();
        conns.sort_unstable();
        assert_eq!(conns, (0..48).collect::<Vec<u32>>());
    }
}

#[test]
fn a_second_seed_is_a_different_world() {
    let a = miniature_pass("monitor_hour", 7);
    let b = miniature_pass("monitor_hour", 8);
    assert_ne!(exact(&a), exact(&b));
}

#[test]
fn the_churned_alarms_change_no_answer() {
    let quiet = miniature_pass("monitor_hour", 7);
    let churned = miniature_pass("alarm_churn", 7);
    assert!(churned.writes > 0 && quiet.writes == 0);
    // Phantom-owner alarms are relevant to no vehicle: same firings,
    // and the same updates sent (the bytes answered may differ, because
    // OPT pushes every alarm in a cell, relevant or not).
    assert_eq!(exact(&quiet).3, exact(&churned).3);
    assert_eq!(exact(&quiet).0, exact(&churned).0);
}
