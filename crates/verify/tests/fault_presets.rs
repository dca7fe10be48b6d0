//! The fault presets end to end: a smoke-sized fleet replayed through
//! fault-injected links and resilient clients on the virtual clock must
//! still fire *exactly* the ground-truth sequence and pass the transcript
//! oracle — no losses, no duplicates, no step drift — while the client
//! counters prove the faults forced recovery.

use sa_server::{ClientStats, FaultPlan, StrategySpec};
use sa_verify::{run_case, CaseOutcome, FuzzCase};

/// The smoke-test shape — 12 vehicles, 60 alarms, 240 one-second steps,
/// the four strategies round-robin — under `plan`.
fn preset_case(seed: u64, plan: FaultPlan) -> FuzzCase {
    FuzzCase {
        seed,
        vehicles: 12,
        alarms: 60,
        steps: 240,
        strategies: vec![
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: 5 },
            StrategySpec::Opt,
            StrategySpec::SafePeriod,
        ],
        plan,
        batch_every: 0,
        partitions: 1,
        repartition_at: None,
    }
}

fn run_clean(case: &FuzzCase) -> CaseOutcome {
    let outcome = run_case(case).expect("resilient clients absorb every transient fault");
    outcome.assert_clean();
    assert!(!outcome.fired.is_empty(), "an exact run that fires nothing proves little");
    outcome
}

fn sum(outcome: &CaseOutcome, field: fn(&ClientStats) -> u64) -> u64 {
    outcome.clients.iter().map(|(_, _, stats)| field(stats)).sum()
}

/// Fraction of (client, step) samples monitored in degraded mode.
fn degraded_share(outcome: &CaseOutcome) -> f64 {
    let samples = u64::from(outcome.steps) * outcome.clients.len() as u64;
    sum(outcome, |s| s.degraded_steps) as f64 / samples.max(1) as f64
}

/// The acceptance-gate preset: ≥ 10% drops on both legs plus one
/// 5-second disconnect window.
#[test]
fn lossy_preset_fires_exactly_the_ground_truth_sequence() {
    let plan = FaultPlan::lossy(0xC0FFEE);
    assert!(plan.up.drop >= 0.10 && plan.down.drop >= 0.10);
    let window: u32 = plan.disconnect_steps.iter().map(|w| w.end - w.start).sum();
    assert!(window >= 5, "the preset must cut the link for at least 5 one-second steps");

    let outcome = run_clean(&preset_case(0xC0FFEE, plan));
    assert!(outcome.injected_total > 0, "the lossy plan must have injected something");
    assert!(sum(&outcome, |s| s.retries) > 0, "drops must have forced retries");
    assert!(sum(&outcome, |s| s.resyncs) > 0, "retries go over the wire as resyncs");
    let degraded = degraded_share(&outcome);
    assert!(degraded > 0.0, "the window must have degraded someone");
    assert!(degraded < 0.5, "degradation must stay the exception, read {degraded}");
}

/// Pure partitions (no probabilistic faults): degraded mode plus resync
/// alone must preserve exactness across two long windows.
#[test]
fn partitioned_preset_is_exact() {
    let outcome = run_clean(&preset_case(7, FaultPlan::partitioned(7)));
    assert!(sum(&outcome, |s| s.buffered_samples) > 0, "long windows must buffer crossings");
    assert!(degraded_share(&outcome) > 0.0);
}

/// Heavy duplication on both legs: server idempotency and the client
/// delivery dedup gate must absorb every duplicate.
#[test]
fn duplicating_preset_is_exact() {
    let outcome = run_clean(&preset_case(11, FaultPlan::duplicating(11)));
    assert!(outcome.injected_total > 0, "25% duplication must have triggered");
}
