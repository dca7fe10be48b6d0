//! End-to-end acceptance: the smoke-test trace replayed over loopback
//! TCP — real frames, real threads, the real reactor — must fire
//! exactly the simulator's ground-truth alarm sequence.

use sa_server::wire::StrategySpec;
use sa_server::{replay_tcp, ReplayConfig, TraceMode};
use sa_sim::{SimulationConfig, SimulationHarness};

#[test]
fn tcp_loopback_replay_fires_exactly_the_ground_truth_sequence() {
    let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
    let cfg = ReplayConfig {
        steps: None, // the full trace
        trace_mode: TraceMode::Full,
        strategies: vec![
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: 5 },
            StrategySpec::Opt,
            StrategySpec::SafePeriod,
        ],
    };
    let outcome = replay_tcp(&harness, &cfg).expect("loopback transport must hold");
    outcome.assert_accurate();

    assert_eq!(
        outcome.fired.len(),
        harness.ground_truth().events().len(),
        "every ground-truth firing must be observed exactly once"
    );
    assert_eq!(outcome.clients.len(), harness.config().fleet.vehicles);

    // The server actually worked: every client spoke, and the safe
    // regions suppressed most of the per-step chatter.
    let uplinks: u64 = outcome.clients.iter().map(|(_, _, s)| s.uplinks).sum();
    let samples = harness.total_samples();
    assert!(uplinks > 0);
    assert!(
        uplinks < samples / 2,
        "live safe regions should suppress most samples: {uplinks} of {samples}"
    );
    assert_eq!(outcome.location_updates(), uplinks);
}

#[test]
fn tcp_replay_works_with_a_two_strategy_mix() {
    // A shorter replay whose round robin alternates MWPSR with a
    // shallow PBSR tree: accuracy must not depend on which strategy a
    // vehicle drew.
    let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
    let cfg = ReplayConfig {
        steps: Some(120),
        trace_mode: TraceMode::Full,
        strategies: vec![StrategySpec::Mwpsr, StrategySpec::Pbsr { height: 3 }],
    };
    let outcome = replay_tcp(&harness, &cfg).expect("loopback transport must hold");
    outcome.assert_accurate();
}
