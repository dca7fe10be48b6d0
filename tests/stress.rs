//! Stress tests at larger scales. The tenth-scale *batched live-server*
//! run is fast enough to gate on and runs by default; the simulator
//! sweeps against the full 10,000-alarm workload stay opt-in — run with
//! `cargo test --release --test stress -- --ignored` (a few minutes).

use spatial_alarms::server::wire::StrategySpec;
use spatial_alarms::server::TraceMode;
use spatial_alarms::sim::{SimulationConfig, SimulationHarness, StrategyKind};
use spatial_alarms::verify::{replay_batched_in_proc, ReplayConfig};

/// A tenth of the paper's workload (1,000 vehicles × 1,000 alarms) for
/// the full simulated hour, driven through the live server's
/// `Request::Batch` path by parallel workers — every firing must match
/// the simulator's ground truth exactly. This is the promoted tier-1
/// form of [`tenth_scale_full_hour_accuracy`]: batching is what makes a
/// paper-scale hour cheap enough to run on every commit.
#[test]
fn tenth_scale_full_hour_batched_accuracy() {
    let config = SimulationConfig::paper_fraction(0.1);
    let harness = SimulationHarness::build(&config);
    assert!(harness.ground_truth().len() > 100, "expected a busy world");
    let cfg = ReplayConfig {
        steps: None,
        trace_mode: TraceMode::Full,
        strategies: vec![
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: 5 },
            StrategySpec::Opt,
            StrategySpec::SafePeriod,
        ],
    };
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let outcome =
        replay_batched_in_proc(&harness, &cfg, workers).expect("in-proc transport must hold");
    outcome.assert_accurate();
    assert_eq!(outcome.steps as usize, config.steps());
    assert_eq!(outcome.clients.len(), config.fleet.vehicles);
    // The headline scalability property: safe regions suppress almost all
    // of the 3.6 M position samples. SafePeriod clients ride along in the
    // strategy mix, so grant slack over the pure safe-region bound.
    let uplinks: u64 = outcome.clients.iter().map(|(_, _, s)| s.uplinks).sum();
    let samples = outcome.steps as u64 * outcome.clients.len() as u64;
    let fraction = uplinks as f64 / samples as f64;
    assert!(fraction < 0.20, "uplinked {:.1}% of samples", fraction * 100.0);
}

/// A tenth of the paper's fleet (1,000 vehicles) against the full
/// 10,000-alarm workload for a full simulated hour: every strategy must
/// stay 100% accurate.
#[test]
#[ignore = "multi-minute stress run; execute with --ignored in release mode"]
fn tenth_scale_full_hour_accuracy() {
    let config = SimulationConfig::scaled(0.1);
    let harness = SimulationHarness::build(&config);
    assert!(harness.ground_truth().len() > 1_000, "expected a busy world");
    for kind in [
        StrategyKind::SafePeriod,
        StrategyKind::Mwpsr { y: 1.0, z: 32 },
        StrategyKind::Pbsr { height: 5 },
        StrategyKind::PbsrBroadcast { height: 5 },
        StrategyKind::Optimal,
    ] {
        let report = harness.run(kind);
        report.assert_accurate();
        // The headline scalability property at scale: safe regions and OPT
        // transmit a small fraction of the 3.6 M samples.
        if !matches!(kind, StrategyKind::SafePeriod) {
            let fraction =
                report.metrics.uplink_messages as f64 / harness.total_samples() as f64;
            assert!(fraction < 0.10, "{}: {:.1}%", kind.label(), fraction * 100.0);
        }
    }
}

/// Moving-target coordination at a heavier load: 50 moving alarms chasing
/// vehicles through the full hour.
#[test]
#[ignore = "multi-minute stress run; execute with --ignored in release mode"]
fn moving_targets_at_scale() {
    let mut config = SimulationConfig::scaled(0.05);
    config.moving_alarms = 50;
    let harness = SimulationHarness::build(&config);
    let report = harness.run(StrategyKind::Mwpsr { y: 1.0, z: 32 });
    report.assert_accurate();
}
