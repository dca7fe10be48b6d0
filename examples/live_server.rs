//! Live server demo: start the in-process safe-region server, connect
//! three clients running different strategies — MWPSR rectangles, PBSR
//! pyramid bitmaps (height 5) and the OPT alarm-push baseline — and
//! stream a 60-second slice of the road-network trace through them.
//!
//! Every message crosses the real wire codec; every firing is diffed
//! against the simulator's ground truth at the end.
//!
//! Run with: `cargo run --release --example live_server`

use spatial_alarms::server::wire::StrategySpec;
use spatial_alarms::server::TraceMode;
use spatial_alarms::sim::{SimulationConfig, SimulationHarness};
use spatial_alarms::verify::{replay_in_proc, ReplayConfig};

fn main() {
    // The smoke-test town with exactly three vehicles — one per client.
    let mut config = SimulationConfig::smoke_test();
    config.fleet.vehicles = 3;
    println!("building world + ground truth …");
    let harness = SimulationHarness::build(&config);
    println!(
        "  {} alarms, {}x{} grid cells, {} ground-truth firings over the full trace\n",
        harness.index().len(),
        harness.grid().cols(),
        harness.grid().rows(),
        harness.ground_truth().events().len(),
    );

    let replay_cfg = ReplayConfig {
        steps: Some(60), // one minute at 1 Hz
        trace_mode: TraceMode::Full,
        strategies: vec![
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: 5 },
            StrategySpec::Opt,
        ],
    };
    println!("replaying {} steps through the live server …\n", 60);
    let outcome = replay_in_proc(&harness, &replay_cfg).expect("in-proc transport cannot fail");

    println!(
        "{:<12} {:>8} {:>9} {:>7} {:>7} {:>9} {:>10}",
        "client", "uplinks", "installs", "pushes", "fires", "bytes up", "bytes down"
    );
    for (user, strategy, stats) in &outcome.clients {
        let label = match strategy {
            StrategySpec::Mwpsr => "MWPSR".to_string(),
            StrategySpec::Pbsr { height } => format!("PBSR h={height}"),
            StrategySpec::Opt => "OPT".to_string(),
            StrategySpec::SafePeriod => "safe-period".to_string(),
        };
        println!(
            "{:<12} {:>8} {:>9} {:>7} {:>7} {:>9} {:>10}   (subscriber {})",
            label,
            stats.uplinks,
            stats.region_installs,
            stats.alarm_pushes,
            stats.deliveries + stats.client_fires,
            stats.bytes_up,
            stats.bytes_down,
            user.0,
        );
    }

    // The same Prometheus text a live `StatsRequest` scrape returns —
    // counters, queue gauges, and the per-algorithm latency summaries.
    println!("\n--- final metric state (Prometheus text exposition) ---");
    print!("{}", spatial_alarms::obs::render_snapshot(&outcome.metrics));

    match &outcome.verification {
        Ok(()) => println!(
            "\naccuracy: 100% — all {} firings match the ground truth exactly",
            outcome.fired.len()
        ),
        Err(e) => println!("\nACCURACY VIOLATION: {e}"),
    }
}
