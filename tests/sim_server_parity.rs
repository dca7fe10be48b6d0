//! Parity gate: the simulator (`SimulationHarness::run`) and the live
//! server (the `replay_in_proc` path: `ReplayConfig::start`, then one
//! in-process client per vehicle) decide every strategy step with the same
//! functions of `sa_sim::message`, so on one world they must send the same
//! messages. Per strategy pair this compares uplinks, region messages
//! (installs, pushes, grants), downlink messages and charged downlink bits,
//! bare acknowledgements, and the firings themselves.
//!
//! The tier-1 case runs three fuzz-sized worlds in debug. The larger case
//! is `#[ignore]`d and runs in release:
//! `cargo test --release -p spatial-alarms --test sim_server_parity -- --ignored`.

use spatial_alarms::server::transport::{InProcTransport, Transport, TransportError};
use spatial_alarms::server::wire::{Request, Response, StrategySpec};
use spatial_alarms::server::{SystemClock, TraceMode};
use spatial_alarms::sim::{FiredEvent, SimulationConfig, SimulationHarness, StrategyKind};
use spatial_alarms::verify::{replay, ReplayConfig};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Each live strategy beside the simulator strategy it runs. The server's
/// MWPSR is the non-weighted rectangle.
const PAIRS: [(StrategySpec, StrategyKind); 4] = [
    (StrategySpec::Mwpsr, StrategyKind::MwpsrNonWeighted),
    (StrategySpec::Pbsr { height: 5 }, StrategyKind::Pbsr { height: 5 }),
    (StrategySpec::Opt, StrategyKind::Optimal),
    (StrategySpec::SafePeriod, StrategyKind::SafePeriod),
];

/// What one side sent over a whole run, in the simulator's units.
#[derive(Debug, PartialEq, Eq)]
struct Traffic {
    /// Location updates plus OPT trigger notifies.
    uplinks: u64,
    /// Safe-region installs, OPT alarm pushes and safe-period grants.
    regions: u64,
    /// Region messages plus trigger deliveries.
    downlinks: u64,
    /// `Response::charged_bits` of every downlink message.
    downlink_bits: u64,
    /// Uplinks answered by a bare `Ack` (PBSR quick updates, OPT notifies).
    acks: u64,
    /// Every firing, sorted.
    fired: Vec<FiredEvent>,
}

/// A transport that sums what the server answers: the charged bits of
/// every downlink message, and the `Ack`s apart (the handshake's excluded).
struct Tally {
    inner: InProcTransport,
    bits: Rc<Cell<u64>>,
    acks: Rc<Cell<u64>>,
}

impl Transport for Tally {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        let hello = matches!(req, Request::Hello { .. });
        let resps = self.inner.request(req)?;
        for resp in resps.iter().filter(|_| !hello) {
            match resp {
                Response::Ack { .. } => self.acks.set(self.acks.get() + 1),
                Response::RectInstall { .. }
                | Response::BitmapInstall { .. }
                | Response::AlarmPush { .. }
                | Response::SafePeriodGrant { .. }
                | Response::TriggerDelivery { .. } => {
                    self.bits.set(self.bits.get() + resp.charged_bits() as u64);
                }
                other => panic!("unexpected response in a replay: {other:?}"),
            }
        }
        Ok(resps)
    }
}

fn simulated(harness: &SimulationHarness, kind: StrategyKind) -> Traffic {
    let report = harness.run(kind);
    report.assert_accurate();
    let m = &report.metrics;
    let mut fired = report.fired;
    fired.sort_unstable();
    Traffic {
        uplinks: m.uplink_messages,
        regions: m.server.region_computations,
        downlinks: m.downlink_messages,
        downlink_bits: m.downlink_bits,
        acks: m.uplink_messages - m.server.region_computations,
        fired,
    }
}

fn live(harness: &SimulationHarness, spec: StrategySpec) -> Traffic {
    let cfg = ReplayConfig { steps: None, strategies: vec![spec], trace_mode: TraceMode::Off };
    let (server, steps) = cfg.start(harness, SystemClock::shared());
    let (bits, acks) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let outcome = replay(harness, &cfg, &server, steps, |_| {
        let inner = InProcTransport::connect(Arc::clone(&server));
        Ok(Tally { inner, bits: Rc::clone(&bits), acks: Rc::clone(&acks) })
    })
    .expect("in-proc transport must hold");
    outcome.assert_accurate();
    let sum = |f: fn(&spatial_alarms::server::ClientStats) -> u64| -> u64 {
        outcome.clients.iter().map(|(_, _, s)| f(s)).sum()
    };
    let regions = sum(|s| s.region_installs + s.alarm_pushes + s.grants);
    let mut fired = outcome.fired.clone();
    fired.sort_unstable();
    Traffic {
        uplinks: sum(|s| s.uplinks + s.notifies),
        regions,
        downlinks: regions + sum(|s| s.deliveries),
        downlink_bits: bits.get(),
        acks: acks.get(),
        fired,
    }
}

/// Every strategy pair whose two sides sent different traffic on the
/// world of `config`, as one line each.
fn mismatches(name: &str, config: &SimulationConfig) -> Vec<String> {
    let harness = SimulationHarness::build(config);
    assert!(!harness.ground_truth().is_empty(), "{name}: the world must fire some alarms");
    let mut out = Vec::new();
    for (spec, kind) in PAIRS {
        let (sim, srv) = (simulated(&harness, kind), live(&harness, spec));
        if sim != srv {
            let fired = if sim.fired == srv.fired { "equal" } else { "DIFFERENT" };
            let counts = |t: &Traffic| {
                (t.uplinks, t.regions, t.downlinks, t.downlink_bits, t.acks, t.fired.len())
            };
            out.push(format!(
                "{name} {}: (uplinks, regions, downlinks, bits, acks, firings) \
                 simulator {:?} != server {:?}; firing sets {fired}",
                kind.label(),
                counts(&sim),
                counts(&srv),
            ));
        }
    }
    out
}

/// A `SimulationConfig::scaled` world with every generator re-seeded
/// from `seed`, the way `SimulationConfig::fuzz_slice` re-seeds its own.
fn scaled_world(factor: f64, duration_s: f64, seed: u64) -> SimulationConfig {
    let mut config = SimulationConfig::scaled(factor);
    config.duration_s = duration_s;
    config.fleet.seed = seed;
    config.workload.seed = seed ^ 0xA1A2_A3A4_A5A6_A7A8;
    config
}

fn assert_parity(worlds: impl IntoIterator<Item = (String, SimulationConfig)>) {
    let report: Vec<String> =
        worlds.into_iter().flat_map(|(name, config)| mismatches(&name, &config)).collect();
    assert!(report.is_empty(), "simulator and live server diverge:\n{}", report.join("\n"));
}

#[test]
fn simulator_and_live_server_send_the_same_messages() {
    assert_parity([1, 3, 5].map(|seed| {
        (format!("fuzz_slice(48, 200, 600, {seed})"), SimulationConfig::fuzz_slice(48, 200, 600, seed))
    }));
}

#[test]
#[ignore = "larger world: run in release with --ignored"]
fn parity_holds_on_a_twentieth_of_the_paper_world() {
    assert_parity([1, 2].map(|seed| {
        (format!("scaled(0.05) x 900 s, seed {seed}"), scaled_world(0.05, 900.0, seed))
    }));
}
