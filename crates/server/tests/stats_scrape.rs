//! Wire-level observability acceptance: after replaying a prefix of the
//! smoke-test trace against a live TCP server, a `Request::Stats` scrape
//! over a *fresh* loopback connection must return a Prometheus text
//! snapshot with a nonzero location-update count and per-algorithm
//! safe-region-computation histograms.

use sa_alarms::SubscriberId;
use sa_roadnet::Fleet;
use sa_server::wire::{Request, Response, StrategySpec};
use sa_server::{Client, Reactor, ReactorConfig, Server, ServerConfig, TcpTransport, Transport};
use sa_sim::{SimulationConfig, SimulationHarness};
use std::sync::Arc;

/// The value of `name` on the first matching sample line, e.g.
/// `sa_server_location_updates_total 42`.
fn sample_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

#[test]
fn live_tcp_scrape_reports_updates_and_per_algorithm_histograms() {
    let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
    let config = harness.config();
    let dt = config.sample_period_s;
    let steps = 120u32.min(config.steps() as u32);

    let server = Server::start(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        ServerConfig::default(),
    );
    let mut reactor = Reactor::bind(Arc::clone(&server), ReactorConfig::default()).unwrap();

    // All four strategies round-robin, so every per-algorithm histogram
    // sees traffic.
    let strategies = [
        StrategySpec::Mwpsr,
        StrategySpec::Pbsr { height: 5 },
        StrategySpec::Opt,
        StrategySpec::SafePeriod,
    ];
    let mut clients: Vec<Client<TcpTransport>> = (0..config.fleet.vehicles as u32)
        .map(|v| {
            let transport = TcpTransport::connect(reactor.addr()).unwrap();
            Client::connect(
                transport,
                SubscriberId(v),
                strategies[v as usize % strategies.len()],
                harness.grid().clone(),
                dt,
            )
            .unwrap()
        })
        .collect();

    let mut fleet = Fleet::new(harness.network(), &config.fleet);
    let mut samples = Vec::new();
    for step in 0..steps {
        fleet.step_into(dt, &mut samples);
        for s in &samples {
            clients[s.vehicle.0 as usize].observe(step, s.pos, s.heading, s.speed).unwrap();
        }
    }

    // Scrape over a connection that carried no other traffic — the
    // metrics are server-global, not per-session.
    let mut scraper = TcpTransport::connect(reactor.addr()).unwrap();
    let resps = scraper.request(Request::Stats { seq: 77 }).unwrap();
    let [Response::Stats { seq: 77, text }] = resps.as_slice() else {
        panic!("expected one stats reply, got {resps:?}");
    };

    let updates = sample_value(text, "sa_server_location_updates_total")
        .expect("scrape must carry the location-update counter");
    assert!(updates > 0.0, "replay must have produced location updates:\n{text}");

    for algo in ["mwpsr", "pbsr", "opt", "safe_period"] {
        let count = sample_value(text, &format!("sa_region_compute_ns_count{{algo=\"{algo}\"}}"))
            .unwrap_or_else(|| panic!("missing compute histogram for {algo}:\n{text}"));
        assert!(count > 0.0, "{algo} computations must have been timed:\n{text}");
    }

    // The wire timers saw this very scrape, and the RTT histogram is
    // internally consistent.
    assert!(sample_value(text, "sa_wire_decode_ns_count").unwrap_or(0.0) > 0.0);
    assert_eq!(sample_value(text, "sa_server_location_updates_total"), Some(updates));

    drop(clients);
    reactor.shutdown();
}
