//! The client resilience machine against a *real* listener death: kill
//! the reactor mid-run, restart it on the same port, and assert the
//! [`TcpTransport`] + [`ResiliencePolicy`] pair recovers —
//! re-dial, `Hello` replay, `Resync` reconciliation of the buffered
//! crossing, and exactly one delivery for the alarm that fired while
//! the link was down.
//!
//! This promotes the reconnect path from in-proc fault coverage
//! (`sa-verify`'s fault presets, where "disconnect" is a decorator flag)
//! to a TCP integration test where the socket really dies: dials are
//! refused while the listener is down, and the replacement reactor serves the
//! same `Server` (sessions were torn down with the connections, the
//! fired set survived).

use sa_server::{
    Client, Reactor, ReactorConfig, ResiliencePolicy, Server, ServerConfig, StrategySpec,
    TcpTransport,
};
use sa_alarms::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
use sa_geometry::{Grid, Point, Rect};
use std::sync::Arc;
use std::time::Duration;

fn tiny_server() -> Arc<Server> {
    let universe = Rect::new(0.0, 0.0, 3_000.0, 3_000.0).unwrap();
    let grid = Grid::new(universe, 1_000.0).unwrap();
    let alarm = SpatialAlarm::new(
        AlarmId(0),
        Rect::new(100.0, 100.0, 200.0, 200.0).unwrap(),
        AlarmTarget::Static(Point::new(150.0, 150.0)),
        AlarmScope::Private { owner: SubscriberId(7) },
    );
    Server::start(grid, vec![alarm], 30.0, ServerConfig::default())
}

/// The walk: x = 10 + 10·step along y = 150, so the client enters the
/// alarm rectangle (x ∈ (100, 200)) strictly at step 10 and leaves
/// after step 18.
fn pos_at(step: u32) -> Point {
    Point::new(10.0 + f64::from(step) * 10.0, 150.0)
}

#[test]
fn listener_death_and_restart_recovers_via_resync() {
    let server = tiny_server();
    let grid = server.grid().clone();
    let cfg = ReactorConfig { workers: 2, ..ReactorConfig::default() };
    let mut reactor =
        Reactor::bind(Arc::clone(&server), cfg.clone()).expect("bind the first reactor");
    let addr = reactor.addr();

    let transport = TcpTransport::connect(addr).expect("dial the reactor");
    let mut client =
        Client::connect(transport, SubscriberId(7), StrategySpec::Pbsr { height: 3 }, grid, 1.0)
            .expect("hello over the reactor");
    client.enable_resilience(ResiliencePolicy::standard(0xDEAD));

    // Steady phase: walk toward the alarm with the first reactor up.
    for step in 0..8u32 {
        client.observe(step, pos_at(step), 0.0, 10.0).expect("steady observe");
    }
    assert!(client.take_fired().is_empty(), "nothing may fire before the alarm is entered");

    // Kill the listener. Every connection dies with it; dials are
    // refused until the replacement binds.
    reactor.shutdown();
    drop(reactor);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.session_count() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.session_count(), 0, "reactor shutdown must tear down its sessions");

    // The outage spans the alarm crossing (step 10): these samples can
    // only reach the server later, through the Resync replay.
    for step in 8..13u32 {
        client.observe(step, pos_at(step), 0.0, 10.0).expect("degraded observe buffers");
    }
    assert!(client.take_fired().is_empty(), "PBSR cannot fire client-side while degraded");
    let down = client.stats();
    assert!(down.buffered_samples >= 1, "the crossing must have been buffered: {down:?}");

    // Restart on the same port, same server. The fired set and alarm
    // index survived; the sessions did not — the transport's cached
    // Hello re-registers on first contact.
    let mut reactor = Reactor::bind_addr(Arc::clone(&server), cfg, addr)
        .expect("rebind the same address after shutdown");
    assert_eq!(reactor.addr(), addr);

    for step in 13..30u32 {
        client.observe(step, pos_at(step), 0.0, 10.0).expect("post-restart observe");
    }
    client.finish().expect("reconciliation must drain after the restart");

    // Exactly-once delivery, attributed to the buffered crossing step.
    let fired = client.take_fired();
    assert_eq!(fired.len(), 1, "the alarm must fire exactly once: {fired:?}");
    assert_eq!(fired[0].alarm, AlarmId(0));
    assert_eq!(fired[0].subscriber, SubscriberId(7));
    assert!(
        (10..13).contains(&fired[0].step),
        "the firing must be attributed to an outage-window step, got {}",
        fired[0].step
    );

    let stats = client.stats();
    assert!(client.transport_mut().reconnects() >= 1, "no re-dial happened");
    assert!(stats.resyncs >= 1, "recovery must go through Resync: {stats:?}");
    assert!(stats.retries >= 1, "the outage must have cost at least one retry");
    assert_eq!(stats.deliveries, 1, "exactly one trigger delivery: {stats:?}");

    client.finish().expect("idempotent finish");
    drop(client);
    reactor.shutdown();
}
