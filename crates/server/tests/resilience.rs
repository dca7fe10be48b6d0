//! The client resilience machine and the fault injector, link by link:
//! retry → degraded → resync → steady on one faulty link, the failure
//! series on a live scrape, and an empty fault plan as a byte-identical
//! passthrough. The fault-injected replays of a whole fleet against the
//! ground truth are `sa-verify`'s (`crates/verify/tests/fault_presets.rs`,
//! and `federation_cases.rs` for federations).

use proptest::prelude::*;
use sa_server::chaos::{FaultPlan, FaultyTransport};
use sa_server::client::{Client, ResiliencePolicy};
use sa_server::server::{Server, ServerConfig};
use sa_server::transport::{InProcTransport, Transport, TransportError};
use sa_server::wire::{Request, Response, StrategySpec};
use sa_alarms::SubscriberId;
use sa_geometry::{Grid, Point, Rect};
use std::sync::Arc;
use std::time::Duration;

/// Walks the client resilience machine through its edges one by one:
/// steady → (breaker thrown, retries exhaust) → degraded → (breaker
/// restored) → resync/reconcile → steady.
#[test]
fn resilience_machine_walks_retry_degraded_resync_steady() {
    let universe = Rect::new(0.0, 0.0, 3_000.0, 3_000.0).unwrap();
    let grid = Grid::new(universe, 1_000.0).unwrap();
    let server = Server::start(grid.clone(), Vec::new(), 30.0, ServerConfig::default());

    let inner = InProcTransport::connect(Arc::clone(&server));
    let transport = FaultyTransport::new(inner, FaultPlan::clean(), 0);
    let controls = transport.controls();
    let mut client = Client::connect(
        transport,
        SubscriberId(9),
        StrategySpec::Mwpsr,
        grid,
        1.0,
    )
    .expect("clean handshake");
    client.enable_resilience(ResiliencePolicy {
        max_retries: 2,
        backoff_base: Duration::from_micros(10),
        backoff_cap: Duration::from_micros(100),
        seed: 5,
    });

    // Steady: first sample installs a region.
    let p = Point { x: 100.0, y: 100.0 };
    client.observe(0, p, 0.0, 10.0).expect("steady uplink");
    assert!(!client.is_degraded());
    assert_eq!(client.stats().region_installs, 1);

    // Edge 1 — retry: the breaker is thrown mid-run; the next sample
    // outside the region burns the retry budget and enters degraded.
    controls.set_armed(true);
    controls.set_link_down(true);
    let q = Point { x: 2_500.0, y: 2_500.0 };
    client.observe(1, q, 0.0, 10.0).expect("transient faults must not error");
    assert!(client.is_degraded(), "retry exhaustion must degrade");
    assert_eq!(client.stats().retries, 2, "exactly max_retries retries");
    assert_eq!(client.pending_ops(), 1, "the crossing sample is buffered");

    // Edge 2 — degraded: further out-of-region samples buffer without
    // retry storms (one probe each).
    client.observe(2, q, 0.0, 10.0).expect("degraded monitoring is silent");
    assert!(client.is_degraded());
    assert_eq!(client.pending_ops(), 2);
    assert!(client.stats().degraded_steps >= 2);

    // Edge 3 — resync: the breaker heals; the next sample reconciles
    // the backlog through Resync exchanges and returns to steady.
    controls.set_link_down(false);
    client.observe(3, q, 0.0, 10.0).expect("reconcile");
    assert!(!client.is_degraded(), "drained backlog must restore steady state");
    assert_eq!(client.pending_ops(), 0);
    assert!(client.stats().resyncs >= 2, "buffered samples replay as resyncs");

    // Edge 4 — steady again: in-region samples are silent.
    let uplinks = client.stats().uplinks;
    client.observe(4, q, 0.0, 10.0).expect("steady");
    assert_eq!(client.stats().uplinks, uplinks, "inside the fresh region: no uplink");

    client.finish().expect("nothing left to drain");
}

/// A live wire scrape after an outage shows the chaos and client
/// failure series.
#[test]
fn live_stats_scrape_exposes_failure_series() {
    let universe = Rect::new(0.0, 0.0, 3_000.0, 3_000.0).unwrap();
    let grid = Grid::new(universe, 1_000.0).unwrap();
    let server = Server::start(grid.clone(), Vec::new(), 30.0, ServerConfig::default());
    let registry = Arc::clone(server.registry());

    let inner = InProcTransport::connect(Arc::clone(&server));
    let mut transport = FaultyTransport::new(inner, FaultPlan::clean(), 0);
    transport.instrument(&registry);
    let controls = transport.controls();
    let mut client =
        Client::connect(transport, SubscriberId(3), StrategySpec::Mwpsr, grid, 1.0)
            .expect("clean handshake");
    client.enable_resilience(ResiliencePolicy {
        max_retries: 1,
        backoff_base: Duration::from_micros(10),
        backoff_cap: Duration::from_micros(50),
        seed: 2,
    });
    client.instrument(&registry);

    controls.set_armed(true);
    controls.set_link_down(true);
    client.observe(0, Point { x: 50.0, y: 50.0 }, 0.0, 5.0).expect("degrades, no error");
    assert!(client.is_degraded());
    controls.set_link_down(false);
    client.finish().expect("reconcile drains");

    // Scrape exactly as an operator would: a sessionless Stats request.
    let mut scraper = InProcTransport::connect(Arc::clone(&server));
    let resps = scraper.request(Request::Stats { seq: 1 }).expect("scrape");
    let [Response::Stats { text, .. }] = resps.as_slice() else {
        panic!("stats request must get a stats response, got {resps:?}");
    };
    assert!(text.contains("sa_chaos_injected_total{kind=\"disconnect\"}"));
    assert!(text.contains("sa_client_retries_total"));
    assert!(text.contains("sa_client_degraded_seconds"));
    assert!(text.contains("sa_server_resyncs_total"));
}

/// A fixed-script transport for the passthrough property: answers every
/// request with a deterministic function of its bytes.
struct EchoTransport;

impl Transport for EchoTransport {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        let seq = req.seq();
        // A couple of non-terminal frames plus a terminal, all derived
        // from the request so different requests give different bytes.
        Ok(vec![
            Response::TriggerDelivery { seq, alarm: seq ^ 0xAB },
            Response::TriggerDelivery { seq, alarm: seq.wrapping_mul(3) },
            Response::Ack { seq },
        ])
    }
}

proptest! {
    /// An **empty** fault plan, even armed, must be byte-identical to
    /// the wrapped transport — the decorator may only act when told to.
    #[test]
    fn empty_plan_is_byte_identical_passthrough(
        seqs in prop::collection::vec(0u32..=sa_server::wire::SEQ_MASK, 1..40),
        seed in 0u64..u64::MAX,
        salt in 0u64..u64::MAX,
    ) {
        let mut plain = EchoTransport;
        let mut faulty =
            FaultyTransport::new(EchoTransport, FaultPlan { seed, ..FaultPlan::clean() }, salt);
        faulty.controls().set_armed(true);
        for &seq in &seqs {
            let req = Request::Stats { seq };
            let want = plain.request(req.clone()).unwrap();
            let got = faulty.request(req).unwrap();
            let want_bytes: Vec<_> = want.iter().map(Response::encode).collect();
            let got_bytes: Vec<_> = got.iter().map(Response::encode).collect();
            prop_assert_eq!(want_bytes, got_bytes);
        }
        prop_assert_eq!(faulty.controls().counts().total(), 0, "nothing may be injected");
    }
}
