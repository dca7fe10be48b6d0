//! Satellite gate: a handoff in the middle of a redelivery window must
//! neither duplicate nor drop the pending firing.
//!
//! Scenario, driven over raw transports so every frame is visible:
//! member A fires an alarm and answers with a `TriggerDelivery` the
//! client never sees (the downlink "lost" it — we simply refuse to
//! advance the acked cursor). The vehicle then crosses a partition
//! boundary, so the session — including the un-acked delivery log —
//! migrates to member B. The client's recovery `Resync`, now landing on
//! B, must re-deliver the pending firing **exactly once**, and a second
//! `Resync` with the cursor advanced must stay silent.

use sa_alarms::{AlarmId, AlarmScope, SpatialAlarm, SubscriberId};
use sa_fed::{Federation, HandoffChannel, PartitionMap};
use sa_geometry::{CellId, Grid, Point, Rect};
use sa_obs::SpanKind;
use sa_server::wire::{pack_motion, quantize_m, StrategySpec};
use sa_server::{InProcTransport, Request, Response, Server, SharedClock, Transport, VirtualClock};
use std::sync::Arc;

/// First cell (in scan order) the epoch-0 map assigns to `owner`.
fn cell_owned_by(grid: &Grid, map: &PartitionMap, owner: u32) -> CellId {
    (0..grid.cell_count())
        .map(|i| grid.cell_at_index(i))
        .find(|&c| map.owner_of(grid.morton_of(c)) == Some(owner))
        .expect("every member owns at least one cell")
}

fn positioned(seq: u32, pos: Point, resync_acked: Option<u32>) -> Request {
    let (x_fx, y_fx) = (quantize_m(pos.x), quantize_m(pos.y));
    let motion = pack_motion(0.0, 10.0);
    match resync_acked {
        None => Request::LocationUpdate { seq, x_fx, y_fx, motion },
        Some(acked) => Request::Resync { seq, x_fx, y_fx, motion, acked },
    }
}

/// Whether `server` recorded a span of `kind` whose first operand is `a`.
fn recorded(server: &Server, kind: SpanKind, a: u64) -> bool {
    server.spans().iter().any(|s| s.kind == kind && s.a == a)
}

fn deliveries(resps: &[Response]) -> Vec<u32> {
    resps
        .iter()
        .filter_map(|r| match r {
            Response::TriggerDelivery { alarm, .. } => Some(*alarm),
            _ => None,
        })
        .collect()
}

#[test]
fn handoff_mid_redelivery_fires_exactly_once() {
    let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
    let grid = Grid::new(universe, 1_000.0).unwrap();
    let map = PartitionMap::even(&grid, 2);
    let cell_a = cell_owned_by(&grid, &map, 0);
    let cell_b = cell_owned_by(&grid, &map, 1);
    let pos_a = grid.cell_rect(cell_a).center();
    let pos_b = grid.cell_rect(cell_b).center();

    // One public alarm dead-center in A's cell, so the very first
    // update fires it on member A.
    let alarm = SpatialAlarm::around_static_target(
        AlarmId(0),
        pos_a,
        50.0,
        AlarmScope::Public { owner: SubscriberId(0) },
    )
    .unwrap();
    let clock: SharedClock = Arc::new(VirtualClock::new());
    let fed = Federation::launch(
        grid.clone(),
        vec![alarm],
        30.0,
        2,
        Arc::clone(&clock),
    );

    let mut ta = InProcTransport::connect(Arc::clone(fed.server(0)));
    let mut tb = InProcTransport::connect(Arc::clone(fed.server(1)));
    let (sa, sb) = (ta.session(), tb.session());
    for t in [&mut ta as &mut dyn Transport, &mut tb] {
        let resps = t
            .request(Request::Hello { seq: 1, user: 7, strategy: StrategySpec::Mwpsr })
            .unwrap();
        assert!(matches!(resps.as_slice(), [Response::Ack { .. }]));
    }

    // The firing happens on A — and the delivery is "lost": the client
    // never advances its acked cursor past it.
    let resps = ta.request(positioned(2, pos_a, None)).unwrap();
    assert_eq!(deliveries(&resps), vec![0], "the alarm must fire on first entry");

    // Boundary crossing: the session (with its un-acked delivery log)
    // hands off to B.
    let links: Vec<Box<dyn Transport + Send>> = vec![
        Box::new(InProcTransport::connect(Arc::clone(fed.server(0)))),
        Box::new(InProcTransport::connect(Arc::clone(fed.server(1)))),
    ];
    let mut mesh = HandoffChannel::new(links, Arc::clone(&clock));
    assert!(mesh.migrate(0, sa, 1, sb).unwrap(), "the session must move");

    // Recovery resync lands on the NEW owner with the stale cursor: the
    // pending firing must come out again — exactly once, from B.
    let resps = tb.request(positioned(3, pos_b, Some(0))).unwrap();
    assert_eq!(
        deliveries(&resps),
        vec![0],
        "the un-acked firing must be re-delivered by the new owner"
    );

    // Cursor advanced: the redelivery window is closed, and the fired
    // pair migrated with the session, so the alarm must not re-fire.
    let resps = tb.request(positioned(4, pos_b, Some(1))).unwrap();
    assert_eq!(deliveries(&resps), vec![], "an acked delivery must never repeat");

    // The old owner no longer serves this vehicle: a stale update to A
    // bounces instead of firing anything.
    let resps = ta.request(positioned(5, pos_b, None)).unwrap();
    assert!(
        matches!(resps.last(), Some(Response::WrongOwner { .. })),
        "the old owner must bounce a stale route, got {resps:?}"
    );

    // Every exchange above left its span on the member that served it.
    // `migrate` sends no trace context, so the three handoff legs were
    // recorded under their own derived traces.
    let (a, b) = (fed.server(0), fed.server(1));
    let (sa, sb) = (u64::from(sa), u64::from(sb));
    assert!(recorded(a, SpanKind::Trigger, 7), "the firing, by subscriber");
    assert!(recorded(a, SpanKind::HandoffExport, sa));
    assert!(recorded(b, SpanKind::HandoffImport, sb));
    assert!(recorded(a, SpanKind::HandoffRelease, sa));
    assert!(recorded(b, SpanKind::Redelivery, sb), "both resyncs ran the redelivery leg");
    assert!(recorded(a, SpanKind::WrongOwner, 1), "the bounce names the owner");
    assert!(!recorded(b, SpanKind::Trigger, 7), "the imported firing is not a second one");

}
