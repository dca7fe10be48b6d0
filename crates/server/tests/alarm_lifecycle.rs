//! Runtime alarm lifecycle through a live server: one public alarm is
//! installed over the wire across two cells, and
//! every strategy's answer from both cells must see it as
//! soon as the `Ack` returns — then stop seeing it after `RemoveAlarm`.

use sa_alarms::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
use sa_core::{BitmapSafeRegion, PyramidConfig, SafeRegion};
use sa_geometry::{Grid, Point, Rect};
use sa_obs::{trace_id_for, SpanKind};
use sa_server::server::error_code;
use sa_server::wire::{dequantize_rect, quantize_m, Request, Response, StrategySpec};
use sa_server::{quantize_rect, Server, ServerConfig};
use std::sync::Arc;

const V_MAX: f64 = 30.0;
const HEIGHT: u32 = 3;
/// The runtime alarm's id: it continues the one pre-installed alarm.
const ALARM: u32 = 1;

fn universe() -> Rect {
    Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap()
}

fn grid() -> Grid {
    Grid::new(universe(), 1_000.0).unwrap()
}

/// Straddles the x = 3000 cell boundary inside row 2.
fn alarm_region() -> Rect {
    Rect::new(2_800.0, 2_200.0, 3_300.0, 2_700.0).unwrap()
}

/// One probe position per intersected cell: 100 m outside the alarm, and
/// a point of the same cell strictly inside it.
fn probes() -> [(Point, Point); 2] {
    [
        (Point::new(2_700.0, 2_450.0), Point::new(2_900.0, 2_450.0)),
        (Point::new(3_400.0, 2_450.0), Point::new(3_200.0, 2_450.0)),
    ]
}

/// Starts with one far-away private alarm, so the index is not empty and
/// nothing but the runtime alarm is relevant to the probing users.
fn server() -> Arc<Server> {
    let far = SpatialAlarm::new(
        AlarmId(0),
        Rect::new(8_000.0, 8_000.0, 8_200.0, 8_200.0).unwrap(),
        AlarmTarget::Static(Point::new(8_100.0, 8_100.0)),
        AlarmScope::Private { owner: SubscriberId(999) },
    );
    Server::start(grid(), vec![far], V_MAX, ServerConfig::default())
}

fn hello(server: &Server, user: u32, strategy: StrategySpec) -> u32 {
    let session = server.open_session();
    let resps = server.handle(session, Request::Hello { seq: 0, user, strategy });
    assert_eq!(resps, vec![Response::Ack { seq: 0 }]);
    session
}

fn update(server: &Server, session: u32, seq: u32, pos: Point) -> Vec<Response> {
    let req = Request::LocationUpdate {
        seq,
        x_fx: quantize_m(pos.x),
        y_fx: quantize_m(pos.y),
        motion: 0,
    };
    server.handle(session, req)
}

/// The `(alarm id, session, trace)` of every span of `kind` the server
/// holds.
fn alarm_writes(server: &Server, kind: SpanKind) -> Vec<(u64, u64, u64)> {
    server.spans().iter().filter(|s| s.kind == kind).map(|s| (s.a, s.b, s.ctx.trace_id)).collect()
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

/// What the four strategies answer a fresh subscriber at `pos`.
struct Answers {
    mwpsr: Rect,
    pbsr: BitmapSafeRegion,
    opt: Vec<(u32, bool)>,
    period_ms: u32,
}

/// Asks all four strategies from `pos`, each on a fresh session of a
/// fresh user (`first_user..first_user + 4`), so neither the PBSR
/// quick-update shortcut nor anyone's fired state colours the answers.
fn ask(server: &Server, first_user: u32, pos: Point) -> Answers {
    let cell_rect = grid().cell_rect(grid().cell_of(pos));
    let terminal = |offset: u32, strategy: StrategySpec| {
        let session = hello(server, first_user + offset, strategy);
        let mut resps = update(server, session, 1, pos);
        assert_eq!(resps.len(), 1, "{strategy:?} at {pos:?} answered {resps:?}");
        resps.pop().unwrap()
    };
    let Response::RectInstall { rect, .. } = terminal(0, StrategySpec::Mwpsr) else {
        panic!("MWPSR must answer a RectInstall");
    };
    let mwpsr = dequantize_rect(rect).unwrap();
    let Response::BitmapInstall { bits, .. } = terminal(1, StrategySpec::Pbsr { height: HEIGHT })
    else {
        panic!("PBSR must answer a BitmapInstall");
    };
    let pbsr =
        BitmapSafeRegion::from_wire_bits(cell_rect, PyramidConfig::three_by_three(HEIGHT), &bits)
            .unwrap();
    let Response::AlarmPush { alarms, .. } = terminal(2, StrategySpec::Opt) else {
        panic!("OPT must answer an AlarmPush");
    };
    let opt = alarms.iter().map(|a| (a.alarm, a.relevant)).collect();
    let Response::SafePeriodGrant { period_ms } = terminal(3, StrategySpec::SafePeriod) else {
        panic!("safe-period must answer a SafePeriodGrant");
    };
    Answers { mwpsr, pbsr, opt, period_ms }
}

/// The answers of a world without the runtime alarm.
fn assert_unaware(server: &Server, first_user: u32) {
    for (i, (outside, inside)) in probes().into_iter().enumerate() {
        let a = ask(server, first_user + 10 * i as u32, outside);
        assert!(a.mwpsr.intersects_interior(&alarm_region()), "MWPSR shrank: {:?}", a.mwpsr);
        assert!(a.pbsr.is_whole_cell_free() && a.pbsr.contains(inside));
        assert!(a.opt.is_empty(), "OPT pushed {:?}", a.opt);
        assert!(a.period_ms > 100_000, "grant {} ms", a.period_ms);
    }
}

#[test]
fn an_installed_alarm_reaches_every_strategy_in_every_cell_and_removal_reverts_it() {
    let server = server();
    let grid = grid();
    let cells: Vec<u64> =
        grid.cells_intersecting(alarm_region()).map(|c| grid.cell_index(c)).collect();
    assert_eq!(cells.len(), 2, "the alarm must straddle two cells");

    // Before: nobody sees the alarm, and both cells' public bitmaps are
    // now cached.
    assert_unaware(&server, 100);
    assert_eq!(server.cache_stats().invalidations, 0);

    let admin = hello(&server, 1, StrategySpec::Mwpsr);
    let install = |seq| Request::InstallAlarm {
        seq,
        alarm: ALARM,
        flags: (1 << 1) | 1, // public, owner 1
        rect: quantize_rect(alarm_region()),
    };
    let stranger = server.open_session();
    assert_eq!(
        server.handle(stranger, install(1)),
        vec![Response::Error { seq: 1, code: error_code::NO_SESSION }]
    );
    assert_eq!(server.handle(admin, install(2)), vec![Response::Ack { seq: 2 }]);
    assert_eq!(server.cache_stats().invalidations, 2, "one cached bitmap per intersected cell");
    // The acknowledged write — not the refused one — is a span in the
    // installing exchange's own trace.
    assert_eq!(
        alarm_writes(&server, SpanKind::AlarmInstall),
        vec![(u64::from(ALARM), u64::from(admin), trace_id_for(admin, 2))]
    );

    for (i, (outside, inside)) in probes().into_iter().enumerate() {
        let a = ask(&server, 200 + 10 * i as u32, outside);
        assert!(!a.mwpsr.intersects_interior(&alarm_region()), "MWPSR overlaps: {:?}", a.mwpsr);
        assert!(a.mwpsr.contains_point(outside));
        assert!(a.pbsr.contains(outside) && !a.pbsr.contains(inside));
        assert_eq!(a.opt, vec![(ALARM, true)]);
        // 100 m from the alarm at 30 m/s.
        assert!(a.period_ms as f64 <= 100.0 / V_MAX * 1_000.0, "grant {} ms", a.period_ms);
    }

    // One subscriber crosses the alarm through both cells: exactly one
    // delivery.
    let walker = hello(&server, 300, StrategySpec::Mwpsr);
    let [(outside, first_half), (_, second_half)] = probes();
    let mut delivered = Vec::new();
    for (seq, pos) in [outside, first_half, second_half, first_half].into_iter().enumerate() {
        delivered.extend(deliveries(&update(&server, walker, seq as u32 + 1, pos)));
    }
    assert_eq!(delivered, vec![ALARM]);

    // Remove: same gatekeeping, then every answer reverts.
    assert_eq!(
        server.handle(stranger, Request::RemoveAlarm { seq: 3, alarm: ALARM }),
        vec![Response::Error { seq: 3, code: error_code::NO_SESSION }]
    );
    assert_eq!(
        server.handle(admin, Request::RemoveAlarm { seq: 4, alarm: ALARM }),
        vec![Response::Ack { seq: 4 }]
    );
    assert_eq!(server.cache_stats().invalidations, 4);
    assert_eq!(
        alarm_writes(&server, SpanKind::AlarmRemove),
        vec![(u64::from(ALARM), u64::from(admin), trace_id_for(admin, 4))]
    );
    assert_unaware(&server, 400);
    let late = hello(&server, 500, StrategySpec::Mwpsr);
    assert!(deliveries(&update(&server, late, 1, first_half)).is_empty());
    assert_eq!(
        server.handle(admin, Request::RemoveAlarm { seq: 5, alarm: ALARM }),
        vec![Response::Error { seq: 5, code: error_code::UNKNOWN_ALARM }]
    );

    // 64 further writes leave the removed alarm removed: a repeated
    // remove is still refused the same way.
    let far = quantize_rect(Rect::new(8_000.0, 8_000.0, 8_100.0, 8_100.0).unwrap());
    for (seq, alarm) in (6..).zip(ALARM + 1..=ALARM + 64) {
        let private = Request::InstallAlarm { seq, alarm, flags: 999 << 1, rect: far };
        assert_eq!(server.handle(admin, private), vec![Response::Ack { seq }]);
    }
    assert_eq!(
        server.handle(admin, Request::RemoveAlarm { seq: 100, alarm: ALARM }),
        vec![Response::Error { seq: 100, code: error_code::UNKNOWN_ALARM }]
    );
}
