//! The fired table's wire-visible contract: firings outlive sessions
//! (exactly-once delivery across a reconnect), and nothing arriving on
//! the wire can record a firing for an alarm id the index never issued
//! — a subscriber's fired list stays bounded by the alarm count.

use sa_alarms::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
use sa_geometry::{Grid, Point, Rect};
use sa_server::server::error_code;
use sa_server::wire::{quantize_m, Request, Response, SessionState, StrategySpec};
use sa_server::{Server, ServerConfig};
use std::sync::Arc;

/// A 10 km universe with one public alarm over (2000..2500)².
fn server() -> Arc<Server> {
    let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
    let alarm = SpatialAlarm::new(
        AlarmId(0),
        Rect::new(2_000.0, 2_000.0, 2_500.0, 2_500.0).unwrap(),
        AlarmTarget::Static(Point::new(2_250.0, 2_250.0)),
        AlarmScope::Public { owner: SubscriberId(99) },
    );
    Server::start(Grid::new(universe, 1_000.0).unwrap(), vec![alarm], 30.0, ServerConfig::default())
}

fn hello(server: &Server, user: u32, strategy: StrategySpec) -> u32 {
    let session = server.open_session();
    let resps = server.handle(session, Request::Hello { seq: 0, user, strategy });
    assert_eq!(resps, vec![Response::Ack { seq: 0 }]);
    session
}

fn update(server: &Server, session: u32, seq: u32, x: f64, y: f64) -> Vec<Response> {
    let req = Request::LocationUpdate { seq, x_fx: quantize_m(x), y_fx: quantize_m(y), motion: 0 };
    server.handle(session, req)
}

fn triggers(server: &Server) -> u64 {
    server.registry().counter("sa_server_triggers_total").get()
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
fn a_reconnected_subscriber_is_not_delivered_the_same_alarm_twice() {
    let server = server();
    let first = hello(&server, 7, StrategySpec::Mwpsr);
    assert_eq!(deliveries(&update(&server, first, 1, 2_250.0, 2_250.0)), vec![0]);
    assert_eq!(triggers(&server), 1);

    // The connection drops: the session goes, the firing stays.
    assert!(server.close_session(first));
    let second = hello(&server, 7, StrategySpec::Mwpsr);
    assert_ne!(first, second);
    // Leave the alarm and cross it again on the new session.
    assert!(deliveries(&update(&server, second, 1, 500.0, 500.0)).is_empty());
    let resps = update(&server, second, 2, 2_250.0, 2_250.0);
    assert!(deliveries(&resps).is_empty(), "second delivery after reconnect: {resps:?}");
    assert!(matches!(resps.last(), Some(Response::RectInstall { .. })));
    assert_eq!(triggers(&server), 1);

    // Another subscriber crossing the same alarm still gets it.
    let other = hello(&server, 8, StrategySpec::Mwpsr);
    assert_eq!(deliveries(&update(&server, other, 1, 2_250.0, 2_250.0)), vec![0]);
}

#[test]
fn trigger_notify_for_an_unknown_alarm_is_refused_and_records_nothing() {
    let server = server();
    let session = hello(&server, 7, StrategySpec::Opt);
    // One past the only installed id, and the far end of the id space.
    for (seq, alarm) in [(1, 1), (2, u32::MAX)] {
        assert_eq!(
            server.handle(session, Request::TriggerNotify { seq, alarm }),
            vec![Response::Error { seq, code: error_code::UNKNOWN_ALARM }]
        );
    }
    assert_eq!(triggers(&server), 0, "a refused notify must not count as a firing");
    // A real id is still recorded, once.
    for seq in [3, 4] {
        let resps = server.handle(session, Request::TriggerNotify { seq, alarm: 0 });
        assert_eq!(resps, vec![Response::Ack { seq }]);
    }
    assert_eq!(triggers(&server), 1);
}

#[test]
fn handoff_import_with_an_unknown_fired_or_delivered_id_is_refused_whole() {
    let server = server();
    let admin = hello(&server, 1, StrategySpec::Mwpsr);
    let import = |seq, target, user, fired, delivery_log| Request::HandoffImport {
        seq,
        session: target,
        state: SessionState {
            user,
            strategy: StrategySpec::Mwpsr,
            last_cell: None,
            delivery_log,
            fired,
        },
        trace: Default::default(),
    };
    let target = server.open_session();
    // Alarm 1 in the fired list, or 4242 in the delivery log: the index
    // issued neither, so neither blob imports.
    for (seq, fired, log) in [(1, vec![0, 1], vec![]), (2, vec![0], vec![4242])] {
        assert_eq!(
            server.handle(admin, import(seq, target, 7, fired, log)),
            vec![Response::Error { seq, code: error_code::BAD_REQUEST }]
        );
        // Nothing of the blob landed: no session to re-deliver from.
        let (x_fx, y_fx) = (quantize_m(500.0), quantize_m(500.0));
        let resync = Request::Resync { seq, x_fx, y_fx, motion: 0, acked: 0 };
        assert_eq!(
            server.handle(target, resync),
            vec![Response::Error { seq, code: error_code::NO_SESSION }]
        );
    }
    // Not even the blobs' valid fired id landed.
    let probe = hello(&server, 7, StrategySpec::Mwpsr);
    assert_eq!(deliveries(&update(&server, probe, 1, 2_250.0, 2_250.0)), vec![0]);

    // A well-formed blob imports, suppresses the delivery it carries,
    // and exports the same ids again.
    let imported = server.handle(admin, import(3, target, 9, vec![0], vec![0]));
    assert_eq!(imported, vec![Response::Ack { seq: 3 }]);
    assert!(deliveries(&update(&server, target, 1, 2_250.0, 2_250.0)).is_empty());
    let export = server.handle(
        admin,
        Request::HandoffExport { seq: 4, session: target, trace: Default::default() },
    );
    let [Response::SessionState { state: exported, .. }] = export.as_slice() else {
        panic!("export must answer one SessionState, got {export:?}");
    };
    let ids = (exported.fired.as_slice(), exported.delivery_log.as_slice());
    assert_eq!((exported.user, ids), (9, (&[0][..], &[0][..])));
}
