//! Trace-axis determinism regression.
//!
//! The span recorder reads time through the server's `Clock` seam, so
//! wall time never leaks into a record. Two servers driven through an
//! identical schedule on identically advanced virtual clocks must
//! produce identical span records — firings included: each alarm the
//! walk crosses is one `trigger` span inside the tree of the update
//! that fired it. A batch frame is its entries run in frame order, so
//! it is answered — and recorded — exactly as the same updates sent one
//! by one. Below them, the contract that leaves no response to thread
//! scheduling: four concurrent callers get every single update and
//! every batch entry answered, none bounced.

use sa_alarms::{AlarmId, AlarmScope, SpatialAlarm, SubscriberId};
use sa_geometry::{Grid, Point, Rect};
use sa_obs::{Span, SpanKind};
use sa_server::wire::{quantize_m, BatchedUpdate};
use sa_server::{
    Client, InProcTransport, Request, Response, Server, ServerConfig, SharedClock, StrategySpec,
    VirtualClock,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const ALARMS: u64 = 4;

fn grid() -> Grid {
    let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
    Grid::new(universe, 1_000.0).unwrap()
}

/// A server on `clock` with public alarms along the diagonal, one per
/// diagonal cell, so a diagonal walk fires them at fixed steps.
fn diagonal_server(clock: SharedClock) -> Arc<Server> {
    let alarms: Vec<SpatialAlarm> = (0..ALARMS)
        .map(|i| {
            SpatialAlarm::around_static_target(
                AlarmId(i),
                Point::new(500.0 + 900.0 * i as f64, 500.0 + 900.0 * i as f64),
                150.0,
                AlarmScope::Public { owner: SubscriberId(1) },
            )
            .unwrap()
        })
        .collect();
    Server::start_with_clock(grid(), alarms, 30.0, clock)
}

fn run_once() -> Vec<Span> {
    let vclock = Arc::new(VirtualClock::new());
    let clock: SharedClock = vclock.clone();
    let server = diagonal_server(Arc::clone(&clock));
    let transport = InProcTransport::connect(Arc::clone(&server));
    let mut client =
        Client::connect(transport, SubscriberId(7), StrategySpec::Mwpsr, grid(), 1.0).unwrap();
    client.set_clock(Arc::clone(&clock));

    // A fixed diagonal walk; every step advances the virtual clock by
    // the same amount, so both runs see the same timestamps.
    for step in 0..16u32 {
        vclock.advance(Duration::from_secs(1));
        let d = f64::from(step) * 220.0;
        client.observe(step, Point::new(100.0 + d, 100.0 + d), 0.785, 12.0).unwrap();
    }
    server.spans()
}

#[test]
fn identical_virtual_schedules_record_identical_spans() {
    let spans_a = run_once();
    let spans_b = run_once();
    assert_eq!(spans_a, spans_b, "span records must be identical across runs");

    // One trigger per alarm the walk crosses (`b` = alarm id), each a
    // child of the dispatch span of the update that fired it.
    let triggers: Vec<&Span> = spans_a.iter().filter(|s| s.kind == SpanKind::Trigger).collect();
    let mut fired: Vec<u64> = triggers.iter().map(|s| s.b).collect();
    fired.sort_unstable();
    assert_eq!(fired, (0..ALARMS).collect::<Vec<_>>(), "every crossed alarm, exactly once");
    for trigger in triggers {
        assert_eq!(trigger.a, 7, "the firing names its subscriber");
        let parent = spans_a
            .iter()
            .find(|s| s.ctx.span_id == trigger.ctx.parent)
            .expect("a trigger's parent span is recorded");
        assert_eq!(parent.kind, SpanKind::UpdateDispatch);
        assert_eq!(parent.ctx.trace_id, trigger.ctx.trace_id, "in the update's own trace");
    }
}

/// A batch whose entries move one PBSR session between two cells —
/// firing an alarm in one, coming back to the other, standing still
/// there — interleaved with a second, MWPSR session that fires the same
/// alarms: every answer depends on the entries before it. The batch
/// must be answered, and recorded, exactly as the same entries sent one
/// by one, in frame order, to an identical server.
#[test]
fn a_batch_is_answered_like_its_entries_sent_one_by_one() {
    let at = |session, seq, x: f64, y: f64| BatchedUpdate {
        session,
        seq,
        x_fx: quantize_m(x),
        y_fx: quantize_m(y),
        motion: 0,
    };
    let open = || {
        let server = diagonal_server(Arc::new(VirtualClock::new()));
        let walker = hello(&server, 7, StrategySpec::Pbsr { height: 3 });
        let other = hello(&server, 8, StrategySpec::Mwpsr);
        (server, walker, other)
    };
    let (batched, walker, other) = open();
    let (single, ..) = open();
    let entries = vec![
        at(walker, 1, 200.0, 200.0),
        at(other, 1, 500.0, 500.0),
        at(walker, 2, 1_200.0, 1_200.0),
        at(walker, 3, 1_400.0, 1_400.0),
        at(walker, 4, 300.0, 300.0),
        at(walker, 5, 250.0, 250.0),
        at(other, 2, 1_400.0, 1_400.0),
    ];

    let resps = batched.handle(walker, Request::Batch { seq: 9, updates: entries.clone() });
    let [Response::Batch { seq: 9, replies }] = resps.as_slice() else {
        panic!("a batch frame is answered with a batch, got {resps:?}");
    };
    let one_by_one: Vec<(u32, Vec<Response>)> = entries
        .iter()
        .map(|e| {
            let update =
                Request::LocationUpdate { seq: e.seq, x_fx: e.x_fx, y_fx: e.y_fx, motion: 0 };
            (e.session, single.handle(e.session, update))
        })
        .collect();
    let answered: Vec<(u32, Vec<Response>)> =
        replies.iter().map(|r| (r.session, r.responses.clone())).collect();
    assert_eq!(answered, one_by_one);
    assert_eq!(batched.spans(), single.spans(), "a batch entry records what a single update does");

    // Not vacuous: the walker's answers are the order-dependent ones.
    let walker_answers: Vec<&[Response]> = answered
        .iter()
        .filter(|(session, _)| *session == walker)
        .map(|(_, r)| r.as_slice())
        .collect();
    assert!(matches!(walker_answers[0], [Response::BitmapInstall { .. }]));
    assert!(matches!(walker_answers[1], [Response::BitmapInstall { .. }]));
    assert!(matches!(
        walker_answers[2],
        [Response::TriggerDelivery { alarm: 1, .. }, Response::BitmapInstall { .. }]
    ));
    assert!(matches!(walker_answers[3], [Response::BitmapInstall { .. }]));
    assert_eq!(walker_answers[4], [Response::Ack { seq: 5 }], "same cell, nothing fired");
}

/// Callers released together on one server.
const CALLERS: u32 = 4;

fn default_server() -> Arc<Server> {
    Server::start(grid(), Vec::new(), 30.0, ServerConfig::default())
}

/// Opens a session for `user` under `strategy`.
fn hello(server: &Server, user: u32, strategy: StrategySpec) -> u32 {
    let session = server.open_session();
    let hello = Request::Hello { seq: 0, user, strategy };
    assert_eq!(server.handle(session, hello), vec![Response::Ack { seq: 0 }]);
    session
}

/// Runs `requests` requests from each of [`CALLERS`] threads released
/// together, each on its own MWPSR session; `request(session, seq)`
/// sends one and checks its answer.
fn storm(server: &Server, requests: u32, request: impl Fn(u32, u32) + Sync) {
    let start = Barrier::new(CALLERS as usize);
    std::thread::scope(|scope| {
        for user in 0..CALLERS {
            let (start, request) = (&start, &request);
            scope.spawn(move || {
                let session = hello(server, user, StrategySpec::Mwpsr);
                start.wait();
                for seq in 1..=requests {
                    request(session, seq);
                }
            });
        }
    });
}

/// The single-update contract: a location update runs on its caller's
/// thread, so four concurrent callers get every update answered.
#[test]
fn single_updates_run_on_the_caller_and_never_overload() {
    const UPDATES: u32 = 2_000;
    let server = default_server();
    let (x_fx, y_fx) = (quantize_m(500.0), quantize_m(500.0));
    storm(&server, UPDATES, |session, seq| {
        let update = Request::LocationUpdate { seq, x_fx, y_fx, motion: 0 };
        let resps = server.handle(session, update);
        let answered = matches!(
            resps.as_slice(),
            [Response::RectInstall { seq: s, .. }] if *s == seq
        );
        assert!(answered, "update {seq} of session {session} answered {resps:?}");
    });
    let snap = server.registry().snapshot();
    assert_eq!(
        snap.counter("sa_server_location_updates_total", &[]),
        Some(u64::from(CALLERS * UPDATES))
    );
}

/// The batch contract: four callers racing one-entry frames into one
/// cell get every entry answered with its `RectInstall` — no bounce.
#[test]
fn concurrent_batch_frames_are_all_answered() {
    const FRAMES: u32 = 500;
    let server = default_server();
    let (x_fx, y_fx) = (quantize_m(500.0), quantize_m(500.0));
    storm(&server, FRAMES, |session, seq| {
        let entry = BatchedUpdate { session, seq, x_fx, y_fx, motion: 0 };
        let resps = server.handle(session, Request::Batch { seq, updates: vec![entry] });
        let [Response::Batch { replies, .. }] = resps.as_slice() else {
            panic!("a batch frame is answered with a batch, got {resps:?}");
        };
        let answered = matches!(
            replies[0].responses.as_slice(),
            [Response::RectInstall { seq: s, .. }] if *s == seq
        );
        assert!(answered, "entry {seq} of session {session} answered {replies:?}");
    });
    let snap = server.registry().snapshot();
    assert_eq!(
        snap.counter("sa_server_location_updates_total", &[]),
        Some(u64::from(CALLERS * FRAMES))
    );
}
