//! Trace-axis determinism regression.
//!
//! The span recorder reads time through the server's `Clock` seam, so
//! wall time never leaks into a record. Two servers driven through an
//! identical schedule on identically advanced virtual clocks must
//! produce identical span records — firings included: each alarm the
//! walk crosses is one `trigger` span inside the tree of the update
//! that fired it. An overload bounce — the one router-side event no
//! single-threaded schedule can produce, and since location updates run
//! on their caller's thread one only a batch frame can meet — is checked
//! on its own below, beside the single-update path's no-queue contract.

use sa_alarms::{AlarmId, AlarmScope, SpatialAlarm, SubscriberId};
use sa_geometry::{Grid, Point, Rect};
use sa_obs::{client_root_span, trace_id_for, Span, SpanKind};
use sa_server::wire::{quantize_m, BatchedUpdate};
use sa_server::{
    Client, InProcTransport, Request, Response, Server, ServerConfig, SharedClock, StrategySpec,
    VirtualClock,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const ALARMS: u64 = 4;

fn run_once() -> Vec<Span> {
    let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
    let grid = Grid::new(universe, 1_000.0).unwrap();
    let vclock = Arc::new(VirtualClock::new());
    let clock: SharedClock = vclock.clone();
    // Alarms along the walk's diagonal so triggers (and their spans)
    // fire at fixed steps.
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
    let server = Server::start_with_clock(
        grid.clone(),
        alarms,
        30.0,
        ServerConfig { num_shards: 2, queue_capacity: 8 },
        Arc::clone(&clock),
    );
    let transport = InProcTransport::connect(Arc::clone(&server));
    let mut client =
        Client::connect(transport, SubscriberId(7), StrategySpec::Mwpsr, grid, 1.0).unwrap();
    client.set_clock(Arc::clone(&clock));

    // A fixed diagonal walk; every step advances the virtual clock by
    // the same amount, so both runs see the same timestamps.
    for step in 0..16u32 {
        vclock.advance(Duration::from_secs(1));
        let d = f64::from(step) * 220.0;
        client.observe(step, Point::new(100.0 + d, 100.0 + d), 0.785, 12.0).unwrap();
    }

    let spans = server.spans();
    server.shutdown();
    spans
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

/// Callers released together on a server whose one shard queues one
/// batch job: the setup that overloads the batch fan-out.
const CALLERS: u32 = 4;

fn one_slot_server() -> Arc<Server> {
    let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
    let grid = Grid::new(universe, 1_000.0).unwrap();
    Server::start(grid, Vec::new(), 30.0, ServerConfig { num_shards: 1, queue_capacity: 1 })
}

/// Opens an MWPSR session for `user`.
fn hello(server: &Server, user: u32) -> u32 {
    let session = server.open_session();
    let hello = Request::Hello { seq: 0, user, strategy: StrategySpec::Mwpsr };
    assert_eq!(server.handle(session, hello), vec![Response::Ack { seq: 0 }]);
    session
}

/// The single-update contract: a location update runs on its caller's
/// thread, so the four-caller storm that bounces batch slices off a
/// one-slot queue gets every update answered, none `Overloaded`, and
/// none waits in a shard queue.
#[test]
fn single_updates_run_on_the_caller_and_never_overload() {
    const UPDATES: u32 = 2_000;
    let server = one_slot_server();
    let start = Barrier::new(CALLERS as usize);
    let (x_fx, y_fx) = (quantize_m(500.0), quantize_m(500.0));
    std::thread::scope(|scope| {
        for user in 0..CALLERS {
            let (server, start) = (&server, &start);
            scope.spawn(move || {
                let session = hello(server, user);
                start.wait();
                for seq in 1..=UPDATES {
                    let update = Request::LocationUpdate { seq, x_fx, y_fx, motion: 0 };
                    let resps = server.handle(session, update);
                    let answered = matches!(
                        resps.as_slice(),
                        [Response::RectInstall { seq: s, .. }] if *s == seq
                    );
                    assert!(answered, "update {seq} of session {session} answered {resps:?}");
                }
            });
        }
    });
    let snap = server.registry().snapshot();
    assert_eq!(snap.counter("sa_server_overloads_total", &[]), Some(0));
    assert_eq!(
        snap.counter("sa_server_location_updates_total", &[]),
        Some(u64::from(CALLERS * UPDATES))
    );
    assert_eq!(
        snap.histogram("sa_shard_dispatch_wait_ns", &[]).map(|h| h.count),
        Some(0),
        "no single update may pass through a shard queue"
    );
    server.shutdown();
}

/// The batch fan-out is the one path with a queue left. Four callers
/// send one-entry batch frames back to back: a submit soon finds the
/// slot taken. The bounced entry must be an `overload` span in its own
/// `(session, seq)` trace, under its derived client root (there is no
/// dispatch span to hang from).
#[test]
fn an_overload_bounce_is_a_span_in_the_bounced_updates_trace() {
    let server = one_slot_server();
    let start = Barrier::new(CALLERS as usize);
    let done = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(60);

    let bounced: Vec<(u32, u32)> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|user| {
                let (server, start, done) = (&server, &start, &done);
                scope.spawn(move || {
                    let session = hello(server, user);
                    start.wait();
                    let (x_fx, y_fx) = (quantize_m(500.0), quantize_m(500.0));
                    let mut seq = 0;
                    while !done.load(Ordering::SeqCst) && Instant::now() < deadline {
                        seq += 1;
                        let entry = BatchedUpdate { session, seq, x_fx, y_fx, motion: 0 };
                        let frame = Request::Batch { seq, updates: vec![entry] };
                        let Response::Batch { replies, .. } = &server.handle(session, frame)[0]
                        else {
                            panic!("a batch frame is answered with a batch");
                        };
                        if replies[0].responses == [Response::Overloaded { seq }] {
                            done.store(true, Ordering::SeqCst);
                            return Some((session, seq));
                        }
                    }
                    None
                })
            })
            .collect();
        callers.into_iter().filter_map(|c| c.join().expect("caller thread")).collect()
    });

    assert!(!bounced.is_empty(), "four callers on a one-slot queue must overload it");
    let spans = server.spans();
    for (session, seq) in bounced {
        let trace = trace_id_for(session, seq);
        let span = spans
            .iter()
            .find(|s| s.kind == SpanKind::Overload && s.ctx.trace_id == trace)
            .expect("the bounce is recorded in the bounced update's trace");
        assert_eq!((span.a, span.b), (u64::from(session), 0), "session and shard");
        assert_eq!(span.ctx.parent, client_root_span(trace));
        assert!(
            !spans.iter().any(|s| s.kind == SpanKind::UpdateDispatch && s.ctx.trace_id == trace),
            "a bounced update was never dispatched"
        );
    }
    assert!(server.registry().counter("sa_server_overloads_total").get() >= 1);
    server.shutdown();
}
