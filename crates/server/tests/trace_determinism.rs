//! Trace-axis determinism regression.
//!
//! The span recorder reads time through the server's `Clock` seam, so
//! wall time never leaks into a record. Two servers driven through an
//! identical schedule on identically advanced virtual clocks must
//! produce identical span records — firings included: each alarm the
//! walk crosses is one `trigger` span inside the tree of the update
//! that fired it. Below them, the contracts that leave no response to
//! thread scheduling: four concurrent callers get every single update
//! and every batch entry answered, none bounced, and the one batch
//! refusal left is the one `shutdown` causes.

use sa_alarms::{AlarmId, AlarmScope, SpatialAlarm, SubscriberId};
use sa_geometry::{Grid, Point, Rect};
use sa_obs::{Span, SpanKind};
use sa_server::server::error_code;
use sa_server::wire::{quantize_m, BatchedUpdate};
use sa_server::{
    Client, InProcTransport, Request, Response, Server, ServerConfig, SharedClock, StrategySpec,
    VirtualClock,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

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
        ServerConfig { num_shards: 2 },
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

/// Callers released together on a one-shard server: every batch slice
/// lands on one queue.
const CALLERS: u32 = 4;

fn one_shard_server() -> Arc<Server> {
    let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
    let grid = Grid::new(universe, 1_000.0).unwrap();
    Server::start(grid, Vec::new(), 30.0, ServerConfig { num_shards: 1 })
}

/// Opens an MWPSR session for `user`.
fn hello(server: &Server, user: u32) -> u32 {
    let session = server.open_session();
    let hello = Request::Hello { seq: 0, user, strategy: StrategySpec::Mwpsr };
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
                let session = hello(server, user);
                start.wait();
                for seq in 1..=requests {
                    request(session, seq);
                }
            });
        }
    });
}

/// The single-update contract: a location update runs on its caller's
/// thread, so four concurrent callers get every update answered and
/// none waits in a shard queue.
#[test]
fn single_updates_run_on_the_caller_and_never_overload() {
    const UPDATES: u32 = 2_000;
    let server = one_shard_server();
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
    assert_eq!(
        snap.histogram("sa_shard_dispatch_wait_ns", &[]).map(|h| h.count),
        Some(0),
        "no single update may pass through a shard queue"
    );
    server.shutdown();
}

/// The batch contract: the fan-out's queues have no bound, so four
/// callers racing one-entry frames onto one shard get every entry
/// answered by the worker with its `RectInstall` — no bounce.
#[test]
fn concurrent_batch_frames_on_one_shard_are_all_answered() {
    const FRAMES: u32 = 500;
    let server = one_shard_server();
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
    server.shutdown();
}

/// The batch path's one refusal: after `shutdown` no worker is left to
/// take a slice, so a batch frame answers every entry `BAD_REQUEST` —
/// while a single location update, which never needed a worker, is
/// still answered.
#[test]
fn after_shutdown_batches_are_refused_and_single_updates_answered() {
    let server = one_shard_server();
    let (a, b) = (hello(&server, 0), hello(&server, 1));
    server.shutdown();
    let (x_fx, y_fx) = (quantize_m(500.0), quantize_m(500.0));
    let entries = vec![
        BatchedUpdate { session: a, seq: 1, x_fx, y_fx, motion: 0 },
        BatchedUpdate { session: b, seq: 2, x_fx, y_fx, motion: 0 },
    ];
    let resps = server.handle(a, Request::Batch { seq: 7, updates: entries });
    let [Response::Batch { seq: 7, replies }] = resps.as_slice() else {
        panic!("a batch frame is answered with a batch, got {resps:?}");
    };
    let refused: Vec<_> = replies.iter().map(|r| (r.session, r.responses.clone())).collect();
    let bad = |seq| vec![Response::Error { seq, code: error_code::BAD_REQUEST }];
    assert_eq!(refused, vec![(a, bad(1)), (b, bad(2))]);

    let update = Request::LocationUpdate { seq: 3, x_fx, y_fx, motion: 0 };
    let resps = server.handle(a, update);
    assert!(matches!(resps.as_slice(), [Response::RectInstall { seq: 3, .. }]), "{resps:?}");
}
