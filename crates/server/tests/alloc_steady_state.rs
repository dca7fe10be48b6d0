//! Pins the allocation-free update invariant: once the caller's response
//! buffer and its thread's scratch are warm, a steady-state location
//! update (the PBSR quick-update answer — same cell, nothing fired) runs
//! to completion on the caller's thread with **zero** heap allocations,
//! counted on every thread of the process.
//!
//! The test installs a counting `#[global_allocator]` (its own binary,
//! so no other test pollutes the counter), warms the path, snapshots
//! the allocation count, drives more updates, and asserts the counter
//! did not move. Tracing is forced to `TraceMode::Off` — the span gate
//! is an atomic load, so that mode is part of the steady-state contract.
//!
//! A second body pins the region-refresh path the same way: a warm
//! safe-period grant allocates nothing even for a subscriber with fired
//! history, a warm cache-hit PBSR refresh allocates once (its payload,
//! copied from the cache's encoded bits), and what a warm MWPSR (9) or
//! cache-hit PBSR refresh allocates depends neither on the subscriber's
//! own fired history nor on how many firings the server holds for
//! everybody else.
//!
//! A third body pins the write path: the same public and private
//! install + remove pairs on servers holding 1,000 and 20,000 alarms on
//! one grid make the same number of allocations — a write copies the
//! buckets it covers and the store's spine, never anything sized by the
//! alarm count.
//!
//! A fourth body pins the client: a warm silent `poll_update` of an
//! MWPSR, PBSR, OPT or SP client allocates nothing, and a PBSR bitmap
//! install through `complete_update` allocates at most once (the region's
//! one block, grown from the decoded bits).
//!
//! The whole file is ONE `#[test]` on purpose (as in `net_soak.rs`):
//! the counter is process-wide, and libtest's main thread allocates
//! when it records a finished test's result — with two tests, inside
//! whichever measured window was still open. A lock between the bodies
//! serialises them, not the harness.

use sa_alarms::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
use sa_core::PyramidComputer;
use sa_geometry::{CellId, Grid, Point, Rect};
use sa_server::wire::{quantize_m, PushedAlarm, Request, Response, SessionState, StrategySpec};
use sa_server::{quantize_rect, Client, Server, ServerConfig, TraceMode, Transport, TransportError};
use sa_sim::pbsr_pyramid;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (alloc, zeroed alloc, realloc) made anywhere
/// in the process. Deallocations are not counted — the invariant is
/// "no new memory", and zero allocations implies zero frees of new
/// memory.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn public_alarm(id: u64, min_x: f64, min_y: f64, side: f64) -> SpatialAlarm {
    let region = Rect::new(min_x, min_y, min_x + side, min_y + side).unwrap();
    SpatialAlarm::new(
        AlarmId(id),
        region,
        AlarmTarget::Static(region.center()),
        AlarmScope::Public { owner: SubscriberId(99) },
    )
}

#[test]
fn steady_state_paths_allocate_nothing_they_should_not() {
    steady_state_update_path_allocates_nothing();
    refresh_allocations_do_not_depend_on_anyones_fired_history();
    write_allocations_do_not_grow_with_the_index();
    client_silent_samples_and_bitmap_installs_allocate_at_most_their_region();
}

fn steady_state_update_path_allocates_nothing() {
    let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
    let grid = Grid::new(universe, 1_000.0).unwrap();
    // One public alarm far from the subscriber: the index is non-trivial
    // but nothing ever triggers on the steady path.
    let server = Server::start(
        grid,
        vec![public_alarm(0, 9_000.0, 9_000.0, 500.0)],
        30.0,
        ServerConfig::default(),
    );
    server.set_trace_mode(TraceMode::Off);

    let session = server.open_session();
    let mut out = Vec::new();
    server.handle_into(
        session,
        Request::Hello { seq: 0, user: 7, strategy: StrategySpec::Pbsr { height: 2 } },
        &mut out,
    );
    let (x_fx, y_fx) = (quantize_m(500.0), quantize_m(500.0));
    let update = |seq| Request::LocationUpdate { seq, x_fx, y_fx, motion: 0 };

    // Warm-up: the first update computes and caches the cell's bitmap;
    // the rest exercise the quick-update path until every buffer —
    // response vector, trigger scratch, pinned snapshot — has reached its
    // high-water capacity.
    for seq in 1..=64u32 {
        out.clear();
        server.handle_into(session, update(seq), &mut out);
        assert!(!out.is_empty(), "warm-up update {seq} got no response");
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(before > 0, "the counting allocator must have seen the setup allocations");
    const STEADY_UPDATES: u32 = 100;
    for seq in 65..65 + STEADY_UPDATES {
        out.clear();
        server.handle_into(session, update(seq), &mut out);
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    // Responses are checked *after* the measured window (the assert
    // machinery itself may allocate on failure).
    assert_eq!(out.len(), 1, "quick update answers with a bare Ack");
    assert_eq!(
        delta, 0,
        "steady-state updates allocated {delta} times over {STEADY_UPDATES} updates \
         — the hot path must stay allocation-free"
    );
}

/// Allocations (process-wide) of `rounds` passes over `requests` on
/// `session`, after as many unmeasured warm-up passes.
fn refresh_allocations(server: &Server, session: u32, requests: &[Request], rounds: u32) -> u64 {
    let mut out = Vec::new();
    let pass = |out: &mut Vec<Response>| {
        for req in requests {
            out.clear();
            server.handle_into(session, req.clone(), out);
        }
    };
    for _ in 0..rounds {
        pass(&mut out);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..rounds {
        pass(&mut out);
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert!(
        !matches!(out.last(), None | Some(Response::Error { .. } | Response::Ack { .. })),
        "every measured request must be answered with a region refresh, got {out:?}"
    );
    delta
}

fn refresh_allocations_do_not_depend_on_anyones_fired_history() {
    const FOREIGN_SUBSCRIBERS: u32 = 100;
    const ALARMS: u32 = 1_000;
    let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
    // Alarm 0 gives the subject its fired history; 1 and 2 are the
    // obstacles of the two cells the refreshes alternate between; the
    // rest sit far away and exist to be fired by everybody else.
    let mut alarms = vec![
        public_alarm(0, 2_000.0, 2_000.0, 500.0),
        public_alarm(1, 600.0, 600.0, 100.0),
        public_alarm(2, 1_600.0, 600.0, 100.0),
    ];
    alarms.extend((3..u64::from(ALARMS)).map(|id| {
        public_alarm(id, 5_000.0 + (id % 30) as f64 * 100.0, 5_000.0 + (id / 30) as f64 * 100.0, 50.0)
    }));
    let server = Server::start(
        Grid::new(universe, 1_000.0).unwrap(),
        alarms,
        30.0,
        ServerConfig::default(),
    );
    server.set_trace_mode(TraceMode::Off);

    let hello = |user, strategy| {
        let session = server.open_session();
        let resps = server.handle(session, Request::Hello { seq: 0, user, strategy });
        assert_eq!(resps, vec![Response::Ack { seq: 0 }]);
        session
    };
    let at = |x: f64, y: f64| Request::LocationUpdate {
        seq: 1,
        x_fx: quantize_m(x),
        y_fx: quantize_m(y),
        motion: 0,
    };
    // Two cells, alternately: every PBSR update is a cell change, hence
    // a full refresh — a cache hit once both cells' bitmaps are cached.
    let hops = [at(500.0, 500.0), at(1_500.0, 500.0)];
    let pbsr = StrategySpec::Pbsr { height: 3 };

    // Subscriber 7 crosses alarm 0 once; subscriber 8 never fires.
    let mwpsr_7 = hello(7, StrategySpec::Mwpsr);
    let fired = server.handle(mwpsr_7, at(2_250.0, 2_250.0));
    assert!(matches!(fired.first(), Some(Response::TriggerDelivery { alarm: 0, .. })));
    let (pbsr_7, period_7) = (hello(7, pbsr), hello(7, StrategySpec::SafePeriod));
    let (mwpsr_8, pbsr_8) = (hello(8, StrategySpec::Mwpsr), hello(8, pbsr));

    const ROUNDS: u32 = 32;
    let measure = |session| refresh_allocations(&server, session, &hops, ROUNDS);
    let quiet = (measure(period_7), measure(mwpsr_7), measure(pbsr_7));
    assert_eq!(quiet.0, 0, "a warm safe-period grant must not allocate");
    // A cache hit's payload is a copy of the cached wire bits: one
    // allocation per refresh (it was 19 while a hit cloned the cached
    // region and re-encoded it).
    let refreshes = u64::from(ROUNDS) * hops.len() as u64;
    assert_eq!(quiet.2, refreshes, "a warm PBSR cache hit allocates only its payload");
    assert_eq!(quiet.1, measure(mwpsr_8), "MWPSR refresh: own fired history must cost no allocation");
    assert_eq!(quiet.2, measure(pbsr_8), "PBSR cache hit: own fired history must cost no allocation");

    // 100,000 firings of other subscribers, loaded the way a federation
    // peer would hand them over.
    let every_alarm: Vec<u32> = (0..ALARMS).collect();
    for user in 0..FOREIGN_SUBSCRIBERS {
        let state = SessionState {
            user: 1_000 + user,
            strategy: StrategySpec::Mwpsr,
            last_cell: None,
            delivery_log: Vec::new(),
            fired: every_alarm.clone(),
        };
        let import = Request::HandoffImport {
            seq: 1,
            session: server.open_session(),
            state,
            trace: Default::default(),
        };
        assert_eq!(server.handle(mwpsr_8, import), vec![Response::Ack { seq: 1 }]);
    }
    let loaded = (measure(period_7), measure(mwpsr_7), measure(pbsr_7));
    assert_eq!(loaded, quiet, "(safe period, MWPSR, PBSR) allocations moved with foreign firings");
}

/// Allocations (process-wide) of 64 public and 64 private install +
/// remove pairs, each over the same 2 × 2 cells, on a server holding
/// `alarms` alarms spread over a 10 × 10 grid — measured after one
/// unmeasured pair of each. 256 writes: enough that any rebuild every
/// so many writes would show.
fn write_allocations(alarms: u64) -> u64 {
    let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
    let spread = (0..alarms)
        .map(|id| {
            public_alarm(id, (id * 7_919 % 9_950) as f64, (id * 104_729 % 9_950) as f64, 40.0)
        })
        .collect();
    let server =
        Server::start(Grid::new(universe, 1_000.0).unwrap(), spread, 30.0, ServerConfig::default());
    server.set_trace_mode(TraceMode::Off);
    let admin = server.open_session();
    let hello = Request::Hello { seq: 0, user: 99, strategy: StrategySpec::Mwpsr };
    assert_eq!(server.handle(admin, hello), vec![Response::Ack { seq: 0 }]);
    let rect = sa_server::quantize_rect(Rect::new(4_500.0, 4_500.0, 5_500.0, 5_500.0).unwrap());
    let mut out = Vec::new();
    let mut next = alarms as u32;
    let mut pairs = |out: &mut Vec<Response>| {
        for flags in [(99 << 1) | 1, 99 << 1] {
            let alarm = next;
            next += 1;
            out.clear();
            server.handle_into(admin, Request::InstallAlarm { seq: 1, alarm, flags, rect }, out);
            server.handle_into(admin, Request::RemoveAlarm { seq: 2, alarm }, out);
        }
    };
    pairs(&mut out);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..64 {
        pairs(&mut out);
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        out,
        vec![Response::Ack { seq: 1 }, Response::Ack { seq: 2 }],
        "the last pair must succeed"
    );
    delta
}

fn write_allocations_do_not_grow_with_the_index() {
    let (small, large) = (write_allocations(1_000), write_allocations(20_000));
    assert_eq!(
        small, large,
        "install + remove allocations grew with the index: {small} vs {large}"
    );
}

/// Acknowledges the client's `Hello`; a silent sample never reaches it.
struct Acks;

impl Transport for Acks {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        Ok(vec![Response::Ack { seq: req.seq() }])
    }
}

fn client_silent_samples_and_bitmap_installs_allocate_at_most_their_region() {
    let grid = Grid::new(Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap(), 1_000.0).unwrap();
    let home = grid.cell_rect(CellId { col: 0, row: 0 });
    let obstacle = Rect::new(800.0, 800.0, 900.0, 950.0).unwrap();
    let bitmap = |cell: Rect| {
        PyramidComputer::new(pbsr_pyramid(5)).compute(cell, &[obstacle]).to_wire_bits()
    };
    // Samples crawl along y = 500 through free pyramid blocks, the OPT
    // alarms' quiet space and the MWPSR rectangle.
    let at = |i: u32| Point::new(100.0 + f64::from(i) * 0.75, 500.0);
    const WARM: u32 = 64;
    const MEASURED: u32 = 512;
    for strategy in [
        StrategySpec::Mwpsr,
        StrategySpec::Pbsr { height: 5 },
        StrategySpec::Opt,
        StrategySpec::SafePeriod,
    ] {
        let mut client =
            Client::connect(Acks, SubscriberId(7), strategy, grid.clone(), 1.0).unwrap();
        assert!(client.poll_update(0, 0, at(0), 0.0, 0.0).unwrap().is_some(), "first contact");
        let answer = match strategy {
            StrategySpec::Mwpsr => Response::RectInstall {
                seq: 1,
                cell: 0,
                rect: quantize_rect(Rect::new(50.0, 50.0, 700.0, 700.0).unwrap()),
            },
            StrategySpec::Pbsr { .. } => {
                Response::BitmapInstall { seq: 1, cell: 0, bits: bitmap(home) }
            }
            StrategySpec::Opt => Response::AlarmPush {
                seq: 1,
                cell: 0,
                alarms: vec![
                    PushedAlarm { alarm: 1, relevant: true, rect: quantize_rect(obstacle) },
                    PushedAlarm {
                        alarm: 2,
                        relevant: false,
                        rect: quantize_rect(Rect::new(200.0, 600.0, 300.0, 700.0).unwrap()),
                    },
                ],
            },
            StrategySpec::SafePeriod => Response::SafePeriodGrant { period_ms: 10_000_000 },
        };
        assert!(client.complete_update(vec![answer]).unwrap());
        for step in 1..=WARM {
            assert!(client.poll_update(0, step, at(step), 0.0, 0.0).unwrap().is_none());
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut silent = true;
        for step in WARM + 1..=WARM + MEASURED {
            silent &= matches!(client.poll_update(0, step, at(step), 0.0, 0.0), Ok(None));
        }
        let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert!(silent, "{strategy:?}: every measured sample must be silent");
        assert_eq!(delta, 0, "{strategy:?}: {MEASURED} silent polls allocated {delta} times");
    }

    // Installs alternate between two cells (a bitmap with an obstacle,
    // a free cell's one bit); each answer is built before the window.
    let mut client =
        Client::connect(Acks, SubscriberId(7), StrategySpec::Pbsr { height: 5 }, grid.clone(), 1.0)
            .unwrap();
    let hops = [(Point::new(500.0, 500.0), 0u32), (Point::new(1_500.0, 500.0), 1)];
    const INSTALLS: u32 = 64;
    let mut worst = 0;
    for step in 0..INSTALLS {
        let (pos, cell) = hops[step as usize % 2];
        assert!(client.poll_update(0, step, pos, 0.0, 0.0).unwrap().is_some(), "a cell change");
        let bits = bitmap(grid.cell_rect(grid.cell_at_index(u64::from(cell))));
        let answer = vec![Response::BitmapInstall { seq: step, cell, bits }];
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let done = client.complete_update(answer);
        worst = worst.max(ALLOCATIONS.load(Ordering::SeqCst) - before);
        assert!(done.unwrap());
    }
    assert!(worst <= 1, "a bitmap install allocated {worst} times");
}
