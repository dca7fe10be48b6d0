//! Concurrency regressions for [`sa_server::RegionCache`], alone and
//! mounted in a live server.
//!
//! Alone: installers racing `bump_epoch` must keep the cache bounded (no
//! leaked stale entries) and must never let a lookup resurrect an entry
//! stamped with a superseded epoch. The dangerous interleaving is the
//! insert TOCTOU: an installer reads the cell epoch, an alarm install
//! bumps it, and the installer then stores a bitmap stamped with the old
//! epoch. The entry may land in the map, but it must be unservable
//! (epoch mismatch ⇒ miss) and must be bounded to one slot per
//! `(cell, height)` pair.
//!
//! In the server: the same TOCTOU one level up. A refresh that gathers a
//! cell's obstacles and only *then* reads the cell's epoch can pair the
//! obstacles of the generation before an install with the epoch after
//! it, and the cache accepts the poisoned bitmap.
//!
//! And the other way round: only a public alarm write may invalidate a
//! cell's cached bitmap — a private one cannot change any public view.

use sa_alarms::AlarmId;
use sa_core::{BitmapSafeRegion, PyramidComputer, PyramidConfig};
use sa_geometry::{Grid, Point, Rect};
use sa_server::wire::{quantize_m, Request, Response, StrategySpec};
use sa_server::{quantize_rect, RegionCache, Server, ServerConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const CELLS: u64 = 4;
const HEIGHTS: [u32; 2] = [2, 4];
const ROUNDS: usize = 1_500;

fn region(height: u32) -> BitmapSafeRegion {
    let cell = Rect::new(0.0, 0.0, 9.0, 9.0).expect("static cell");
    let alarm = Rect::new(1.0, 1.0, 2.0, 2.0).expect("static alarm");
    PyramidComputer::new(PyramidConfig::three_by_three(height)).compute(cell, &[alarm])
}

#[test]
fn racing_installs_and_bumps_stay_bounded_and_never_serve_stale_epochs() {
    let cache = Arc::new(RegionCache::new());
    let installers = 4;
    let bumpers = 2;
    let barrier = Arc::new(Barrier::new(installers + bumpers));
    let templates: Vec<(u32, BitmapSafeRegion)> =
        HEIGHTS.iter().map(|&h| (h, region(h))).collect();

    let mut handles = Vec::new();
    for worker in 0..installers {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        let templates = templates.clone();
        handles.push(thread::spawn(move || {
            barrier.wait();
            for round in 0..ROUNDS {
                let cell = ((worker + round) as u64) % CELLS;
                for (height, template) in &templates {
                    // Deliberate TOCTOU: the epoch is captured before the
                    // (simulated) bitmap computation, during which bumper
                    // threads race in.
                    let epoch = cache.epoch(cell);
                    thread::yield_now();
                    cache.insert(cell, *height, epoch, template.clone());
                    // A hit, when it happens, is by construction stamped
                    // with the cell's current epoch; lookup itself must
                    // never panic or serve across a bump.
                    let _ = cache.lookup(cell, *height);
                }
            }
        }));
    }
    for worker in 0..bumpers {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            barrier.wait();
            for round in 0..ROUNDS {
                cache.bump_epoch(((worker + round) as u64) % CELLS);
                thread::yield_now();
            }
        }));
    }
    for h in handles {
        h.join().expect("no worker may panic");
    }

    let ceiling = (CELLS as usize) * HEIGHTS.len();
    assert!(
        cache.len() <= ceiling,
        "racing installs leaked entries: {} live > {} (cells × heights)",
        cache.len(),
        ceiling
    );

    // Quiesce: one final bump per cell must drop every surviving entry —
    // nothing stamped with an old epoch may ever be served again.
    for cell in 0..CELLS {
        cache.bump_epoch(cell);
    }
    assert_eq!(cache.len(), 0, "a bump must drop every entry of its cell");
    for cell in 0..CELLS {
        for &height in &HEIGHTS {
            assert!(
                cache.lookup(cell, height).is_none(),
                "cell {cell} height {height} resurrected a stale entry"
            );
        }
    }

    // And the cache is still serviceable: a fresh insert at the current
    // epoch hits.
    cache.insert(0, HEIGHTS[0], cache.epoch(0), templates[0].1.clone());
    assert!(cache.lookup(0, HEIGHTS[0]).is_some());
}

const STORM_HEIGHT: u32 = 3;
const STORM_ROUNDS: u64 = 2_000;
/// Storm alarms alive at once; older ones are removed again.
const STORM_LIVE: usize = 6;
/// Refreshing subscribers per touched cell.
const REFRESHERS_PER_CELL: u32 = 2;

/// The PBSR bitmap a fresh subscriber `user` is installed at `pos`.
fn fresh_bitmap(server: &Server, user: u32, pos: Point) -> sa_core::BitVec {
    let session = server.open_session();
    let strategy = StrategySpec::Pbsr { height: STORM_HEIGHT };
    server.handle(session, Request::Hello { seq: 0, user, strategy });
    let req = Request::LocationUpdate {
        seq: 1,
        x_fx: quantize_m(pos.x),
        y_fx: quantize_m(pos.y),
        motion: 0,
    };
    let mut resps = server.handle(session, req);
    server.close_session(session);
    match resps.pop() {
        Some(Response::BitmapInstall { bits, .. }) if resps.is_empty() => bits,
        other => panic!("expected one BitmapInstall, got {other:?} after {resps:?}"),
    }
}

#[test]
fn an_install_storm_never_poisons_a_cell_of_a_live_server() {
    let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).expect("static universe");
    let grid = Grid::new(universe, 1_000.0).expect("static grid");
    let server = Server::start(grid.clone(), Vec::new(), 30.0, ServerConfig::default());
    // Every storm alarm straddles x = 3000 inside the band y ∈ 2100..2900
    // of row 2; the refreshing subscribers stand below the band, so no
    // alarm ever fires and every refresh is a public-view (cacheable) one.
    let stands = [Point::new(2_500.0, 2_050.0), Point::new(3_500.0, 2_050.0)];
    let cells: Vec<(u64, Rect)> = stands
        .iter()
        .map(|&p| {
            let cell = grid.cell_of(p);
            (grid.cell_index(cell), grid.cell_rect(cell))
        })
        .collect();
    assert_ne!(cells[0].0, cells[1].0, "the storm must straddle two cells");

    let stop = Arc::new(AtomicBool::new(false));
    let refreshers: Vec<_> = (0..REFRESHERS_PER_CELL * 2)
        .map(|n| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let pos = stands[n as usize % 2];
            thread::spawn(move || {
                let session = server.open_session();
                let strategy = StrategySpec::Pbsr { height: STORM_HEIGHT };
                server.handle(session, Request::Hello { seq: 0, user: 1_000 + n, strategy });
                let mut seq = 0;
                while !stop.load(Ordering::Relaxed) {
                    seq = (seq + 1) & 0x0FFF_FFFF;
                    // A resync always reinstalls the full region: no
                    // quick-update Ack stands between the storm and the
                    // cache.
                    let resps = server.handle(
                        session,
                        Request::Resync {
                            seq,
                            x_fx: quantize_m(pos.x),
                            y_fx: quantize_m(pos.y),
                            motion: 0,
                            acked: 0,
                        },
                    );
                    assert!(matches!(resps.as_slice(), [Response::BitmapInstall { .. }]));
                }
            })
        })
        .collect();

    let admin = server.open_session();
    server.handle(admin, Request::Hello { seq: 0, user: 1, strategy: StrategySpec::Mwpsr });
    let computer = PyramidComputer::new(PyramidConfig::three_by_three(STORM_HEIGHT));
    let mut live: VecDeque<(AlarmId, Rect)> = VecDeque::new();
    let mut probe_user = 10_000;
    // After every acknowledged write, a fresh subscriber must be served
    // exactly the bitmap of the cell's current public alarms — whatever
    // the refreshers cached while the write was in flight.
    let mut check = |live: &VecDeque<(AlarmId, Rect)>, what: &str| {
        let obstacles: Vec<Rect> = live.iter().map(|&(_, r)| r).collect();
        for (&pos, &(cell, cell_rect)) in stands.iter().zip(&cells) {
            probe_user += 1;
            assert_eq!(
                fresh_bitmap(&server, probe_user, pos),
                computer.compute(cell_rect, &obstacles).to_wire_bits(),
                "cell {cell} serves a stale bitmap after {what}"
            );
        }
    };
    for id in 0..STORM_ROUNDS {
        let y = 2_100.0 + (id * 37 % 700) as f64;
        let region = Rect::new(2_900.0, y, 3_100.0, y + 100.0).expect("static alarm");
        let install = Request::InstallAlarm {
            seq: 1,
            alarm: id as u32,
            flags: (1 << 1) | 1, // public, owner 1
            rect: quantize_rect(region),
        };
        assert_eq!(server.handle(admin, install), vec![Response::Ack { seq: 1 }]);
        live.push_back((AlarmId(id), region));
        check(&live, &format!("install {id}"));
        if live.len() > STORM_LIVE {
            let (old, _) = live.pop_front().expect("non-empty");
            let remove = Request::RemoveAlarm { seq: 2, alarm: old.0 as u32 };
            assert_eq!(server.handle(admin, remove), vec![Response::Ack { seq: 2 }]);
            check(&live, &format!("remove {}", old.0));
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in refreshers {
        r.join().expect("no refresher may panic");
    }
    // Quiescent: the final state of every touched cell, once more.
    check(&live, "quiescence");
}

/// Installs, then removes, one alarm owned by subscriber 1 inside a cell
/// whose public bitmap is cached, checking after each write that the
/// owner is served exactly the bitmap of what is live for them. Returns
/// how far each write moved `sa_cache_invalidations_total`.
fn invalidations_per_write(public: bool) -> (u64, u64) {
    const OWNER: u32 = 1;
    let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).expect("static universe");
    let grid = Grid::new(universe, 1_000.0).expect("static grid");
    let server = Server::start(grid.clone(), Vec::new(), 30.0, ServerConfig::default());
    let pos = Point::new(500.0, 500.0);
    let cell_rect = grid.cell_rect(grid.cell_of(pos));
    let region = Rect::new(200.0, 200.0, 400.0, 400.0).expect("static alarm");
    let computer = PyramidComputer::new(PyramidConfig::three_by_three(STORM_HEIGHT));
    let owner_sees = |obstacles: &[Rect], what: &str| {
        assert_eq!(
            fresh_bitmap(&server, OWNER, pos),
            computer.compute(cell_rect, obstacles).to_wire_bits(),
            "the owner's refresh after {what}"
        );
    };
    let invalidations = || {
        let snap = server.registry().snapshot();
        snap.counter("sa_cache_invalidations_total", &[]).expect("registered")
    };

    // A bystander's refresh caches the cell's (empty) public bitmap.
    fresh_bitmap(&server, 2, pos);
    let admin = server.open_session();
    server.handle(admin, Request::Hello { seq: 0, user: OWNER, strategy: StrategySpec::Mwpsr });
    let before = invalidations();
    let install = Request::InstallAlarm {
        seq: 1,
        alarm: 0,
        flags: (OWNER << 1) | u32::from(public),
        rect: quantize_rect(region),
    };
    assert_eq!(server.handle(admin, install), vec![Response::Ack { seq: 1 }]);
    let installed = invalidations();
    owner_sees(&[region], "the install");
    let remove = Request::RemoveAlarm { seq: 2, alarm: 0 };
    assert_eq!(server.handle(admin, remove), vec![Response::Ack { seq: 2 }]);
    let removed = invalidations();
    owner_sees(&[], "the remove");
    (installed - before, removed - installed)
}

#[test]
fn a_private_alarm_write_leaves_cached_public_bitmaps_alone() {
    // The cache holds public views only, and the owner of an unfired
    // private alarm is off the public view: no cached bitmap can change.
    assert_eq!(invalidations_per_write(false), (0, 0));
}

#[test]
fn a_public_alarm_write_invalidates_its_cells_cached_bitmap() {
    // One cached entry (the cell at STORM_HEIGHT) per write: the
    // bystander's before the install, the owner's before the remove.
    assert_eq!(invalidations_per_write(true), (1, 1));
}
