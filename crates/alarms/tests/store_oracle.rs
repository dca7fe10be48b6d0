//! Oracle test for the live server's grid-keyed [`AlarmStore`]: on random
//! grids, under random install / remove schedules, the store's cell
//! visitors, the paper's tree visitors (a [`VersionedAlarmIndex`] driven
//! through the same schedule) and a linear scan over the live alarms must
//! give equal sets for the trigger probe and the cell read, and the same
//! nearest distance to the bit.
//!
//! Coordinates are drawn to reach the cases the bucket arithmetic must
//! get right: positions and alarm edges exactly on cell edges (the
//! values `Grid::cell_rect` computes), empty cells, alarms spanning many
//! cells or reaching past the universe, and a generation pinned before
//! later writes, which must keep its answers.

use proptest::prelude::*;
use sa_alarms::{
    AlarmId, AlarmScope, AlarmSnapshot, AlarmStore, AlarmTarget, SpatialAlarm, StoreGeneration,
    SubscriberId, VersionedAlarmIndex,
};
use sa_geometry::{CellId, Grid, Point, Rect};

/// Xorshift stream: one seed is one world and one schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in [lo, hi).
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const USERS: u32 = 4;

/// A universe of 1–12 cells a side whose extent is not a multiple of the
/// cell side, so the last column and row are narrower.
fn random_grid(rng: &mut Rng) -> Grid {
    let origin = [0.0, -1_000.0, 12_345.5][rng.below(3) as usize];
    let side = rng.range(80.0, 700.0);
    let (cols, rows) = (rng.range(1.0, 12.0), rng.range(1.0, 12.0));
    let universe = Rect::new(origin, origin, origin + cols * side, origin + rows * side).unwrap();
    Grid::new(universe, side).unwrap()
}

/// A coordinate on one axis: a cell edge as `Grid::cell_rect` computes it,
/// a point past the universe, or a uniform one.
fn coord(rng: &mut Rng, grid: &Grid, x_axis: bool) -> f64 {
    let u = grid.universe();
    let (lo, hi) = if x_axis { (u.min_x(), u.max_x()) } else { (u.min_y(), u.max_y()) };
    match rng.below(6) {
        0 | 1 => {
            let cell = CellId {
                col: rng.below(grid.cols().into()) as u32,
                row: rng.below(grid.rows().into()) as u32,
            };
            let r = grid.cell_rect(cell);
            match (x_axis, rng.below(2)) {
                (true, 0) => r.min_x(),
                (true, _) => r.max_x(),
                (false, 0) => r.min_y(),
                (false, _) => r.max_y(),
            }
        }
        2 => {
            let reach = (hi - lo) * 0.3;
            if rng.below(2) == 0 {
                rng.range(lo - reach, lo)
            } else {
                rng.range(hi, hi + reach)
            }
        }
        _ => rng.range(lo, hi),
    }
}

fn random_alarm(rng: &mut Rng, grid: &Grid, id: u64) -> SpatialAlarm {
    let span = |rng: &mut Rng, x_axis: bool| {
        let a = coord(rng, grid, x_axis);
        // Mostly small, sometimes many cells wide, sometimes a point.
        let b = match rng.below(5) {
            0 => coord(rng, grid, x_axis),
            1 => a,
            _ => a + rng.range(0.0, grid.cell_size() * 0.8),
        };
        (a.min(b), a.max(b))
    };
    let ((x0, x1), (y0, y1)) = (span(rng, true), span(rng, false));
    let region = Rect::new(x0, y0, x1, y1).unwrap();
    let owner = SubscriberId(rng.below(USERS.into()) as u32);
    let scope = match rng.below(3) {
        0 => AlarmScope::Public { owner },
        1 => AlarmScope::Private { owner },
        _ => AlarmScope::shared(owner, vec![SubscriberId((owner.0 + 1) % USERS)]),
    };
    SpatialAlarm::new(AlarmId(id), region, AlarmTarget::Static(region.center()), scope)
}

/// A position inside the universe: a cell corner, a live alarm's corner
/// clipped into the universe, or a uniform one.
fn probe(rng: &mut Rng, grid: &Grid, live: &[SpatialAlarm]) -> Point {
    let u = grid.universe();
    let clamp =
        |p: Point| Point::new(p.x.clamp(u.min_x(), u.max_x()), p.y.clamp(u.min_y(), u.max_y()));
    match rng.below(3) {
        0 => clamp(Point::new(coord(rng, grid, true), coord(rng, grid, false))),
        1 if !live.is_empty() => {
            let r = live[rng.below(live.len() as u64) as usize].region();
            let x = if rng.below(2) == 0 { r.min_x() } else { r.max_x() };
            let y = if rng.below(2) == 0 { r.min_y() } else { r.max_y() };
            clamp(Point::new(x, y))
        }
        _ => Point::new(rng.range(u.min_x(), u.max_x()), rng.range(u.min_y(), u.max_y())),
    }
}

fn sorted(mut ids: Vec<u64>) -> Vec<u64> {
    ids.sort_unstable();
    ids
}

/// The three readers agree on every cell's read and on 40 probes.
fn verify(
    grid: &Grid,
    store: &StoreGeneration,
    tree: &AlarmSnapshot,
    live: &[SpatialAlarm],
    rng: &mut Rng,
) {
    for row in 0..grid.rows() {
        for col in 0..grid.cols() {
            let cell = CellId { col, row };
            let area = grid.cell_rect(cell);
            let mut got = Vec::new();
            let stats = store.cell_visit(cell, |a| got.push(a.id().0));
            assert_eq!(stats.matches, got.len());
            let want = sorted(
                live.iter().filter(|a| a.region().intersects(&area)).map(|a| a.id().0).collect(),
            );
            let tree_ids = sorted(tree.all_intersecting(area).iter().map(|a| a.id().0).collect());
            assert_eq!(tree_ids, want, "tree cell read of {cell} over {area:?}");
            assert_eq!(sorted(got), want, "bucket read of {cell} over {area:?}");
        }
    }
    for _ in 0..40 {
        let p = probe(rng, grid, live);
        for user in (0..USERS).map(SubscriberId) {
            let mut got = Vec::new();
            store.relevant_at_visit(user, p, |a| got.push(a.id().0));
            let mut tree_ids = Vec::new();
            tree.relevant_at_visit(user, p, |a| tree_ids.push(a.id().0));
            let want = sorted(
                live.iter()
                    .filter(|a| a.contains(p) && a.is_relevant_to(user))
                    .map(|a| a.id().0)
                    .collect(),
            );
            assert_eq!(sorted(tree_ids), want, "tree trigger probe for {user:?} at {p:?}");
            assert_eq!(sorted(got), want, "bucket trigger probe for {user:?} at {p:?}");
            for modulus in [1, 2, 3] {
                let keep = |id: AlarmId| id.0.is_multiple_of(modulus);
                let want = live
                    .iter()
                    .filter(|a| a.is_relevant_to(user) && keep(a.id()))
                    .map(|a| a.region().distance_to_point(p))
                    .min_by(f64::total_cmp);
                let tree_d = tree.nearest_relevant_distance(user, p, keep).0;
                let got = store.nearest_relevant_distance(user, p, keep);
                assert_eq!(tree_d, want, "tree nearest for {user:?} at {p:?}");
                assert_eq!(got, want, "ring-search nearest for {user:?} at {p:?}");
            }
        }
    }
}

/// One world: `base` alarms at construction, then `ops` installs and
/// removes, checked at the start, mid-way and at the end — and the
/// generations pinned mid-way once more after every later write.
fn run(seed: u64, base: usize, ops: usize) {
    let mut rng = Rng(seed | 1);
    let grid = random_grid(&mut rng);
    let mut installed: Vec<SpatialAlarm> =
        (0..base as u64).map(|id| random_alarm(&mut rng, &grid, id)).collect();
    let store = AlarmStore::new(grid.clone(), installed.clone()).unwrap();
    let index = VersionedAlarmIndex::new(installed.clone()).unwrap();
    let mut dead = vec![false; base];
    let live = |installed: &[SpatialAlarm], dead: &[bool]| -> Vec<SpatialAlarm> {
        installed.iter().zip(dead).filter(|(_, &d)| !d).map(|(a, _)| a.clone()).collect()
    };
    verify(&grid, &store.snapshot(), &index.snapshot(), &live(&installed, &dead), &mut rng);
    let mut pinned = None;
    for step in 0..ops {
        if rng.below(3) < 2 {
            let alarm = random_alarm(&mut rng, &grid, installed.len() as u64);
            store.try_install(alarm.clone()).unwrap();
            index.try_install(alarm.clone()).unwrap();
            installed.push(alarm);
            dead.push(false);
        } else {
            // Unknown and already-removed ids are refused by both.
            let id = rng.below(installed.len() as u64 + 2);
            let removed = store.remove(AlarmId(id));
            let known = (id as usize) < installed.len() && !dead[id as usize];
            assert_eq!(removed.is_some(), known, "remove({id})");
            assert_eq!(index.deactivate(AlarmId(id)), known, "deactivate({id})");
            if let Some(alarm) = removed {
                assert_eq!(alarm, installed[id as usize]);
                dead[id as usize] = true;
            }
        }
        if step == ops / 2 {
            let now = live(&installed, &dead);
            verify(&grid, &store.snapshot(), &index.snapshot(), &now, &mut rng);
            pinned = Some((store.snapshot(), index.snapshot(), now));
        }
    }
    assert_eq!(store.snapshot().len(), installed.len());
    verify(&grid, &store.snapshot(), &index.snapshot(), &live(&installed, &dead), &mut rng);
    if let Some((store_then, tree_then, live_then)) = pinned {
        verify(&grid, &store_then, &tree_then, &live_then, &mut rng);
    }
}

/// Alarms laid exactly on cell edges, a position on every cell corner,
/// an alarm over the whole universe and past it, and empty cells — the
/// directed form of what the property test samples.
#[test]
fn cell_edges_spans_and_the_universe_boundary() {
    let grid = Grid::new(Rect::new(0.0, 0.0, 1_000.0, 700.0).unwrap(), 300.0).unwrap();
    let public = AlarmScope::Public { owner: SubscriberId(0) };
    let mk = |id, x0, y0, x1, y1, scope: &AlarmScope| {
        let region = Rect::new(x0, y0, x1, y1).unwrap();
        SpatialAlarm::new(AlarmId(id), region, AlarmTarget::Static(region.center()), scope.clone())
    };
    let private = AlarmScope::Private { owner: SubscriberId(2) };
    let alarms = vec![
        // Edges on the cell edges x = 300, 600 and y = 300.
        mk(0, 300.0, 0.0, 600.0, 300.0, &public),
        // Touches the cell edge x = 900 from the left.
        mk(1, 850.0, 400.0, 900.0, 450.0, &private),
        // Spans every cell and reaches past the universe.
        mk(2, -50.0, -50.0, 1_050.0, 750.0, &private),
        // A point exactly on a cell corner.
        mk(3, 600.0, 600.0, 600.0, 600.0, &public),
        // Wholly outside the universe, past its right edge.
        mk(4, 1_100.0, 100.0, 1_200.0, 200.0, &public),
    ];
    let store = AlarmStore::new(grid.clone(), alarms.clone()).unwrap();
    let index = VersionedAlarmIndex::new(alarms.clone()).unwrap();
    let mut rng = Rng(7);
    verify(&grid, &store.snapshot(), &index.snapshot(), &alarms, &mut rng);
    let g = store.snapshot();
    for row in 0..grid.rows() {
        for col in 0..grid.cols() {
            let r = grid.cell_rect(CellId { col, row });
            for corner in [r.min_corner(), r.max_corner(), Point::new(r.min_x(), r.max_y())] {
                for user in (0..USERS).map(SubscriberId) {
                    let mut got = Vec::new();
                    g.relevant_at_visit(user, corner, |a| got.push(a.id().0));
                    let want: Vec<u64> = alarms
                        .iter()
                        .filter(|a| a.contains(corner) && a.is_relevant_to(user))
                        .map(|a| a.id().0)
                        .collect();
                    assert_eq!(sorted(got), want, "{user:?} at the corner {corner:?}");
                }
            }
        }
    }
    // Removing the spanning alarm empties the cells it alone met: the
    // alarm past the universe sits in cell (3, 0)'s bucket but meets no
    // cell.
    assert!(store.remove(AlarmId(2)).is_some());
    assert!(index.deactivate(AlarmId(2)));
    let mut empty = Vec::new();
    for row in 0..grid.rows() {
        for col in 0..grid.cols() {
            let mut n = 0;
            store.snapshot().cell_visit(CellId { col, row }, |_| n += 1);
            if n == 0 {
                empty.push((col, row));
            }
        }
    }
    assert_eq!(empty, vec![(3, 0), (0, 2), (3, 2)]);
    let live: Vec<SpatialAlarm> = alarms.into_iter().filter(|a| a.id() != AlarmId(2)).collect();
    verify(&grid, &store.snapshot(), &index.snapshot(), &live, &mut rng);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_tree_and_scan_agree_on_random_worlds(seed in 1u64..1_000_000_000, base in 0usize..24, ops in 1usize..40) {
        run(seed, base, ops);
    }
}
