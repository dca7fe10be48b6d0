//! The client's silent verdict is the rulebook's, bit for bit.
//!
//! A [`Client`] answers a silent sample from what it holds — a rectangle,
//! a remembered pyramid block, an OPT quiet box, a period — without
//! descending the bitmap or calling [`Grid::cell_of`] when it need not.
//! This suite drives real clients through random installs (MWPSR
//! rectangles, PBSR bitmaps at heights 1–7 over random obstacles, OPT
//! sets, SP periods) and random walks on the Q16.16 lattice that visit
//! cell edges, pyramid block edges, the universe's clipped last column
//! and row, and earlier positions again (so remembered blocks are left and
//! re-entered; right after a new install, often the last silent position,
//! which the new bitmap often blocks). Every sample's
//! verdict must equal the rule evaluated afresh: the rectangle's
//! closed containment, a fresh pyramid descent, `cell_of` against the
//! pushed cell, the grant's step. A [`Held`] driven alongside — the
//! simulator's copy of the same state — must agree too, and an OPT
//! client must fire exactly the alarms the rule fires, at the same steps.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use sa_alarms::{AlarmId, SubscriberId};
use sa_core::{BitmapSafeRegion, PyramidComputer};
use sa_geometry::{CellId, Grid, Point, Rect, LATTICE_STEPS_PER_M};
use sa_server::wire::{dequantize_rect, PushedAlarm};
use sa_server::{quantize_rect, Client, Request, Response, StrategySpec, Transport, TransportError};
use sa_sim::{pbsr_pyramid, silent_steps, Held, OptAlarm};

/// Samples per case.
const STEPS: u32 = 240;
/// Sample period, seconds.
const DT: f64 = 1.0;

/// Acknowledges the `Hello` and every OPT notify.
struct Acks;

impl Transport for Acks {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        Ok(vec![Response::Ack { seq: req.seq() }])
    }
}

/// A grid with whole-meter cells on a universe whose last column and row
/// are clipped, or a paper-sized cell side (not on the lattice) from an
/// offset origin.
fn grid(paper_sized: bool) -> Grid {
    if paper_sized {
        Grid::with_cell_area_km2(Rect::new(1_250.5, 730.25, 8_000.0, 7_500.0).unwrap(), 2.5)
            .unwrap()
    } else {
        Grid::new(Rect::new(0.0, 0.0, 4_500.0, 3_700.0).unwrap(), 1_000.0).unwrap()
    }
}

fn lattice(v: f64) -> f64 {
    (v * LATTICE_STEPS_PER_M).round() / LATTICE_STEPS_PER_M
}

/// The next position of the walk: a lattice step, a cell or pyramid
/// edge of the current cell (exact, on the lattice, or an ulp off), the
/// universe's far edge, or an earlier position.
fn next_position(rng: &mut SmallRng, grid: &Grid, pos: Point, history: &[Point]) -> Point {
    let cell = grid.cell_rect(grid.cell_of(pos));
    let universe = grid.universe();
    let edge = |rng: &mut SmallRng, lo: f64, hi: f64| {
        // An edge of the pyramid over [lo, hi] at a random depth (depth 0
        // is the cell's own edges).
        let splits = 3f64.powi(rng.gen_range(0..8));
        let k = rng.gen_range(0..=splits as u64) as f64;
        let v = lo + k * (hi - lo) / splits;
        match rng.gen_range(0..4) {
            0 => v,
            1 => lattice(v),
            2 => v.next_down(),
            _ => v.next_up(),
        }
    };
    let p = match rng.gen_range(0..10) {
        0..=3 => Point::new(
            lattice(pos.x + rng.gen_range(-40.0..40.0)),
            lattice(pos.y + rng.gen_range(-40.0..40.0)),
        ),
        4 => Point::new(edge(rng, cell.min_x(), cell.max_x()), pos.y),
        5 => Point::new(pos.x, edge(rng, cell.min_y(), cell.max_y())),
        6 => Point::new(
            edge(rng, cell.min_x(), cell.max_x()),
            edge(rng, cell.min_y(), cell.max_y()),
        ),
        7 => {
            let far = |rng: &mut SmallRng, v: f64| match rng.gen_range(0..3) {
                0 => v,
                1 => v.next_up(),
                _ => lattice(v + 3.0),
            };
            Point::new(far(rng, universe.max_x()), far(rng, universe.max_y()))
        }
        _ => history[rng.gen_range(0..history.len())],
    };
    // Keep the walk near the universe, and on the wire's unsigned range.
    let clamp = |v: f64, lo: f64, hi: f64| {
        if v < (lo - 50.0).max(0.0) || v > hi + 50.0 {
            lattice((lo + hi) / 2.0)
        } else {
            v
        }
    };
    Point::new(
        clamp(p.x, universe.min_x(), universe.max_x()),
        clamp(p.y, universe.min_y(), universe.max_y()),
    )
}

/// A random rectangle near `around`, on the lattice.
fn rect_near(rng: &mut SmallRng, around: Point, reach: f64, max_side: f64) -> Rect {
    let x = lattice((around.x + rng.gen_range(-reach..reach)).max(0.0));
    let y = lattice((around.y + rng.gen_range(-reach..reach)).max(0.0));
    let w = lattice(rng.gen_range(1.0..max_side));
    let h = lattice(rng.gen_range(1.0..max_side));
    Rect::new(x, y, x + w, y + h).unwrap()
}

/// The rule, evaluated afresh, for what the last answer installed.
enum Reference {
    Nothing,
    Rect(Rect),
    Bitmap(BitmapSafeRegion),
    Alarms { cell: CellId, alarms: Vec<OptAlarm> },
    SilentUntil(u32),
}

impl Reference {
    fn must_uplink(&self, grid: &Grid, step: u32, pos: Point) -> bool {
        match self {
            Reference::Nothing => true,
            Reference::Rect(rect) => !rect.contains_point(pos),
            Reference::Bitmap(region) => !region.contains_with_cost(pos).0,
            Reference::Alarms { cell, .. } => grid.cell_of(pos) != *cell,
            Reference::SilentUntil(until) => step >= *until,
        }
    }
}

/// Drives one client for [`STEPS`] samples; panics on the first sample
/// whose verdict differs from the rule's.
fn run_case(seed: u64, kind: u32, height: u32, paper_sized: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let grid = grid(paper_sized);
    let strategy = match kind {
        0 => StrategySpec::Mwpsr,
        1 => StrategySpec::Pbsr { height },
        2 => StrategySpec::Opt,
        _ => StrategySpec::SafePeriod,
    };
    let mut client = Client::connect(Acks, SubscriberId(3), strategy, grid.clone(), DT).unwrap();
    let mut reference = Reference::Nothing;
    let mut held: Option<Held> = None;
    let mut expected_fires = Vec::new();
    let mut next_alarm = 0u32;
    let universe = grid.universe();
    let mut pos = Point::new(
        lattice(rng.gen_range(universe.min_x()..universe.max_x())),
        lattice(rng.gen_range(universe.min_y()..universe.max_y())),
    );
    let mut history = vec![pos];
    // The last silent position, and whether the last sample uplinked.
    let mut last_silent: Option<Point> = None;
    let mut installed = false;
    for step in 0..STEPS {
        let expected = reference.must_uplink(&grid, step, pos);
        let rulebook = held.as_mut().is_none_or(|h| h.must_uplink(step, pos));
        assert_eq!(rulebook, expected, "Held, step {step} at {pos:?} (seed {seed})");
        let entry = client.poll_update(0, step, pos, 0.0, 0.0).unwrap();
        assert_eq!(entry.is_some(), expected, "client, step {step} at {pos:?} (seed {seed})");
        if expected {
            let cell = grid.cell_of(pos);
            let cell_word = grid.cell_index(cell) as u32;
            let answer = match strategy {
                StrategySpec::Mwpsr => {
                    let rect = quantize_rect(rect_near(&mut rng, pos, 60.0, 150.0));
                    let region = dequantize_rect(rect).unwrap();
                    reference = Reference::Rect(region);
                    held = Some(Held::Rect(region));
                    Response::RectInstall { seq: 0, cell: cell_word, rect }
                }
                StrategySpec::Pbsr { height }
                    if matches!(reference, Reference::Nothing) || rng.gen_bool(0.8) =>
                {
                    // A new bitmap of the sample's cell over random obstacles.
                    let cell_rect = grid.cell_rect(cell);
                    let mut obstacles: Vec<Rect> = (0..rng.gen_range(0..6))
                        .map(|_| rect_near(&mut rng, pos, 300.0, 250.0))
                        .collect();
                    // Often block where the old bitmap let the client be.
                    if let Some(p) = last_silent.filter(|_| rng.gen_bool(0.5)) {
                        obstacles.push(rect_near(&mut rng, p, 2.0, 8.0));
                    }
                    let config = pbsr_pyramid(height);
                    let region = PyramidComputer::new(config).compute(cell_rect, &obstacles);
                    let bits = region.to_wire_bits();
                    let region =
                        BitmapSafeRegion::from_wire_bits(cell_rect, config, bits.clone()).unwrap();
                    reference = Reference::Bitmap(region.clone());
                    held = Some(Held::bitmap(region));
                    Response::BitmapInstall { seq: 0, cell: cell_word, bits }
                }
                // The quick update: the installed bitmap stands.
                StrategySpec::Pbsr { .. } => Response::Ack { seq: 0 },
                StrategySpec::Opt => {
                    let pushed: Vec<PushedAlarm> = (0..rng.gen_range(0..9))
                        .map(|_| {
                            next_alarm += 1;
                            PushedAlarm {
                                alarm: next_alarm,
                                relevant: rng.gen_bool(0.7),
                                rect: quantize_rect(rect_near(&mut rng, pos, 200.0, 120.0)),
                            }
                        })
                        .collect();
                    let alarms: Vec<OptAlarm> = pushed
                        .iter()
                        .map(|a| OptAlarm {
                            id: AlarmId(u64::from(a.alarm)),
                            region: dequantize_rect(a.rect).unwrap(),
                            relevant: a.relevant,
                        })
                        .collect();
                    reference = Reference::Alarms { cell, alarms: alarms.clone() };
                    held = Some(Held::alarms(&grid, cell, alarms));
                    Response::AlarmPush { seq: 0, cell: cell_word, alarms: pushed }
                }
                StrategySpec::SafePeriod => {
                    let period_ms = rng.gen_range(0..12_000u32);
                    let until = step + silent_steps(f64::from(period_ms) / 1_000.0, DT);
                    reference = Reference::SilentUntil(until);
                    held = Some(Held::SilentUntil(until));
                    Response::SafePeriodGrant { period_ms }
                }
            };
            assert!(client.complete_update(vec![answer]).unwrap());
        } else {
            last_silent = Some(pos);
        }
        if let (false, Reference::Alarms { alarms, .. }) = (expected, &mut reference) {
            // OPT's local check: strictly entered alarms leave the set,
            // the relevant ones fire.
            alarms.retain(|a| {
                let entered = a.region.contains_point_strict(pos);
                if entered && a.relevant {
                    expected_fires.push((a.id, step));
                }
                !entered
            });
            let mut fired = Vec::new();
            held.as_mut().unwrap().opt_check(pos, |id| fired.push((id, step)));
            assert_eq!(fired, expected_fires[expected_fires.len() - fired.len()..].to_vec());
        }
        pos = match last_silent {
            Some(p) if installed && rng.gen_bool(0.5) => p,
            _ => next_position(&mut rng, &grid, pos, &history),
        };
        installed = expected;
        history.push(pos);
    }
    let fired: Vec<(AlarmId, u32)> = client.fired().iter().map(|e| (e.alarm, e.step)).collect();
    assert_eq!(fired, expected_fires, "OPT local firings (seed {seed})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_client_stays_silent_exactly_when_the_rule_says(
        seed in 0u64..u64::MAX,
        kind in 0u32..4,
        height in 1u32..8,
        paper_sized in 0u32..2,
    ) {
        run_case(seed, kind, height, paper_sized == 1);
    }
}
