//! The strategy rulebook: wire-size accounting for every message class
//! the strategies exchange, and every decision both sides of the wire
//! must take alike.
//!
//! The evaluation charges *uplink* traffic by message count (Figures 4(a),
//! 5(a), 6(a)) and *downlink* traffic by payload bits (Figure 6(b)), so the
//! constants here fix the units of those plots.
//!
//! Each strategy decision has one rule here, which the simulator's
//! strategies and `sa-server`'s `Server` and `Client` all call:
//!
//! | Decision | Rule |
//! |----------|------|
//! | which alarms fire on a report | [`fires`] |
//! | which alarms a safe region avoids | [`is_obstacle`] |
//! | what an OPT push carries | [`opt_entry`], [`OptAlarm`] |
//! | what an OPT client fires locally | [`Held::opt_check`] |
//! | when a client reports | [`Held::must_uplink`] |
//! | when a PBSR report gets a new bitmap | [`pbsr_refresh`] |
//! | region scope and computers | [`region_cell`], [`server_mwpsr`], [`pbsr_pyramid`] |
//! | what the server grants, how long SP stays silent | [`safe_period_s`], [`silent_steps`] |
//!
//! The rules are predicates and per-subscriber state, not index queries:
//! each side reads its index its own way and asks the rules about every
//! alarm it meets. `tests/sim_server_parity.rs` asserts that both sides
//! send the same messages.

use sa_alarms::{AlarmId, SpatialAlarm, SubscriberId};
use sa_core::{BitmapSafeRegion, FreeBlock, MwpsrComputer, PyramidConfig};
use sa_geometry::{CellId, Grid, Point, Rect};

/// Payload sizes in bits.
pub mod payload {
    /// Client → server location update: subscriber id (32) + position
    /// (2 × 32) + heading and speed packed (32).
    pub const LOCATION_UPDATE_BITS: usize = 128;

    /// Client → server alarm-trigger notification (OPT evaluates alarms
    /// client-side): subscriber id + alarm id.
    pub const TRIGGER_NOTIFY_BITS: usize = 64;

    /// Server → client trigger delivery: alarm id + flags.
    pub const TRIGGER_DELIVERY_BITS: usize = 64;

    /// Header on any server → client safe-region or alarm-set payload:
    /// message type + sequence (32) and grid-cell id (32).
    pub const REGION_HEADER_BITS: usize = 64;

    /// One alarm pushed to an OPT client: alarm id (32) + rectangle
    /// (4 × 32).
    pub const ALARM_PUSH_BITS: usize = 160;

    /// Server → client safe-period grant: period in ms (32).
    pub const SAFE_PERIOD_BITS: usize = 32;
}

/// The safe period, in seconds, of a subscriber `nearest_m` meters from
/// its nearest relevant unfired alarm region: the time a straight run at
/// `v_max` needs to get there, so no alarm can be reached sooner.
///
/// With no such alarm at all (`None`) the grant is still finite — twice
/// the universe's longer side at `v_max` — so the subscriber reports
/// again and learns of alarms installed since; any finite value is
/// sound, this one outlasts every crossing of the universe.
pub fn safe_period_s(nearest_m: Option<f64>, universe: Rect, v_max: f64) -> f64 {
    let horizon_m = 2.0 * universe.width().max(universe.height());
    nearest_m.unwrap_or(horizon_m) / v_max
}

/// Samples a client stays silent on a grant of `period_s` when it
/// samples every `dt` seconds: `floor(period / dt)`, at least one.
///
/// The rounding direction is the safety argument: the next report must
/// come no later than the period's end, and rounding *up* could let the
/// client slip inside an alarm region before it. The floor of one is
/// free — the next sample is the earliest a client can report anyway,
/// and every report is trigger-checked. Flooring the period to whole
/// milliseconds first, as the wire's grant does, cannot change the
/// result while `dt` is itself a whole number of milliseconds.
pub fn silent_steps(period_s: f64, dt: f64) -> u32 {
    // The quotient is not negative, so truncating it is its floor.
    ((period_s.max(0.0) / dt) as u32).max(1)
}

/// The trigger rule (§2.1): `alarm` fires for `user` at `pos` when its
/// region strictly contains `pos` (a boundary sample does not fire), it is
/// relevant to the user, and it has not fired for them before.
/// `first_firing` is the caller's fired-set insert, answering whether
/// `(user, alarm)` was new; it runs only when the two other tests pass.
pub fn fires(
    alarm: &SpatialAlarm,
    user: SubscriberId,
    pos: Point,
    first_firing: impl FnOnce(AlarmId) -> bool,
) -> bool {
    alarm.triggers_at(pos) && alarm.is_relevant_to(user) && first_firing(alarm.id())
}

/// The obstacle rule: a safe region for `user` must avoid `alarm` when the
/// alarm is relevant to the user and has not fired for them (`has_fired`
/// runs only for a relevant alarm). A fired alarm's region is safe ground.
pub fn is_obstacle(
    alarm: &SpatialAlarm,
    user: SubscriberId,
    has_fired: impl FnOnce(AlarmId) -> bool,
) -> bool {
    alarm.is_relevant_to(user) && !has_fired(alarm.id())
}

/// One alarm of an OPT push, as the client monitors it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptAlarm {
    /// The alarm.
    pub id: AlarmId,
    /// Its region.
    pub region: Rect,
    /// Whether it concerns the subscriber; an irrelevant one is tested
    /// like any other but never fires.
    pub relevant: bool,
}

/// The OPT push rule (§4 intro): the push for `user` carries every alarm
/// of the cell that has not fired for them, relevant or not — "the complete
/// knowledge of all alarms in its vicinity". `None` for a fired alarm.
pub fn opt_entry(
    alarm: &SpatialAlarm,
    user: SubscriberId,
    has_fired: impl FnOnce(AlarmId) -> bool,
) -> Option<OptAlarm> {
    (!has_fired(alarm.id())).then(|| OptAlarm {
        id: alarm.id(),
        region: alarm.region(),
        relevant: alarm.is_relevant_to(user),
    })
}

/// What a client holds from the server between two uplinks — the state
/// the uplink rule reads. A client that holds nothing yet reports its
/// first sample.
///
/// Laid out for the silent sample, which reads this and nothing else: 56
/// bytes, with the rectangle, the pyramid block or the OPT quiet box
/// inline and the bitmap and OPT set behind one pointer each.
#[derive(Debug, Clone)]
pub enum Held {
    /// MWPSR: the installed safe rectangle.
    Rect(Rect),
    /// PBSR: the installed bitmap ([`Held::bitmap`]).
    Bitmap {
        /// The bitmap.
        region: BitmapSafeRegion,
        /// The pyramid cell that granted the last sample it granted, so a
        /// sample inside it skips the descent ([`BitmapSafeRegion::grant`]).
        block: FreeBlock,
        /// The levels the descent to `block` examined.
        block_levels: u32,
    },
    /// OPT: the cell of the last push and its alarms not yet satisfied
    /// ([`Held::alarms`]).
    Alarms(PushedSet),
    /// SP: the first step at which the client must report again.
    SilentUntil(u32),
}

impl Held {
    /// A freshly installed bitmap.
    pub fn bitmap(region: BitmapSafeRegion) -> Held {
        Held::Bitmap { region, block: FreeBlock::NONE, block_levels: 0 }
    }

    /// A freshly pushed alarm set for `cell` of `grid`.
    pub fn alarms(grid: &Grid, cell: CellId, alarms: Vec<OptAlarm>) -> Held {
        Held::Alarms(PushedSet {
            quiet: QUIET_NONE,
            push: Box::new(Push { grid: grid.clone(), cell, alarms }),
        })
    }

    /// The uplink rule: whether the sample at `step`, at `pos`, must reach
    /// the server. MWPSR and PBSR clients report on leaving the installed
    /// region (a rectangle's edge is inside), OPT clients on entering
    /// another grid cell (as [`Grid::cell_of`] assigns it), SP clients when
    /// the period ends.
    #[inline]
    pub fn must_uplink(&mut self, step: u32, pos: Point) -> bool {
        self.probe(step, pos).0
    }

    /// Whether the state alone answers the sample at `step`, at `pos`:
    /// it is silent and OPT's local check would fire and change nothing
    /// — inside the rectangle, the remembered pyramid block or the OPT
    /// quiet box, or before the period ends. Four comparisons or fewer,
    /// reading nothing behind a pointer; `false` only means the full rule
    /// ([`Held::must_uplink`], then [`Held::opt_check`]) has to run.
    #[inline]
    pub fn answers_silently(&self, step: u32, pos: Point) -> bool {
        match self {
            Held::Rect(rect) => rect.contains_point(pos),
            Held::Bitmap { block, .. } => block.contains(pos),
            Held::Alarms(set) => set.quiet_contains(pos),
            Held::SilentUntil(until) => step < *until,
        }
    }

    /// [`Held::must_uplink`], with the primitive comparisons the device
    /// spends on a silent sample — the energy model's input: four for a
    /// rectangle, four plus one per pyramid level descended for a bitmap
    /// (the levels of the descent that grants the sample, whether or not
    /// a remembered block skipped it), four per pushed alarm for OPT's
    /// local check ([`Held::opt_check`]), none for SP.
    #[inline]
    pub fn probe(&mut self, step: u32, pos: Point) -> (bool, u64) {
        match self {
            Held::Rect(rect) => (!rect.contains_point(pos), 4),
            Held::Bitmap { region, block, block_levels } => {
                if block.contains(pos) {
                    return (false, 4 + u64::from(*block_levels));
                }
                let (inside, levels, granted) = region.grant(pos);
                *block = granted;
                *block_levels = levels as u32;
                (!inside, 4 + levels as u64)
            }
            Held::Alarms(set) => {
                let push = &set.push;
                let uplink = !set.quiet_contains(pos) && push.grid.cell_of(pos) != push.cell;
                (uplink, 4 * set.push.alarms.len() as u64)
            }
            Held::SilentUntil(until) => (step >= *until, 0),
        }
    }

    /// OPT's local check on a silent sample: every pushed alarm whose region
    /// strictly contains `pos` leaves the set, fired or not, and `fired` is
    /// called with each relevant one, in push order. Any other holding
    /// returns at once.
    #[inline]
    pub fn opt_check(&mut self, pos: Point, mut fired: impl FnMut(AlarmId)) {
        let Held::Alarms(set) = self else { return };
        if set.quiet_contains(pos) {
            return;
        }
        set.push.alarms.retain(|a| {
            let satisfied = a.region.contains_point_strict(pos);
            if satisfied && a.relevant {
                fired(a.id);
            }
            !satisfied
        });
        set.quiet = set.push.quiet_box(pos);
    }
}

/// OPT's held state ([`Held::alarms`]): the pushed cell and alarms, and
/// a quiet box.
///
/// The quiet box is a closed box inside the cell that meets no pushed
/// alarm's interior, cut around the last sample whose check scanned the
/// set. A sample inside it stays in the cell and strictly enters no
/// alarm, so its uplink test and its local check are both decided by
/// four comparisons; only a sample outside it pays for [`Grid::cell_of`]
/// and the scan. Alarms leaving the set only widen the space the box
/// must avoid, so it stays valid until the next push replaces the set.
#[derive(Debug, Clone)]
pub struct PushedSet {
    /// `[min_x, min_y, max_x, max_y]`, or [`QUIET_NONE`].
    quiet: [f64; 4],
    push: Box<Push>,
}

/// The pushed part of a [`PushedSet`].
#[derive(Debug, Clone)]
struct Push {
    grid: Grid,
    /// The cell the push was for.
    cell: CellId,
    /// The pushed alarms still in the working set.
    alarms: Vec<OptAlarm>,
}

/// Inward ulp steps a quiet box's corner may take to land in its cell.
const QUIET_NUDGES: usize = 4;

impl Push {
    /// A quiet box around `pos`: the cell's rect with each alarm that
    /// meets the box's interior cut away along the side of `pos` with the
    /// most room, then shrunk until its two corners are in the cell as
    /// [`Grid::cell_of`] assigns it (`cell_of` is monotone on each axis,
    /// so then the whole box is). `pos` lies strictly inside none of the
    /// alarms, so that side keeps it in the box unless `pos` is outside
    /// the cell; the box may then be empty.
    fn quiet_box(&self, pos: Point) -> [f64; 4] {
        let rect = self.grid.cell_rect(self.cell);
        let mut q = [rect.min_x(), rect.min_y(), rect.max_x(), rect.max_y()];
        for a in &self.alarms {
            let r = a.region;
            if !(r.min_x() < q[2] && q[0] < r.max_x() && r.min_y() < q[3] && q[1] < r.max_y()) {
                continue;
            }
            // Clear the alarm along the side of `pos` with the most room.
            let room = [pos.x - r.max_x(), pos.y - r.max_y(), r.min_x() - pos.x, r.min_y() - pos.y];
            let side = (0..4).fold(0, |best, k| if room[k] > room[best] { k } else { best });
            match side {
                0 => q[0] = r.max_x(),
                1 => q[1] = r.max_y(),
                2 => q[2] = r.min_x(),
                _ => q[3] = r.min_y(),
            }
        }
        let settle = |mut corner: Point, step: fn(f64) -> f64| {
            for _ in 0..QUIET_NUDGES {
                if self.grid.cell_of(corner) == self.cell {
                    return Some(corner);
                }
                corner = Point::new(step(corner.x), step(corner.y));
            }
            None
        };
        let lo = settle(Point::new(q[0], q[1]), f64::next_up);
        match (lo, settle(Point::new(q[2], q[3]), f64::next_down)) {
            (Some(lo), Some(hi)) => [lo.x, lo.y, hi.x, hi.y],
            _ => QUIET_NONE,
        }
    }
}

/// The quiet box that holds no point.
const QUIET_NONE: [f64; 4] = [f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY];

impl PushedSet {
    /// The working set, to reuse its allocation for the next push.
    pub fn into_alarms(self) -> Vec<OptAlarm> {
        self.push.alarms
    }

    #[inline]
    fn quiet_contains(&self, p: Point) -> bool {
        let q = &self.quiet;
        p.x >= q[0] && p.x <= q[2] && p.y >= q[1] && p.y <= q[3]
    }
}

/// The §4.2 quick update: a PBSR report from the base cell of the installed
/// bitmap (`prev_cell`) gets a new bitmap only when an alarm fired on it;
/// otherwise the client keeps the bitmap it holds.
pub fn pbsr_refresh(prev_cell: Option<CellId>, cell: CellId, fired: bool) -> bool {
    prev_cell != Some(cell) || fired
}

/// Region scoping: a safe region, or an OPT push, covers the grid cell of
/// the reporting sample. Returns that cell and its rectangle.
pub fn region_cell(grid: &Grid, pos: Point) -> (CellId, Rect) {
    let cell = grid.cell_of(pos);
    (cell, grid.cell_rect(cell))
}

/// The MWPSR computer the live server runs: the non-weighted maximum
/// perimeter rectangle, Figure 4(a)'s improved baseline (the simulator's
/// `StrategyKind::MwpsrNonWeighted`).
pub fn server_mwpsr() -> MwpsrComputer {
    MwpsrComputer::non_weighted()
}

/// The pyramid of PBSR at height `height`: a 3 × 3 split per level (§4;
/// `height` 1 is GBSR's 3 × 3 grid).
pub fn pbsr_pyramid(height: u32) -> PyramidConfig {
    PyramidConfig::three_by_three(height)
}

#[cfg(test)]
mod tests {
    use super::payload::*;
    use super::*;
    use sa_alarms::AlarmScope;
    use std::collections::HashSet;

    /// An alarm over [0, 10]².
    fn alarm(id: u64, scope: AlarmScope) -> SpatialAlarm {
        SpatialAlarm::around_static_target(AlarmId(id), Point::new(5.0, 5.0), 5.0, scope).unwrap()
    }

    /// A fired-set lookup that must not run.
    fn unread(_: AlarmId) -> bool {
        panic!("the fired set was consulted")
    }

    #[test]
    fn the_trigger_rule_fires_strictly_inside_once_per_subscriber() {
        let public = alarm(0, AlarmScope::Public { owner: SubscriberId(0) });
        let private = alarm(1, AlarmScope::Private { owner: SubscriberId(1) });
        let (user, other) = (SubscriberId(7), SubscriberId(8));
        let inside = Point::new(5.0, 5.0);
        let mut fired = HashSet::new();
        assert!(fires(&public, user, inside, |id| fired.insert((user, id))));
        assert!(!fires(&public, user, inside, |id| fired.insert((user, id))), "once per pair");
        assert!(fires(&public, other, inside, |id| fired.insert((other, id))), "per subscriber");
        // A boundary sample and an irrelevant alarm fire nothing, and
        // neither reaches the fired set.
        assert!(!fires(&public, SubscriberId(9), Point::new(10.0, 5.0), unread));
        assert!(!fires(&private, user, inside, unread));
        assert!(fires(&private, SubscriberId(1), inside, |_| true));
    }

    #[test]
    fn obstacles_are_the_relevant_unfired_alarms_and_opt_pushes_every_unfired_one() {
        let public = alarm(0, AlarmScope::Public { owner: SubscriberId(0) });
        let private = alarm(1, AlarmScope::Private { owner: SubscriberId(1) });
        let user = SubscriberId(7);
        assert!(is_obstacle(&public, user, |_| false));
        // A fired public alarm drops out of the obstacle set.
        assert!(!is_obstacle(&public, user, |_| true));
        assert!(is_obstacle(&private, SubscriberId(1), |_| false));
        assert!(!is_obstacle(&private, user, unread));
        // OPT pushes another user's alarm too, flagged irrelevant, and no
        // fired one.
        assert_eq!(opt_entry(&private, user, |_| false).map(|a| a.relevant), Some(false));
        assert_eq!(opt_entry(&public, user, |_| false).map(|a| a.relevant), Some(true));
        assert_eq!(opt_entry(&public, user, |_| true), None);
    }

    #[test]
    fn clients_report_when_they_leave_what_they_hold() {
        let grid = Grid::new(Rect::new(0.0, 0.0, 40.0, 20.0).unwrap(), 20.0).unwrap();
        let (cell, next) = (CellId { col: 0, row: 0 }, CellId { col: 1, row: 0 });
        let square = Rect::new(0.0, 0.0, 10.0, 10.0).unwrap();
        let mut rect = Held::Rect(square);
        assert!(!rect.must_uplink(0, Point::new(10.0, 10.0)), "a rectangle's edge is inside");
        assert!(rect.must_uplink(0, Point::new(10.5, 10.0)));
        let mut sp = Held::SilentUntil(5);
        assert!(!sp.must_uplink(4, Point::new(50.0, 0.0)));
        assert!(sp.must_uplink(5, Point::new(0.0, 0.0)));

        let alarms = vec![
            OptAlarm { id: AlarmId(0), region: square, relevant: true },
            OptAlarm { id: AlarmId(1), region: square, relevant: false },
        ];
        let mut opt = Held::alarms(&grid, cell, alarms);
        let edge = Point::new(10.0, 5.0);
        assert_eq!(opt.probe(0, edge), (false, 8));
        // The cell is half-open: its right edge is the next cell's.
        assert_eq!(grid.cell_of(Point::new(20.0, 5.0)), next);
        assert!(opt.must_uplink(0, Point::new(20.0, 5.0)), "another cell");
        // OPT's containment is strict: on the edge nothing fires and both
        // alarms stay; inside, the relevant one fires and both leave.
        let mut fired = Vec::new();
        opt.opt_check(edge, |id| fired.push(id));
        assert!(fired.is_empty());
        opt.opt_check(Point::new(5.0, 5.0), |id| fired.push(id));
        assert_eq!(fired, vec![AlarmId(0)]);
        assert_eq!(opt.probe(0, edge), (false, 0));
        rect.opt_check(edge, |_| panic!("only OPT fires locally"));
    }

    #[test]
    fn a_remembered_block_answers_like_the_descent() {
        let cell = Rect::new(0.0, 0.0, 9.0, 9.0).unwrap();
        let blocked = Rect::new(6.0, 6.0, 9.0, 9.0).unwrap();
        let region = sa_core::PyramidComputer::new(pbsr_pyramid(2)).compute(cell, &[blocked]);
        let mut held = Held::bitmap(region.clone());
        for p in [(1.0, 1.0), (2.0, 2.0), (7.0, 7.0), (2.9, 0.5), (3.0, 0.5), (9.0, 0.0)] {
            let p = Point::new(p.0, p.1);
            let (inside, levels) = region.contains_with_cost(p);
            assert_eq!(held.probe(0, p), (!inside, 4 + levels as u64), "at {p}");
        }
    }

    #[test]
    fn the_silent_state_leaves_room_in_a_cache_line() {
        assert!(std::mem::size_of::<Option<Held>>() <= 56);
    }

    #[test]
    fn pbsr_refreshes_on_a_new_cell_or_a_firing() {
        let (cell, other) = (CellId { col: 0, row: 0 }, CellId { col: 1, row: 0 });
        for (prev, fired, refresh) in [
            (None, false, true),         // first contact
            (Some(other), false, true),  // base-cell exit
            (Some(cell), false, false),  // blocked sub-cell: the bitmap stands
            (Some(cell), true, true),    // same cell, an alarm fired: quick update
        ] {
            assert_eq!(pbsr_refresh(prev, cell, fired), refresh, "{prev:?}, fired {fired}");
        }
    }

    #[test]
    fn uplink_messages_are_small() {
        // Uplink messages must be payload-light; the evaluation counts them
        // rather than weighing them.
        const { assert!(LOCATION_UPDATE_BITS <= 256) };
        const { assert!(TRIGGER_NOTIFY_BITS <= LOCATION_UPDATE_BITS) };
    }

    #[test]
    fn downlink_sizes_reflect_content() {
        // An OPT alarm push carries a full rectangle and dwarfs a
        // safe-period grant.
        const { assert!(ALARM_PUSH_BITS > SAFE_PERIOD_BITS) };
        assert_eq!(ALARM_PUSH_BITS, 32 + 4 * 32);
    }
}
