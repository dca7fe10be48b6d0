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
use sa_core::{BitmapSafeRegion, MwpsrComputer, PyramidConfig};
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
    ((period_s.max(0.0) / dt).floor() as u32).max(1)
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
#[derive(Debug, Clone)]
pub enum Held {
    /// MWPSR: the installed safe rectangle.
    Rect(Rect),
    /// PBSR: the installed bitmap.
    Bitmap(BitmapSafeRegion),
    /// OPT: the cell of the last push and its alarms not yet satisfied.
    Alarms {
        /// The cell the push was for.
        cell: CellId,
        /// The pushed alarms still in the working set.
        alarms: Vec<OptAlarm>,
    },
    /// SP: the first step at which the client must report again.
    SilentUntil(u32),
}

impl Held {
    /// The uplink rule: whether the sample at `step`, at `pos` in grid cell
    /// `cell`, must reach the server. MWPSR and PBSR clients report on
    /// leaving the installed region (a rectangle's edge is inside), OPT
    /// clients on entering another cell, SP clients when the period ends.
    pub fn must_uplink(&self, step: u32, pos: Point, cell: CellId) -> bool {
        self.probe(step, pos, cell).0
    }

    /// [`Held::must_uplink`], with the primitive comparisons the device
    /// spends on a silent sample — the energy model's input: four for a
    /// rectangle, four plus one per pyramid level descended for a bitmap,
    /// four per pushed alarm for OPT's local check ([`Held::opt_check`]),
    /// none for SP.
    pub fn probe(&self, step: u32, pos: Point, cell: CellId) -> (bool, u64) {
        match self {
            Held::Rect(rect) => (!rect.contains_point(pos), 4),
            Held::Bitmap(region) => {
                let (inside, levels) = region.contains_with_cost(pos);
                (!inside, 4 + levels as u64)
            }
            Held::Alarms { cell: pushed, alarms } => (*pushed != cell, 4 * alarms.len() as u64),
            Held::SilentUntil(until) => (step >= *until, 0),
        }
    }

    /// OPT's local check on a silent sample: every pushed alarm whose region
    /// strictly contains `pos` leaves the set, fired or not, and the
    /// relevant ones are returned for the client to notify.
    pub fn opt_check(&mut self, pos: Point) -> Vec<AlarmId> {
        let mut fired = Vec::new();
        if let Held::Alarms { alarms, .. } = self {
            alarms.retain(|a| {
                let satisfied = a.region.contains_point_strict(pos);
                if satisfied && a.relevant {
                    fired.push(a.id);
                }
                !satisfied
            });
        }
        fired
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
        let (cell, next) = (CellId { col: 0, row: 0 }, CellId { col: 1, row: 0 });
        let square = Rect::new(0.0, 0.0, 10.0, 10.0).unwrap();
        let rect = Held::Rect(square);
        assert!(!rect.must_uplink(0, Point::new(10.0, 10.0), cell), "a rectangle's edge is inside");
        assert!(rect.must_uplink(0, Point::new(10.5, 10.0), cell));
        let sp = Held::SilentUntil(5);
        assert!(!sp.must_uplink(4, Point::new(50.0, 0.0), next));
        assert!(sp.must_uplink(5, Point::new(0.0, 0.0), cell));

        let alarms = vec![
            OptAlarm { id: AlarmId(0), region: square, relevant: true },
            OptAlarm { id: AlarmId(1), region: square, relevant: false },
        ];
        let mut opt = Held::Alarms { cell, alarms };
        let edge = Point::new(10.0, 5.0);
        assert_eq!(opt.probe(0, edge, cell), (false, 8));
        assert!(opt.must_uplink(0, edge, next), "another cell");
        // OPT's containment is strict: on the edge nothing fires and both
        // alarms stay; inside, the relevant one fires and both leave.
        assert!(opt.opt_check(edge).is_empty());
        assert_eq!(opt.opt_check(Point::new(5.0, 5.0)), vec![AlarmId(0)]);
        assert_eq!(opt.probe(0, edge, cell), (false, 0));
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
