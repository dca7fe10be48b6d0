use crate::message::{fires, is_obstacle, opt_entry, payload, safe_period_s, OptAlarm};
use crate::{FiredEvent, Metrics};
use sa_alarms::{AlarmId, AlarmIndex, SpatialAlarm, SubscriberId};
use sa_geometry::{Grid, Point, Rect};
use std::collections::{HashMap, HashSet};

/// The server side of the distributed architecture, as seen by one
/// simulation shard: the alarm index, the grid overlay, per-subscriber
/// fired-alarm state, and the metric counters every operation charges.
///
/// All strategy implementations funnel their server interactions through
/// this type so the cost accounting is uniform: trigger checks charge
/// *alarm processing*, gathering/geometry work charges *safe region
/// computation* (the two bars of Figures 4(b) and 6(d)).
#[derive(Debug)]
pub struct ServerCtx<'a> {
    index: &'a AlarmIndex,
    grid: &'a Grid,
    /// Pessimistic maximum client speed (m/s) used by the safe-period
    /// baseline.
    v_max: f64,
    sample_period_s: f64,
    fired: HashMap<SubscriberId, HashSet<AlarmId>>,
    fired_events: Vec<FiredEvent>,
    /// Aggregate counters; strategies also update the client-side fields.
    pub metrics: Metrics,
}

impl<'a> ServerCtx<'a> {
    /// Creates the server context for one shard.
    pub fn new(index: &'a AlarmIndex, grid: &'a Grid, v_max: f64, sample_period_s: f64) -> ServerCtx<'a> {
        assert!(v_max > 0.0, "maximum speed must be positive");
        ServerCtx {
            index,
            grid,
            v_max,
            sample_period_s,
            fired: HashMap::new(),
            fired_events: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// The grid overlay.
    pub fn grid(&self) -> &Grid {
        self.grid
    }

    /// The location sampling period in seconds.
    pub fn sample_period_s(&self) -> f64 {
        self.sample_period_s
    }

    /// The observed firings of this shard.
    pub fn fired_events(&self) -> &[FiredEvent] {
        &self.fired_events
    }

    /// Consumes the context, yielding metrics and firings for merging.
    pub fn into_parts(self) -> (Metrics, Vec<FiredEvent>) {
        (self.metrics, self.fired_events)
    }

    /// True when `alarm` has already fired for `user`.
    pub fn already_fired(&self, user: SubscriberId, alarm: AlarmId) -> bool {
        self.fired.get(&user).is_some_and(|s| s.contains(&alarm))
    }

    /// Server-side trigger check for one location update: fires every
    /// alarm the trigger rule ([`fires`]) fires, and delivers each trigger
    /// downstream. Charged to *alarm processing*.
    pub fn check_triggers(&mut self, step: u32, user: SubscriberId, pos: Point) -> Vec<AlarmId> {
        let (candidates, stats) = self.index.relevant_at(user, pos);
        self.metrics.server.alarm_query_nodes += stats.nodes_visited as u64;
        self.metrics.server.alarm_query_entries += stats.entries_tested as u64;
        self.metrics.server.location_updates += 1;
        let mut fired_now = Vec::new();
        for alarm in candidates {
            if fires(alarm, user, pos, |id| self.fired.entry(user).or_default().insert(id)) {
                self.log_fire(step, user, alarm.id());
                self.send_downlink(payload::TRIGGER_DELIVERY_BITS);
                fired_now.push(alarm.id());
            }
        }
        fired_now
    }

    /// Records a firing detected outside the trigger check, and charges no
    /// downlink: an OPT client's notify is answered by a bare
    /// acknowledgement, and the moving-target coordinator charges its own
    /// delivery.
    pub fn record_fire(&mut self, step: u32, user: SubscriberId, alarm: AlarmId) {
        let first = self.fired.entry(user).or_default().insert(alarm);
        debug_assert!(first, "{alarm} fired twice for {user}");
        self.log_fire(step, user, alarm);
    }

    fn log_fire(&mut self, step: u32, user: SubscriberId, alarm: AlarmId) {
        self.fired_events.push(FiredEvent { subscriber: user, alarm, step });
        self.metrics.triggers += 1;
    }

    /// Gathers the obstacles ([`is_obstacle`]) intersecting `area`, in
    /// index order — the obstacle set of a safe-region computation.
    /// Charged to *safe region computation*.
    pub fn unfired_obstacles_in(
        &mut self,
        user: SubscriberId,
        area: Rect,
    ) -> Vec<&'a SpatialAlarm> {
        let index = self.index;
        let (mut alarms, stats) = index.relevant_intersecting_with_stats(user, area);
        self.metrics.server.region_query_nodes += stats.nodes_visited as u64;
        self.metrics.server.region_query_entries += stats.entries_tested as u64;
        alarms.retain(|a| is_obstacle(a, user, |id| self.already_fired(user, id)));
        alarms
    }

    /// Gathers the OPT push ([`opt_entry`]) of every alarm intersecting
    /// `area`. This is what makes OPT heavy on downstream bandwidth and
    /// client energy at high alarm densities.
    pub fn opt_push_in(&mut self, user: SubscriberId, area: Rect) -> Vec<OptAlarm> {
        let (alarms, stats) = self.index.all_intersecting_with_stats(area);
        self.metrics.server.region_query_nodes += stats.nodes_visited as u64;
        self.metrics.server.region_query_entries += stats.entries_tested as u64;
        alarms
            .into_iter()
            .filter_map(|a| opt_entry(a, user, |id| self.already_fired(user, id)))
            .collect()
    }

    /// Computes the safe-period baseline's silent window for a subscriber
    /// at `pos` (paper \[3\]): the time, under the pessimistic assumption of
    /// straight-line travel at `v_max`, before the subscriber could reach
    /// the nearest relevant unfired alarm region. Uses a filtered
    /// best-first nearest-neighbor search over public alarms plus the
    /// subscriber's personal alarm list. Returns the period in seconds
    /// (capped at crossing the whole universe when the subscriber has no
    /// relevant alarms at all).
    pub fn compute_safe_period(&mut self, user: SubscriberId, pos: Point) -> f64 {
        self.metrics.server.region_computations += 1;
        let fired = self.fired.get(&user);
        let (nearest, stats) = self.index.nearest_relevant_distance(user, pos, |id| {
            fired.is_none_or(|set| !set.contains(&id))
        });
        self.metrics.server.region_query_nodes += stats.nodes_visited as u64;
        self.metrics.server.region_query_entries += stats.entries_tested as u64;
        // The index traversal is charged above; the period computation
        // itself is one division.
        self.metrics.server.region_compute_ops += 1;
        safe_period_s(nearest, self.grid.universe(), self.v_max)
    }

    /// Sends a safe region (or alarm set) of `payload_bits` to the client.
    pub fn send_downlink(&mut self, payload_bits: usize) {
        self.metrics.downlink_messages += 1;
        self.metrics.downlink_bits += payload_bits as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_alarms::{AlarmScope, SpatialAlarm};

    fn setup() -> (AlarmIndex, Grid) {
        let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
        let mk = |id: u64, x: f64, y: f64, r: f64, scope: AlarmScope| {
            SpatialAlarm::around_static_target(AlarmId(id), Point::new(x, y), r, scope).unwrap()
        };
        let index = AlarmIndex::build(vec![
            mk(0, 500.0, 500.0, 100.0, AlarmScope::Public { owner: SubscriberId(0) }),
            mk(1, 600.0, 500.0, 50.0, AlarmScope::Private { owner: SubscriberId(1) }),
            mk(2, 9_000.0, 9_000.0, 200.0, AlarmScope::Public { owner: SubscriberId(0) }),
        ]);
        let grid = Grid::new(universe, 1_000.0).unwrap();
        (index, grid)
    }

    #[test]
    fn check_triggers_fires_once_per_pair() {
        let (index, grid) = setup();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        let user = SubscriberId(7);
        let inside = Point::new(500.0, 500.0);
        assert_eq!(server.check_triggers(0, user, inside), vec![AlarmId(0)]);
        assert_eq!(server.check_triggers(1, user, inside), vec![]);
        // A different subscriber fires independently.
        assert_eq!(server.check_triggers(2, SubscriberId(8), inside), vec![AlarmId(0)]);
        // Exactly on alarm 0's boundary (x = 600) nothing fires.
        assert!(server.check_triggers(3, SubscriberId(3), Point::new(600.0, 500.0)).is_empty());
        assert_eq!(server.metrics.triggers, 2);
        assert_eq!(server.fired_events().len(), 2);
        assert_eq!(server.metrics.downlink_messages, 2, "one delivery per firing");
    }

    #[test]
    fn obstacles_exclude_fired_alarms() {
        let (index, grid) = setup();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        let user = SubscriberId(1);
        let cell = Rect::new(0.0, 0.0, 1_000.0, 1_000.0).unwrap();
        assert_eq!(server.unfired_obstacles_in(user, cell).len(), 2);
        server.check_triggers(0, user, Point::new(500.0, 500.0));
        // Alarm 0 fired; only the private alarm 1 remains an obstacle.
        assert_eq!(server.unfired_obstacles_in(user, cell).len(), 1);
    }

    #[test]
    fn safe_period_is_pessimistic_distance_over_vmax() {
        let (index, grid) = setup();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        // User 0 at (2000, 500): nearest relevant alarm region edge is
        // alarm 0's x = 600 boundary, 1400 m away.
        let period = server.compute_safe_period(SubscriberId(0), Point::new(2_000.0, 500.0));
        assert!((period - 1_400.0 / 30.0).abs() < 1e-9, "period {period}");
    }

    #[test]
    fn safe_period_caps_when_no_relevant_alarms() {
        let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
        let index = AlarmIndex::build(vec![SpatialAlarm::around_static_target(
            AlarmId(0),
            Point::new(5_000.0, 5_000.0),
            100.0,
            AlarmScope::Private { owner: SubscriberId(0) },
        )
        .unwrap()]);
        let grid = Grid::new(universe, 1_000.0).unwrap();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        // User 5 has no relevant alarms at all.
        let period = server.compute_safe_period(SubscriberId(5), Point::new(100.0, 100.0));
        assert!(period >= 10_000.0 / 30.0);
    }

    #[test]
    fn downlink_accounting_accumulates() {
        let (index, grid) = setup();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        server.send_downlink(128);
        server.send_downlink(64);
        assert_eq!(server.metrics.downlink_messages, 2);
        assert_eq!(server.metrics.downlink_bits, 192);
    }
}
