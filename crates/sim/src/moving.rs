//! Moving-target alarms — classes (2) and (3) of the paper's taxonomy
//! (§1): the alarm region is anchored on another *moving* subscriber, so
//! processing "requires continuous position updates from other mobile
//! clients, which is typically obtained through server-based
//! coordination".
//!
//! The paper's evaluation sticks to static targets; this module implements
//! the coordination the taxonomy calls for, as a sound add-on to any
//! static-alarm strategy:
//!
//! - the server keeps a (possibly stale) last-known fix per target and
//!   bounds the target's drift by `v_max · staleness` — the *envelope* of
//!   the true alarm region,
//! - a subscriber's silent window for moving alarms is
//!   `distance-to-envelope / (2·v_max)` (both parties close the gap at at
//!   most `v_max`), mirroring the safe-period pessimism,
//! - when a reporting subscriber is inside an envelope, the server *polls*
//!   the target (one downlink request, one uplink response) and evaluates
//!   the trigger against the target's true position.
//!
//! The same inductive argument as the safe-period baseline guarantees the
//! alarm fires at exactly the ground-truth sample.

use crate::message::{payload, silent_steps};
use crate::ServerCtx;
use sa_alarms::{AlarmId, AlarmTarget, SpatialAlarm, SubscriberId};
use sa_geometry::{Point, Rect};
use sa_roadnet::{Fleet, FleetConfig, RoadNetwork, VehicleId};
use std::collections::HashMap;

/// The immutable description of the moving alarms of a run: alarm
/// metadata plus the (deterministic) trajectories of their target
/// vehicles, precomputed once and shared read-only across shards.
#[derive(Debug, Clone)]
pub struct MovingAlarmTable {
    alarms: Vec<SpatialAlarm>,
    /// Per target vehicle id: position at every step (index 0 = after the
    /// first step).
    trajectories: HashMap<u32, Vec<Point>>,
    sample_period_s: f64,
}

impl MovingAlarmTable {
    /// Builds the table by replaying the target vehicles' trajectories
    /// (vehicle motion is seeded per id, so replaying a subset reproduces
    /// the full-fleet motion exactly).
    ///
    /// # Panics
    ///
    /// Panics when an alarm's target is not a moving subscriber within the
    /// fleet.
    pub fn build(
        network: &RoadNetwork,
        fleet_config: &FleetConfig,
        steps: u32,
        sample_period_s: f64,
        alarms: Vec<SpatialAlarm>,
    ) -> MovingAlarmTable {
        let mut targets: Vec<u32> = alarms
            .iter()
            .map(|a| match a.target() {
                AlarmTarget::Moving(s) => {
                    assert!(
                        (s.0 as usize) < fleet_config.vehicles,
                        "moving target {s} outside the fleet"
                    );
                    s.0
                }
                AlarmTarget::Static(_) => panic!("static alarm in moving table"),
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();

        let mut trajectories: HashMap<u32, Vec<Point>> = HashMap::new();
        for &t in &targets {
            let mut fleet = Fleet::with_id_range(network, fleet_config, t..t + 1);
            let mut positions = Vec::with_capacity(steps as usize);
            let mut samples = Vec::new();
            for _ in 0..steps {
                fleet.step_into(sample_period_s, &mut samples);
                positions.push(samples[0].pos);
            }
            trajectories.insert(t, positions);
        }
        MovingAlarmTable { alarms, trajectories, sample_period_s }
    }

    /// The moving alarms.
    pub fn alarms(&self) -> &[SpatialAlarm] {
        &self.alarms
    }

    /// True when no moving alarms are installed.
    pub fn is_empty(&self) -> bool {
        self.alarms.is_empty()
    }

    /// The target vehicle of alarm `idx`.
    pub fn target_of(&self, idx: usize) -> VehicleId {
        match self.alarms[idx].target() {
            AlarmTarget::Moving(s) => VehicleId(s.0),
            AlarmTarget::Static(_) => unreachable!("moving table holds moving targets only"),
        }
    }

    /// The target's true position at `step`.
    pub fn target_position(&self, idx: usize, step: u32) -> Point {
        let target = self.target_of(idx);
        self.trajectories[&target.0][step as usize]
    }

    /// The alarm's true region at `step` (its configured extent re-anchored
    /// on the target's position).
    pub fn region_at(&self, idx: usize, step: u32) -> Rect {
        self.alarms[idx]
            .with_target_position(self.target_position(idx, step))
            .region()
    }

    /// Ground-truth check: all unfired-relevant moving alarms triggering
    /// for `user` at `pos` in `step`. Alarms never trigger for their own
    /// target.
    pub fn triggering(&self, user: SubscriberId, pos: Point, step: u32) -> Vec<AlarmId> {
        let mut fired = Vec::new();
        for (idx, alarm) in self.alarms.iter().enumerate() {
            if !alarm.is_relevant_to(user) || self.target_of(idx).0 == user.0 {
                continue;
            }
            if self.region_at(idx, step).contains_point_strict(pos) {
                fired.push(alarm.id());
            }
        }
        fired
    }

    /// The sampling period trajectories were recorded at.
    pub fn sample_period_s(&self) -> f64 {
        self.sample_period_s
    }
}

/// The server-side coordinator for moving-target alarms of one shard.
#[derive(Debug)]
pub struct MovingCoordinator<'a> {
    table: &'a MovingAlarmTable,
    v_max: f64,
    /// Last fix the server holds per target vehicle: (step, position).
    last_known: HashMap<u32, (u32, Point)>,
}

impl<'a> MovingCoordinator<'a> {
    /// Creates the coordinator.
    pub fn new(table: &'a MovingAlarmTable, v_max: f64) -> MovingCoordinator<'a> {
        assert!(v_max > 0.0, "maximum speed must be positive");
        MovingCoordinator { table, v_max, last_known: HashMap::new() }
    }

    /// Services one subscriber report: evaluates every relevant unfired
    /// moving alarm (polling targets whose envelopes the subscriber has
    /// entered), fires exact triggers, and returns the number of steps the
    /// subscriber may stay silent with respect to moving alarms.
    pub fn service(
        &mut self,
        step: u32,
        user: SubscriberId,
        pos: Point,
        server: &mut ServerCtx<'_>,
    ) -> u32 {
        let dt = self.table.sample_period_s();
        let mut min_steps = u32::MAX;
        for (idx, alarm) in self.table.alarms().iter().enumerate() {
            if !alarm.is_relevant_to(user)
                || self.table.target_of(idx).0 == user.0
                || server.already_fired(user, alarm.id())
            {
                continue;
            }
            server.metrics.server.region_compute_ops += 1;
            let target = self.table.target_of(idx);
            let (fix_step, fix_pos) = match self.last_known.get(&target.0).copied() {
                Some(fix) => fix,
                None => {
                    // First contact with this target: poll it (one downlink
                    // request, one uplink response).
                    let p = self.table.target_position(idx, step);
                    self.last_known.insert(target.0, (step, p));
                    server.metrics.downlink_messages += 1;
                    server.metrics.downlink_bits += payload::TRIGGER_DELIVERY_BITS as u64;
                    server.metrics.uplink_messages += 1;
                    (step, p)
                }
            };
            let staleness_s = (step - fix_step) as f64 * dt;
            let envelope = alarm
                .with_target_position(fix_pos)
                .region()
                .inflated(self.v_max * staleness_s)
                .expect("positive inflation");
            let dist = if envelope.contains_point(pos) {
                // Inside the uncertainty envelope: poll the target for its
                // true position (downlink request + uplink response) and
                // evaluate exactly.
                let true_pos = self.table.target_position(idx, step);
                self.last_known.insert(target.0, (step, true_pos));
                server.metrics.downlink_messages += 1;
                server.metrics.downlink_bits += payload::TRIGGER_DELIVERY_BITS as u64;
                server.metrics.uplink_messages += 1;
                let true_region = self.table.region_at(idx, step);
                if true_region.contains_point_strict(pos) {
                    server.record_fire(step, user, alarm.id());
                    server.send_downlink(payload::TRIGGER_DELIVERY_BITS);
                    continue;
                }
                true_region.distance_to_point(pos)
            } else {
                envelope.distance_to_point(pos)
            };
            // Both subscriber and target close the gap at at most v_max.
            min_steps = min_steps.min(silent_steps(dist / (2.0 * self.v_max), dt));
        }
        if min_steps == u32::MAX {
            // No relevant moving alarms: effectively unbounded.
            u32::MAX
        } else {
            min_steps
        }
    }
}

/// Wraps any static-alarm strategy with moving-target coordination: the
/// subscriber additionally reports whenever its moving-alarm silent window
/// expires, independent of the inner strategy's own safe-region logic.
pub struct MovingAwareStrategy<'a> {
    inner: Box<dyn crate::strategy::Strategy>,
    coordinator: MovingCoordinator<'a>,
    deadlines: HashMap<SubscriberId, u32>,
}

impl<'a> MovingAwareStrategy<'a> {
    /// Wraps `inner` with coordination against `table`.
    pub fn new(
        inner: Box<dyn crate::strategy::Strategy>,
        table: &'a MovingAlarmTable,
        v_max: f64,
    ) -> MovingAwareStrategy<'a> {
        MovingAwareStrategy {
            inner,
            coordinator: MovingCoordinator::new(table, v_max),
            deadlines: HashMap::new(),
        }
    }
}

impl crate::strategy::Strategy for MovingAwareStrategy<'_> {
    fn on_sample(
        &mut self,
        step: u32,
        sample: &sa_roadnet::TraceSample,
        server: &mut ServerCtx<'_>,
    ) {
        let user = SubscriberId(sample.vehicle.0);
        let due = self.deadlines.get(&user).is_none_or(|&d| step >= d);
        if due {
            // Moving-alarm report: one uplink, then a fresh grant.
            server.metrics.uplink_messages += 1;
            let grant = self.coordinator.service(step, user, sample.pos, server);
            self.deadlines.insert(user, step.saturating_add(grant));
        }
        self.inner.on_sample(step, sample, server);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_alarms::AlarmScope;
    use sa_roadnet::{generate_network, NetworkConfig};

    fn table_with(network: &RoadNetwork, cfg: &FleetConfig, steps: u32) -> MovingAlarmTable {
        let alarm = SpatialAlarm::new(
            AlarmId(100),
            Rect::new(0.0, 0.0, 400.0, 400.0).unwrap(),
            AlarmTarget::Moving(SubscriberId(0)),
            AlarmScope::Public { owner: SubscriberId(0) },
        );
        MovingAlarmTable::build(network, cfg, steps, 1.0, vec![alarm])
    }

    #[test]
    fn trajectories_match_the_full_fleet() {
        let network = generate_network(&NetworkConfig::small_test());
        let cfg = FleetConfig { vehicles: 4, seed: 3, ..FleetConfig::default() };
        let table = table_with(&network, &cfg, 50);
        // Replay the full fleet and compare vehicle 0's positions.
        let mut fleet = Fleet::new(&network, &cfg);
        for step in 0..50u32 {
            let samples = fleet.step(1.0);
            assert_eq!(table.target_position(0, step), samples[0].pos, "step {step}");
        }
    }

    #[test]
    fn region_follows_the_target() {
        let network = generate_network(&NetworkConfig::small_test());
        let cfg = FleetConfig { vehicles: 2, seed: 9, ..FleetConfig::default() };
        let table = table_with(&network, &cfg, 100);
        for step in [0u32, 30, 99] {
            let region = table.region_at(0, step);
            // Re-anchoring computes `center ± half_extent` and `center()`
            // recomputes `(min + max) / 2`; that round-trip is correct only
            // to rounding, so compare with an ulp-scale tolerance instead of
            // exact equality.
            let target = table.target_position(0, step);
            assert!(
                region.center().distance(target) < 1.0e-9,
                "step {step}: center {:?} drifted from target {target:?}",
                region.center()
            );
            assert!((region.width() - 400.0).abs() < 1.0e-9);
        }
    }

    #[test]
    fn alarm_never_triggers_for_its_own_target() {
        let network = generate_network(&NetworkConfig::small_test());
        let cfg = FleetConfig { vehicles: 2, seed: 9, ..FleetConfig::default() };
        let table = table_with(&network, &cfg, 10);
        // Vehicle 0 is always at its own region's center.
        let pos = table.target_position(0, 5);
        assert!(table.triggering(SubscriberId(0), pos, 5).is_empty());
        // Another subscriber at the same spot triggers.
        assert_eq!(table.triggering(SubscriberId(1), pos, 5).len(), 1);
    }

    #[test]
    fn coordinator_grants_long_silence_when_far() {
        let network = generate_network(&NetworkConfig::default());
        let cfg = FleetConfig { vehicles: 2, seed: 5, ..FleetConfig::default() };
        let table = table_with(&network, &cfg, 10);
        let universe = network.bounding_box();
        let index = sa_alarms::AlarmIndex::build(vec![]);
        let grid = sa_geometry::Grid::new(universe, 2_000.0).unwrap();
        let mut server = ServerCtx::new(&index, &grid, 35.0, 1.0);
        let mut coord = MovingCoordinator::new(&table, 35.0);
        // A subscriber far from the target gets a long window.
        let target = table.target_position(0, 0);
        let far = Point::new(
            if target.x > universe.center().x { universe.min_x() } else { universe.max_x() },
            if target.y > universe.center().y { universe.min_y() } else { universe.max_y() },
        );
        let steps = coord.service(0, SubscriberId(1), far, &mut server);
        assert!(steps > 50, "granted only {steps} steps");
        assert_eq!(server.metrics.triggers, 0);
    }

    #[test]
    fn coordinator_polls_and_fires_inside_the_envelope() {
        let network = generate_network(&NetworkConfig::small_test());
        let cfg = FleetConfig { vehicles: 2, seed: 5, ..FleetConfig::default() };
        let table = table_with(&network, &cfg, 10);
        let index = sa_alarms::AlarmIndex::build(vec![]);
        let grid = sa_geometry::Grid::new(network.bounding_box(), 1_000.0).unwrap();
        let mut server = ServerCtx::new(&index, &grid, 35.0, 1.0);
        let mut coord = MovingCoordinator::new(&table, 35.0);
        // Place the subscriber exactly at the target: strictly inside.
        let pos = table.target_position(0, 3);
        coord.service(3, SubscriberId(1), pos, &mut server);
        assert_eq!(server.metrics.triggers, 1);
        assert_eq!(server.fired_events()[0].alarm, AlarmId(100));
        assert_eq!(server.fired_events()[0].step, 3);
        // The poll was paid for.
        assert!(server.metrics.uplink_messages >= 1);
        assert!(server.metrics.downlink_messages >= 1);
    }
}
