use crate::message::{payload, silent_steps, Held};
use crate::strategy::Strategy;
use crate::ServerCtx;
use sa_alarms::SubscriberId;
use sa_roadnet::TraceSample;
use std::collections::HashMap;

/// SP — safe-period processing (Bamba et al., HiPC'08 \[3\]): on each
/// contact, the server computes how long the client could not possibly
/// reach any relevant unfired alarm region under pessimistic motion
/// assumptions (straight-line travel at the system-wide maximum speed),
/// and the client stays silent for that long.
///
/// The pessimism is what the paper's §5 blames for SP's 2–3× higher message
/// volume compared to safe regions: real clients rarely drive straight at
/// `v_max` toward the nearest alarm, so the granted periods are short.
#[derive(Debug, Default)]
pub struct SafePeriodStrategy {
    /// Per subscriber: the step before which the client stays silent.
    silent_until: HashMap<SubscriberId, Held>,
}

impl Strategy for SafePeriodStrategy {
    fn on_sample(&mut self, step: u32, sample: &TraceSample, server: &mut ServerCtx<'_>) {
        server.metrics.samples += 1;
        let user = SubscriberId(sample.vehicle.0);
        let cell = server.grid().cell_of(sample.pos);
        let held = self.silent_until.get(&user);
        if held.is_some_and(|held| !held.must_uplink(step, sample.pos, cell)) {
            return;
        }
        // Safe period expired: report, let the server evaluate and grant a
        // new period.
        server.metrics.uplink_messages += 1;
        server.check_triggers(step, user, sample.pos);
        let period_s = server.compute_safe_period(user, sample.pos);
        let silent = silent_steps(period_s, server.sample_period_s());
        self.silent_until.insert(user, Held::SilentUntil(step + silent));
        server.send_downlink(payload::SAFE_PERIOD_BITS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_alarms::{AlarmId, AlarmIndex, AlarmScope, SpatialAlarm};
    use sa_geometry::{Grid, Point, Rect};
    use sa_roadnet::VehicleId;

    fn world() -> (AlarmIndex, Grid) {
        let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
        let index = AlarmIndex::build(vec![SpatialAlarm::around_static_target(
            AlarmId(0),
            Point::new(9_000.0, 9_000.0),
            100.0,
            AlarmScope::Public { owner: SubscriberId(0) },
        )
        .unwrap()]);
        let grid = Grid::new(universe, 1_000.0).unwrap();
        (index, grid)
    }

    fn sample_at(step: u32, x: f64, y: f64) -> TraceSample {
        TraceSample {
            time: step as f64,
            vehicle: VehicleId(0),
            pos: Point::new(x, y),
            heading: 0.0,
            speed: 10.0,
        }
    }

    #[test]
    fn far_client_is_granted_long_silence() {
        let (index, grid) = world();
        // Far from the only alarm, and — second input — in a world with
        // no alarm at all, where the grant is the fallback horizon
        // (2 × 10 km at 30 m/s = 666 whole samples): one report, then
        // silence for the whole run.
        let empty = AlarmIndex::build(Vec::new());
        for index in [&index, &empty] {
            let mut server = ServerCtx::new(index, &grid, 30.0, 1.0);
            let mut strategy = SafePeriodStrategy::default();
            for step in 0..200u32 {
                strategy.on_sample(step, &sample_at(step, 100.0, 100.0), &mut server);
            }
            assert_eq!(server.metrics.uplink_messages, 1, "one report suffices");
            assert_eq!(server.metrics.samples, 200);
        }
        let horizon_s = crate::safe_period_s(None, grid.universe(), 30.0);
        assert_eq!(silent_steps(horizon_s, 1.0), 666);
    }

    #[test]
    fn client_near_alarm_reports_frequently() {
        let (index, grid) = world();
        // Parked `gap_m` from the region's edge (x = 8900) at v_max 30,
        // dt 1 s: silent for floor(period / dt) samples, at least one.
        for (gap_m, silent) in [
            (150.0, 5), // period == 5·dt exactly: 5, not 6
            (149.0, 4), // a hair under: rounds down
            (100.0, 3), // 3.33 s
            (20.0, 1),  // period < dt: the next sample, never zero
        ] {
            let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
            let mut strategy = SafePeriodStrategy::default();
            for step in 0..50u32 {
                strategy.on_sample(step, &sample_at(step, 8_900.0 - gap_m, 9_000.0), &mut server);
            }
            assert_eq!(
                server.metrics.uplink_messages,
                50u64.div_ceil(silent),
                "{gap_m} m: a report every {silent} samples"
            );
            // The live client sees the grant floored to milliseconds
            // and must fall silent for exactly as long.
            let period_s = gap_m / 30.0;
            let wire_s = (period_s * 1_000.0).floor() / 1_000.0;
            assert_eq!(silent_steps(wire_s, 1.0) as u64, silent);
            assert_eq!(silent_steps(period_s, 1.0) as u64, silent);
        }
    }

    #[test]
    fn entering_the_region_fires_exactly_once() {
        let (index, grid) = world();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        let mut strategy = SafePeriodStrategy::default();
        // Drive straight into the alarm region at 25 m/s (within v_max).
        for step in 0..120u32 {
            let x = 6_500.0 + step as f64 * 25.0;
            strategy.on_sample(step, &sample_at(step, x, 9_000.0), &mut server);
        }
        assert_eq!(server.metrics.triggers, 1);
        // The firing step matches first strict entry: x > 8900 → step 97.
        assert_eq!(server.fired_events()[0].step, 97);
    }
}
