use crate::message::{payload, region_cell, Held};
use crate::strategy::Strategy;
use crate::ServerCtx;
use sa_alarms::SubscriberId;
use sa_roadnet::TraceSample;
use std::collections::HashMap;

/// OPT — the optimal baseline described at the start of §4: the server
/// pushes the grid cell and every alarm overlapping it, giving the client
/// "the complete knowledge of all alarms in its vicinity".
///
/// The client evaluates every pushed alarm on every GPS fix (expensive —
/// Figure 6(c)) and contacts the server only to notify a trigger or to
/// fetch the alarm set of a newly entered cell, so it transmits the fewest
/// messages (Figure 6(a)) at the price of the largest downlink payloads
/// (Figure 6(b)) and heavy load on weak clients in alarm-dense areas.
/// Irrelevant alarms (other users' private alarms) are spatially tested
/// like any other but never fire for this subscriber.
#[derive(Debug, Default)]
pub struct OptimalStrategy {
    /// Per subscriber: the cell and the alarms of the last push.
    sets: HashMap<SubscriberId, Held>,
}

impl Strategy for OptimalStrategy {
    fn on_sample(&mut self, step: u32, sample: &TraceSample, server: &mut ServerCtx<'_>) {
        server.metrics.samples += 1;
        let user = SubscriberId(sample.vehicle.0);
        let (cell, cell_rect) = region_cell(server.grid(), sample.pos);

        if let Some(held) = self.sets.get_mut(&user) {
            let (uplink, ops) = held.probe(step, sample.pos, cell);
            if !uplink {
                // Client-side evaluation of the full pushed alarm set; each
                // firing is notified to the server.
                server.metrics.client_checks += 1;
                server.metrics.client_check_ops += ops;
                for id in held.opt_check(sample.pos) {
                    server.metrics.uplink_messages += 1;
                    server.record_fire(step, user, id);
                }
                return;
            }
        }

        // Cell transition (or first contact): the server evaluates this
        // sample and pushes the new cell's unfired alarms.
        server.metrics.uplink_messages += 1;
        server.check_triggers(step, user, sample.pos);
        let alarms = server.opt_push_in(user, cell_rect);
        server.metrics.server.region_computations += 1;
        server.send_downlink(payload::REGION_HEADER_BITS + alarms.len() * payload::ALARM_PUSH_BITS);
        self.sets.insert(user, Held::Alarms { cell, alarms });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_alarms::{AlarmId, AlarmIndex, AlarmScope, SpatialAlarm};
    use sa_geometry::{Grid, Point, Rect};
    use sa_roadnet::VehicleId;

    fn world() -> (AlarmIndex, Grid) {
        let universe = Rect::new(0.0, 0.0, 8_000.0, 8_000.0).unwrap();
        let index = AlarmIndex::build(vec![
            SpatialAlarm::around_static_target(
                AlarmId(0),
                Point::new(1_000.0, 1_000.0),
                300.0,
                AlarmScope::Public { owner: SubscriberId(0) },
            )
            .unwrap(),
            SpatialAlarm::around_static_target(
                AlarmId(1),
                Point::new(1_400.0, 1_000.0),
                250.0,
                AlarmScope::Public { owner: SubscriberId(0) },
            )
            .unwrap(),
        ]);
        let grid = Grid::new(universe, 2_000.0).unwrap();
        (index, grid)
    }

    fn drive(server: &mut ServerCtx<'_>, path: impl Iterator<Item = (f64, f64)>) {
        let mut strategy = OptimalStrategy::default();
        for (step, (x, y)) in path.enumerate() {
            let sample = TraceSample {
                time: step as f64,
                vehicle: VehicleId(0),
                pos: Point::new(x, y),
                heading: 0.0,
                speed: 15.0,
            };
            strategy.on_sample(step as u32, &sample, server);
        }
    }

    #[test]
    fn messages_only_on_cell_changes_and_triggers() {
        let (index, grid) = world();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        // Drive through both alarms within one cell, then into the next cell.
        drive(&mut server, (0..220).map(|i| (200.0 + i as f64 * 10.0, 1_000.0)));
        // Uplink: initial fetch + 2 trigger notifications + 1 cell change at
        // x = 2000 (then none until x = 2400 end... path ends at 2390).
        assert_eq!(server.metrics.triggers, 2);
        assert_eq!(server.metrics.uplink_messages, 4);
        // Downlink: the two alarm-set pushes only. A notify is answered by
        // a bare acknowledgement, not a trigger delivery.
        assert_eq!(server.metrics.downlink_messages, 2);
    }

    #[test]
    fn firing_steps_match_strict_entry() {
        let (index, grid) = world();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        drive(&mut server, (0..220).map(|i| (200.0 + i as f64 * 10.0, 1_000.0)));
        let mut events = server.fired_events().to_vec();
        events.sort_unstable();
        // Alarm 0 region x > 700 → step 51 (x = 710); alarm 1 region
        // x > 1150 → step 96 (x = 1160).
        assert_eq!(events[0].alarm, AlarmId(0));
        assert_eq!(events[0].step, 51);
        assert_eq!(events[1].alarm, AlarmId(1));
        assert_eq!(events[1].step, 96);
    }

    #[test]
    fn client_ops_scale_with_alarm_set_size() {
        let (index, grid) = world();
        let mut dense = ServerCtx::new(&index, &grid, 30.0, 1.0);
        // Stay in the alarm-dense cell.
        drive(&mut dense, (0..100).map(|i| (300.0, 300.0 + (i % 7) as f64)));
        let empty_index = AlarmIndex::build(vec![]);
        let mut sparse = ServerCtx::new(&empty_index, &grid, 30.0, 1.0);
        drive(&mut sparse, (0..100).map(|i| (300.0, 300.0 + (i % 7) as f64)));
        assert!(dense.metrics.client_check_ops > sparse.metrics.client_check_ops);
    }
}
