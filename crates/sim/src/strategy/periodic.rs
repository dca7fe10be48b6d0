use crate::strategy::Strategy;
use crate::ServerCtx;
use sa_alarms::SubscriberId;
use sa_roadnet::TraceSample;

/// PRD — periodic evaluation, the naive server-centric baseline: every
/// client transmits every location sample, and the server evaluates each
/// one against the alarm index. Simple, accurate, and responsible for the
/// ~60 million messages per trace the paper reports.
#[derive(Debug, Default)]
pub struct PeriodicStrategy;

impl Strategy for PeriodicStrategy {
    fn on_sample(&mut self, step: u32, sample: &TraceSample, server: &mut ServerCtx<'_>) {
        server.metrics.samples += 1;
        server.metrics.uplink_messages += 1;
        server.check_triggers(step, SubscriberId(sample.vehicle.0), sample.pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_alarms::{AlarmId, AlarmIndex, AlarmScope, AlarmSnapshot, SpatialAlarm};
    use sa_geometry::{Grid, Point, Rect};
    use sa_roadnet::VehicleId;

    #[test]
    fn every_sample_becomes_a_message() {
        let universe = Rect::new(0.0, 0.0, 1_000.0, 1_000.0).unwrap();
        let index = AlarmIndex::build(vec![SpatialAlarm::around_static_target(
            AlarmId(0),
            Point::new(500.0, 500.0),
            100.0,
            AlarmScope::Public { owner: SubscriberId(0) },
        )
        .unwrap()]);
        let index = AlarmSnapshot::from(index);
        let grid = Grid::new(universe, 500.0).unwrap();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        let mut strategy = PeriodicStrategy;
        for step in 0..10u32 {
            let sample = TraceSample {
                time: step as f64,
                vehicle: VehicleId(0),
                pos: Point::new(100.0 + step as f64 * 50.0, 500.0),
                heading: 0.0,
                speed: 50.0,
            };
            strategy.on_sample(step, &sample, &mut server);
        }
        assert_eq!(server.metrics.uplink_messages, 10);
        assert_eq!(server.metrics.samples, 10);
        // The vehicle crossed the alarm region: exactly one firing.
        assert_eq!(server.metrics.triggers, 1);
    }
}
