use crate::message::{payload, region_cell, Held};
use crate::strategy::Strategy;
use crate::ServerCtx;
use sa_alarms::SubscriberId;
use sa_core::{MwpsrComputer, SafeRegion};
use sa_geometry::Rect;
use sa_roadnet::TraceSample;
use std::collections::HashMap;

/// MWPSR — the distributed rectangular safe-region strategy (§3).
///
/// The client checks each GPS fix against its current rectangle (4
/// comparisons). While inside, *nothing* happens anywhere in the system.
/// On exit, it uplinks one location update; the server evaluates triggers,
/// computes a fresh maximum weighted perimeter rectangle scoped to the
/// client's grid cell, and downlinks it (128-bit payload).
#[derive(Debug)]
pub struct RectStrategy {
    computer: MwpsrComputer,
    /// Use the broken Hu–Xu–Lee \[10\] computation (ablation only: this
    /// variant *misses alarms* under overlapping / axis-straddling
    /// regions, exactly as §5 claims).
    legacy: bool,
    regions: HashMap<SubscriberId, Held>,
}

impl RectStrategy {
    /// Creates the strategy around a configured MWPSR computer.
    pub fn new(computer: MwpsrComputer) -> RectStrategy {
        RectStrategy { computer, legacy: false, regions: HashMap::new() }
    }

    /// The Hu–Xu–Lee \[10\] ablation variant. Accuracy checks are expected to
    /// fail for it — that failure *is* the result.
    pub fn new_legacy_hu_xu_lee(computer: MwpsrComputer) -> RectStrategy {
        RectStrategy { computer, legacy: true, regions: HashMap::new() }
    }
}

impl Strategy for RectStrategy {
    fn on_sample(&mut self, step: u32, sample: &TraceSample, server: &mut ServerCtx<'_>) {
        server.metrics.samples += 1;
        let user = SubscriberId(sample.vehicle.0);

        // Client-side containment detection.
        if let Some(held) = self.regions.get_mut(&user) {
            let (uplink, ops) = held.probe(step, sample.pos);
            server.metrics.client_checks += 1;
            server.metrics.client_check_ops += ops;
            if !uplink {
                return;
            }
        }

        // Outside the safe region (or no region yet): contact the server.
        server.metrics.uplink_messages += 1;
        server.check_triggers(step, user, sample.pos);

        let (_, cell_rect) = region_cell(server.grid(), sample.pos);
        let obstacles: Vec<Rect> =
            server.unfired_obstacles_in(user, cell_rect).iter().map(|a| a.region()).collect();
        // Charge the skyline construction: candidates in four quadrants
        // plus sorting (≈ n log n) plus the greedy pass.
        let n = obstacles.len() as u64;
        server.metrics.server.region_compute_ops +=
            4 * n + n * (64 - n.leading_zeros() as u64).max(1) + 8;
        server.metrics.server.region_computations += 1;

        let region = if self.legacy {
            self.computer.compute_hu_xu_lee(sample.pos, sample.heading, cell_rect, &obstacles)
        } else {
            self.computer.compute(sample.pos, sample.heading, cell_rect, &obstacles)
        };
        server.send_downlink(payload::REGION_HEADER_BITS + region.encoded_bits());
        self.regions.insert(user, Held::Rect(region.rect()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_alarms::{AlarmId, AlarmIndex, AlarmScope, AlarmSnapshot, SpatialAlarm};
    use sa_geometry::{Grid, MotionPdf, Point, Rect};
    use sa_roadnet::VehicleId;

    fn world() -> (AlarmSnapshot, Grid) {
        let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
        let index = AlarmIndex::build(vec![
            SpatialAlarm::around_static_target(
                AlarmId(0),
                Point::new(5_000.0, 500.0),
                200.0,
                AlarmScope::Public { owner: SubscriberId(0) },
            )
            .unwrap(),
            SpatialAlarm::around_static_target(
                AlarmId(1),
                Point::new(2_000.0, 4_000.0),
                300.0,
                AlarmScope::Public { owner: SubscriberId(0) },
            )
            .unwrap(),
        ]);
        let grid = Grid::new(universe, 2_000.0).unwrap();
        (AlarmSnapshot::from(index), grid)
    }

    fn drive(strategy: &mut RectStrategy, server: &mut ServerCtx<'_>, path: impl Iterator<Item = (f64, f64)>) {
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
    fn silent_while_inside_safe_region() {
        let (index, grid) = world();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        let mut strategy = RectStrategy::new(MwpsrComputer::non_weighted());
        // Loiter far from both alarms inside one grid cell.
        drive(&mut strategy, &mut server, (0..100).map(|i| (8_500.0 + (i % 10) as f64, 8_500.0)));
        assert_eq!(server.metrics.uplink_messages, 1, "only the initial contact");
        assert_eq!(server.metrics.triggers, 0);
        // The client checked its position locally every sample after setup.
        assert_eq!(server.metrics.client_checks, 99);
    }

    #[test]
    fn crossing_an_alarm_region_fires_at_the_right_step() {
        let (index, grid) = world();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        let mut strategy = RectStrategy::new(MwpsrComputer::new(MotionPdf::new(1.0, 32).unwrap()));
        // Drive east along y=500 through alarm 0 ([4800, 5200] x [300, 700]).
        drive(&mut strategy, &mut server, (0..200).map(|i| (3_000.0 + i as f64 * 15.0, 500.0)));
        assert_eq!(server.metrics.triggers, 1);
        // First strict entry: x > 4800 → i = 121 (x = 4815).
        assert_eq!(server.fired_events()[0].step, 121);
        // Far fewer messages than samples.
        assert!(server.metrics.uplink_messages < 40, "messages {}", server.metrics.uplink_messages);
    }

    #[test]
    fn region_renewal_happens_on_cell_exit() {
        let (index, grid) = world();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        let mut strategy = RectStrategy::new(MwpsrComputer::non_weighted());
        // Cross several alarm-free cells: each crossing costs one message.
        drive(&mut strategy, &mut server, (0..100).map(|i| (500.0 + i as f64 * 90.0, 8_500.0)));
        // 500 → 9410 m crosses cells at 2000, 4000, 6000, 8000.
        assert_eq!(server.metrics.uplink_messages, 5);
        assert_eq!(server.metrics.downlink_messages, 5);
        assert_eq!(server.metrics.triggers, 0);
    }
}
