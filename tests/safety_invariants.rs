//! Cross-crate property tests of the system's central safety contract: for
//! *generated* alarm workloads (not hand-picked rectangles), every safe
//! region handed to a subscriber excludes the interiors of all relevant
//! unfired alarm regions — so a silent client can never miss an alarm.

use proptest::prelude::*;
use spatial_alarms::alarms::{
    AlarmIndex, AlarmSnapshot, AlarmWorkload, SubscriberId, WorkloadConfig,
};
use spatial_alarms::core::{MwpsrComputer, PyramidComputer, PyramidConfig, SafeRegion};
use spatial_alarms::geometry::{Grid, MotionPdf, Point, Rect};

fn workload(seed: u64, alarms: usize, public_fraction: f64) -> AlarmSnapshot {
    let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
    let w = AlarmWorkload::generate(&WorkloadConfig {
        alarms,
        subscribers: 60,
        universe,
        public_fraction,
        seed,
        ..WorkloadConfig::default()
    });
    AlarmSnapshot::from(AlarmIndex::build(w.alarms().to_vec()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mwpsr_regions_are_safe_for_generated_workloads(
        seed in 0u64..1_000,
        user_id in 0u32..60,
        x in 0.0..10_000.0f64,
        y in 0.0..10_000.0f64,
        heading in -3.1..3.1f64,
        public in 0.01..0.4f64,
    ) {
        let index = workload(seed, 400, public);
        let grid = Grid::with_cell_area_km2(Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap(), 2.5).unwrap();
        let user = SubscriberId(user_id);
        let pos = Point::new(x, y);
        let cell = grid.cell_rect(grid.cell_of(pos));
        let obstacles: Vec<Rect> = index
            .relevant_intersecting(user, cell)
            .iter()
            .map(|a| a.region())
            .collect();

        let computer = MwpsrComputer::new(MotionPdf::new(1.0, 32).unwrap());
        let region = computer.compute(pos, heading, cell, &obstacles);

        prop_assert!(region.contains(pos));
        for alarm in index.relevant_intersecting(user, cell) {
            if !alarm.region().contains_point_strict(pos) {
                prop_assert!(
                    !region.rect().intersects_interior(&alarm.region()),
                    "region {} overlaps {}", region.rect(), alarm.id()
                );
            }
        }
    }

    #[test]
    fn pbsr_regions_are_safe_for_generated_workloads(
        seed in 0u64..1_000,
        user_id in 0u32..60,
        x in 0.0..10_000.0f64,
        y in 0.0..10_000.0f64,
        height in 1u32..6,
        public in 0.01..0.4f64,
    ) {
        let index = workload(seed, 400, public);
        let grid = Grid::with_cell_area_km2(Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap(), 2.5).unwrap();
        let user = SubscriberId(user_id);
        let pos = Point::new(x, y);
        let cell = grid.cell_rect(grid.cell_of(pos));
        let obstacles: Vec<Rect> = index
            .relevant_intersecting(user, cell)
            .iter()
            .map(|a| a.region())
            .collect();

        let computer = PyramidComputer::new(PyramidConfig::three_by_three(height));
        let region = computer.compute(cell, &obstacles);
        let decoded = region.decode();

        for alarm in index.relevant_intersecting(user, cell) {
            prop_assert!(
                !decoded.intersects_interior(&alarm.region()),
                "safe region overlaps {} at height {}", alarm.id(), height
            );
        }
        // A point the bitmap declares safe is never strictly inside a
        // relevant alarm region.
        if region.contains(pos) {
            for alarm in index.relevant_intersecting(user, cell) {
                prop_assert!(!alarm.region().contains_point_strict(pos));
            }
        }
    }

    #[test]
    fn relevance_filtering_respects_scopes(
        seed in 0u64..1_000,
        user_id in 0u32..60,
        x in 0.0..10_000.0f64,
        y in 0.0..10_000.0f64,
    ) {
        let index = workload(seed, 300, 0.1);
        let user = SubscriberId(user_id);
        let mut hits = Vec::new();
        index.relevant_at_visit(user, Point::new(x, y), |alarm| hits.push(alarm));
        for alarm in hits {
            prop_assert!(alarm.is_relevant_to(user));
            prop_assert!(alarm.contains(Point::new(x, y)));
        }
    }
}
