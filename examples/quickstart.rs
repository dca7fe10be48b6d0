//! Quickstart: install spatial alarms, compute a safe region for a mobile
//! subscriber, and watch the distributed contract in action — while the
//! subscriber stays inside the region, no alarm evaluation is needed
//! anywhere in the system.
//!
//! Run with: `cargo run --example quickstart`

use spatial_alarms::alarms::{
    AlarmId, AlarmIndex, AlarmScope, AlarmSnapshot, SpatialAlarm, SubscriberId,
};
use spatial_alarms::core::{MwpsrComputer, SafeRegion};
use spatial_alarms::geometry::{Grid, MotionPdf, Point, Rect};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 10 km x 10 km city with a 2 km grid overlay.
    let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0)?;
    let grid = Grid::new(universe, 2_000.0)?;

    // Install a few alarms for subscriber 7: "alert me within 500 m of the
    // dry-clean store", plus a public road-hazard alert.
    let me = SubscriberId(7);
    let alarms = vec![
        SpatialAlarm::around_static_target(
            AlarmId(0),
            Point::new(3_200.0, 2_800.0), // the dry-clean store
            500.0,
            AlarmScope::Private { owner: me },
        )?,
        SpatialAlarm::around_static_target(
            AlarmId(1),
            Point::new(1_200.0, 3_600.0), // pothole field on the highway
            300.0,
            AlarmScope::Public { owner: SubscriberId(0) },
        )?,
        SpatialAlarm::around_static_target(
            AlarmId(2),
            Point::new(8_500.0, 8_500.0), // someone else's private alarm
            400.0,
            AlarmScope::Private { owner: SubscriberId(9) },
        )?,
    ];
    let index = AlarmSnapshot::from(AlarmIndex::build(alarms));

    // The subscriber drives east through the first grid cell.
    let position = Point::new(2_100.0, 3_000.0);
    let heading = 0.0; // due east
    let cell = grid.cell_rect(grid.cell_of(position));

    // Server side: gather the relevant alarms intersecting the cell and
    // compute the maximum weighted perimeter rectangular safe region.
    let relevant = index.relevant_intersecting(me, cell);
    println!("relevant alarms in the current cell: {}", relevant.len());
    for alarm in &relevant {
        println!("  {} region {}", alarm.id(), alarm.region());
    }

    let computer = MwpsrComputer::new(MotionPdf::new(1.0, 32)?);
    let obstacle_rects: Vec<Rect> = relevant.iter().map(|a| a.region()).collect();
    let region = computer.compute(position, heading, cell, &obstacle_rects);

    println!("\nsafe region: {}", region.rect());
    println!("encoded size: {} bits", region.encoded_bits());
    println!("containment check cost: {} comparisons", region.worst_case_check_ops());

    // Client side: monitor the position locally. No server contact while
    // the position stays inside.
    for step in 0..6 {
        let pos = Point::new(position.x + step as f64 * 150.0, position.y);
        let inside = region.contains(pos);
        println!(
            "t={step:>2}s position ({:>6.0}, {:>6.0}) -> {}",
            pos.x,
            pos.y,
            if inside { "inside safe region, stay silent" } else { "EXIT: contact server" }
        );
        if !inside {
            break;
        }
    }
    Ok(())
}
