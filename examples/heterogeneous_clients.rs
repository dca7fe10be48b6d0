//! Device heterogeneity: the §4 motivation for bitmap safe regions.
//!
//! A fleet of clients with different capability classes receives safe
//! regions tailored to what each device can afford: weak devices get cheap
//! 4-comparison rectangles, strong devices get tall pyramids whose larger
//! safe regions buy radio silence at the price of more CPU per check.
//!
//! Run with: `cargo run --release --example heterogeneous_clients`

use spatial_alarms::alarms::{
    AlarmIndex, AlarmSnapshot, AlarmWorkload, SubscriberId, WorkloadConfig,
};
use spatial_alarms::core::{MwpsrComputer, PyramidComputer, PyramidConfig, SafeRegion};
use spatial_alarms::geometry::{Grid, MotionPdf, Point, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a device class can afford per GPS fix.
#[derive(Debug, Clone, Copy)]
enum DeviceClass {
    /// Bottom-tier tracker: rectangle only.
    Weak,
    /// Mid-tier phone: shallow pyramid.
    Standard { height: u32 },
    /// Flagship: deep pyramid.
    Powerful { height: u32 },
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let universe = Rect::new(0.0, 0.0, 20_000.0, 20_000.0)?;
    let workload = AlarmWorkload::generate(&WorkloadConfig {
        alarms: 2_000,
        subscribers: 100,
        universe,
        public_fraction: 0.15,
        ..WorkloadConfig::default()
    });
    let alarms = AlarmSnapshot::from(AlarmIndex::build(workload.alarms().to_vec()));
    let grid = Grid::with_cell_area_km2(universe, 2.5)?;
    let mut rng = SmallRng::seed_from_u64(11);

    println!(
        "{:<22} {:>12} {:>14} {:>12} {:>10}",
        "device", "payload bits", "check ops max", "coverage", "safe area"
    );

    for (user_id, class) in [
        (1u32, DeviceClass::Weak),
        (2, DeviceClass::Standard { height: 2 }),
        (3, DeviceClass::Standard { height: 3 }),
        (4, DeviceClass::Powerful { height: 5 }),
        (5, DeviceClass::Powerful { height: 7 }),
    ] {
        let user = SubscriberId(user_id);
        let pos = Point::new(rng.gen_range(2_000.0..18_000.0), rng.gen_range(2_000.0..18_000.0));
        let cell = grid.cell_rect(grid.cell_of(pos));
        let obstacles: Vec<Rect> = alarms
            .relevant_intersecting(user, cell)
            .iter()
            .map(|a| a.region())
            .collect();

        match class {
            DeviceClass::Weak => {
                let computer = MwpsrComputer::new(MotionPdf::new(1.0, 32)?);
                let region = computer.compute(pos, 0.0, cell, &obstacles);
                println!(
                    "{:<22} {:>12} {:>14} {:>11.1}% {:>7.2} km²",
                    format!("user#{user_id} (weak, rect)"),
                    region.encoded_bits(),
                    region.worst_case_check_ops(),
                    100.0 * region.rect().area() / cell.area(),
                    region.rect().area() / 1.0e6
                );
            }
            DeviceClass::Standard { height } | DeviceClass::Powerful { height } => {
                let computer = PyramidComputer::new(PyramidConfig::three_by_three(height));
                let region = computer.compute(cell, &obstacles);
                println!(
                    "{:<22} {:>12} {:>14} {:>11.1}% {:>7.2} km²",
                    format!("user#{user_id} (pyramid h={height})"),
                    region.encoded_bits(),
                    region.worst_case_check_ops(),
                    100.0 * region.coverage(),
                    region.coverage() * cell.area() / 1.0e6
                );
            }
        }
    }

    println!(
        "\ntaller pyramids trade bigger payloads and deeper checks for larger safe\n\
         regions (fewer server contacts) - the paper's client-heterogeneity knob"
    );
    Ok(())
}
