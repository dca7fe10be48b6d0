//! Renders a full scene — road network, grid overlay, alarm workload, a
//! subscriber and both kinds of safe region — to `scene.svg` in the
//! current directory. Open it in any browser to *see* what the algorithms
//! compute.
//!
//! Run with: `cargo run --example render_scene`

use spatial_alarms::alarms::{
    AlarmIndex, AlarmSnapshot, AlarmWorkload, SubscriberId, WorkloadConfig,
};
use spatial_alarms::core::{MwpsrComputer, PyramidComputer, PyramidConfig};
use spatial_alarms::geometry::{Grid, MotionPdf, Point, Rect};
use spatial_alarms::roadnet::{generate_network, NetworkConfig};
use spatial_alarms::viz::SceneRenderer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network_config = NetworkConfig::small_test();
    let network = generate_network(&network_config);
    let universe = Rect::new(0.0, 0.0, network_config.universe_side_m, network_config.universe_side_m)?;
    let grid = Grid::new(universe, 1_000.0)?;
    let workload = AlarmWorkload::generate(&WorkloadConfig {
        alarms: 40,
        subscribers: 10,
        universe,
        region_half_extent_m: (80.0, 220.0),
        ..WorkloadConfig::default()
    });
    let alarms = AlarmSnapshot::from(AlarmIndex::build(workload.alarms().to_vec()));

    let user = SubscriberId(3);
    let pos = Point::new(1_450.0, 2_350.0);
    let cell = grid.cell_rect(grid.cell_of(pos));
    let obstacles: Vec<Rect> =
        alarms.relevant_intersecting(user, cell).iter().map(|a| a.region()).collect();

    let rect_region =
        MwpsrComputer::new(MotionPdf::new(1.0, 32)?).compute(pos, 0.6, cell, &obstacles);
    let bitmap_region =
        PyramidComputer::new(PyramidConfig::three_by_three(4)).compute(cell, &obstacles);

    let svg = SceneRenderer::new(universe, 900)
        .road_network(&network)
        .grid(&grid)
        .alarms(workload.alarms(), Some(user))
        .bitmap_safe_region(&bitmap_region)
        .rect_safe_region(&rect_region)
        .subscriber(pos, " user#3")
        .finish();

    std::fs::write("scene.svg", &svg)?;
    println!("wrote scene.svg ({} bytes)", svg.len());
    println!("  blue rect   = MWPSR safe region (what the client monitors with 4 comparisons)");
    println!("  green cells = PBSR h=4 safe region (bitmap-encoded, {} bits)", bitmap_region.bitmap_size());
    println!("  red/orange  = public / personal alarm regions (dimmed = not relevant to user#3)");
    Ok(())
}
