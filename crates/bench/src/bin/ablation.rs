//! Ablation experiments for the design choices DESIGN.md calls out:
//!
//! 1. **Sound vs Hu–Xu–Lee \[10\] rectangles** — the paper's §5 claim that
//!    the prior approach "leads to alarm misses and erroneous safe
//!    regions": the legacy variant is run through the full accuracy check
//!    and its misses are counted.
//! 2. **PBSR unicast vs broadcast (§4.2)** — the downlink cost of shipping
//!    full per-user bitmaps vs broadcasting precomputed public bitmaps per
//!    cell with per-user personal overlays.
//! 3. **Weighted vs non-weighted perimeter** — the Figure 4(a) margin.
//!
//! Accepts the shared options (`--scale`, `--seeds`, `--duration`, `--csv`).

use sa_bench::{render_table, BenchOpts};
use sa_sim::{SimulationHarness, StrategyKind};

fn main() {
    let opts = BenchOpts::from_args();
    let harness = SimulationHarness::build(&opts.config(0));
    let gt = harness.ground_truth().len();
    println!(
        "world: {} vehicles, {} alarms, {} ground-truth firings\n",
        harness.config().fleet.vehicles,
        harness.config().workload.alarms,
        gt
    );

    // --- Ablation 1: sound vs legacy Hu–Xu–Lee rectangles -----------------
    // The §5 claim: \[10\] "leads to alarm misses and erroneous safe regions"
    // when alarm regions overlap or cross the axes through the subscriber.
    // Measured directly: sample subscriber positions from the workload,
    // compute both variants, and count regions whose closed extent reaches
    // into some relevant alarm's interior (a subscriber standing there
    // stays silent while the alarm should fire).
    {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use sa_alarms::SubscriberId;
        use sa_core::MwpsrComputer;
        use sa_geometry::{Point, Rect};

        let grid = harness.grid();
        let alarms = harness.snapshot();
        let computer = MwpsrComputer::non_weighted();
        let mut rng = SmallRng::seed_from_u64(0xAB1A_0001);
        let universe = grid.universe();
        let trials = 4_000usize;
        let mut legacy_bad = 0usize;
        let mut sound_bad = 0usize;
        for _ in 0..trials {
            let user = SubscriberId(rng.gen_range(0..harness.config().fleet.vehicles as u32));
            let pos = Point::new(
                rng.gen_range(universe.min_x()..universe.max_x()),
                rng.gen_range(universe.min_y()..universe.max_y()),
            );
            let cell = grid.cell_rect(grid.cell_of(pos));
            let obstacles: Vec<Rect> = alarms
                .relevant_intersecting(user, cell)
                .iter()
                .map(|a| a.region())
                .filter(|r| !r.contains_point_strict(pos))
                .collect();
            if obstacles.is_empty() {
                continue;
            }
            let legacy = computer.compute_hu_xu_lee(pos, 0.0, cell, &obstacles).rect();
            if obstacles.iter().any(|o| legacy.intersects_interior(o)) {
                legacy_bad += 1;
            }
            let sound = computer.compute(pos, 0.0, cell, &obstacles).rect();
            if obstacles.iter().any(|o| sound.intersects_interior(o)) {
                sound_bad += 1;
            }
        }
        println!(
            "{}",
            render_table(
                "Ablation 1: erroneous safe regions (the fix over [10]), 4000 sampled scenarios",
                &["variant", "erroneous regions", "rate"],
                &[
                    vec![
                        "sound (this paper)".into(),
                        format!("{sound_bad}"),
                        format!("{:.2}%", 100.0 * sound_bad as f64 / trials as f64),
                    ],
                    vec![
                        "Hu-Xu-Lee [10]".into(),
                        format!("{legacy_bad}"),
                        format!("{:.2}%", 100.0 * legacy_bad as f64 / trials as f64),
                    ],
                ],
            )
        );
        assert_eq!(sound_bad, 0, "the sound variant must never err");
    }

    // End-to-end, the erroneous legacy regions are degenerate (zero-width
    // slivers), so clients exit them immediately and the damage rarely
    // converts into missed alarms — but the run is checked anyway.
    let sound = harness.run(StrategyKind::MwpsrNonWeighted);
    let legacy = harness.run(StrategyKind::MwpsrLegacyHuXuLee);
    sound.assert_accurate();
    println!(
        "end-to-end: sound fired {}/{gt}, legacy fired {}/{gt} ({})\n",
        sound.fired.len(),
        legacy.fired.len(),
        if legacy.accuracy_ok { "accurate on this trace" } else { "INACCURATE" }
    );

    // --- Ablation 2: PBSR unicast vs broadcast ---------------------------
    let unicast = harness.run(StrategyKind::Pbsr { height: 5 });
    let broadcast = harness.run(StrategyKind::PbsrBroadcast { height: 5 });
    unicast.assert_accurate();
    broadcast.assert_accurate();
    println!(
        "{}",
        render_table(
            "Ablation 2: PBSR h=5 downlink accounting (§4.2 broadcast optimization)",
            &["variant", "downlink Mbit", "downlink msgs", "uplink msgs"],
            &[
                vec![
                    "unicast full bitmaps".into(),
                    format!("{:.3}", unicast.metrics.downlink_bits as f64 / 1.0e6),
                    format!("{}", unicast.metrics.downlink_messages),
                    format!("{}", unicast.metrics.uplink_messages),
                ],
                vec![
                    "broadcast public + overlay".into(),
                    format!("{:.3}", broadcast.metrics.downlink_bits as f64 / 1.0e6),
                    format!("{}", broadcast.metrics.downlink_messages),
                    format!("{}", broadcast.metrics.uplink_messages),
                ],
            ],
        )
    );

    // --- Ablation 3: weighted vs non-weighted perimeter ------------------
    let mut rows = Vec::new();
    for (name, kind) in [
        ("non-weighted", StrategyKind::MwpsrNonWeighted),
        ("y=1, z=4", StrategyKind::Mwpsr { y: 1.0, z: 4 }),
        ("y=1, z=32", StrategyKind::Mwpsr { y: 1.0, z: 32 }),
    ] {
        let run = harness.run(kind);
        run.assert_accurate();
        rows.push(vec![name.to_string(), format!("{}", run.metrics.uplink_messages)]);
    }
    println!(
        "{}",
        render_table(
            "Ablation 3: steady-motion weighting (Figure 4(a) margin)",
            &["variant", "uplink messages"],
            &rows,
        )
    );
}
