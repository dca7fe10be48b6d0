use crate::message::{payload, pbsr_refresh, region_cell, Held};
use crate::strategy::Strategy;
use crate::ServerCtx;
use sa_alarms::SubscriberId;
use sa_core::{PyramidComputer, SafeRegion};
use sa_geometry::{CellId, Rect};
use sa_roadnet::TraceSample;
use std::collections::HashMap;

/// GBSR / PBSR — the distributed bitmap safe-region strategy (§4).
///
/// The client holds a pyramid bitmap of its base grid cell and checks each
/// GPS fix with a bounded descent (≤ `h` levels). Following §4.2:
///
/// - inside a safe (1) cell: fully silent;
/// - inside the base cell but in a blocked (0) cell: the client reports
///   each sample so the server can evaluate triggers, but **no safe-region
///   recomputation or retransmission happens** unless an alarm actually
///   fires (then the fired region joins the safe region — the "quick
///   update");
/// - outside the base cell: full recomputation for the new cell.
///
/// Two downlink accounting modes:
///
/// - **unicast** ([`BitmapStrategy::new`]): every recomputation ships the
///   full per-user bitmap,
/// - **broadcast** ([`BitmapStrategy::new_broadcast`]): the paper's §4.2
///   optimization — per-cell *public-alarm* bitmaps are precomputed and
///   broadcast once per epoch (charged by the engine), so each recompute
///   unicasts only the user's personal (private/shared) overlay bitmap and
///   each quick update ships a 128-bit patch. Client-side monitoring is
///   identical: the conjunction of the public and personal bitmaps equals
///   the combined bitmap.
#[derive(Debug)]
pub struct BitmapStrategy {
    computer: PyramidComputer,
    broadcast_public: bool,
    /// Per subscriber: the base cell and the installed bitmap.
    regions: HashMap<SubscriberId, (CellId, Held)>,
}

impl BitmapStrategy {
    /// Per-user unicast accounting (full bitmap per recompute).
    pub fn new(computer: PyramidComputer) -> BitmapStrategy {
        BitmapStrategy { computer, broadcast_public: false, regions: HashMap::new() }
    }

    /// Broadcast accounting per §4.2 (public bitmaps amortized across all
    /// clients; engine charges the per-cell broadcast once).
    pub fn new_broadcast(computer: PyramidComputer) -> BitmapStrategy {
        BitmapStrategy { computer, broadcast_public: true, regions: HashMap::new() }
    }

    /// Recomputes and ships the bitmap for `user` in `cell`.
    fn recompute(
        &mut self,
        server: &mut ServerCtx<'_>,
        user: SubscriberId,
        cell: CellId,
        cell_rect: Rect,
        quick_update: bool,
    ) {
        if self.broadcast_public {
            let (mut all, mut personal) = (Vec::new(), Vec::new());
            for a in server.unfired_obstacles_in(user, cell_rect) {
                if a.is_public() { &mut all } else { &mut personal }.push(a.region());
            }
            // The client monitors the conjunction of the broadcast public
            // bitmap and its personal overlay, which is semantically the
            // combined bitmap.
            all.extend_from_slice(&personal);
            let (region, _) = self.computer.compute_with_cost(cell_rect, &all);
            // Server-side online work: only the personal overlay (the
            // public bitmap is precomputed offline, per the paper).
            let (overlay, overlay_ops) = self.computer.compute_with_cost(cell_rect, &personal);
            server.metrics.server.region_cell_tests += overlay_ops;
            server.metrics.server.region_computations += 1;
            if quick_update {
                // Patch: "alarm X is now part of your safe region".
                server.send_downlink(payload::REGION_HEADER_BITS + 128);
            } else {
                server.send_downlink(payload::REGION_HEADER_BITS + overlay.bitmap_size());
            }
            self.regions.insert(user, (cell, Held::bitmap(region)));
        } else {
            let obstacles: Vec<Rect> =
                server.unfired_obstacles_in(user, cell_rect).iter().map(|a| a.region()).collect();
            let (region, ops) = self.computer.compute_with_cost(cell_rect, &obstacles);
            server.metrics.server.region_cell_tests += ops;
            server.metrics.server.region_computations += 1;
            server.send_downlink(payload::REGION_HEADER_BITS + region.encoded_bits());
            self.regions.insert(user, (cell, Held::bitmap(region)));
        }
    }
}

impl Strategy for BitmapStrategy {
    fn on_sample(&mut self, step: u32, sample: &TraceSample, server: &mut ServerCtx<'_>) {
        server.metrics.samples += 1;
        let user = SubscriberId(sample.vehicle.0);

        let (cell, cell_rect) = region_cell(server.grid(), sample.pos);
        let prev_cell = match self.regions.get_mut(&user) {
            Some((prev_cell, held)) => {
                let (uplink, ops) = held.probe(step, sample.pos);
                server.metrics.client_checks += 1;
                server.metrics.client_check_ops += ops;
                if !uplink {
                    return;
                }
                Some(*prev_cell)
            }
            None => None,
        };

        // A blocked sub-cell, a base-cell exit or the first contact: report,
        // and recompute as the §4.2 quick-update rule says.
        server.metrics.uplink_messages += 1;
        let fired = server.check_triggers(step, user, sample.pos);
        if pbsr_refresh(prev_cell, cell, !fired.is_empty()) {
            self.recompute(server, user, cell, cell_rect, prev_cell == Some(cell));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_alarms::{AlarmId, AlarmIndex, AlarmScope, AlarmSnapshot, SpatialAlarm};
    use sa_core::PyramidConfig;
    use sa_geometry::{Grid, Point, Rect};
    use sa_roadnet::VehicleId;

    fn world() -> (AlarmSnapshot, Grid) {
        let universe = Rect::new(0.0, 0.0, 9_000.0, 9_000.0).unwrap();
        let index = AlarmIndex::build(vec![SpatialAlarm::around_static_target(
            AlarmId(0),
            Point::new(1_500.0, 1_500.0),
            400.0,
            AlarmScope::Public { owner: SubscriberId(0) },
        )
        .unwrap()]);
        let grid = Grid::new(universe, 3_000.0).unwrap();
        (AlarmSnapshot::from(index), grid)
    }

    fn run_path(
        strategy: &mut BitmapStrategy,
        server: &mut ServerCtx<'_>,
        path: impl Iterator<Item = (f64, f64)>,
    ) {
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

    fn unicast(height: u32) -> BitmapStrategy {
        BitmapStrategy::new(PyramidComputer::new(PyramidConfig::three_by_three(height)))
    }

    #[test]
    fn silent_in_safe_subcells() {
        let (index, grid) = world();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        // Loiter in the alarm-free north-east of the first cell.
        let mut s = unicast(3);
        run_path(&mut s, &mut server, (0..100).map(|i| (2_500.0 + (i % 5) as f64, 2_500.0)));
        assert_eq!(server.metrics.uplink_messages, 1);
        assert_eq!(server.metrics.downlink_messages, 1);
    }

    #[test]
    fn coarse_pyramid_reports_more_than_fine_pyramid() {
        // The Figure 5(a) effect: GBSR's coarse bitmap leaves clients in
        // blocked cells, forcing per-sample reports; taller pyramids carve
        // out finer safe regions.
        let (index, grid) = world();
        // Approach the alarm ([1100, 1900]²) from the west along y = 1200
        // without ever entering it: the coarse bitmap blocks the whole
        // 1000 m sub-cell containing the alarm corner, the fine one only
        // the last ~12 m.
        let path = || (0..150).map(|i| (200.0 + i as f64 * 6.0, 1_200.0));
        let mut coarse_server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        run_path(&mut unicast(1), &mut coarse_server, path());
        let mut fine_server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        run_path(&mut unicast(5), &mut fine_server, path());
        assert!(
            coarse_server.metrics.uplink_messages > fine_server.metrics.uplink_messages,
            "coarse {} vs fine {}",
            coarse_server.metrics.uplink_messages,
            fine_server.metrics.uplink_messages
        );
    }

    #[test]
    fn firing_matches_strict_entry_and_triggers_quick_update() {
        let (index, grid) = world();
        let mut server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        // Drive east along y=1500 into the alarm region [1100, 1900]².
        let mut s = unicast(4);
        run_path(&mut s, &mut server, (0..200).map(|i| (200.0 + i as f64 * 10.0, 1_500.0)));
        assert_eq!(server.metrics.triggers, 1);
        // First strict entry: x > 1100 → step 91 (x = 1110).
        assert_eq!(server.fired_events()[0].step, 91);
        // After the quick update the fired region is safe: the client goes
        // silent again while crossing the rest of the region, so messages
        // stay far below the sample count.
        assert!(
            server.metrics.uplink_messages < 120,
            "messages {}",
            server.metrics.uplink_messages
        );
    }

    #[test]
    fn deeper_pyramids_cost_more_client_ops_per_check() {
        let (index, grid) = world();
        let path = || (0..100).map(|i| (1_050.0 + (i % 20) as f64, 1_050.0));
        let mut shallow = ServerCtx::new(&index, &grid, 30.0, 1.0);
        run_path(&mut unicast(1), &mut shallow, path());
        let mut deep = ServerCtx::new(&index, &grid, 30.0, 1.0);
        run_path(&mut unicast(6), &mut deep, path());
        let shallow_avg =
            shallow.metrics.client_check_ops as f64 / shallow.metrics.client_checks.max(1) as f64;
        let deep_avg =
            deep.metrics.client_check_ops as f64 / deep.metrics.client_checks.max(1) as f64;
        assert!(deep_avg > shallow_avg, "deep {deep_avg} vs shallow {shallow_avg}");
    }

    #[test]
    fn broadcast_mode_fires_identically_but_ships_fewer_unicast_bits() {
        let (index, grid) = world();
        let path = || (0..200).map(|i| (200.0 + i as f64 * 10.0, 1_500.0));
        let mut uni_server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        run_path(&mut unicast(5), &mut uni_server, path());
        let mut bc_server = ServerCtx::new(&index, &grid, 30.0, 1.0);
        let mut bc = BitmapStrategy::new_broadcast(PyramidComputer::new(
            PyramidConfig::three_by_three(5),
        ));
        run_path(&mut bc, &mut bc_server, path());
        // Identical firing behaviour and message counts…
        assert_eq!(uni_server.fired_events(), bc_server.fired_events());
        assert_eq!(uni_server.metrics.uplink_messages, bc_server.metrics.uplink_messages);
        // …but the per-user downlink shrinks to overlays and patches (the
        // public bitmaps ride the broadcast channel, charged per epoch by
        // the engine).
        assert!(
            bc_server.metrics.downlink_bits < uni_server.metrics.downlink_bits,
            "broadcast {} vs unicast {}",
            bc_server.metrics.downlink_bits,
            uni_server.metrics.downlink_bits
        );
    }
}
