use crate::{
    EnergyModel, FiredEvent, GroundTruth, Metrics, ServerCostModel, ServerCtx, SimulationConfig,
    StrategyKind,
};
use sa_alarms::{AlarmId, AlarmIndex, AlarmSnapshot, AlarmWorkload, SubscriberId};
use sa_geometry::Grid;
use sa_roadnet::{generate_network, Fleet, RoadClass, RoadNetwork};
use std::sync::Arc;

/// The result of running one strategy over the shared trace.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The strategy that ran.
    pub kind: StrategyKind,
    /// Aggregate counters.
    pub metrics: Metrics,
    /// The firings the strategy produced.
    pub fired: Vec<FiredEvent>,
    /// Whether the firings matched the ground truth exactly (set and
    /// timing) — the paper's 100%-accuracy requirement.
    pub accuracy_ok: bool,
    /// Discrepancy description when `accuracy_ok` is false.
    pub accuracy_error: Option<String>,
    /// Simulated duration in seconds (for bandwidth normalization).
    pub duration_s: f64,
}

impl RunReport {
    /// Downstream bandwidth in Mbps (Figure 6(b)).
    pub fn downlink_mbps(&self) -> f64 {
        self.metrics.downlink_mbps(self.duration_s)
    }

    /// Client energy in mWh under `model` (Figures 5(b), 6(c)).
    pub fn client_energy_mwh(&self, model: &EnergyModel) -> f64 {
        self.metrics.client_energy_mwh(model)
    }

    /// Server time split `(alarm processing, safe-region computation)` in
    /// minutes under `model` (Figures 4(b), 6(d)).
    pub fn server_minutes(&self, model: &ServerCostModel) -> (f64, f64) {
        (
            self.metrics.alarm_processing_minutes(model),
            self.metrics.safe_region_minutes(model),
        )
    }

    /// Panics with the discrepancy description unless the run was 100%
    /// accurate. Used by tests and benches.
    ///
    /// # Panics
    ///
    /// Panics when the run missed, mistimed or spuriously fired an alarm.
    pub fn assert_accurate(&self) {
        if !self.accuracy_ok {
            panic!(
                "strategy {} violated the 100% accuracy requirement: {}",
                self.kind.label(),
                self.accuracy_error.as_deref().unwrap_or("unknown discrepancy")
            );
        }
    }
}

/// The shared world of one evaluation: road network, alarm snapshot, grid
/// overlay and the ground-truth alarm sequence. Build once, run every
/// strategy against it.
#[derive(Debug)]
pub struct SimulationHarness {
    config: SimulationConfig,
    network: RoadNetwork,
    alarms: Arc<AlarmSnapshot>,
    grid: Grid,
    ground_truth: GroundTruth,
    v_max: f64,
    /// Moving-target alarms (empty table when `config.moving_alarms == 0`).
    moving: Option<crate::MovingAlarmTable>,
}

impl SimulationHarness {
    /// Generates the world and derives the ground truth from the
    /// high-frequency trace (one sharded replay).
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent (see
    /// [`SimulationConfig::validate`]).
    pub fn build(config: &SimulationConfig) -> SimulationHarness {
        config.validate();
        let network = generate_network(&config.network);
        let workload = AlarmWorkload::generate(&config.workload);
        let alarms = Arc::new(AlarmSnapshot::from(AlarmIndex::build(workload.alarms().to_vec())));
        let grid = Grid::with_cell_area_km2(config.universe(), config.cell_area_km2)
            .expect("cell area is validated positive");
        let v_max = RoadClass::Highway.speed_mps() * config.fleet.max_speed_factor;
        let moving = if config.moving_alarms > 0 {
            Some(Self::generate_moving_alarms(config, &network, workload.alarms().len()))
        } else {
            None
        };

        let mut harness = SimulationHarness {
            config: config.clone(),
            network,
            alarms,
            grid,
            ground_truth: GroundTruth::default(),
            v_max,
            moving,
        };
        harness.ground_truth = GroundTruth::new(harness.replay());
        harness
    }

    /// Generates the moving-target alarms (taxonomy classes (2)/(3)) and
    /// precomputes their targets' trajectories. Scopes alternate between
    /// public ("alert everyone near vehicle X") and private to a random
    /// subscriber; ids continue after the static workload.
    fn generate_moving_alarms(
        config: &SimulationConfig,
        network: &RoadNetwork,
        first_id: usize,
    ) -> crate::MovingAlarmTable {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use sa_alarms::{AlarmScope, AlarmTarget, SpatialAlarm};

        let mut rng = SmallRng::seed_from_u64(config.workload.seed ^ 0x4D56_414C);
        let vehicles = config.fleet.vehicles as u32;
        let extent = config.moving_alarm_half_extent_m;
        let alarms: Vec<SpatialAlarm> = (0..config.moving_alarms)
            .map(|i| {
                let target = SubscriberId(rng.gen_range(0..vehicles));
                let owner = SubscriberId(rng.gen_range(0..vehicles));
                let scope = if i % 2 == 0 {
                    AlarmScope::Public { owner }
                } else {
                    AlarmScope::Private { owner }
                };
                SpatialAlarm::new(
                    AlarmId((first_id + i) as u64),
                    sa_geometry::Rect::centered_square(sa_geometry::Point::new(0.0, 0.0), extent)
                        .expect("positive extent"),
                    AlarmTarget::Moving(target),
                    scope,
                )
            })
            .collect();
        crate::MovingAlarmTable::build(
            network,
            &config.fleet,
            config.steps() as u32,
            config.sample_period_s,
            alarms,
        )
    }

    /// The moving-target alarm table, when configured.
    pub fn moving_alarms(&self) -> Option<&crate::MovingAlarmTable> {
        self.moving.as_ref()
    }

    /// The configuration this harness was built from.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// A harness over the *same* world (network, alarms, trace, ground
    /// truth) with a different grid cell size — the Figure 4 sweep without
    /// re-deriving the grid-independent ground truth.
    ///
    /// # Panics
    ///
    /// Panics when `cell_area_km2` is not positive.
    pub fn with_cell_area(&self, cell_area_km2: f64) -> SimulationHarness {
        let mut config = self.config.clone();
        config.cell_area_km2 = cell_area_km2;
        let grid = Grid::with_cell_area_km2(config.universe(), cell_area_km2)
            .expect("cell area must be positive");
        SimulationHarness {
            config,
            network: self.network.clone(),
            alarms: Arc::clone(&self.alarms),
            grid,
            ground_truth: self.ground_truth.clone(),
            v_max: self.v_max,
            moving: self.moving.clone(),
        }
    }

    /// The alarm index (shared, read-only): every static alarm.
    pub fn index(&self) -> &AlarmIndex {
        self.alarms.base()
    }

    /// The snapshot every spatial read of this world goes through.
    pub fn snapshot(&self) -> &AlarmSnapshot {
        &self.alarms
    }

    /// The grid overlay.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The ground-truth alarm sequence.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.ground_truth
    }

    /// The generated road network (shared, read-only).
    pub fn network(&self) -> &RoadNetwork {
        &self.network
    }

    /// The maximum speed any vehicle in this world can reach, in m/s —
    /// the bound the safe-period strategy divides distances by.
    pub fn v_max(&self) -> f64 {
        self.v_max
    }

    /// Total number of location samples in the trace (the message count of
    /// a maximally naive client).
    pub fn total_samples(&self) -> u64 {
        self.config.steps() as u64 * self.config.fleet.vehicles as u64
    }

    /// Runs `kind` over the shared trace and reports metrics plus the
    /// accuracy verdict.
    pub fn run(&self, kind: StrategyKind) -> RunReport {
        let (mut metrics, fired) = self.run_shards(kind);
        if let StrategyKind::PbsrBroadcast { height } = kind {
            self.charge_public_broadcast(&mut metrics, height);
        }
        let verdict = self.ground_truth.verify(&fired);
        RunReport {
            kind,
            metrics,
            fired,
            accuracy_ok: verdict.is_ok(),
            accuracy_error: verdict.err(),
            duration_s: self.config.duration_s,
        }
    }

    /// The §4.2 broadcast: every grid cell's public-alarm bitmap is
    /// precomputed and broadcast once per epoch. Charged to the downlink
    /// totals after the per-user runs (the per-user strategies only
    /// unicast personal overlays).
    fn charge_public_broadcast(&self, metrics: &mut Metrics, height: u32) {
        let computer = sa_core::PyramidComputer::new(crate::pbsr_pyramid(height));
        let public_rects: Vec<sa_geometry::Rect> = self
            .index()
            .alarms()
            .iter()
            .filter(|a| a.is_public())
            .map(|a| a.region())
            .collect();
        for row in 0..self.grid.rows() {
            for col in 0..self.grid.cols() {
                let rect = self.grid.cell_rect(sa_geometry::CellId { col, row });
                let local: Vec<sa_geometry::Rect> =
                    public_rects.iter().filter(|r| r.intersects(&rect)).copied().collect();
                let region = computer.compute(rect, &local);
                metrics.downlink_messages += 1;
                metrics.downlink_bits += (crate::payload::REGION_HEADER_BITS
                    + region.bitmap_size()) as u64;
                // Precomputation is offline per the paper; it is not charged
                // to the online safe-region-computation time.
            }
        }
    }

    /// Executes the strategy over vehicle shards in parallel.
    fn run_shards(&self, kind: StrategyKind) -> (Metrics, Vec<FiredEvent>) {
        let shards = self.shard_ranges();
        let results: Vec<(Metrics, Vec<FiredEvent>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|range| {
                    scope.spawn(move || {
                        let mut strategy: Box<dyn crate::strategy::Strategy> = match &self.moving {
                            Some(table) => Box::new(crate::MovingAwareStrategy::new(
                                kind.build(),
                                table,
                                self.v_max,
                            )),
                            None => kind.build(),
                        };
                        let mut server = ServerCtx::new(
                            &self.alarms,
                            &self.grid,
                            self.v_max,
                            self.config.sample_period_s,
                        );
                        let mut fleet =
                            Fleet::with_id_range(&self.network, &self.config.fleet, range);
                        let mut samples = Vec::new();
                        for step in 0..self.config.steps() as u32 {
                            fleet.step_into(self.config.sample_period_s, &mut samples);
                            for s in &samples {
                                strategy.on_sample(step, s, &mut server);
                            }
                        }
                        server.into_parts()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard panicked")).collect()
        });

        let mut metrics = Metrics::default();
        let mut fired = Vec::new();
        for (m, f) in results {
            metrics.merge(&m);
            fired.extend(f);
        }
        (metrics, fired)
    }

    /// Ground-truth replay: evaluates every sample directly against the
    /// snapshot (strict trigger semantics), recording first firings.
    fn replay(&self) -> Vec<FiredEvent> {
        let shards = self.shard_ranges();
        let results: Vec<Vec<FiredEvent>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|range| {
                    scope.spawn(move || {
                        let mut fired: std::collections::HashSet<(SubscriberId, AlarmId)> =
                            std::collections::HashSet::new();
                        let mut events = Vec::new();
                        let mut fleet =
                            Fleet::with_id_range(&self.network, &self.config.fleet, range);
                        let mut samples = Vec::new();
                        for step in 0..self.config.steps() as u32 {
                            fleet.step_into(self.config.sample_period_s, &mut samples);
                            for s in &samples {
                                let user = SubscriberId(s.vehicle.0);
                                self.alarms.relevant_at_visit(user, s.pos, |alarm| {
                                    let first = |id| fired.insert((user, id));
                                    if crate::fires(alarm, user, s.pos, first) {
                                        events.push(FiredEvent {
                                            subscriber: user,
                                            alarm: alarm.id(),
                                            step,
                                        });
                                    }
                                });
                                if let Some(table) = &self.moving {
                                    for alarm in table.triggering(user, s.pos, step) {
                                        if fired.insert((user, alarm)) {
                                            events.push(FiredEvent {
                                                subscriber: user,
                                                alarm,
                                                step,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                        events
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard panicked")).collect()
        });
        results.into_iter().flatten().collect()
    }

    /// Splits the fleet into one contiguous id range per worker thread.
    fn shard_ranges(&self) -> Vec<std::ops::Range<u32>> {
        let vehicles = self.config.fleet.vehicles as u32;
        let workers = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(4)
            .min(vehicles.max(1));
        let base = vehicles / workers;
        let extra = vehicles % workers;
        let mut ranges = Vec::with_capacity(workers as usize);
        let mut start = 0u32;
        for w in 0..workers {
            let len = base + u32::from(w < extra);
            if len == 0 {
                continue;
            }
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> SimulationHarness {
        SimulationHarness::build(&SimulationConfig::smoke_test())
    }

    #[test]
    fn ground_truth_is_deterministic() {
        let a = harness();
        let b = harness();
        assert_eq!(a.ground_truth(), b.ground_truth());
        assert!(!a.ground_truth().is_empty(), "smoke test should fire some alarms");
    }

    #[test]
    fn all_strategies_reach_100_percent_accuracy() {
        let h = harness();
        for kind in [
            StrategyKind::Periodic,
            StrategyKind::SafePeriod,
            StrategyKind::Mwpsr { y: 1.0, z: 32 },
            StrategyKind::MwpsrNonWeighted,
            StrategyKind::Pbsr { height: 1 },
            StrategyKind::Pbsr { height: 5 },
            StrategyKind::Optimal,
        ] {
            let report = h.run(kind);
            report.assert_accurate();
        }
    }

    #[test]
    fn safe_region_sends_far_fewer_messages_than_periodic() {
        let h = harness();
        let periodic = h.run(StrategyKind::Periodic);
        let mwpsr = h.run(StrategyKind::Mwpsr { y: 1.0, z: 32 });
        assert_eq!(periodic.metrics.uplink_messages, h.total_samples());
        assert!(
            (mwpsr.metrics.uplink_messages as f64)
                < 0.25 * periodic.metrics.uplink_messages as f64,
            "MWPSR {} vs PRD {}",
            mwpsr.metrics.uplink_messages,
            periodic.metrics.uplink_messages
        );
    }

    #[test]
    fn optimal_sends_fewest_messages_but_most_bits() {
        let h = harness();
        let opt = h.run(StrategyKind::Optimal);
        let mwpsr = h.run(StrategyKind::Mwpsr { y: 1.0, z: 32 });
        assert!(opt.metrics.uplink_messages <= mwpsr.metrics.uplink_messages);
        assert!(opt.metrics.downlink_bits >= mwpsr.metrics.downlink_bits);
        // OPT also burns the most client compute.
        assert!(opt.metrics.client_check_ops > mwpsr.metrics.client_check_ops);
    }

    #[test]
    fn reports_expose_derived_metrics() {
        let h = harness();
        let report = h.run(StrategyKind::Pbsr { height: 3 });
        report.assert_accurate();
        assert!(report.downlink_mbps() >= 0.0);
        assert!(report.client_energy_mwh(&EnergyModel::default()) > 0.0);
        let (alarm_min, sr_min) = report.server_minutes(&ServerCostModel::default());
        assert!(alarm_min >= 0.0 && sr_min > 0.0);
    }
}

#[cfg(test)]
mod cell_area_tests {
    use super::*;

    #[test]
    fn with_cell_area_reuses_world_but_changes_grid() {
        let h = SimulationHarness::build(&SimulationConfig::smoke_test());
        let h2 = h.with_cell_area(0.25);
        assert_eq!(h.ground_truth(), h2.ground_truth());
        assert!(h2.grid().cell_size() < h.grid().cell_size());
        // Strategies stay 100% accurate under the new grid.
        h2.run(StrategyKind::Mwpsr { y: 1.0, z: 16 }).assert_accurate();
        h2.run(StrategyKind::Pbsr { height: 3 }).assert_accurate();
    }
}

#[cfg(test)]
mod broadcast_tests {
    use super::*;

    #[test]
    fn pbsr_broadcast_is_accurate_and_cheaper_downstream() {
        let h = SimulationHarness::build(&SimulationConfig::smoke_test());
        let unicast = h.run(StrategyKind::Pbsr { height: 5 });
        let broadcast = h.run(StrategyKind::PbsrBroadcast { height: 5 });
        unicast.assert_accurate();
        broadcast.assert_accurate();
        // Identical client behaviour.
        assert_eq!(unicast.metrics.uplink_messages, broadcast.metrics.uplink_messages);
        assert_eq!(unicast.metrics.triggers, broadcast.metrics.triggers);
    }
}

#[cfg(test)]
mod moving_tests {
    use super::*;

    fn moving_config() -> SimulationConfig {
        let mut config = SimulationConfig::smoke_test();
        config.moving_alarms = 6;
        config.moving_alarm_half_extent_m = 250.0;
        config
    }

    #[test]
    fn moving_alarms_appear_in_ground_truth() {
        let h = SimulationHarness::build(&moving_config());
        let static_count = h.index().len() as u64;
        let moving_fired = h
            .ground_truth()
            .events()
            .iter()
            .filter(|e| e.alarm.0 >= static_count)
            .count();
        // With a 250 m region chasing vehicles through a 4 km town for four
        // minutes, at least one moving alarm should fire.
        assert!(moving_fired > 0, "no moving alarms fired in the smoke world");
    }

    #[test]
    fn all_strategies_stay_accurate_with_moving_targets() {
        let h = SimulationHarness::build(&moving_config());
        for kind in [
            StrategyKind::Periodic,
            StrategyKind::SafePeriod,
            StrategyKind::Mwpsr { y: 1.0, z: 32 },
            StrategyKind::Pbsr { height: 4 },
            StrategyKind::Optimal,
        ] {
            h.run(kind).assert_accurate();
        }
    }

    #[test]
    fn moving_coordination_costs_messages_but_not_accuracy() {
        let without = SimulationHarness::build(&SimulationConfig::smoke_test());
        let with = SimulationHarness::build(&moving_config());
        let kind = StrategyKind::Mwpsr { y: 1.0, z: 32 };
        let base = without.run(kind);
        let moving = with.run(kind);
        base.assert_accurate();
        moving.assert_accurate();
        assert!(
            moving.metrics.uplink_messages > base.metrics.uplink_messages,
            "coordination should add reports: {} vs {}",
            moving.metrics.uplink_messages,
            base.metrics.uplink_messages
        );
    }
}

impl std::fmt::Display for RunReport {
    /// One-paragraph human-readable summary: strategy, message volume,
    /// bandwidth, triggers and the accuracy verdict.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} uplink msgs, {:.4} Mbps down, {} triggers, {}",
            self.kind.label(),
            self.metrics.uplink_messages,
            self.downlink_mbps(),
            self.metrics.triggers,
            if self.accuracy_ok { "100% accurate" } else { "INACCURATE" }
        )
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn run_report_display_summarizes() {
        let h = SimulationHarness::build(&SimulationConfig::smoke_test());
        let report = h.run(StrategyKind::Optimal);
        let s = report.to_string();
        assert!(s.starts_with("OPT:"), "{s}");
        assert!(s.contains("100% accurate"), "{s}");
        assert!(s.contains("uplink msgs"), "{s}");
    }
}
