//! Distributed spatial-alarm processing simulation (paper §5).
//!
//! This crate wires the substrates together into the paper's evaluation
//! harness: vehicles move on the road network, alarms sit in the server's
//! R*-tree, and a *processing strategy* decides who evaluates what, when,
//! and at what cost. Five strategies are implemented:
//!
//! | Strategy | Paper name | Where alarms are evaluated |
//! |----------|-----------|----------------------------|
//! | [`StrategyKind::Periodic`] | PRD | server, on every location sample |
//! | [`StrategyKind::SafePeriod`] | SP | server, after adaptive silent periods |
//! | [`StrategyKind::Mwpsr`] | MWPSR | client monitors a rectangular safe region |
//! | [`StrategyKind::Pbsr`] | GBSR / PBSR | client monitors a bitmap safe region |
//! | [`StrategyKind::Optimal`] | OPT | client holds every relevant alarm in its cell |
//!
//! A [`SimulationHarness`] builds the shared world (network, alarm index,
//! grid, ground truth) once, then [`SimulationHarness::run`] executes a
//! strategy over the identical trace and returns a [`RunReport`] with the
//! evaluation's four metric families: client-to-server messages, downstream
//! bandwidth, client energy and server processing time. Every run is
//! checked against the ground-truth alarm sequence — the paper's "100% of
//! the alarms are triggered in all scenarios" requirement is an assertion,
//! not an aspiration.
//!
//! Runs shard the fleet across threads (vehicle state is seeded per vehicle
//! id, so sharding cannot change the trace).
//!
//! # Example
//!
//! ```
//! use sa_sim::{SimulationConfig, SimulationHarness, StrategyKind};
//!
//! let config = SimulationConfig::smoke_test();
//! let harness = SimulationHarness::build(&config);
//! let report = harness.run(StrategyKind::Mwpsr { y: 1.0, z: 32 });
//! assert!(report.accuracy_ok);
//! assert!(report.metrics.uplink_messages < harness.total_samples());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod energy;
mod engine;
mod ground_truth;
mod message;
mod metrics;
pub mod moving;
mod server;
mod servercost;
pub mod strategy;

pub use config::SimulationConfig;
pub use energy::EnergyModel;
pub use engine::{RunReport, SimulationHarness};
pub use ground_truth::{FiredEvent, GroundTruth};
pub use message::{
    fires, is_obstacle, opt_entry, payload, pbsr_pyramid, pbsr_refresh, region_cell,
    safe_period_s, server_mwpsr, silent_steps, Held, OptAlarm, PushedSet,
};
pub use moving::{MovingAlarmTable, MovingAwareStrategy, MovingCoordinator};
pub use metrics::{Metrics, ServerOps};
pub use server::ServerCtx;
pub use servercost::ServerCostModel;
pub use strategy::StrategyKind;
