//! Road-network mobility simulator.
//!
//! The paper evaluates on traces of 10,000 vehicles moving for one hour on
//! the Atlanta road network (~1000 km², USGS maps). This crate is the
//! self-contained substitution documented in `DESIGN.md` §4: a **seeded
//! synthetic hierarchical road network** plus a trip-structured vehicle
//! mobility model that produces deterministic, high-frequency position
//! traces.
//!
//! Pipeline:
//!
//! 1. [`NetworkConfig`] → [`generate_network`] → [`RoadNetwork`] — a jittered
//!    lattice of junctions connected by highway / arterial / local road
//!    segments with per-class speed limits,
//! 2. [`Router`] — Dijkstra shortest-travel-time trip routing,
//! 3. [`Fleet`] — a set of [`Vehicle`]s that follow routed trips, re-rolling
//!    a new destination on arrival,
//! 4. [`Fleet::step`] — advances all vehicles by one sample period and
//!    reports a [`TraceSample`] per vehicle.
//!
//! Traces are streamed rather than materialized: a paper-scale run
//! (10,000 vehicles × 1 h × 1 Hz = 36 M samples) never needs to reside in
//! memory.
//!
//! # Example
//!
//! ```
//! use sa_roadnet::{generate_network, Fleet, FleetConfig, NetworkConfig};
//!
//! let network = generate_network(&NetworkConfig::small_test());
//! let mut fleet = Fleet::new(&network, &FleetConfig { vehicles: 5, seed: 42, ..FleetConfig::default() });
//! let samples = fleet.step(1.0);
//! assert_eq!(samples.len(), 5);
//! for s in &samples {
//!     assert!(network.bounding_box().contains_point(s.pos));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fleet;
mod generator;
mod graph;
mod route;

pub use fleet::{Fleet, FleetConfig, TraceSample, Vehicle, VehicleId};
pub use generator::{generate_network, NetworkConfig};
pub use graph::{EdgeId, NodeId, RoadClass, RoadEdge, RoadNetwork, RoadNode};
pub use route::Router;
