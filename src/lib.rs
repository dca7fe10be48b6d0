//! Facade crate for the spatial-alarms workspace.
//!
//! Re-exports the public API of every workspace crate so that examples and
//! downstream users can depend on a single crate:
//!
//! - [`geometry`] — points, rectangles, grids and the steady-motion pdf,
//! - [`index`] — the R*-tree spatial index,
//! - [`roadnet`] — the road-network mobility simulator,
//! - [`alarms`] — the spatial alarm model and workload generator,
//! - [`core`] — safe-region computation (MWPSR, GBSR, PBSR),
//! - [`obs`] — metrics registry, latency histograms, causal spans and the
//!   Prometheus text exposition,
//! - [`sim`] — the distributed processing simulation and baselines,
//! - [`server`] — the live safe-region service runtime,
//! - [`fed`] — multi-server federation: partitioned cell ownership,
//!   session handoff and live repartitioning,
//! - [`verify`] — trace replays against the ground truth, the
//!   fault-injected schedule harness and its oracles,
//! - [`viz`] — SVG rendering of networks, workloads and safe regions.
//!
//! See the repository README for a quickstart and `DESIGN.md` for the system
//! inventory.

#![forbid(unsafe_code)]

pub use sa_alarms as alarms;
pub use sa_core as core;
pub use sa_fed as fed;
pub use sa_geometry as geometry;
pub use sa_index as index;
pub use sa_obs as obs;
pub use sa_roadnet as roadnet;
pub use sa_server as server;
pub use sa_sim as sim;
pub use sa_verify as verify;
pub use sa_viz as viz;

/// The README's library example, compiled and run as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
