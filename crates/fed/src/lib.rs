//! sa-fed: N `sa-server` instances as one logical alarm service.
//!
//! The paper distributes safe-region computation across *servers*;
//! everything below `sa-fed` runs on a single server
//! process. This crate adds the missing layer:
//!
//! * [`topology`] — a cell-ownership [`PartitionMap`]: contiguous
//!   ranges of the grid's Morton (Z-order) key space, one owner per
//!   range, versioned by a monotonically increasing epoch. Z-order
//!   keeps each member's cells spatially clustered, so a vehicle
//!   crosses partition boundaries rarely relative to cell boundaries.
//! * [`federation`] — [`Federation::launch`] starts N members on one
//!   shared clock, every member holding the full alarm index (ownership
//!   of *cells* moves; the alarm set is replicated) and the same
//!   initial map.
//! * [`handoff`] — the inter-server session-migration channel. When a
//!   vehicle crosses a partition boundary, [`HandoffChannel::migrate`]
//!   moves its session — strategy, last cell, delivery log, fired set —
//!   to the new owner with idempotent export → import → release
//!   exchanges, so the exactly-once firing guarantee survives the move.
//!   Soundness rides on the safe-region invariant: the region installed
//!   by the old owner stays valid during the transfer, so no firing can
//!   be missed while the session is in flight.
//! * [`router`] — [`FedTransport`], a client-side router implementing
//!   the plain [`Transport`](sa_server::Transport) trait, so every
//!   `sa-server` client strategy mirror and the whole resilience
//!   machine work over a federation unchanged. Stale routes bounce with
//!   `WrongOwner`; the router refreshes its map from the bouncing
//!   member, migrates the session, and re-sends.
//! * [`coordinator`] — live repartitioning: reads the per-cell update
//!   counters (`sa_cell_updates_total`) off every member, rebalances
//!   the map by observed load, and pushes the next epoch to all members
//!   with idempotent, retried `InstallTopology` exchanges.
//! * [`stats`] — the federated scrape: [`federated_scrape`] renders
//!   every member's metrics into one Prometheus document with a
//!   `member` label, merges histograms into federation-level roll-ups,
//!   and adds coordinator gauges (epoch, per-member owned cells, load
//!   imbalance) plus p99 trace exemplars.
//!
//! This crate holds the federation itself, not a harness for it: the
//! seed-reproducible, fault-injected run of a federation is
//! `sa_verify::run_case` over a `FuzzCase` with `partitions > 1`, which
//! wires these pieces over chaos links on a virtual clock and checks
//! the run against the ground truth and the transcript oracle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod federation;
pub mod handoff;
pub mod router;
pub mod stats;
pub mod topology;

pub use coordinator::Coordinator;
pub use federation::Federation;
pub use handoff::HandoffChannel;
pub use router::FedTransport;
pub use stats::federated_scrape;
pub use topology::PartitionMap;
