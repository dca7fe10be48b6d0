//! The spatial alarm model of the paper's §1–§2.
//!
//! A *spatial alarm* is a one-shot, location-triggered reminder defined by
//! three elements: an **alarm target** (the future location reference), an
//! **owner** (its publisher) and its **subscribers**. Alarms are categorized
//! along two axes:
//!
//! - *publish–subscribe scope*: [`AlarmScope::Private`],
//!   [`AlarmScope::Shared`] and [`AlarmScope::Public`] (public alarms are
//!   subscribed to by all mobile users, as the paper assumes),
//! - *motion*: static or moving targets ([`AlarmTarget`]), static or moving
//!   subscribers.
//!
//! The crate provides:
//!
//! - [`SpatialAlarm`] and its relevance rules,
//! - [`AlarmWorkload`] / [`WorkloadConfig`] — the seeded workload generator
//!   replicating the paper's default setup (10,000 alarms uniform over the
//!   universe, 10% public, private:shared = 2:1),
//! - [`AlarmIndex`] — one build of the paper's server-side R*-tree over
//!   alarm regions (§5.1) and the per-subscriber alarm lists; it holds
//!   the tree and reads none of it,
//! - [`AlarmSnapshot`] — the simulator's read surface over an index:
//!   every spatial read (the trigger check, the region gathers, the
//!   safe-period nearest search) is a snapshot method filtering by
//!   relevance, and each tree walk returns its [`sa_index::QueryStats`],
//!   which the simulator charges to its server-load model, so Figures
//!   4(b) and 6(d) price the paper's index. `AlarmSnapshot::from(index)`
//!   reads a static alarm set,
//! - [`AlarmStore`] — the live server's alarm state: the grid is the
//!   index. Each copy-on-write [`StoreGeneration`] holds one bucket per
//!   grid cell, striped personal lists and a public-only tree; a cell
//!   read is one bucket, a write copies only the cells and the stripe it
//!   touches, and readers pin generations lock-free while publishers
//!   install and remove alarms,
//! - [`VersionedAlarmIndex`] — the tree index with a delta, a dead set
//!   and folds, kept only because `sa-benchmark`'s probe mirror reads it.
//!
//! # Example
//!
//! ```
//! use sa_alarms::{AlarmIndex, AlarmSnapshot, AlarmWorkload, SubscriberId, WorkloadConfig};
//! use sa_geometry::{Point, Rect};
//!
//! # fn main() -> Result<(), sa_geometry::GeometryError> {
//! let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0)?;
//! let workload = AlarmWorkload::generate(&WorkloadConfig {
//!     alarms: 200,
//!     subscribers: 50,
//!     universe,
//!     ..WorkloadConfig::default()
//! });
//! let alarms = AlarmSnapshot::from(AlarmIndex::build(workload.alarms().to_vec()));
//!
//! let user = SubscriberId(3);
//! let cell = Rect::new(0.0, 0.0, 2_000.0, 2_000.0)?;
//! let stats = alarms.all_intersecting_visit(cell, |alarm| {
//!     assert!(alarm.region().intersects(&cell));
//! });
//! assert!(stats.nodes_visited >= 1);
//! for alarm in alarms.relevant_intersecting(user, cell) {
//!     assert!(alarm.is_relevant_to(user));
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alarm;
mod index;
mod snapshot;
mod store;
mod workload;

pub use alarm::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
pub use index::{AlarmIndex, NonDenseIdError};
pub use snapshot::{AlarmSnapshot, VersionedAlarmIndex};
pub use store::{cells_covering, AlarmStore, GenerationCache, StoreGeneration};
pub use workload::{AlarmWorkload, WorkloadConfig};
