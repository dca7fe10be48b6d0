//! The spatial index over installed alarm regions. The paper evaluates
//! position updates "against installed spatial alarms indexed in an
//! R*-tree" (§5.1) and only ever queries that tree; so does this crate.
//!
//! [`RStarTree`] is built once, by Sort-Tile-Recursive packing
//! ([`RStarTree::bulk_load`]), and never mutated: a changed alarm set is a
//! new tree. It keeps the R*-tree's node layout and fill bounds
//! ([`RStarParams`], fan-out 32 and 40% minimum fill by default), so every
//! query answers exactly what an R*-tree over the same entries answers;
//! packing only gives it the minimum height and fuller nodes. Queries:
//!
//! - point and range search as visitors ([`RStarTree::visit_point`],
//!   [`RStarTree::visit_intersecting`]): allocation-free, and each
//!   returns the [`QueryStats`] of its walk, which the simulator's
//!   server-load model charges and the live server ignores,
//! - filtered best-first nearest neighbour ([`RStarTree::nearest_matching`])
//!   and its heap-free distance-only form
//!   ([`RStarTree::nearest_distance_matching`]).
//!
//! # Example
//!
//! ```
//! use sa_geometry::{Point, Rect};
//! use sa_index::RStarTree;
//!
//! # fn main() -> Result<(), sa_geometry::GeometryError> {
//! let tree = RStarTree::bulk_load(vec![
//!     (Rect::new(0.0, 0.0, 1.0, 1.0)?, 1u32),
//!     (Rect::new(5.0, 5.0, 6.0, 6.0)?, 2),
//! ]);
//!
//! let mut hits = Vec::new();
//! let stats = tree.visit_intersecting(Rect::new(0.5, 0.5, 5.5, 5.5)?, |_, &item| hits.push(item));
//! assert_eq!((hits.len(), stats.matches), (2, 2));
//!
//! let mut here = Vec::new();
//! tree.visit_point(Point::new(0.5, 0.5), |&item| here.push(item));
//! assert_eq!(here, vec![1]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod params;
mod tree;

pub use params::RStarParams;
pub use tree::{QueryStats, RStarTree};
