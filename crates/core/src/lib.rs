//! Safe-region computation — the paper's primary contribution (§2–§4).
//!
//! A *safe region* for a mobile subscriber is a region within which no
//! relevant spatial alarm can trigger; while the subscriber stays inside it,
//! **no alarm evaluation is necessary anywhere in the system**. The server
//! computes the region, ships it to the client, and the client monitors its
//! own position against it — the distributed processing scheme that gives
//! the paper its scalability result.
//!
//! Three computation techniques are provided, trading size and shape of the
//! region against bandwidth and client compute:
//!
//! - [`MwpsrComputer`] — **Maximum Weighted Perimeter rectangular Safe
//!   Region** (§3): a dynamic-skyline construction (candidate points →
//!   tension points → component rectangles → greedy assembly) weighted by
//!   the steady-motion density [`sa_geometry::MotionPdf`]. With the uniform
//!   density this degrades gracefully to the *non-weighted* maximum
//!   perimeter approach of Figure 4(a), which itself improves on Hu et
//!   al. \[10\] by handling overlapping and axis-crossing alarm regions.
//! - [`PyramidComputer`] with height 1 — **GBSR**, the Grid Bitmap-encoded
//!   Safe Region (§4.1): one bit per U×V sub-cell.
//! - [`PyramidComputer`] with height ≥ 2 — **PBSR**, the Pyramid
//!   Bitmap-encoded Safe Region (§4.2): blocked cells are recursively split
//!   into U×V children up to height `h`, giving finer granularity only
//!   where alarms actually are.
//!
//! Every representation implements [`SafeRegion`], the client-side
//! containment-monitoring interface whose costs
//! ([`SafeRegion::encoded_bits`], [`SafeRegion::worst_case_check_ops`])
//! drive the bandwidth and energy models of the evaluation.
//!
//! # Example
//!
//! ```
//! use sa_core::{MwpsrComputer, SafeRegion};
//! use sa_geometry::{MotionPdf, Point, Rect};
//!
//! # fn main() -> Result<(), sa_geometry::GeometryError> {
//! let cell = Rect::new(0.0, 0.0, 1_000.0, 1_000.0)?;
//! let alarm = Rect::new(700.0, 700.0, 900.0, 900.0)?;
//! let user = Point::new(300.0, 300.0);
//!
//! let computer = MwpsrComputer::new(MotionPdf::new(1.0, 32)?);
//! let region = computer.compute(user, 0.0, cell, &[alarm]);
//!
//! assert!(region.contains(user));
//! assert!(!region.rect().intersects_interior(&alarm));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod monitor;
mod mwpsr;
pub mod oracle;
mod pyramid;

pub use bitvec::BitVec;
pub use monitor::{RectSafeRegion, SafeRegion};
pub use mwpsr::MwpsrComputer;
pub use oracle::{differential_check, OracleViolation};
pub use pyramid::{BitmapSafeRegion, FreeBlock, PyramidComputer, PyramidConfig};
