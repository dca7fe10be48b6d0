//! Planar geometry substrate for spatial alarm processing.
//!
//! This crate provides the geometric vocabulary shared by every other crate
//! in the workspace:
//!
//! - [`Point`] and [`Vec2`] — positions and displacements in a planar,
//!   meter-denominated coordinate system,
//! - [`Rect`] — closed axis-aligned rectangles (alarm regions, safe regions,
//!   grid cells),
//! - [`Grid`] / [`CellId`] — the uniform grid overlaid on the Universe of
//!   Discourse used to scope safe-region computation (paper §2.2),
//! - [`MotionPdf`] — the steady-motion probability density `p(φ; y, z)` from
//!   paper §3 (Figure 1), used to weight rectangle perimeters in the MWPSR
//!   algorithm,
//! - [`RectilinearRegion`] — a union of disjoint rectangles, the decoded
//!   geometric form of a bitmap-encoded safe region (paper §4).
//!
//! # Example
//!
//! ```
//! use sa_geometry::{Grid, Point, Rect};
//!
//! # fn main() -> Result<(), sa_geometry::GeometryError> {
//! // A 10 km x 10 km universe with 1 km grid cells.
//! let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0)?;
//! let grid = Grid::new(universe, 1_000.0)?;
//! let cell = grid.cell_of(Point::new(2_500.0, 7_200.0));
//! assert_eq!((cell.col, cell.row), (2, 7));
//! assert!(grid.cell_rect(cell).contains_point(Point::new(2_500.0, 7_200.0)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod grid;
mod motion;
mod point;
mod rect;
mod region;

pub use error::GeometryError;
pub use grid::{CellId, Grid};
pub use motion::{normalize_angle, MotionPdf, QuadrantWeights, FULL_TURN, HALF_TURN};
pub use point::{Point, Vec2, LATTICE_STEPS_PER_M};
pub use rect::Rect;
pub use region::RectilinearRegion;

/// Identifies one of the four quadrants around a subscriber position, in the
/// paper's numbering (Figure 2): I = (+x, +y), II = (−x, +y), III = (−x, −y),
/// IV = (+x, −y).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Quadrant {
    /// Quadrant I: x ≥ origin.x, y ≥ origin.y.
    I,
    /// Quadrant II: x < origin.x, y ≥ origin.y.
    II,
    /// Quadrant III: x < origin.x, y < origin.y.
    III,
    /// Quadrant IV: x ≥ origin.x, y < origin.y.
    IV,
}

impl Quadrant {
    /// All four quadrants in paper order (I, II, III, IV).
    pub const ALL: [Quadrant; 4] = [Quadrant::I, Quadrant::II, Quadrant::III, Quadrant::IV];

    /// Classifies `p` into a quadrant relative to `origin`.
    ///
    /// Points on the positive axes belong to the quadrant with the larger
    /// coordinates (ties resolve toward quadrant I), mirroring the closed
    /// rectangle convention used throughout the crate.
    ///
    /// ```
    /// use sa_geometry::{Point, Quadrant};
    /// let o = Point::new(0.0, 0.0);
    /// assert_eq!(Quadrant::of(Point::new(1.0, 1.0), o), Quadrant::I);
    /// assert_eq!(Quadrant::of(Point::new(-1.0, 1.0), o), Quadrant::II);
    /// assert_eq!(Quadrant::of(Point::new(-1.0, -1.0), o), Quadrant::III);
    /// assert_eq!(Quadrant::of(Point::new(1.0, -1.0), o), Quadrant::IV);
    /// ```
    pub fn of(p: Point, origin: Point) -> Quadrant {
        match (p.x >= origin.x, p.y >= origin.y) {
            (true, true) => Quadrant::I,
            (false, true) => Quadrant::II,
            (false, false) => Quadrant::III,
            (true, false) => Quadrant::IV,
        }
    }

    /// The angular interval `[start, start + π/2)` covered by this quadrant,
    /// measured counterclockwise from the positive x axis.
    pub fn angular_interval(self) -> (f64, f64) {
        use std::f64::consts::FRAC_PI_2;
        let start = match self {
            Quadrant::I => 0.0,
            Quadrant::II => FRAC_PI_2,
            Quadrant::III => 2.0 * FRAC_PI_2,
            Quadrant::IV => 3.0 * FRAC_PI_2,
        };
        (start, start + FRAC_PI_2)
    }

    /// Sign of the x axis in this quadrant (+1 for I/IV, −1 for II/III).
    pub fn x_sign(self) -> f64 {
        match self {
            Quadrant::I | Quadrant::IV => 1.0,
            Quadrant::II | Quadrant::III => -1.0,
        }
    }

    /// Sign of the y axis in this quadrant (+1 for I/II, −1 for III/IV).
    pub fn y_sign(self) -> f64 {
        match self {
            Quadrant::I | Quadrant::II => 1.0,
            Quadrant::III | Quadrant::IV => -1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrant_classification_covers_axes() {
        let o = Point::new(5.0, 5.0);
        assert_eq!(Quadrant::of(Point::new(5.0, 5.0), o), Quadrant::I);
        assert_eq!(Quadrant::of(Point::new(5.0, 4.0), o), Quadrant::IV);
        assert_eq!(Quadrant::of(Point::new(4.0, 5.0), o), Quadrant::II);
    }

    #[test]
    fn quadrant_angular_intervals_partition_the_circle() {
        let mut total = 0.0;
        for q in Quadrant::ALL {
            let (a, b) = q.angular_interval();
            assert!(b > a);
            total += b - a;
        }
        assert!((total - std::f64::consts::TAU).abs() < 1e-12);
    }

    #[test]
    fn quadrant_signs_match_definition() {
        assert_eq!(Quadrant::I.x_sign(), 1.0);
        assert_eq!(Quadrant::I.y_sign(), 1.0);
        assert_eq!(Quadrant::III.x_sign(), -1.0);
        assert_eq!(Quadrant::III.y_sign(), -1.0);
        assert_eq!(Quadrant::II.x_sign(), -1.0);
        assert_eq!(Quadrant::IV.y_sign(), -1.0);
    }
}
