use crate::{GeometryError, Point};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A closed axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
///
/// Rectangles are the workhorse of the whole system: alarm regions, grid
/// cells, safe regions and R*-tree bounding boxes are all [`Rect`]s.
/// Degenerate (zero-width or zero-height) rectangles are allowed; they behave
/// as closed segments or points.
///
/// ```
/// use sa_geometry::{Point, Rect};
/// # fn main() -> Result<(), sa_geometry::GeometryError> {
/// let a = Rect::new(0.0, 0.0, 4.0, 4.0)?;
/// let b = Rect::new(2.0, 2.0, 6.0, 6.0)?;
/// let i = a.intersection(b).expect("overlap");
/// assert_eq!(i, Rect::new(2.0, 2.0, 4.0, 4.0)?);
/// assert!(a.contains_point(Point::new(4.0, 4.0))); // closed boundary
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvalidRect`] when `min > max` on either axis
    /// or any coordinate is non-finite.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Result<Rect, GeometryError> {
        let all_finite =
            min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite();
        if !all_finite || min_x > max_x || min_y > max_y {
            return Err(GeometryError::InvalidRect {
                coords: (min_x, min_y, max_x, max_y),
            });
        }
        Ok(Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        })
    }

    /// Creates a rectangle from two opposite corner points, in any order.
    pub fn from_corners(a: Point, b: Point) -> Result<Rect, GeometryError> {
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// Creates a square of side `2 * half_extent` centered on `center` — the
    /// shape of a typical alarm region ("within two miles of the store").
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvalidParameter`] when `half_extent` is
    /// negative or non-finite.
    pub fn centered_square(center: Point, half_extent: f64) -> Result<Rect, GeometryError> {
        if !half_extent.is_finite() || half_extent < 0.0 {
            return Err(GeometryError::InvalidParameter {
                name: "half_extent",
                value: half_extent,
                expected: "a non-negative finite value",
            });
        }
        Rect::new(
            center.x - half_extent,
            center.y - half_extent,
            center.x + half_extent,
            center.y + half_extent,
        )
    }

    /// A rectangle containing only `p`.
    pub fn point(p: Point) -> Rect {
        Rect {
            min_x: p.x,
            min_y: p.y,
            max_x: p.x,
            max_y: p.y,
        }
    }

    /// This rectangle with each corner rounded to the nearest
    /// [`crate::LATTICE_STEPS_PER_M`] lattice point. Rounding is monotone,
    /// so the corners stay ordered.
    pub fn snapped(&self) -> Rect {
        let (min, max) = (self.min_corner().snapped(), self.max_corner().snapped());
        Rect {
            min_x: min.x,
            min_y: min.y,
            max_x: max.x,
            max_y: max.y,
        }
    }

    /// Lower-left x.
    pub fn min_x(&self) -> f64 {
        self.min_x
    }
    /// Lower-left y.
    pub fn min_y(&self) -> f64 {
        self.min_y
    }
    /// Upper-right x.
    pub fn max_x(&self) -> f64 {
        self.max_x
    }
    /// Upper-right y.
    pub fn max_y(&self) -> f64 {
        self.max_y
    }

    /// Lower-left corner.
    pub fn min_corner(&self) -> Point {
        Point::new(self.min_x, self.min_y)
    }

    /// Upper-right corner.
    pub fn max_corner(&self) -> Point {
        Point::new(self.max_x, self.max_y)
    }

    /// All four corners, counterclockwise starting from the lower-left.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.min_x, self.min_y),
            Point::new(self.max_x, self.min_y),
            Point::new(self.max_x, self.max_y),
            Point::new(self.min_x, self.max_y),
        ]
    }

    /// Width along the x axis in meters.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height along the y axis in meters.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area in square meters.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Perimeter in meters.
    pub fn perimeter(&self) -> f64 {
        2.0 * (self.width() + self.height())
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// True when `p` lies inside or on the boundary.
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// True when `p` lies strictly inside (not on the boundary).
    pub fn contains_point_strict(&self, p: Point) -> bool {
        p.x > self.min_x && p.x < self.max_x && p.y > self.min_y && p.y < self.max_y
    }

    /// True when `other` lies entirely within `self` (boundaries may touch).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// True when the closed rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// True when the rectangles share interior points (touching boundaries do
    /// not count). Used when deciding whether an alarm region actually blocks
    /// part of a safe region.
    pub fn intersects_interior(&self, other: &Rect) -> bool {
        self.min_x < other.max_x
            && other.min_x < self.max_x
            && self.min_y < other.max_y
            && other.min_y < self.max_y
    }

    /// The overlapping region, or `None` when the rectangles are disjoint.
    pub fn intersection(&self, other: Rect) -> Option<Rect> {
        if !self.intersects(&other) {
            return None;
        }
        Some(Rect {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        })
    }

    /// The smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// The smallest rectangle containing `self` and `p`.
    pub fn extended_to(&self, p: Point) -> Rect {
        Rect {
            min_x: self.min_x.min(p.x),
            min_y: self.min_y.min(p.y),
            max_x: self.max_x.max(p.x),
            max_y: self.max_y.max(p.y),
        }
    }

    /// Grows the rectangle by `margin` on every side.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvalidParameter`] for a negative margin that
    /// would invert the rectangle.
    pub fn inflated(&self, margin: f64) -> Result<Rect, GeometryError> {
        Rect::new(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )
        .map_err(|_| GeometryError::InvalidParameter {
            name: "margin",
            value: margin,
            expected: "a margin that keeps the rectangle non-inverted",
        })
    }

    /// Minimum Euclidean distance from `p` to this rectangle; `0.0` when `p`
    /// is inside. Used by the safe-period baseline to bound how soon a user
    /// could reach an alarm region.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        let (dx, dy) = self.gaps_to_point(p);
        dx.hypot(dy)
    }

    /// The square of [`Rect::distance_to_point`], without the `hypot`:
    /// the cheap key a nearest-neighbor walk prunes on. It is rounded
    /// differently from the squared `hypot`, so a walk that must report
    /// `distance_to_point` exactly still computes it for the entries the
    /// key does not rule out.
    pub fn distance_squared_to_point(&self, p: Point) -> f64 {
        let (dx, dy) = self.gaps_to_point(p);
        dx * dx + dy * dy
    }

    /// The per-axis gaps from `p` to this rectangle, `0.0` on an axis
    /// where `p` lies within the rectangle's extent.
    fn gaps_to_point(&self, p: Point) -> (f64, f64) {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        (dx, dy)
    }

    /// The increase in area required for `self` to also cover `other`
    /// (R*-tree `ChooseSubtree` cost).
    pub fn enlargement(&self, other: Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Overlap area with `other`, `0.0` when disjoint.
    pub fn overlap_area(&self, other: Rect) -> f64 {
        self.intersection(other).map_or(0.0, |r| r.area())
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.2}, {:.2}] x [{:.2}, {:.2}]",
            self.min_x, self.max_x, self.min_y, self.max_y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    #[test]
    fn rejects_inverted_and_nonfinite() {
        assert!(Rect::new(1.0, 0.0, 0.0, 1.0).is_err());
        assert!(Rect::new(0.0, 1.0, 1.0, 0.0).is_err());
        assert!(Rect::new(f64::NAN, 0.0, 1.0, 1.0).is_err());
        assert!(Rect::new(0.0, 0.0, f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn from_corners_normalizes_order() {
        let a = Rect::from_corners(Point::new(4.0, 1.0), Point::new(1.0, 3.0)).unwrap();
        assert_eq!(a, r(1.0, 1.0, 4.0, 3.0));
    }

    #[test]
    fn centered_square_has_expected_extent() {
        let sq = Rect::centered_square(Point::new(10.0, 10.0), 2.5).unwrap();
        assert_eq!(sq, r(7.5, 7.5, 12.5, 12.5));
        assert!(Rect::centered_square(Point::new(0.0, 0.0), -1.0).is_err());
    }

    #[test]
    fn degenerate_rects_behave_as_points_and_segments() {
        let p = Rect::point(Point::new(2.0, 2.0));
        assert_eq!(p.area(), 0.0);
        assert!(p.contains_point(Point::new(2.0, 2.0)));
        assert!(p.intersects(&r(0.0, 0.0, 2.0, 2.0)));
        assert!(!p.intersects_interior(&r(0.0, 0.0, 2.0, 2.0)));
    }

    #[test]
    fn closed_boundary_semantics() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b)); // share an edge
        assert!(!a.intersects_interior(&b));
        assert_eq!(a.intersection(b).unwrap().area(), 0.0);
    }

    #[test]
    fn intersection_is_contained_in_both() {
        let a = r(0.0, 0.0, 5.0, 5.0);
        let b = r(3.0, -2.0, 9.0, 4.0);
        let i = a.intersection(b).unwrap();
        assert!(a.contains_rect(&i));
        assert!(b.contains_rect(&i));
        assert_eq!(i, r(3.0, 0.0, 5.0, 4.0));
    }

    #[test]
    fn disjoint_rects_have_no_intersection() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(b).is_none());
        assert_eq!(a.overlap_area(b), 0.0);
    }

    #[test]
    fn union_contains_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        let u = a.union(b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn distance_to_point_zero_inside_and_correct_outside() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.distance_to_point(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.distance_to_point(Point::new(2.0, 2.0)), 0.0);
        assert_eq!(a.distance_to_point(Point::new(5.0, 2.0)), 3.0);
        assert!((a.distance_to_point(Point::new(5.0, 6.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_squared_to_point_squares_the_gaps() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.distance_squared_to_point(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.distance_squared_to_point(Point::new(5.0, 2.0)), 9.0);
        assert_eq!(a.distance_squared_to_point(Point::new(5.0, 6.0)), 25.0);
        assert_eq!(a.distance_squared_to_point(Point::new(-3.0, -4.0)), 25.0);
    }

    #[test]
    fn enlargement_is_zero_for_contained_rect() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let b = r(1.0, 1.0, 2.0, 2.0);
        assert_eq!(a.enlargement(b), 0.0);
        assert!(b.enlargement(a) > 0.0);
    }

    #[test]
    fn inflated_round_trips() {
        let a = r(1.0, 1.0, 3.0, 3.0);
        let big = a.inflated(1.0).unwrap();
        assert_eq!(big, r(0.0, 0.0, 4.0, 4.0));
        assert_eq!(big.inflated(-1.0).unwrap(), a);
        assert!(a.inflated(-2.0).is_err());
    }

    #[test]
    fn corners_are_counterclockwise() {
        let a = r(0.0, 0.0, 1.0, 2.0);
        let c = a.corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[1], Point::new(1.0, 0.0));
        assert_eq!(c[2], Point::new(1.0, 2.0));
        assert_eq!(c[3], Point::new(0.0, 2.0));
    }

    #[test]
    fn extended_to_covers_point() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let e = a.extended_to(Point::new(-1.0, 5.0));
        assert!(e.contains_point(Point::new(-1.0, 5.0)));
        assert!(e.contains_rect(&a));
    }
}
