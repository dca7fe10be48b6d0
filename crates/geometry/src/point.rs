use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Steps per meter of the coordinate lattice: the wire protocol carries
/// coordinates as Q16.16 fixed point, so one step is 1/65 536 m (≈ 15 µm).
/// A position or alarm corner on the lattice crosses the wire unchanged,
/// and the client, the server and the ground truth then test containment
/// on the same numbers.
pub const LATTICE_STEPS_PER_M: f64 = 65_536.0;

/// A position in the planar, meter-denominated coordinate system of the
/// Universe of Discourse.
///
/// ```
/// use sa_geometry::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Easting in meters.
    pub x: f64,
    /// Northing in meters.
    pub y: f64,
}

/// A displacement between two [`Point`]s, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// x component in meters.
    pub x: f64,
    /// y component in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from easting/northing coordinates.
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to `other` in meters.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other`; cheaper than
    /// [`Point::distance`] when only comparisons are needed.
    pub fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The displacement `other - self`.
    pub fn vector_to(self, other: Point) -> Vec2 {
        Vec2 {
            x: other.x - self.x,
            y: other.y - self.y,
        }
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    ///
    /// `t` is not clamped; values outside `[0, 1]` extrapolate.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }

    /// Heading (radians, counterclockwise from +x) of the direction from
    /// `self` toward `other`. Returns `0.0` when the points coincide.
    pub fn heading_to(self, other: Point) -> f64 {
        let v = self.vector_to(other);
        if v.x == 0.0 && v.y == 0.0 {
            0.0
        } else {
            v.y.atan2(v.x)
        }
    }

    /// True when both coordinates are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// This point rounded to the nearest [`LATTICE_STEPS_PER_M`] lattice
    /// point.
    pub fn snapped(self) -> Point {
        let snap = |m: f64| (m * LATTICE_STEPS_PER_M).round() / LATTICE_STEPS_PER_M;
        Point::new(snap(self.x), snap(self.y))
    }
}

impl Vec2 {
    /// Creates a displacement vector.
    pub const fn new(x: f64, y: f64) -> Vec2 {
        Vec2 { x, y }
    }

    /// A unit vector pointing along `heading` radians (counterclockwise from
    /// the +x axis).
    pub fn from_heading(heading: f64) -> Vec2 {
        Vec2 {
            x: heading.cos(),
            y: heading.sin(),
        }
    }

    /// Euclidean length in meters.
    pub fn length(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// The heading of this vector in radians; `0.0` for the zero vector.
    pub fn heading(self) -> f64 {
        if self.x == 0.0 && self.y == 0.0 {
            0.0
        } else {
            self.y.atan2(self.x)
        }
    }

    /// Returns this vector scaled to unit length, or the zero vector when the
    /// input has zero length.
    pub fn normalized(self) -> Vec2 {
        let len = self.length();
        if len == 0.0 {
            Vec2::new(0.0, 0.0)
        } else {
            self / len
        }
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.2}, {:.2}>", self.x, self.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vec2> for Point {
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vec2> for Point {
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sub for Point {
    type Output = Vec2;
    fn sub(self, rhs: Point) -> Vec2 {
        rhs.vector_to(self)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-4.0, 7.5);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, -5.0));
    }

    #[test]
    fn heading_to_cardinal_directions() {
        let o = Point::new(0.0, 0.0);
        assert!((o.heading_to(Point::new(1.0, 0.0)) - 0.0).abs() < 1e-12);
        assert!((o.heading_to(Point::new(0.0, 1.0)) - FRAC_PI_2).abs() < 1e-12);
        assert!((o.heading_to(Point::new(-1.0, 0.0)).abs() - PI).abs() < 1e-12);
        assert!((o.heading_to(Point::new(0.0, -1.0)) + FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn heading_of_coincident_points_is_zero() {
        let p = Point::new(3.0, 3.0);
        assert_eq!(p.heading_to(p), 0.0);
        assert_eq!(Vec2::new(0.0, 0.0).heading(), 0.0);
    }

    #[test]
    fn vector_arithmetic_round_trips() {
        let p = Point::new(2.0, 3.0);
        let v = Vec2::new(-1.5, 4.0);
        assert_eq!((p + v) - v, p);
        let q = Point::new(7.0, -1.0);
        assert_eq!(p + p.vector_to(q), q);
    }

    #[test]
    fn from_heading_is_unit_length() {
        for k in 0..16 {
            let h = k as f64 / 16.0 * std::f64::consts::TAU;
            let v = Vec2::from_heading(h);
            assert!((v.length() - 1.0).abs() < 1e-12);
            // heading round-trips modulo 2π
            let diff = (v.heading() - crate::normalize_angle(h)).abs();
            assert!(diff < 1e-9, "heading {h}: diff {diff}");
        }
    }

    #[test]
    fn normalized_zero_vector_is_zero() {
        assert_eq!(Vec2::new(0.0, 0.0).normalized(), Vec2::new(0.0, 0.0));
        let v = Vec2::new(3.0, -4.0).normalized();
        assert!((v.length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_difference_yields_vector() {
        let a = Point::new(5.0, 5.0);
        let b = Point::new(2.0, 1.0);
        let d = a - b;
        assert_eq!(d, Vec2::new(3.0, 4.0));
        assert_eq!(b + d, a);
    }
}
