use crate::{GeometryError, Point, Rect};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a cell of a [`Grid`] by column (x) and row (y).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId {
    /// Zero-based column index (increasing x).
    pub col: u32,
    /// Zero-based row index (increasing y).
    pub row: u32,
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell({}, {})", self.col, self.row)
    }
}

/// The uniform grid overlaid on the Universe of Discourse (paper §2.2).
///
/// Safe-region computation is always scoped to the current grid cell of the
/// mobile subscriber: only alarms intersecting that cell are considered, and
/// the computed safe region is a subset of the cell. The grid cell size is
/// the central tuning knob of Figure 4 (0.4 – 10 km²).
///
/// Cells are half-open `[min, min + size)` on each axis except for the last
/// column/row, which also includes the universe's max boundary, so every
/// point of the universe maps to exactly one cell.
///
/// ```
/// use sa_geometry::{Grid, Point, Rect};
/// # fn main() -> Result<(), sa_geometry::GeometryError> {
/// let universe = Rect::new(0.0, 0.0, 5_000.0, 5_000.0)?;
/// let grid = Grid::new(universe, 1_000.0)?;
/// assert_eq!(grid.cols(), 5);
/// assert_eq!(grid.rows(), 5);
/// let cell = grid.cell_of(Point::new(4_999.9, 0.0));
/// assert_eq!((cell.col, cell.row), (4, 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    universe: Rect,
    cell_size: f64,
    cols: u32,
    rows: u32,
}

impl Grid {
    /// Creates a grid covering `universe` with square cells of side
    /// `cell_size` meters. The last column/row may be narrower when the
    /// universe extent is not a multiple of the cell size.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvalidParameter`] when `cell_size` is not a
    /// positive finite value or the universe is degenerate.
    pub fn new(universe: Rect, cell_size: f64) -> Result<Grid, GeometryError> {
        if !cell_size.is_finite() || cell_size <= 0.0 {
            return Err(GeometryError::InvalidParameter {
                name: "cell_size",
                value: cell_size,
                expected: "a positive finite value",
            });
        }
        if universe.width() <= 0.0 || universe.height() <= 0.0 {
            return Err(GeometryError::InvalidParameter {
                name: "universe",
                value: universe.area(),
                expected: "a universe with positive width and height",
            });
        }
        let cols = (universe.width() / cell_size).ceil() as u32;
        let rows = (universe.height() / cell_size).ceil() as u32;
        Ok(Grid {
            universe,
            cell_size,
            cols: cols.max(1),
            rows: rows.max(1),
        })
    }

    /// Creates a grid whose cells have the given area in km² — the unit the
    /// paper's Figure 4 uses ("grid cell size (sq. km.)").
    ///
    /// # Errors
    ///
    /// Same conditions as [`Grid::new`].
    pub fn with_cell_area_km2(universe: Rect, area_km2: f64) -> Result<Grid, GeometryError> {
        if !area_km2.is_finite() || area_km2 <= 0.0 {
            return Err(GeometryError::InvalidParameter {
                name: "area_km2",
                value: area_km2,
                expected: "a positive finite cell area in square kilometers",
            });
        }
        let side_m = (area_km2 * 1.0e6).sqrt();
        Grid::new(universe, side_m)
    }

    /// The Universe of Discourse this grid covers.
    pub fn universe(&self) -> Rect {
        self.universe
    }

    /// The side length of a (full) cell in meters.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The nominal cell area in km².
    pub fn cell_area_km2(&self) -> f64 {
        self.cell_size * self.cell_size / 1.0e6
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> u64 {
        self.cols as u64 * self.rows as u64
    }

    /// The cell containing `p`. Points outside the universe are clamped to
    /// the nearest boundary cell, so vehicles that wander marginally off the
    /// map (floating-point drift at the edges) still resolve to a cell.
    pub fn cell_of(&self, p: Point) -> CellId {
        // Truncating a non-negative quotient is its floor, and `max`
        // sends negatives and NaN to 0, so no `floor` call is needed.
        let col = (p.x - self.universe.min_x()) / self.cell_size;
        let row = (p.y - self.universe.min_y()) / self.cell_size;
        CellId {
            col: (col.max(0.0) as u32).min(self.cols - 1),
            row: (row.max(0.0) as u32).min(self.rows - 1),
        }
    }

    /// The cell containing `p`, or an error when `p` lies outside the
    /// universe (strict variant of [`Grid::cell_of`]).
    pub fn try_cell_of(&self, p: Point) -> Result<CellId, GeometryError> {
        if !self.universe.contains_point(p) {
            return Err(GeometryError::OutOfUniverse { point: (p.x, p.y) });
        }
        Ok(self.cell_of(p))
    }

    /// The rectangle covered by `cell`, clipped to the universe.
    ///
    /// # Panics
    ///
    /// Panics when `cell` is out of range for this grid.
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        assert!(
            cell.col < self.cols && cell.row < self.rows,
            "cell {cell} out of range for {}x{} grid",
            self.cols,
            self.rows
        );
        let min_x = self.universe.min_x() + cell.col as f64 * self.cell_size;
        let min_y = self.universe.min_y() + cell.row as f64 * self.cell_size;
        let max_x = (min_x + self.cell_size).min(self.universe.max_x());
        let max_y = (min_y + self.cell_size).min(self.universe.max_y());
        Rect::new(min_x, min_y, max_x, max_y).expect("cell rect is valid by construction")
    }

    /// Iterates over all cells intersecting `rect` (clipped to the universe).
    pub fn cells_intersecting(&self, rect: Rect) -> impl Iterator<Item = CellId> + '_ {
        let clipped = rect.intersection(self.universe);
        let (c0, c1, r0, r1) = match clipped {
            Some(r) => {
                let lo = self.cell_of(r.min_corner());
                let hi = self.cell_of(r.max_corner());
                (lo.col, hi.col, lo.row, hi.row)
            }
            // Empty range when rect is outside the universe.
            None => (1, 0, 1, 0),
        };
        (r0..=r1.max(r0))
            .flat_map(move |row| (c0..=c1.max(c0)).map(move |col| CellId { col, row }))
            .filter(move |_| clipped.is_some())
    }

    /// Flattened index of `cell` in row-major order, handy as a map key.
    pub fn cell_index(&self, cell: CellId) -> u64 {
        cell.row as u64 * self.cols as u64 + cell.col as u64
    }

    /// Inverse of [`Grid::cell_index`].
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range for this grid.
    pub fn cell_at_index(&self, index: u64) -> CellId {
        assert!(
            index < self.cell_count(),
            "index {index} out of range for {} cells",
            self.cell_count()
        );
        CellId {
            col: (index % self.cols as u64) as u32,
            row: (index / self.cols as u64) as u32,
        }
    }

    /// Morton (Z-order) space-filling-curve key of `cell`: the column and
    /// row bits interleaved, column in the even positions. Unlike
    /// [`Grid::cell_index`] the keys are not dense, but contiguous key
    /// ranges cover spatially compact blocks — the property a federation
    /// partition map wants so vehicles cross ownership boundaries rarely.
    pub fn morton_of(&self, cell: CellId) -> u64 {
        fn spread(v: u32) -> u64 {
            let mut x = v as u64; // 32 bits used
            x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
            x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
            x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
            x = (x | (x << 2)) & 0x3333_3333_3333_3333;
            (x | (x << 1)) & 0x5555_5555_5555_5555
        }
        spread(cell.col) | (spread(cell.row) << 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Rect {
        Rect::new(0.0, 0.0, 10_000.0, 8_000.0).unwrap()
    }

    #[test]
    fn rejects_bad_cell_size() {
        assert!(Grid::new(universe(), 0.0).is_err());
        assert!(Grid::new(universe(), -5.0).is_err());
        assert!(Grid::new(universe(), f64::NAN).is_err());
    }

    #[test]
    fn dimensions_round_up() {
        let g = Grid::new(universe(), 3_000.0).unwrap();
        assert_eq!(g.cols(), 4); // 10 km / 3 km
        assert_eq!(g.rows(), 3); // 8 km / 3 km
        assert_eq!(g.cell_count(), 12);
    }

    #[test]
    fn cell_area_constructor_matches_paper_units() {
        let u = Rect::new(0.0, 0.0, 31_623.0, 31_623.0).unwrap();
        let g = Grid::with_cell_area_km2(u, 2.5).unwrap();
        assert!((g.cell_area_km2() - 2.5).abs() < 1e-9);
        assert!((g.cell_size() - (2.5e6f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn every_universe_point_maps_to_containing_cell() {
        let g = Grid::new(universe(), 1_000.0).unwrap();
        let probes = [
            Point::new(0.0, 0.0),
            Point::new(9_999.999, 7_999.999),
            Point::new(10_000.0, 8_000.0), // max corner maps to last cell
            Point::new(500.0, 7_500.0),
            Point::new(999.999_999, 1_000.0),
        ];
        for p in probes {
            let cell = g.cell_of(p);
            assert!(
                g.cell_rect(cell).contains_point(p),
                "point {p} not in rect of {cell}"
            );
        }
    }

    #[test]
    fn out_of_universe_points_clamp_or_error() {
        let g = Grid::new(universe(), 1_000.0).unwrap();
        let outside = Point::new(-10.0, 9_000.0);
        let cell = g.cell_of(outside);
        assert_eq!((cell.col, cell.row), (0, 7));
        assert!(g.try_cell_of(outside).is_err());
        assert!(g.try_cell_of(Point::new(5.0, 5.0)).is_ok());
    }

    #[test]
    fn cell_rects_tile_the_universe() {
        let g = Grid::new(universe(), 3_000.0).unwrap();
        let mut total = 0.0;
        for row in 0..g.rows() {
            for col in 0..g.cols() {
                total += g.cell_rect(CellId { col, row }).area();
            }
        }
        assert!((total - universe().area()).abs() < 1e-6);
    }

    #[test]
    fn cell_of_matches_the_floored_quotient() {
        let g = Grid::with_cell_area_km2(Rect::new(-250.5, 17.25, 9_000.0, 7_000.0).unwrap(), 2.5)
            .unwrap();
        let floored = |v: f64, origin: f64, count: u32| {
            (((v - origin) / g.cell_size()).floor().max(0.0) as u32).min(count - 1)
        };
        let u = g.universe();
        let mut xs = vec![f64::NAN, -1.0e300, 1.0e300, -0.0, u.min_x() - 0.5, u.max_x() + 3.0];
        for k in 0..=g.cols() {
            let edge = u.min_x() + f64::from(k) * g.cell_size();
            xs.extend([edge, edge.next_down(), edge.next_up(), edge - 1.0e-9, edge + 1.0e-9]);
        }
        for &x in &xs {
            for &y in &xs {
                let y = y - u.min_x() + u.min_y();
                let cell = g.cell_of(Point::new(x, y));
                assert_eq!(cell.col, floored(x, u.min_x(), g.cols()), "x {x}");
                assert_eq!(cell.row, floored(y, u.min_y(), g.rows()), "y {y}");
            }
        }
    }

    #[test]
    fn cells_intersecting_covers_query_rect() {
        let g = Grid::new(universe(), 1_000.0).unwrap();
        let q = Rect::new(1_500.0, 2_500.0, 3_500.0, 3_200.0).unwrap();
        let cells: Vec<CellId> = g.cells_intersecting(q).collect();
        // columns 1..=3, rows 2..=3
        assert_eq!(cells.len(), 6);
        for cell in &cells {
            assert!(g.cell_rect(*cell).intersects(&q));
        }
    }

    #[test]
    fn cells_intersecting_outside_universe_is_empty() {
        let g = Grid::new(universe(), 1_000.0).unwrap();
        let q = Rect::new(20_000.0, 20_000.0, 21_000.0, 21_000.0).unwrap();
        assert_eq!(g.cells_intersecting(q).count(), 0);
    }

    #[test]
    fn cell_index_is_unique_and_dense() {
        let g = Grid::new(universe(), 2_000.0).unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in 0..g.rows() {
            for col in 0..g.cols() {
                let idx = g.cell_index(CellId { col, row });
                assert!(idx < g.cell_count());
                assert!(seen.insert(idx));
            }
        }
        assert_eq!(seen.len() as u64, g.cell_count());
    }

    #[test]
    fn cell_at_index_inverts_cell_index() {
        let g = Grid::new(universe(), 2_000.0).unwrap();
        for idx in 0..g.cell_count() {
            assert_eq!(g.cell_index(g.cell_at_index(idx)), idx);
        }
    }

    #[test]
    fn morton_keys_are_unique_and_interleave_bits() {
        let g = Grid::new(universe(), 1_000.0).unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in 0..g.rows() {
            for col in 0..g.cols() {
                assert!(seen.insert(g.morton_of(CellId { col, row })));
            }
        }
        // Hand-checked small codes: (col, row) → z-order.
        assert_eq!(g.morton_of(CellId { col: 0, row: 0 }), 0);
        assert_eq!(g.morton_of(CellId { col: 1, row: 0 }), 1);
        assert_eq!(g.morton_of(CellId { col: 0, row: 1 }), 2);
        assert_eq!(g.morton_of(CellId { col: 1, row: 1 }), 3);
        assert_eq!(g.morton_of(CellId { col: 2, row: 3 }), 0b1110);
    }
}
