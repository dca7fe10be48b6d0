//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use sa_geometry::{normalize_angle, Grid, MotionPdf, Point, Quadrant, Rect, RectilinearRegion};
use std::f64::consts::{PI, TAU};

fn arb_point() -> impl Strategy<Value = Point> {
    (-1.0e5..1.0e5f64, -1.0e5..1.0e5f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Rect::from_corners(a, b).unwrap())
}

fn arb_pdf() -> impl Strategy<Value = MotionPdf> {
    (0.0..0.99f64, 1u32..64).prop_map(|(ratio, z)| {
        // Ensure y/z < 1 and positive rear band by construction.
        let y = ratio * z as f64 * 2.0 / (z as f64 - 1.0).max(1.0);
        let y = y.min(0.99 * z as f64);
        MotionPdf::new(y.min(1.9), z).unwrap_or_else(|_| MotionPdf::uniform())
    })
}

/// An interior-disjoint region built from a random subset of a grid
/// split of a non-degenerate bounds rectangle — disjoint by construction.
fn arb_region() -> impl Strategy<Value = (Rect, RectilinearRegion)> {
    (
        (0.0..9_000.0f64, 0.0..9_000.0f64),
        (100.0..5_000.0f64, 100.0..5_000.0f64),
        2usize..5,
        2usize..5,
        proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 16),
    )
        .prop_map(|(origin, size, cols, rows, mask)| {
            let bounds = Rect::new(origin.0, origin.1, origin.0 + size.0, origin.1 + size.1)
                .expect("positive size");
            let w = bounds.width() / cols as f64;
            let h = bounds.height() / rows as f64;
            let mut region = RectilinearRegion::new();
            for row in 0..rows {
                for col in 0..cols {
                    if mask[(row * cols + col) % mask.len()] {
                        region.push(
                            Rect::new(
                                bounds.min_x() + w * col as f64,
                                bounds.min_y() + h * row as f64,
                                bounds.min_x() + w * (col + 1) as f64,
                                bounds.min_y() + h * (row + 1) as f64,
                            )
                            .expect("subcells of a valid rect are valid"),
                        );
                    }
                }
            }
            (bounds, region)
        })
}

proptest! {
    #[test]
    fn rect_intersection_commutes(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersection(b), b.intersection(a));
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn rect_intersection_contained_in_operands(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersection(b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(i.area() <= a.area() + 1e-9);
            prop_assert!(i.area() <= b.area() + 1e-9);
        }
    }

    #[test]
    fn rect_union_contains_operands(a in arb_rect(), b in arb_rect()) {
        let u = a.union(b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    #[test]
    fn union_and_intersection_satisfy_inclusion_exclusion_bound(a in arb_rect(), b in arb_rect()) {
        // For axis-aligned rects: area(A) + area(B) - overlap <= area(union).
        let lhs = a.area() + b.area() - a.overlap_area(b);
        prop_assert!(lhs <= a.union(b).area() * (1.0 + 1e-12) + 1e-9);
    }

    #[test]
    fn containment_implies_intersection(a in arb_rect(), p in arb_point()) {
        if a.contains_point(p) {
            prop_assert!(a.intersects(&Rect::point(p)));
            prop_assert_eq!(a.distance_to_point(p), 0.0);
        } else {
            prop_assert!(a.distance_to_point(p) > 0.0);
        }
    }

    #[test]
    fn distance_to_point_lower_bounds_center_distance(a in arb_rect(), p in arb_point()) {
        prop_assert!(a.distance_to_point(p) <= p.distance(a.center()) + 1e-9);
    }

    #[test]
    fn grid_cell_of_round_trips(
        p in (0.0..10_000.0f64, 0.0..10_000.0f64),
        cell in 50.0..5_000.0f64,
    ) {
        let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
        let grid = Grid::new(universe, cell).unwrap();
        let point = Point::new(p.0, p.1);
        let id = grid.cell_of(point);
        prop_assert!(grid.cell_rect(id).contains_point(point));
    }

    #[test]
    fn grid_cells_intersecting_is_exact(
        a in (0.0..9_000.0f64, 0.0..9_000.0f64),
        w in (10.0..3_000.0f64, 10.0..3_000.0f64),
        cell in 200.0..4_000.0f64,
    ) {
        let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
        let grid = Grid::new(universe, cell).unwrap();
        let q = Rect::new(a.0, a.1, (a.0 + w.0).min(10_000.0), (a.1 + w.1).min(10_000.0)).unwrap();
        let reported: std::collections::HashSet<_> = grid.cells_intersecting(q).collect();
        // Every cell of the grid intersecting q must be reported, and only those.
        for row in 0..grid.rows() {
            for col in 0..grid.cols() {
                let id = sa_geometry::CellId { col, row };
                let expected = grid.cell_rect(id).intersects(&q);
                prop_assert_eq!(reported.contains(&id), expected, "cell {}", id);
            }
        }
    }

    #[test]
    fn pdf_normalizes_and_is_nonnegative(pdf in arb_pdf()) {
        prop_assert!((pdf.mass(-PI, PI) - 1.0).abs() < 1e-9);
        for k in 0..48 {
            let phi = -PI + k as f64 / 48.0 * TAU;
            prop_assert!(pdf.density(phi) >= 0.0);
        }
    }

    #[test]
    fn pdf_mass_matches_numeric_integration(pdf in arb_pdf(), a in -PI..PI, b in -PI..PI) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let n = 4_000;
        let dx = (hi - lo) / n as f64;
        let mut sum = 0.0;
        for i in 0..n {
            sum += pdf.density(lo + (i as f64 + 0.5) * dx) * dx;
        }
        prop_assert!((pdf.mass(lo, hi) - sum).abs() < 2e-3,
            "mass {} vs numeric {}", pdf.mass(lo, hi), sum);
    }

    #[test]
    fn quadrant_weights_rotation_invariance(pdf in arb_pdf(), heading in -PI..PI) {
        let w = pdf.quadrant_weights(heading);
        prop_assert!((w.total() - 1.0).abs() < 1e-9);
        // Rotating heading by a quarter turn permutes quadrant masses.
        let w2 = pdf.quadrant_weights(heading + PI / 2.0);
        prop_assert!((w.weight(Quadrant::I) - w2.weight(Quadrant::II)).abs() < 1e-9);
        prop_assert!((w.weight(Quadrant::II) - w2.weight(Quadrant::III)).abs() < 1e-9);
        prop_assert!((w.weight(Quadrant::III) - w2.weight(Quadrant::IV)).abs() < 1e-9);
    }

    #[test]
    fn normalize_angle_is_idempotent(a in -1.0e4..1.0e4f64) {
        let n = normalize_angle(a);
        prop_assert!((normalize_angle(n) - n).abs() < 1e-12);
        prop_assert!(n > -PI - 1e-12 && n <= PI + 1e-12);
    }

    #[test]
    fn region_membership_and_area_are_memberwise(br in arb_region(), p in arb_point()) {
        let (_, region) = br;
        prop_assert!(region.is_interior_disjoint());
        let sum: f64 = region.rects().iter().map(|r| r.area()).sum();
        prop_assert!((region.area() - sum).abs() <= 1e-6 * sum.max(1.0));
        let memberwise = region.rects().iter().any(|r| r.contains_point(p));
        prop_assert_eq!(region.contains_point(p), memberwise);
        if region.contains_point(p) {
            prop_assert!(region.bounding_box().expect("non-empty").contains_point(p));
        }
        // `is_empty` agreeing with `len` is the property under test.
        #[allow(clippy::len_zero)]
        let no_members = region.len() == 0;
        prop_assert_eq!(region.is_empty(), no_members);
    }

    #[test]
    fn region_interior_intersection_is_memberwise(br in arb_region(), q in arb_rect()) {
        let (_, region) = br;
        let memberwise = region.rects().iter().any(|r| r.intersects_interior(&q));
        prop_assert_eq!(region.intersects_interior(&q), memberwise);
        if let Some(bb) = region.bounding_box() {
            if !bb.intersects(&q) {
                prop_assert!(!region.intersects_interior(&q));
            }
        }
    }

    #[test]
    fn safe_regions_built_from_free_subcells_avoid_obstacles(
        br in arb_region(),
        obstacles in proptest::collection::vec(arb_rect(), 0..6),
    ) {
        let (bounds, region) = br;
        // The safe-region construction invariant of the paper: keep only
        // subcells whose interior no alarm region touches; the surviving
        // region must then never claim a point strictly inside an alarm.
        let safe = RectilinearRegion::from_rects(
            region
                .rects()
                .iter()
                .filter(|r| !obstacles.iter().any(|o| o.intersects_interior(r)))
                .copied()
                .collect(),
        );
        prop_assert!(safe.is_interior_disjoint());
        for row in 0..=12 {
            for col in 0..=12 {
                let p = Point::new(
                    bounds.min_x() + bounds.width() * col as f64 / 12.0,
                    bounds.min_y() + bounds.height() * row as f64 / 12.0,
                );
                if safe.contains_point(p) {
                    for o in &obstacles {
                        prop_assert!(
                            !o.contains_point_strict(p),
                            "safe region claims {:?} strictly inside obstacle {:?}", p, o
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quadrant_of_matches_signs(p in arb_point(), o in arb_point()) {
        let q = Quadrant::of(p, o);
        if p.x >= o.x { prop_assert!(q.x_sign() > 0.0); } else { prop_assert!(q.x_sign() < 0.0); }
        if p.y >= o.y { prop_assert!(q.y_sign() > 0.0); } else { prop_assert!(q.y_sign() < 0.0); }
    }
}
