//! Property-based tests for the safe-region algorithms.
//!
//! The central invariant of the whole system (paper §2.1): **while a
//! subscriber stays inside its safe region, no relevant unfired alarm can
//! trigger.** Geometrically: the safe region never shares interior points
//! with any alarm region that does not already contain the subscriber.

use proptest::prelude::*;
use sa_core::{BitmapSafeRegion, MwpsrComputer, PyramidComputer, PyramidConfig, SafeRegion};
use sa_geometry::{MotionPdf, Point, Rect};

const CELL: f64 = 1_000.0;

fn cell() -> Rect {
    Rect::new(0.0, 0.0, CELL, CELL).unwrap()
}

fn arb_user() -> impl Strategy<Value = Point> {
    (0.0..CELL, 0.0..CELL).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_alarm() -> impl Strategy<Value = Rect> {
    // Alarm regions near or overlapping the cell, various sizes.
    (-200.0..CELL, -200.0..CELL, 10.0..400.0f64, 10.0..400.0f64)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h).unwrap())
}

fn arb_alarms() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(arb_alarm(), 0..25)
}

fn arb_pdf() -> impl Strategy<Value = MotionPdf> {
    prop_oneof![
        Just(MotionPdf::uniform()),
        (2u32..40).prop_map(|z| MotionPdf::new(1.0, z).unwrap()),
        (4u32..40).prop_map(|z| MotionPdf::new(1.9, z).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mwpsr_safety_invariant(
        user in arb_user(),
        heading in -std::f64::consts::PI..std::f64::consts::PI,
        alarms in arb_alarms(),
        pdf in arb_pdf(),
    ) {
        let computer = MwpsrComputer::new(pdf);
        let region = computer.compute(user, heading, cell(), &alarms);
        let rect = region.rect();

        // 1. Contains the subscriber.
        prop_assert!(region.contains(user));
        // 2. Stays within the cell.
        prop_assert!(cell().contains_rect(&rect));
        // 3. Never overlaps the interior of a non-containing alarm region.
        for a in &alarms {
            if !a.contains_point_strict(user) {
                prop_assert!(
                    !rect.intersects_interior(a),
                    "safe region {} overlaps alarm {}", rect, a
                );
            }
        }
        // 4. Stays within every containing alarm region (§2.1(ii)).
        for a in &alarms {
            if a.contains_point_strict(user) {
                prop_assert!(a.contains_rect(&rect));
            }
        }
    }

    #[test]
    fn mwpsr_is_locally_maximal(
        user in arb_user(),
        alarms in prop::collection::vec(arb_alarm(), 1..12),
    ) {
        // Growing the non-weighted region by 1% in any single direction must
        // hit an alarm interior or leave the domain — otherwise the region
        // was not maximal. (Holds for the *non-weighted* variant, which
        // maximizes plain perimeter over the staircase corners.)
        let computer = MwpsrComputer::non_weighted();
        let region = computer.compute(user, 0.0, cell(), &alarms);
        let rect = region.rect();
        let containing: Vec<&Rect> = alarms.iter().filter(|a| a.contains_point_strict(user)).collect();
        let mut domain = cell();
        for c in &containing {
            domain = domain.intersection(**c).unwrap();
        }
        let grow = 10.0;
        let grown = [
            Rect::new(rect.min_x(), rect.min_y(), rect.max_x() + grow, rect.max_y()),
            Rect::new(rect.min_x(), rect.min_y(), rect.max_x(), rect.max_y() + grow),
            Rect::new(rect.min_x() - grow, rect.min_y(), rect.max_x(), rect.max_y()),
            Rect::new(rect.min_x(), rect.min_y() - grow, rect.max_x(), rect.max_y()),
        ];
        for g in grown.into_iter().flatten() {
            let escapes_domain = !domain.contains_rect(&g);
            let hits_alarm = alarms
                .iter()
                .filter(|a| !a.contains_point_strict(user))
                .any(|a| g.intersects_interior(a));
            prop_assert!(
                escapes_domain || hits_alarm,
                "region {} could have grown to {}", rect, g
            );
        }
    }

    #[test]
    fn weighted_region_is_also_maximal_per_direction(
        user in arb_user(),
        heading in -3.0..3.0f64,
        alarms in prop::collection::vec(arb_alarm(), 1..12),
    ) {
        // Maximality holds for any pdf: every staircase corner is maximal,
        // so no single-direction growth is possible.
        let computer = MwpsrComputer::new(MotionPdf::new(1.0, 16).unwrap());
        let rect = computer.compute(user, heading, cell(), &alarms).rect();
        let mut domain = cell();
        for a in alarms.iter().filter(|a| a.contains_point_strict(user)) {
            domain = domain.intersection(*a).unwrap();
        }
        let eps = 1.0;
        let grown = [
            Rect::new(rect.min_x(), rect.min_y(), rect.max_x() + eps, rect.max_y()),
            Rect::new(rect.min_x(), rect.min_y(), rect.max_x(), rect.max_y() + eps),
            Rect::new(rect.min_x() - eps, rect.min_y(), rect.max_x(), rect.max_y()),
            Rect::new(rect.min_x(), rect.min_y() - eps, rect.max_x(), rect.max_y()),
        ];
        for g in grown.into_iter().flatten() {
            let escapes_domain = !domain.contains_rect(&g);
            let hits_alarm = alarms
                .iter()
                .filter(|a| !a.contains_point_strict(user))
                .any(|a| g.intersects_interior(a));
            prop_assert!(escapes_domain || hits_alarm);
        }
    }

    #[test]
    fn pbsr_safety_invariant(
        alarms in arb_alarms(),
        height in 1u32..5,
    ) {
        let computer = PyramidComputer::new(PyramidConfig::three_by_three(height));
        let region = computer.compute(cell(), &alarms);
        let decoded = region.decode();
        for a in &alarms {
            prop_assert!(
                !decoded.intersects_interior(a),
                "decoded safe region overlaps alarm {}", a
            );
        }
        // Coverage matches decoded area exactly.
        prop_assert!((decoded.area() / cell().area() - region.coverage()).abs() < 1e-9);
    }

    #[test]
    fn pbsr_containment_matches_decode(
        alarms in arb_alarms(),
        height in 1u32..4,
        probes in prop::collection::vec((0.0..CELL, 0.0..CELL), 20),
    ) {
        let computer = PyramidComputer::new(PyramidConfig::three_by_three(height));
        let region = computer.compute(cell(), &alarms);
        let decoded = region.decode();
        for (x, y) in probes {
            let p = Point::new(x, y);
            // Skip points exactly on sub-cell boundaries, where the closed
            // decoded rects and the half-open descent may legitimately
            // disagree.
            let on_boundary = decoded.rects().iter().any(|r| {
                (r.min_x() - p.x).abs() < 1e-9
                    || (r.max_x() - p.x).abs() < 1e-9
                    || (r.min_y() - p.y).abs() < 1e-9
                    || (r.max_y() - p.y).abs() < 1e-9
            });
            if !on_boundary {
                prop_assert_eq!(region.contains(p), decoded.contains_point(p), "at {}", p);
            }
        }
    }

    #[test]
    fn pbsr_granted_blocks_answer_like_a_descent(
        alarms in arb_alarms(),
        height in 1u32..7,
        probes in prop::collection::vec((0u32..729, 0u32..729, 0u32..3), 24),
    ) {
        let config = PyramidConfig::three_by_three(height);
        let computed = PyramidComputer::new(config).compute(cell(), &alarms);
        let decoded = BitmapSafeRegion::from_wire_bits(cell(), config, computed.to_wire_bits())
            .unwrap();
        // Probes on the finest pyramid lattice, its edges nudged by an ulp.
        let step = CELL / 729.0;
        for region in [&computed, &decoded] {
            for &(i, j, nudge) in &probes {
                let at = |k: u32| match nudge {
                    0 => f64::from(k) * step,
                    1 => (f64::from(k) * step).next_down(),
                    _ => (f64::from(k) * step).next_up(),
                };
                let p = Point::new(at(i), at(j));
                let (inside, levels, block) = region.grant(p);
                prop_assert_eq!((inside, levels), region.contains_with_cost(p));
                if !inside {
                    continue;
                }
                // Every point the block claims descends to the same answer:
                // its corners, one ulp past them, and the probe's own lines.
                let (lo, hi) = (block.min_corner(), block.max_corner());
                let xs = [lo.x, lo.x.next_down(), p.x, hi.x, hi.x.next_up()];
                let ys = [lo.y, lo.y.next_down(), p.y, hi.y, hi.y.next_up()];
                for &x in &xs {
                    for &y in &ys {
                        let q = Point::new(x, y);
                        if block.contains(q) {
                            prop_assert_eq!(
                                region.contains_with_cost(q),
                                (true, levels),
                                "{} via {}",
                                q,
                                p
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pbsr_coverage_monotone_in_height(alarms in arb_alarms()) {
        let mut prev = -1.0;
        for h in 1..=5 {
            let region = PyramidComputer::new(PyramidConfig::three_by_three(h))
                .compute(cell(), &alarms);
            let cov = region.coverage();
            prop_assert!(cov >= prev - 1e-12, "coverage shrank at h={h}");
            prev = cov;
        }
    }

    #[test]
    fn pbsr_bitmap_structure_is_consistent(alarms in arb_alarms(), height in 1u32..5) {
        let region = PyramidComputer::new(PyramidConfig::three_by_three(height))
            .compute(cell(), &alarms);
        if region.is_whole_cell_free() {
            prop_assert_eq!(region.bitmap_size(), 1);
        } else {
            // Proposition 2 structure: each level holds 9 nominal bits per
            // nominal zero of the level above (the root is the single
            // level-0 zero).
            let bits = region.nominal_level_bits();
            let zeros = region.nominal_level_zeros();
            let mut blocked = 1u64;
            for (b, z) in bits.iter().zip(zeros.iter()) {
                prop_assert_eq!(*b, blocked * 9);
                prop_assert!(*z <= *b);
                blocked = *z;
            }
            prop_assert_eq!(region.level_count(), height as usize);
            prop_assert_eq!(region.bitmap_size() as u64, 1 + bits.iter().sum::<u64>());
            // The sparse in-memory form never exceeds the nominal encoding.
            prop_assert!((region.materialized_bits() as u64) <= bits.iter().sum::<u64>());
        }
    }

    #[test]
    fn mwpsr_beats_or_matches_gbsr_coverage_never_violates_safety(
        user in arb_user(),
        alarms in arb_alarms(),
    ) {
        // Both representations must be sound simultaneously; additionally a
        // rectangular region is always a subset of the cell, so its area
        // can never exceed the cell's.
        let rect = MwpsrComputer::non_weighted().compute(user, 0.0, cell(), &alarms).rect();
        let bitmap = PyramidComputer::new(PyramidConfig::three_by_three(3)).compute(cell(), &alarms);
        prop_assert!(rect.area() <= cell().area() + 1e-6);
        prop_assert!(bitmap.coverage() <= 1.0 + 1e-12);
        // If the user is in no alarm region, the bitmap region decoded must
        // not contain any point that MWPSR excluded for alarm reasons...
        // (both are safe; no direct subset relation holds, so we only check
        // soundness of each, done above and in other tests).
    }
}
