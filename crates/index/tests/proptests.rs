//! Property-based tests: a bulk-loaded tree must answer every query kind
//! exactly like a brute-force scan of its entries, hold its structural
//! invariants and have the minimum height its fan-out admits.

use proptest::prelude::*;
use sa_geometry::{Point, Rect};
use sa_index::{RStarParams, RStarTree};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0..1_000.0f64, 0.0..1_000.0f64, 0.0..120.0f64, 0.0..120.0f64)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h).unwrap())
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-100.0..1_100.0f64, -100.0..1_100.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// The ids a brute-force scan of `rects` reports for `hit`, ascending.
fn scan(rects: &[Rect], hit: impl Fn(&Rect) -> bool) -> Vec<usize> {
    (0..rects.len()).filter(|&i| hit(&rects[i])).collect()
}

/// The distance from `p` to the nearest of `rects` whose id passes `keep`.
fn scan_nearest(rects: &[Rect], p: Point, keep: impl Fn(usize) -> bool) -> Option<f64> {
    (0..rects.len())
        .filter(|&i| keep(i))
        .map(|i| rects[i].distance_to_point(p))
        .min_by(f64::total_cmp)
}

fn check_against_scan(rects: &[Rect], max_entries: usize, ranges: &[Rect], points: &[Point]) {
    let params = RStarParams::with_max_entries(max_entries);
    let tree: RStarTree<usize> = RStarTree::bulk_load_with_params(
        params,
        rects.iter().copied().enumerate().map(|(i, r)| (r, i)).collect(),
    );
    tree.check_invariants().expect("structural invariants");
    assert_eq!(tree.len(), rects.len());

    // STR packs full nodes: the height is the minimum the fan-out admits.
    let mut min_height = 1usize;
    let mut capacity = max_entries;
    while capacity < rects.len() {
        capacity *= max_entries;
        min_height += 1;
    }
    assert_eq!(tree.height(), min_height, "height is not minimal");

    // Range queries: arbitrary rects plus some entries' own rects.
    for q in ranges.iter().chain(rects.iter().take(5)) {
        let mut got: Vec<usize> = Vec::new();
        let stats = tree.visit_intersecting(*q, |r, &i| {
            assert_eq!(r, rects[i], "visitor emitted a foreign rect");
            got.push(i);
        });
        assert_eq!(stats.matches, got.len());
        got.sort_unstable();
        assert_eq!(got, scan(rects, |r| r.intersects(q)), "range answers diverged on {:?}", q);
    }

    // Point queries: arbitrary points plus some entries' centers.
    for p in points.iter().copied().chain(rects.iter().take(5).map(Rect::center)) {
        let mut got: Vec<usize> = Vec::new();
        let stats = tree.visit_point(p, |&i| got.push(i));
        assert_eq!(stats.matches, got.len());
        got.sort_unstable();
        assert_eq!(got, scan(rects, |r| r.contains_point(p)), "point answers diverged at {:?}", p);

        // Nearest neighbour under dense, sparse and empty (modulus 0)
        // predicates.
        for modulus in [1usize, 3, 97, 0] {
            let keep = |i: usize| modulus > 0 && i.is_multiple_of(modulus);
            let want = scan_nearest(rects, p, keep);
            let (hit, stats) = tree.nearest_matching(p, |&i| keep(i));
            assert!(stats.nodes_visited >= usize::from(!rects.is_empty()));
            if let Some((rect, &i, d)) = hit {
                assert!(keep(i), "nearest returned a filtered-out entry");
                assert_eq!(rect, rects[i]);
                assert_eq!(d, rect.distance_to_point(p));
            }
            assert_eq!(hit.map(|(_, _, d)| d), want, "nearest at {:?} mod {}", p, modulus);
            assert_eq!(
                tree.nearest_distance_matching(p, |&i| keep(i)),
                want,
                "nearest distance at {:?} mod {}",
                p,
                modulus
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn agrees_with_a_scan_tiny_fanout(
        rects in prop::collection::vec(arb_rect(), 0..300),
        ranges in prop::collection::vec(arb_rect(), 1..8),
        points in prop::collection::vec(arb_point(), 1..8),
    ) {
        // Small fan-out stacks the most levels per entry.
        check_against_scan(&rects, 4, &ranges, &points);
    }

    #[test]
    fn agrees_with_a_scan_medium_fanout(
        rects in prop::collection::vec(arb_rect(), 0..400),
        ranges in prop::collection::vec(arb_rect(), 1..8),
        points in prop::collection::vec(arb_point(), 1..8),
    ) {
        check_against_scan(&rects, 8, &ranges, &points);
    }

    #[test]
    fn agrees_with_a_scan_default_fanout(
        rects in prop::collection::vec(arb_rect(), 0..1_200),
        ranges in prop::collection::vec(arb_rect(), 1..8),
        points in prop::collection::vec(arb_point(), 1..8),
    ) {
        check_against_scan(&rects, 32, &ranges, &points);
    }

    #[test]
    fn query_stats_are_consistent(rects in prop::collection::vec(arb_rect(), 1..200), q in arb_rect()) {
        let tree: RStarTree<usize> =
            RStarTree::bulk_load(rects.iter().copied().enumerate().map(|(i, r)| (r, i)).collect());
        let mut hits = 0usize;
        let stats = tree.visit_intersecting(q, |_, _| hits += 1);
        prop_assert_eq!(hits, stats.matches);
        prop_assert!(stats.nodes_visited >= 1);
        prop_assert!(stats.entries_tested >= stats.matches);
    }
}
