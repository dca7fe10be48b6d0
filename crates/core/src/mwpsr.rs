use crate::RectSafeRegion;
use sa_geometry::{MotionPdf, Point, Quadrant, Rect, FULL_TURN};

/// Maximum Weighted Perimeter rectangular Safe Region computation (§3).
///
/// The algorithm follows the paper's four steps:
///
/// 1. **Candidate points** — every relevant alarm region intersecting the
///    grid cell contributes, in each quadrant its interior reaches, the
///    corner of the region nearest the subscriber (clamped to the quadrant
///    axes, which is exactly what lets the algorithm handle *overlapping*
///    and *axis-crossing* alarm regions — the fix over Hu et al. \[10\]).
///    Candidates that fully dominate another candidate are pruned.
/// 2. **Tension points** — each surviving candidate `C_i` (sorted by
///    increasing x-distance) yields a maximal feasible corner with the
///    x-coordinate of `C_i` and the y-coordinate of `C_{i-1}` (the cell
///    boundary for `i = 0`), plus the final corner at the cell boundary.
/// 3. **Component rectangles** — each tension point spans a component
///    rectangle between the subscriber and that corner.
/// 4. **Greedy assembly** — quadrants are processed in decreasing order of
///    steady-motion probability mass; within each, the component rectangle
///    maximizing the weighted perimeter of the (partial) intersection is
///    chosen, and the four choices intersect into the final safe region.
///
/// The *weighted perimeter* of a rectangle around the subscriber weights
/// each side's length by the steady-motion probability density of the
/// angular sector the side subtends (normalized so that the uniform density
/// yields the plain perimeter — the non-weighted approach of Figure 4(a)).
///
/// If the subscriber currently lies *inside* one or more alarm regions
/// (they trigger on entry), the computation domain becomes the intersection
/// of those regions with the cell, per §2.1(ii), and the remaining regions
/// are treated as obstacles inside that domain.
#[derive(Debug, Clone)]
pub struct MwpsrComputer {
    pdf: MotionPdf,
}

impl MwpsrComputer {
    /// A computer weighting perimeters by the given steady-motion density.
    pub fn new(pdf: MotionPdf) -> MwpsrComputer {
        MwpsrComputer { pdf }
    }

    /// The non-weighted maximum perimeter variant (uniform density).
    pub fn non_weighted() -> MwpsrComputer {
        MwpsrComputer { pdf: MotionPdf::uniform() }
    }

    /// The motion density in use.
    pub fn pdf(&self) -> &MotionPdf {
        &self.pdf
    }

    /// The Hu–Xu–Lee \[10\]-style computation the paper improves upon: alarm
    /// regions are reduced to corner candidates *clamped onto the quadrant
    /// axes* with no special handling for regions that straddle an axis or
    /// contain the subscriber. As §5 notes, "the approach presented in \[10\]
    /// leads to alarm misses and erroneous safe regions in such scenarios"
    /// — this method exists to reproduce that failure in the ablation
    /// benchmarks and must not be used for correct processing.
    ///
    /// # Panics
    ///
    /// Panics when `user` lies outside `cell`.
    pub fn compute_hu_xu_lee(
        &self,
        user: Point,
        heading: f64,
        cell: Rect,
        alarm_regions: &[Rect],
    ) -> RectSafeRegion {
        assert!(cell.contains_point(user), "subscriber must be inside its grid cell");
        // No domain handling: containing regions are ignored outright.
        let obstacles: Vec<Rect> = alarm_regions
            .iter()
            .filter(|r| !r.contains_point_strict(user))
            .filter_map(|r| r.intersection(cell))
            .filter(|c| c.area() > 0.0)
            .collect();
        if obstacles.is_empty() {
            return RectSafeRegion::new(cell);
        }
        let corners: [Vec<Corner>; 4] = [
            legacy_quadrant_corners(user, cell, &obstacles, Quadrant::I),
            legacy_quadrant_corners(user, cell, &obstacles, Quadrant::II),
            legacy_quadrant_corners(user, cell, &obstacles, Quadrant::III),
            legacy_quadrant_corners(user, cell, &obstacles, Quadrant::IV),
        ];
        let rect = self.assemble(user, heading, cell, &corners);
        RectSafeRegion::new(rect)
    }

    /// Computes the safe region for a subscriber at `user` heading
    /// `heading` radians, inside grid cell `cell`, given the relevant alarm
    /// regions intersecting the cell.
    ///
    /// The result always contains `user`, lies within `cell` (and within
    /// every alarm region currently containing `user`), and shares no
    /// interior point with any alarm region that does **not** contain
    /// `user`.
    ///
    /// # Panics
    ///
    /// Panics when `user` lies outside `cell`.
    pub fn compute(
        &self,
        user: Point,
        heading: f64,
        cell: Rect,
        alarm_regions: &[Rect],
    ) -> RectSafeRegion {
        assert!(cell.contains_point(user), "subscriber must be inside its grid cell");

        // §2.1(ii): regions already containing the user bound the domain.
        // Containment is *strict* — alarm regions trigger on interior entry,
        // so a region merely touching the user's position is still an
        // unfired obstacle the safe region must exclude.
        let mut domain = cell;
        for r in alarm_regions {
            if r.contains_point_strict(user) {
                domain = domain
                    .intersection(*r)
                    .expect("regions containing the user intersect the cell at the user");
            }
        }

        // Remaining regions become obstacles, clipped to the domain; only
        // interiors block.
        let obstacles: Vec<Rect> = alarm_regions
            .iter()
            .filter(|r| !r.contains_point_strict(user))
            .filter_map(|r| r.intersection(domain))
            .filter(|c| c.area() > 0.0)
            .collect();

        if obstacles.is_empty() {
            return RectSafeRegion::new(domain);
        }

        // Per-quadrant maximal corners (steps 1-3).
        let corners: [Vec<Corner>; 4] = [
            quadrant_corners(user, domain, &obstacles, Quadrant::I),
            quadrant_corners(user, domain, &obstacles, Quadrant::II),
            quadrant_corners(user, domain, &obstacles, Quadrant::III),
            quadrant_corners(user, domain, &obstacles, Quadrant::IV),
        ];

        // Step 4: greedy assembly, then the maximality repair: the greedy
        // quadrant assembly is feasible but can leave slack when one
        // quadrant's cap makes another quadrant's constraint non-binding
        // (the intersection step of the paper's heuristic has the same
        // property). Repair grows every side to its true limit given the
        // other three.
        let rect = self.assemble(user, heading, domain, &corners);
        let rect = expand_to_maximal(rect, domain, &obstacles);
        debug_assert!(
            obstacles.iter().all(|o| !rect.intersects_interior(o)),
            "safe region must avoid all obstacle interiors"
        );
        RectSafeRegion::new(rect)
    }

    /// Step 4: greedy assembly in decreasing quadrant-probability order.
    /// Bounds relative to the user in [east, north, west, south] order;
    /// each bound keeps the exact absolute coordinate it came from
    /// (obstacle or domain edge) so the final rectangle touches — never
    /// crosses — its constraints despite floating-point rounding.
    ///
    /// The uniform density weighs every direction alike, so it reads no
    /// heading: otherwise float noise in the quadrant order and the sector
    /// masses breaks perimeter ties differently per heading, and a client
    /// whose heading crossed the wire in 16 bits would get another
    /// rectangle than the same client with its exact heading.
    fn assemble(&self, user: Point, heading: f64, domain: Rect, corners: &[Vec<Corner>; 4]) -> Rect {
        let heading = if self.pdf.is_uniform() { 0.0 } else { heading };
        let mut ext = [
            Bound { dist: domain.max_x() - user.x, abs: domain.max_x() },
            Bound { dist: domain.max_y() - user.y, abs: domain.max_y() },
            Bound { dist: user.x - domain.min_x(), abs: domain.min_x() },
            Bound { dist: user.y - domain.min_y(), abs: domain.min_y() },
        ];
        let order = self.pdf.quadrant_weights(heading).descending();
        for q in order {
            let (xi_dir, eta_dir) = quadrant_dirs(q);
            let mut best_score = f64::NEG_INFINITY;
            let mut best = (ext[xi_dir], ext[eta_dir]);
            for c in &corners[q as usize] {
                let trial_x = if c.xi.dist < ext[xi_dir].dist { c.xi } else { ext[xi_dir] };
                let trial_y = if c.eta.dist < ext[eta_dir].dist { c.eta } else { ext[eta_dir] };
                let mut trial = [ext[0].dist, ext[1].dist, ext[2].dist, ext[3].dist];
                trial[xi_dir] = trial_x.dist;
                trial[eta_dir] = trial_y.dist;
                let score = self.weighted_perimeter(trial, heading);
                if score > best_score {
                    best_score = score;
                    best = (trial_x, trial_y);
                }
            }
            ext[xi_dir] = best.0;
            ext[eta_dir] = best.1;
        }
        Rect::new(
            ext[2].abs.min(user.x),
            ext[3].abs.min(user.y),
            ext[0].abs.max(user.x),
            ext[1].abs.max(user.y),
        )
        .expect("bounds bracket the user position")
    }

    /// Weighted perimeter of the rectangle with extents
    /// `[east, north, west, south]` around the subscriber.
    fn weighted_perimeter(&self, ext: [f64; 4], heading: f64) -> f64 {
        let [e, n, w, s] = ext;
        // Corners in counterclockwise order starting south-east.
        let se = Point::new(e, -s);
        let ne = Point::new(e, n);
        let nw = Point::new(-w, n);
        let sw = Point::new(-w, -s);
        self.side_weight(se, ne, heading)
            + self.side_weight(ne, nw, heading)
            + self.side_weight(nw, sw, heading)
            + self.side_weight(sw, se, heading)
    }

    /// Length of one side weighted by the (normalized) probability mass of
    /// the angular sector it subtends as seen from the subscriber at the
    /// origin. Sides are given in counterclockwise order.
    fn side_weight(&self, a: Point, b: Point, heading: f64) -> f64 {
        let origin = Point::new(0.0, 0.0);
        let len = a.distance(b);
        if len == 0.0 {
            return 0.0;
        }
        let eps = 1.0e-12;
        if a.distance(origin) < eps || b.distance(origin) < eps {
            // Side emanating from the subscriber itself subtends a single
            // direction; weight by the density there.
            let other = if a.distance(origin) < eps { b } else { a };
            let theta = origin.heading_to(other);
            return len * self.pdf.density(theta - heading) * FULL_TURN;
        }
        let alpha = origin.heading_to(a);
        let mut beta = origin.heading_to(b);
        if beta < alpha - eps {
            beta += FULL_TURN;
        }
        let delta = beta - alpha;
        if delta < 1.0e-9 {
            let mid = Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
            let theta = origin.heading_to(mid);
            return len * self.pdf.density(theta - heading) * FULL_TURN;
        }
        len * self.pdf.sector_mass(heading, alpha, beta) / delta * FULL_TURN
    }
}

/// Direction indices (into `[east, north, west, south]` extents) capped by a
/// corner choice in quadrant `q`.
fn quadrant_dirs(q: Quadrant) -> (usize, usize) {
    match q {
        Quadrant::I => (0, 1),
        Quadrant::II => (2, 1),
        Quadrant::III => (2, 3),
        Quadrant::IV => (0, 3),
    }
}

/// Grows each side of `rect` to the farthest coordinate that keeps the
/// closed rectangle disjoint from every obstacle interior, iterating until
/// no side can grow. Every produced coordinate is an exact obstacle or
/// domain edge.
fn expand_to_maximal(rect: Rect, domain: Rect, obstacles: &[Rect]) -> Rect {
    let mut cur = rect;
    for _ in 0..16 {
        let y_overlaps = |ob: &Rect| ob.min_y() < cur.max_y() && ob.max_y() > cur.min_y();

        let east = obstacles
            .iter()
            .filter(|ob| y_overlaps(ob) && ob.min_x() >= cur.max_x())
            .map(|ob| ob.min_x())
            .fold(domain.max_x(), f64::min);
        let west = obstacles
            .iter()
            .filter(|ob| y_overlaps(ob) && ob.max_x() <= cur.min_x())
            .map(|ob| ob.max_x())
            .fold(domain.min_x(), f64::max);
        let with_x = Rect::new(west, cur.min_y(), east, cur.max_y()).expect("x growth is ordered");

        let north = obstacles
            .iter()
            .filter(|ob| {
                ob.min_x() < with_x.max_x() && ob.max_x() > with_x.min_x() && ob.min_y() >= with_x.max_y()
            })
            .map(|ob| ob.min_y())
            .fold(domain.max_y(), f64::min);
        let south = obstacles
            .iter()
            .filter(|ob| {
                ob.min_x() < with_x.max_x() && ob.max_x() > with_x.min_x() && ob.max_y() <= with_x.min_y()
            })
            .map(|ob| ob.max_y())
            .fold(domain.min_y(), f64::max);
        let next =
            Rect::new(with_x.min_x(), south, with_x.max_x(), north).expect("y growth is ordered");
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

/// A directional bound: distance from the user plus the exact absolute
/// coordinate it came from (an obstacle or domain edge).
#[derive(Debug, Clone, Copy)]
struct Bound {
    dist: f64,
    abs: f64,
}

/// A maximal feasible corner (tension point) of one quadrant's staircase.
#[derive(Debug, Clone, Copy)]
struct Corner {
    xi: Bound,
    eta: Bound,
}

/// The Hu–Xu–Lee \[10\]-style candidate generation: every obstacle reaching
/// the quadrant contributes its near corner *clamped onto the axes* as a
/// conditional staircase candidate — including obstacles that straddle an
/// axis, whose constraint is actually unconditional. The resulting regions
/// can overlap alarm interiors (the "erroneous safe regions" of §5).
fn legacy_quadrant_corners(
    user: Point,
    domain: Rect,
    obstacles: &[Rect],
    q: Quadrant,
) -> Vec<Corner> {
    let sx = q.x_sign();
    let sy = q.y_sign();
    let cap_x = if sx > 0.0 {
        Bound { dist: domain.max_x() - user.x, abs: domain.max_x() }
    } else {
        Bound { dist: user.x - domain.min_x(), abs: domain.min_x() }
    };
    let cap_y = if sy > 0.0 {
        Bound { dist: domain.max_y() - user.y, abs: domain.max_y() }
    } else {
        Bound { dist: user.y - domain.min_y(), abs: domain.min_y() }
    };
    let mut candidates: Vec<(Bound, Bound)> = Vec::new();
    for ob in obstacles {
        let (near_x, far_x, ax) = if sx > 0.0 {
            (ob.min_x() - user.x, ob.max_x() - user.x, ob.min_x())
        } else {
            (user.x - ob.max_x(), user.x - ob.min_x(), ob.max_x())
        };
        let (near_y, far_y, ay) = if sy > 0.0 {
            (ob.min_y() - user.y, ob.max_y() - user.y, ob.min_y())
        } else {
            (user.y - ob.max_y(), user.y - ob.min_y(), ob.max_y())
        };
        if far_x <= 0.0 || far_y <= 0.0 {
            continue;
        }
        // The bug: axis-straddling obstacles are clamped instead of
        // unconditionally capping the quadrant.
        candidates.push((
            Bound { dist: near_x.max(0.0), abs: if near_x < 0.0 { user.x } else { ax } },
            Bound { dist: near_y.max(0.0), abs: if near_y < 0.0 { user.y } else { ay } },
        ));
    }
    staircase_from(candidates, cap_x, cap_y)
}

/// Steps 1–3 for one quadrant: candidate points from obstacle corners,
/// dominance pruning, and the staircase of maximal feasible corners
/// (tension points), in quadrant-normalized coordinates (ξ along x, η along
/// y, both ≥ 0 pointing into the quadrant).
fn quadrant_corners(user: Point, domain: Rect, obstacles: &[Rect], q: Quadrant) -> Vec<Corner> {
    let sx = q.x_sign();
    let sy = q.y_sign();
    let mut cap_x = if sx > 0.0 {
        Bound { dist: domain.max_x() - user.x, abs: domain.max_x() }
    } else {
        Bound { dist: user.x - domain.min_x(), abs: domain.min_x() }
    };
    let mut cap_y = if sy > 0.0 {
        Bound { dist: domain.max_y() - user.y, abs: domain.max_y() }
    } else {
        Bound { dist: user.y - domain.min_y(), abs: domain.min_y() }
    };

    // Step 1: candidate points. An obstacle constrains this quadrant iff
    // its interior reaches into it (far corner strictly positive on both
    // axes). An obstacle that *straddles* a quadrant axis (near coordinate
    // strictly negative) blocks unconditionally along the other axis — any
    // rectangle around the user already spans the straddled axis — so it
    // caps the quadrant extent outright instead of contributing a
    // conditional staircase candidate. This is the case that breaks the
    // Hu et al. \[10\] construction.
    let mut candidates: Vec<(Bound, Bound)> = Vec::new();
    for ob in obstacles {
        let (near_x, far_x, ax) = if sx > 0.0 {
            (ob.min_x() - user.x, ob.max_x() - user.x, ob.min_x())
        } else {
            (user.x - ob.max_x(), user.x - ob.min_x(), ob.max_x())
        };
        let (near_y, far_y, ay) = if sy > 0.0 {
            (ob.min_y() - user.y, ob.max_y() - user.y, ob.min_y())
        } else {
            (user.y - ob.max_y(), user.y - ob.min_y(), ob.max_y())
        };
        if far_x <= 0.0 || far_y <= 0.0 {
            continue;
        }
        if near_x < 0.0 {
            // Obstacle crosses the η axis of this quadrant: the η extent is
            // capped for every choice of ξ. near_y ≥ 0 here, otherwise the
            // obstacle would contain the user and belong to the domain.
            if near_y < cap_y.dist {
                cap_y = Bound { dist: near_y.max(0.0), abs: ay };
            }
        } else if near_y < 0.0 {
            if near_x < cap_x.dist {
                cap_x = Bound { dist: near_x, abs: ax };
            }
        } else {
            candidates.push((Bound { dist: near_x, abs: ax }, Bound { dist: near_y, abs: ay }));
        }
    }

    staircase_from(candidates, cap_x, cap_y)
}

/// Dominance pruning (step 1's trim) and tension-point construction
/// (steps 2–3) shared by the sound and the legacy candidate generators.
fn staircase_from(mut candidates: Vec<(Bound, Bound)>, cap_x: Bound, cap_y: Bound) -> Vec<Corner> {
    // Dominance pruning: keep only Pareto-minimal candidates (a candidate
    // that fully dominates another is implied by it).
    candidates.sort_by(|a, b| {
        (a.0.dist, a.1.dist)
            .partial_cmp(&(b.0.dist, b.1.dist))
            .expect("finite coordinates")
    });
    let mut pruned: Vec<(Bound, Bound)> = Vec::new();
    let mut min_eta = f64::INFINITY;
    for c in candidates {
        if c.1.dist < min_eta {
            min_eta = c.1.dist;
            pruned.push(c);
        }
    }

    // Steps 2-3: tension points = maximal feasible corners of the
    // staircase, including the cell-boundary extremes.
    let mut corners = Vec::with_capacity(pruned.len() + 1);
    let mut prev_eta = cap_y;
    for &(xi, eta) in &pruned {
        if xi.dist < cap_x.dist && eta.dist < prev_eta.dist {
            corners.push(Corner { xi, eta: prev_eta });
            prev_eta = eta;
        }
    }
    corners.push(Corner { xi: cap_x, eta: prev_eta });
    corners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SafeRegion;
    use std::f64::consts::FRAC_PI_2;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    fn cell() -> Rect {
        r(0.0, 0.0, 1_000.0, 1_000.0)
    }

    fn assert_valid(region: &RectSafeRegion, user: Point, cell: Rect, obstacles: &[Rect]) {
        assert!(region.contains(user), "safe region must contain the subscriber");
        assert!(cell.contains_rect(&region.rect()), "safe region must stay in the cell");
        for ob in obstacles {
            if !ob.contains_point_strict(user) {
                assert!(
                    !region.rect().intersects_interior(ob),
                    "safe region {} overlaps obstacle {}",
                    region.rect(),
                    ob
                );
            }
        }
    }

    #[test]
    fn no_alarms_returns_whole_cell() {
        let c = MwpsrComputer::non_weighted();
        let region = c.compute(Point::new(500.0, 500.0), 0.0, cell(), &[]);
        assert_eq!(region.rect(), cell());
    }

    #[test]
    fn single_obstacle_is_avoided() {
        let c = MwpsrComputer::non_weighted();
        let user = Point::new(200.0, 200.0);
        let obstacle = r(600.0, 600.0, 800.0, 800.0);
        let region = c.compute(user, 0.0, cell(), &[obstacle]);
        assert_valid(&region, user, cell(), &[obstacle]);
        // The region should be substantially larger than trivial.
        assert!(region.rect().area() > 100_000.0);
    }

    #[test]
    fn user_inside_alarm_region_gets_the_intersection_domain() {
        let c = MwpsrComputer::non_weighted();
        let user = Point::new(500.0, 500.0);
        let containing_a = r(400.0, 400.0, 900.0, 900.0);
        let containing_b = r(300.0, 300.0, 700.0, 700.0);
        let region = c.compute(user, 0.0, cell(), &[containing_a, containing_b]);
        // §2.1(ii): safe region = intersection of containing regions.
        assert_eq!(region.rect(), r(400.0, 400.0, 700.0, 700.0));
    }

    #[test]
    fn overlapping_obstacles_are_handled() {
        // The scenario Hu et al. \[10\] gets wrong: overlapping alarm regions
        // and a region crossing the axis through the user.
        let c = MwpsrComputer::non_weighted();
        let user = Point::new(500.0, 500.0);
        let obstacles = [
            r(600.0, 300.0, 800.0, 700.0),  // crosses the +x axis
            r(550.0, 400.0, 700.0, 600.0),  // overlaps the first, nearer
            r(200.0, 700.0, 900.0, 800.0),  // spans quadrants I and II
        ];
        let region = c.compute(user, 0.0, cell(), &obstacles);
        assert_valid(&region, user, cell(), &obstacles);
        // The nearest obstacle edge caps the east extent at 550.
        assert!(region.rect().max_x() <= 550.0 + 1e-9);
        // The top band caps north at 700.
        assert!(region.rect().max_y() <= 700.0 + 1e-9);
    }

    #[test]
    fn axis_straddling_obstacle_blocks_both_quadrants() {
        let c = MwpsrComputer::non_weighted();
        let user = Point::new(500.0, 500.0);
        // A wall above the user spanning x in [300, 700]: quadrants I and II.
        let wall = r(300.0, 650.0, 700.0, 720.0);
        let region = c.compute(user, 0.0, cell(), &[wall]);
        assert_valid(&region, user, cell(), &[wall]);
        // Either north stops at 650 or the rect slips fully past a side of
        // the wall (max_x <= 300 or min_x >= 700 cannot hold because the
        // region must contain x=500).
        assert!(region.rect().max_y() <= 650.0 + 1e-9);
    }

    #[test]
    fn heading_steers_the_weighted_region() {
        let pdf = MotionPdf::new(1.9, 2).unwrap();
        let c = MwpsrComputer::new(pdf);
        let user = Point::new(500.0, 500.0);
        // One obstacle in quadrant I forces a choice: go wide (east) or
        // tall (north).
        let obstacle = r(700.0, 800.0, 900.0, 950.0);
        let east = c.compute(user, 0.0, cell(), &[obstacle]).rect();
        let north = c.compute(user, FRAC_PI_2, cell(), &[obstacle]).rect();
        assert_valid(&RectSafeRegion::new(east), user, cell(), &[obstacle]);
        assert_valid(&RectSafeRegion::new(north), user, cell(), &[obstacle]);
        // East heading favors x-extent relative to the north heading run.
        let east_aspect = east.width() / east.height();
        let north_aspect = north.width() / north.height();
        assert!(
            east_aspect >= north_aspect,
            "east {east_aspect} vs north {north_aspect}"
        );
    }

    #[test]
    fn uniform_weighting_maximizes_plain_perimeter() {
        // For the uniform pdf the weighted perimeter IS the perimeter.
        let c = MwpsrComputer::non_weighted();
        let p = c.weighted_perimeter([3.0, 4.0, 2.0, 1.0], 0.7);
        let expected = 2.0 * ((3.0 + 2.0) + (4.0 + 1.0));
        assert!((p - expected).abs() < 1e-9, "{p} vs {expected}");
    }

    #[test]
    fn non_weighted_region_ignores_the_heading() {
        // The wire's 16-bit heading, as `sa_server::wire`'s `pack_motion`
        // / `unpack_motion` round trip leaves it.
        let wire = |h: f64| {
            (h.rem_euclid(FULL_TURN) / FULL_TURN * 65_535.0).round() / 65_535.0 * FULL_TURN
        };
        let c = MwpsrComputer::non_weighted();
        let user = Point::new(382.0, 610.0);
        let obstacles = [r(505.0, 657.0, 580.0, 716.0), r(784.0, 346.0, 834.0, 376.0)];
        let north = c.compute(user, 0.0, cell(), &obstacles).rect();
        for degrees in [0.0, 45.0, 90.0, 258.0, 300.0] {
            let h = degrees * FULL_TURN / 360.0;
            for heading in [h, wire(h)] {
                let rect = c.compute(user, heading, cell(), &obstacles).rect();
                assert_eq!(rect, north, "{degrees}°");
            }
        }
    }

    #[test]
    fn weighted_perimeter_prefers_heading_side() {
        let pdf = MotionPdf::new(1.9, 4).unwrap();
        let c = MwpsrComputer::new(pdf);
        // Same shape, once extended east, once extended west; heading east.
        let east_heavy = c.weighted_perimeter([8.0, 2.0, 2.0, 2.0], 0.0);
        let west_heavy = c.weighted_perimeter([2.0, 2.0, 8.0, 2.0], 0.0);
        assert!(east_heavy > west_heavy);
    }

    #[test]
    fn user_on_cell_boundary_is_supported() {
        let c = MwpsrComputer::non_weighted();
        let user = Point::new(0.0, 0.0);
        let obstacle = r(100.0, 100.0, 300.0, 300.0);
        let region = c.compute(user, 0.0, cell(), &[obstacle]);
        assert_valid(&region, user, cell(), &[obstacle]);
    }

    #[test]
    fn obstacle_touching_user_position_degenerates_gracefully() {
        let c = MwpsrComputer::non_weighted();
        let user = Point::new(500.0, 500.0);
        // Obstacle whose corner touches the user: triggering is strict, so
        // the region is an *unfired obstacle* the safe region must not
        // enter — but touching its boundary is fine.
        let touching = r(500.0, 500.0, 600.0, 600.0);
        let region = c.compute(user, 0.0, cell(), &[touching]);
        assert!(region.contains(user));
        assert!(!region.rect().intersects_interior(&touching));
        // The region still extends away from the obstacle.
        assert!(region.rect().area() > 0.0);
    }

    #[test]
    fn dense_obstacle_field_still_produces_valid_region() {
        let c = MwpsrComputer::new(MotionPdf::new(1.0, 32).unwrap());
        let user = Point::new(505.0, 505.0);
        let mut obstacles = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let x = i as f64 * 100.0;
                let y = j as f64 * 100.0;
                // Leave the user's block free.
                if (i, j) != (5, 5) {
                    obstacles.push(r(x + 20.0, y + 20.0, x + 80.0, y + 80.0));
                }
            }
        }
        let region = c.compute(user, 1.0, cell(), &obstacles);
        assert_valid(&region, user, cell(), &obstacles);
        assert!(region.rect().area() > 0.0);
    }

    #[test]
    #[should_panic(expected = "inside its grid cell")]
    fn rejects_user_outside_cell() {
        MwpsrComputer::non_weighted().compute(Point::new(-1.0, 0.0), 0.0, cell(), &[]);
    }
}

#[cfg(test)]
mod legacy_tests {
    use super::*;
    use crate::SafeRegion;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    #[test]
    fn legacy_variant_produces_erroneous_regions_under_axis_straddling() {
        // The §5 claim about \[10\]: an alarm region straddling the axis
        // through the user yields a safe region overlapping the alarm.
        let cell = r(0.0, 0.0, 1_000.0, 1_000.0);
        let user = Point::new(500.0, 100.0);
        // A wall above the user spanning both sides of the vertical axis.
        let wall = r(300.0, 400.0, 700.0, 500.0);
        let computer = MwpsrComputer::non_weighted();

        let sound = computer.compute(user, 0.0, cell, &[wall]).rect();
        assert!(!sound.intersects_interior(&wall), "sound variant must avoid the wall");

        let legacy = computer.compute_hu_xu_lee(user, 0.0, cell, &[wall]);
        // The clamped candidates allow the legacy region to swallow part of
        // the wall's interior — exactly the failure mode the paper fixes.
        assert!(
            legacy.rect().intersects_interior(&wall),
            "legacy region {} unexpectedly avoided the wall {}",
            legacy.rect(),
            wall
        );
        assert!(legacy.contains(user));
    }

    #[test]
    fn legacy_variant_matches_sound_variant_on_benign_layouts() {
        // With every obstacle confined to a single quadrant, both variants
        // are safe (the legacy bug only bites on straddling/overlap).
        let cell = r(0.0, 0.0, 1_000.0, 1_000.0);
        let user = Point::new(200.0, 200.0);
        let obstacles = [r(600.0, 600.0, 700.0, 700.0), r(50.0, 500.0, 120.0, 580.0)];
        let computer = MwpsrComputer::non_weighted();
        let legacy = computer.compute_hu_xu_lee(user, 0.0, cell, &obstacles);
        for ob in &obstacles {
            assert!(!legacy.rect().intersects_interior(ob));
        }
    }
}
