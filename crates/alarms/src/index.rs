use crate::{AlarmId, AlarmScope, SpatialAlarm, SubscriberId};
use sa_geometry::{Point, Rect};
use sa_index::{QueryStats, RStarTree};
use std::collections::HashMap;

/// An alarm id broke the dense `0..len` id space [`AlarmIndex`] requires
/// (ids double as vector indexes). Returned by [`AlarmIndex::try_build`]
/// and [`crate::VersionedAlarmIndex::try_install`]; the server maps it to a
/// wire-level error response instead of panicking on a malformed install
/// frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonDenseIdError {
    /// The id the dense id space required next.
    pub expected: u64,
    /// The id actually presented.
    pub got: u64,
}

impl std::fmt::Display for NonDenseIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "alarm ids must be dense and ordered: expected {}, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for NonDenseIdError {}

/// The server-side index of installed spatial alarms: an R*-tree over alarm
/// regions (paper §5.1) plus per-subscriber relevance filtering. Immutable
/// once built: a changed alarm set is a new index
/// ([`crate::VersionedAlarmIndex`] builds one per write generation).
///
/// Queries come in two flavors:
///
/// - *trigger checks* — which relevant alarms contain a subscriber's
///   position ([`AlarmIndex::relevant_at`]),
/// - *safe-region scoping* — which relevant alarms intersect the
///   subscriber's current grid cell ([`AlarmIndex::relevant_intersecting`]).
///
/// Both report [`QueryStats`] variants so the simulation can charge index
/// work to the server-load model. A second tree over the public alarms
/// alone serves the live server's safe-period nearest search
/// ([`AlarmIndex::nearest_relevant_distance_unmetered`]).
#[derive(Debug)]
pub struct AlarmIndex {
    /// Items are positions in `alarms`, so the tree never assumes an
    /// alarm's id is its position.
    tree: RStarTree<usize>,
    /// The public alarms' positions alone: the entries a safe-period
    /// nearest search can return from a spatial query, so the unmetered
    /// search never opens a leaf of other subscribers' alarms.
    public: RStarTree<usize>,
    /// In ascending id order: exactly `0..len` on an index from
    /// [`AlarmIndex::try_build`], the live alarms of a snapshot
    /// generation on one from [`AlarmIndex::from_live`].
    alarms: Vec<SpatialAlarm>,
    /// Per-subscriber private/shared alarms (the subscriber's "personal"
    /// alarms), as positions in `alarms`. Public alarms are not listed —
    /// they are relevant to everyone and answered by spatial queries.
    personal: HashMap<SubscriberId, Vec<usize>>,
}

impl AlarmIndex {
    /// Builds the index over `alarms`.
    ///
    /// # Panics
    ///
    /// Panics when alarm ids are not dense (`0..alarms.len()`), which the
    /// workload generator guarantees. Callers facing untrusted ids (the
    /// server's install path) use [`AlarmIndex::try_build`] instead.
    pub fn build(alarms: Vec<SpatialAlarm>) -> AlarmIndex {
        AlarmIndex::try_build(alarms).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the index over `alarms`, rejecting non-dense ids with a
    /// typed error instead of panicking. The R*-tree is STR-bulk-loaded
    /// in one pass.
    ///
    /// # Errors
    ///
    /// [`NonDenseIdError`] when the ids are not exactly `0..alarms.len()`
    /// in order.
    pub fn try_build(alarms: Vec<SpatialAlarm>) -> Result<AlarmIndex, NonDenseIdError> {
        for (i, a) in alarms.iter().enumerate() {
            if a.id().0 as usize != i {
                return Err(NonDenseIdError { expected: i as u64, got: a.id().0 });
            }
        }
        Ok(AlarmIndex::from_live(alarms))
    }

    /// Builds the index over `alarms`, whose ids ascend but may have
    /// gaps: the live alarms a snapshot generation folds into its base,
    /// dead ones already dropped.
    pub(crate) fn from_live(alarms: Vec<SpatialAlarm>) -> AlarmIndex {
        debug_assert!(alarms.windows(2).all(|w| w[0].id() < w[1].id()));
        let entries: Vec<(Rect, usize)> =
            alarms.iter().enumerate().map(|(p, a)| (a.region(), p)).collect();
        let public_entries =
            entries.iter().filter(|&&(_, p)| alarms[p].is_public()).copied().collect();
        let tree = RStarTree::bulk_load(entries);
        let public = RStarTree::bulk_load(public_entries);
        let mut personal: HashMap<SubscriberId, Vec<usize>> = HashMap::new();
        for (p, a) in alarms.iter().enumerate() {
            for s in personal_subscribers(a.scope()) {
                personal.entry(*s).or_default().push(p);
            }
        }
        AlarmIndex { tree, public, alarms, personal }
    }

    /// The subscriber's private/shared alarms (none for subscribers who
    /// own and share nothing). Public alarms are excluded.
    pub fn personal_alarms(&self, user: SubscriberId) -> impl Iterator<Item = &SpatialAlarm> {
        let positions = self.personal.get(&user).map_or(&[][..], Vec::as_slice);
        positions.iter().map(|&p| &self.alarms[p])
    }

    /// Distance from `pos` to the nearest alarm region that is relevant to
    /// `user` and satisfies `keep` — the safe-period baseline's core query.
    /// Combines a filtered best-first nearest-neighbor search over the
    /// public alarms with a scan of the subscriber's (few) personal alarms.
    pub fn nearest_relevant_distance<F: Fn(AlarmId) -> bool>(
        &self,
        user: SubscriberId,
        pos: Point,
        keep: F,
    ) -> (Option<f64>, QueryStats) {
        // The probe's stats count whether or not it found a match — a
        // fruitless nearest-neighbor walk is still server work the
        // Figure 4(b)/6(d) load model must see.
        let (public, mut stats) = self.tree.nearest_matching(pos, |&p| {
            let a = &self.alarms[p];
            a.is_public() && keep(a.id())
        });
        let mut best: Option<f64> = public.map(|(_, _, d)| d);
        for a in self.personal_alarms(user) {
            stats.entries_tested += 1;
            if !keep(a.id()) {
                continue;
            }
            let d = a.region().distance_to_point(pos);
            if best.is_none_or(|b| d < b) {
                best = Some(d);
            }
        }
        (best, stats)
    }

    /// The distance [`AlarmIndex::nearest_relevant_distance`] reports,
    /// without its [`QueryStats`] and without touching the heap — the
    /// form the live server's safe-period grant runs per update. It
    /// searches the public-only tree, so the walk never meets another
    /// subscriber's alarm; the metered form keeps walking the all-alarm
    /// tree because the simulator's load model charges that walk.
    pub fn nearest_relevant_distance_unmetered<F: Fn(AlarmId) -> bool>(
        &self,
        user: SubscriberId,
        pos: Point,
        keep: F,
    ) -> Option<f64> {
        let public = self.public.nearest_distance_matching(pos, |&p| keep(self.alarms[p].id()));
        self.personal_alarms(user)
            .filter(|a| keep(a.id()))
            .map(|a| a.region().distance_to_point(pos))
            .fold(public, nearer)
    }

    /// Number of installed alarms.
    pub fn len(&self) -> usize {
        self.alarms.len()
    }

    /// True when no alarms are installed.
    pub fn is_empty(&self) -> bool {
        self.alarms.is_empty()
    }

    /// Alarm lookup by id, `None` for an id this index does not hold.
    pub(crate) fn get(&self, id: AlarmId) -> Option<&SpatialAlarm> {
        self.position(id).map(|p| &self.alarms[p])
    }

    /// Where alarm `id` sits in `alarms`. O(1) on a dense index, whose
    /// ids are positions; on a snapshot base, a binary search of the
    /// alarms below that position (ids ascend, so none sits past its id).
    fn position(&self, id: AlarmId) -> Option<usize> {
        let guess = usize::try_from(id.0).map_or(self.alarms.len(), |i| i.min(self.alarms.len()));
        if self.alarms.get(guess).is_some_and(|a| a.id() == id) {
            return Some(guess);
        }
        self.alarms[..guess].binary_search_by_key(&id, SpatialAlarm::id).ok()
    }

    /// All installed alarms.
    pub fn alarms(&self) -> &[SpatialAlarm] {
        &self.alarms
    }

    /// Alarms relevant to `user` whose regions contain `pos` — the
    /// server-side trigger check.
    pub fn relevant_at(&self, user: SubscriberId, pos: Point) -> (Vec<&SpatialAlarm>, QueryStats) {
        let (hits, stats) = self.tree.search_point_with_stats(pos);
        let filtered = hits
            .into_iter()
            .map(|&p| &self.alarms[p])
            .filter(|a| a.is_relevant_to(user))
            .collect();
        (filtered, stats)
    }

    /// Visits each alarm relevant to `user` whose region contains `pos`
    /// without materializing a result vector — the allocation-free
    /// counterpart of [`AlarmIndex::relevant_at`] the server's per-update
    /// trigger check runs on. No [`QueryStats`] are reported; callers that
    /// charge index work to the load model use `relevant_at` instead.
    pub fn relevant_at_visit(
        &self,
        user: SubscriberId,
        pos: Point,
        mut f: impl FnMut(&SpatialAlarm),
    ) {
        self.tree.visit_point(pos, |&p| {
            let a = &self.alarms[p];
            if a.is_relevant_to(user) {
                f(a);
            }
        });
    }

    /// Visits every alarm (regardless of subscriber) whose region
    /// intersects `area`, in [`AlarmIndex::all_intersecting`]'s order,
    /// without materializing a result vector — the form the server's
    /// region refreshes build their obstacle lists from.
    pub fn all_intersecting_visit<'a>(&'a self, area: Rect, mut f: impl FnMut(&'a SpatialAlarm)) {
        self.tree.visit_intersecting(area, |_, &p| f(&self.alarms[p]));
    }

    /// Alarms relevant to `user` whose regions intersect `area` — the set
    /// considered for safe-region computation inside a grid cell.
    pub fn relevant_intersecting(&self, user: SubscriberId, area: Rect) -> Vec<&SpatialAlarm> {
        self.relevant_intersecting_with_stats(user, area).0
    }

    /// Like [`AlarmIndex::relevant_intersecting`], also reporting traversal
    /// statistics for the server-load model.
    pub fn relevant_intersecting_with_stats(
        &self,
        user: SubscriberId,
        area: Rect,
    ) -> (Vec<&SpatialAlarm>, QueryStats) {
        let (hits, stats) = self.tree.search_intersecting_with_stats(area);
        let filtered = hits
            .into_iter()
            .map(|(_, &p)| &self.alarms[p])
            .filter(|a| a.is_relevant_to(user))
            .collect();
        (filtered, stats)
    }

    /// All alarms (regardless of subscriber) intersecting `area`.
    pub fn all_intersecting(&self, area: Rect) -> Vec<&SpatialAlarm> {
        self.all_intersecting_with_stats(area).0
    }

    /// Like [`AlarmIndex::all_intersecting`], also reporting traversal
    /// statistics for the server-load model.
    pub fn all_intersecting_with_stats(&self, area: Rect) -> (Vec<&SpatialAlarm>, QueryStats) {
        let (hits, stats) = self.tree.search_intersecting_with_stats(area);
        (hits.into_iter().map(|(_, &p)| &self.alarms[p]).collect(), stats)
    }
}

/// The subscribers whose personal lists carry an alarm of this scope
/// (none for a public alarm — the tree serves those).
fn personal_subscribers(scope: &AlarmScope) -> &[SubscriberId] {
    match scope {
        AlarmScope::Private { owner } => std::slice::from_ref(owner),
        AlarmScope::Shared { subscribers, .. } => subscribers,
        AlarmScope::Public { .. } => &[],
    }
}

/// `best` or `d`, whichever is nearer — the first of equals.
fn nearer(best: Option<f64>, d: f64) -> Option<f64> {
    if best.is_none_or(|b| d < b) { Some(d) } else { best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlarmScope;

    fn user(n: u32) -> SubscriberId {
        SubscriberId(n)
    }

    fn build_small() -> AlarmIndex {
        let mk = |id: u64, x: f64, y: f64, scope: AlarmScope| {
            SpatialAlarm::around_static_target(AlarmId(id), Point::new(x, y), 50.0, scope).unwrap()
        };
        AlarmIndex::build(vec![
            mk(0, 100.0, 100.0, AlarmScope::Public { owner: user(0) }),
            mk(1, 100.0, 100.0, AlarmScope::Private { owner: user(1) }),
            mk(2, 105.0, 105.0, AlarmScope::shared(user(2), vec![user(3)])),
            mk(3, 5_000.0, 5_000.0, AlarmScope::Public { owner: user(0) }),
        ])
    }

    #[test]
    fn relevant_at_filters_by_scope() {
        let index = build_small();
        let p = Point::new(100.0, 100.0);
        let ids = |u: u32| {
            let (alarms, _) = index.relevant_at(user(u), p);
            let mut v: Vec<u64> = alarms.iter().map(|a| a.id().0).collect();
            v.sort_unstable();
            v
        };
        // Public alarm 0 + own private alarm 1; alarm 2's shared list is {2, 3}.
        assert_eq!(ids(1), vec![0, 1]);
    }

    #[test]
    fn relevant_at_per_user_breakdown() {
        let index = build_small();
        let p = Point::new(100.0, 100.0);
        let ids = |u: u32| {
            let (alarms, _) = index.relevant_at(user(u), p);
            let mut v: Vec<u64> = alarms.iter().map(|a| a.id().0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(0), vec![0]);
        assert_eq!(ids(2), vec![0, 2]);
        assert_eq!(ids(3), vec![0, 2]);
        assert_eq!(ids(9), vec![0]);
    }

    #[test]
    fn relevant_intersecting_scopes_to_area() {
        let index = build_small();
        let cell = Rect::new(0.0, 0.0, 1_000.0, 1_000.0).unwrap();
        let (alarms, stats) = index.relevant_intersecting_with_stats(user(3), cell);
        let mut ids: Vec<u64> = alarms.iter().map(|a| a.id().0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2]); // alarm 3 is far away, alarm 1 is private to user 1
        assert!(stats.nodes_visited >= 1);
    }

    #[test]
    fn all_intersecting_ignores_scope() {
        let index = build_small();
        let cell = Rect::new(0.0, 0.0, 1_000.0, 1_000.0).unwrap();
        assert_eq!(index.all_intersecting(cell).len(), 3);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn rejects_sparse_ids() {
        let a = SpatialAlarm::around_static_target(
            AlarmId(7),
            Point::new(0.0, 0.0),
            10.0,
            AlarmScope::Public { owner: user(0) },
        )
        .unwrap();
        AlarmIndex::build(vec![a]);
    }

    #[test]
    fn try_build_reports_the_first_offending_id() {
        let public = |id: u64| {
            SpatialAlarm::around_static_target(
                AlarmId(id),
                Point::new(0.0, 0.0),
                100.0,
                AlarmScope::Public { owner: user(0) },
            )
            .unwrap()
        };
        let err = AlarmIndex::try_build(vec![public(0), public(2)]).unwrap_err();
        assert_eq!(err, NonDenseIdError { expected: 1, got: 2 });
        assert!(err.to_string().contains("dense"));
    }

    #[test]
    fn index_agrees_with_linear_scan_on_generated_workload() {
        let workload = crate::AlarmWorkload::generate(&crate::WorkloadConfig {
            alarms: 500,
            subscribers: 100,
            universe: Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap(),
            ..crate::WorkloadConfig::default()
        });
        let index = AlarmIndex::build(workload.alarms().to_vec());
        let probe_user = user(17);
        for k in 0..20 {
            let p = Point::new(k as f64 * 500.0, (19 - k) as f64 * 500.0);
            let (got, _) = index.relevant_at(probe_user, p);
            let mut got: Vec<u64> = got.iter().map(|a| a.id().0).collect();
            got.sort_unstable();
            let mut expected: Vec<u64> = workload
                .alarms()
                .iter()
                .filter(|a| a.contains(p) && a.is_relevant_to(probe_user))
                .map(|a| a.id().0)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected);
        }
    }
}

#[cfg(test)]
mod nearest_tests {
    use super::*;
    use crate::{AlarmWorkload, WorkloadConfig};

    #[test]
    fn personal_lists_cover_private_and_shared_scopes() {
        let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
        let w = AlarmWorkload::generate(&WorkloadConfig {
            alarms: 500,
            subscribers: 50,
            universe,
            ..WorkloadConfig::default()
        });
        let index = AlarmIndex::build(w.alarms().to_vec());
        let mut listed = 0usize;
        for u in 0..50 {
            let user = SubscriberId(u);
            for a in index.personal_alarms(user) {
                assert!(!a.is_public());
                assert!(a.is_relevant_to(user));
                listed += 1;
            }
        }
        // Every non-public alarm appears in at least its owner's list.
        let non_public = w.alarms().iter().filter(|a| !a.is_public()).count();
        assert!(listed >= non_public, "listed {listed} < non-public {non_public}");
    }

    /// The nearest distance by brute force: the minimum over every alarm
    /// relevant to `user` that passes `keep`.
    fn brute_nearest(
        alarms: &[SpatialAlarm],
        user: SubscriberId,
        pos: Point,
        keep: impl Fn(AlarmId) -> bool,
    ) -> Option<f64> {
        alarms
            .iter()
            .filter(|a| a.is_relevant_to(user) && keep(a.id()))
            .map(|a| a.region().distance_to_point(pos))
            .min_by(f64::total_cmp)
    }

    /// Both nearest forms — the metered walk of the all-alarm tree and
    /// the unmetered walk of the public-only tree — give the brute-force
    /// minimum, to the bit.
    #[test]
    fn nearest_relevant_distance_matches_brute_force() {
        let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
        let mixed = AlarmWorkload::generate(&WorkloadConfig {
            alarms: 400,
            subscribers: 40,
            universe,
            seed: 99,
            ..WorkloadConfig::default()
        })
        .alarms()
        .to_vec();
        let all_public: Vec<SpatialAlarm> = mixed
            .iter()
            .map(|a| {
                let scope = crate::AlarmScope::Public { owner: SubscriberId(0) };
                SpatialAlarm::new(a.id(), a.region(), a.target(), scope)
            })
            .collect();
        // No alarm, one public alarm, only public alarms, and the
        // generator's mix, where most alarms are not public.
        let cases = [Vec::new(), all_public[..1].to_vec(), all_public, mixed];
        for alarms in cases {
            let index = AlarmIndex::build(alarms.clone());
            for u in [0u32, 7, 23] {
                let user = SubscriberId(u);
                for k in 0..40u32 {
                    let pos = Point::new(
                        f64::from(k * 997 % 10_300) - 150.0,
                        f64::from(k * 773 % 10_300) - 150.0,
                    );
                    for modulus in [1, 2, 5] {
                        let keep = |id: AlarmId| id.0.is_multiple_of(modulus);
                        let want = brute_nearest(&alarms, user, pos, keep);
                        let (metered, _) = index.nearest_relevant_distance(user, pos, keep);
                        let unmetered = index.nearest_relevant_distance_unmetered(user, pos, keep);
                        let case = format!("{} alarms, user {u}, {pos:?}", alarms.len());
                        assert_eq!(metered, want, "metered, {case}");
                        assert_eq!(unmetered, want, "unmetered, {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn nearest_stats_survive_a_fruitless_probe() {
        // Predicate rejects everything: the probe returns None, but the
        // traversal work it did must still be charged to the load model
        // (the stats used to be dropped on this branch).
        let mk = |id: u64, x: f64| {
            SpatialAlarm::around_static_target(
                AlarmId(id),
                Point::new(x, 500.0),
                50.0,
                crate::AlarmScope::Public { owner: SubscriberId(0) },
            )
            .unwrap()
        };
        let index = AlarmIndex::build((0..6).map(|i| mk(i, 100.0 * i as f64)).collect());
        let (none, stats) =
            index.nearest_relevant_distance(SubscriberId(9), Point::new(0.0, 0.0), |_| false);
        assert!(none.is_none());
        assert!(stats.nodes_visited >= 1, "visited {}", stats.nodes_visited);
        assert!(stats.entries_tested >= 6, "tested {}", stats.entries_tested);
        assert_eq!(stats.matches, 0);
    }

    #[test]
    fn nearest_relevant_distance_respects_filter() {
        let universe = Rect::new(0.0, 0.0, 1_000.0, 1_000.0).unwrap();
        let mk = |id: u64, x: f64| {
            SpatialAlarm::around_static_target(
                AlarmId(id),
                Point::new(x, 500.0),
                50.0,
                crate::AlarmScope::Public { owner: SubscriberId(0) },
            )
            .unwrap()
        };
        let index = AlarmIndex::build(vec![mk(0, 300.0), mk(1, 700.0)]);
        let _ = universe;
        let pos = Point::new(200.0, 500.0);
        let (all, _) = index.nearest_relevant_distance(SubscriberId(5), pos, |_| true);
        assert!((all.unwrap() - 50.0).abs() < 1e-9); // alarm 0's edge at x=250
        // Excluding alarm 0 (e.g. already fired) falls back to alarm 1.
        let (filtered, _) =
            index.nearest_relevant_distance(SubscriberId(5), pos, |id| id != AlarmId(0));
        assert!((filtered.unwrap() - 450.0).abs() < 1e-9);
        // Excluding everything yields none.
        let (none, _) = index.nearest_relevant_distance(SubscriberId(5), pos, |_| false);
        assert!(none.is_none());
    }
}
