//! Epoch-versioned copy-on-write snapshots of the alarm index.
//!
//! The paper's server model (§5.1) treats the alarm R*-tree as static, but
//! production publishers install and cancel alarms continuously. Guarding
//! the index with a reader-writer lock makes every install stall every
//! reader's trigger checks. This module removes the contention:
//!
//! - [`VersionedAlarmIndex`] keeps the current generation as an immutable
//!   [`AlarmSnapshot`] behind an epoch counter. Writers (installs,
//!   deactivations) build the *next* generation — usually by cloning a
//!   small delta fringe, occasionally by folding it into an
//!   STR-bulk-rebuilt base — and publish it with an `Arc` swap plus an
//!   epoch bump.
//! - A generation holds live alarms only. A fold rebuilds the base from
//!   the alarms still live and drops the dead ones, metadata included, so
//!   a fold costs O(live alarms), not O(every alarm ever installed).
//!   Ids stay dense — [`AlarmSnapshot::len`] is the next id an install
//!   must carry, and dead alarms still count in it — but a dead id is not
//!   addressable: [`AlarmSnapshot::get`] answers `None` for it.
//! - Readers pin a generation via a per-thread [`SnapshotCache`]: the
//!   steady state is a single atomic epoch load and a pointer deref — no
//!   lock, no allocation — so trigger checks proceed at full speed during
//!   sustained churn.
//!
//! A reader may observe a snapshot that is one publish stale. That is
//! sound under the safe-region invariant: a *new* alarm only becomes
//! eligible to fire after the server invalidates the safe regions it
//! intersects (which happens on the writer side, after publish), and a
//! *removed* alarm firing once more is indistinguishable from the race
//! where the cancel arrived just after the trigger check.

use crate::index::{AlarmIndex, NonDenseIdError};
use crate::{AlarmId, SpatialAlarm, SubscriberId};
use parking_lot::{Mutex, RwLock};
use sa_geometry::{Point, Rect};
use sa_index::QueryStats;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide counter handing each [`VersionedAlarmIndex`] a distinct
/// identity, so a [`SnapshotCache`] carried across indexes (e.g. a thread
/// serving two servers in tests) never returns another index's snapshot.
static CELL_IDS: AtomicU64 = AtomicU64::new(1);

/// Per-thread (or per-worker) cache of the last generation loaded from a
/// [`VersionedAlarmIndex`]. Construct once with [`SnapshotCache::new`] —
/// e.g. in a `thread_local!` — and pass to
/// [`VersionedAlarmIndex::load_cached`].
#[derive(Debug, Default)]
pub struct SnapshotCache {
    cell: u64,
    epoch: u64,
    snap: Option<Arc<AlarmSnapshot>>,
}

impl SnapshotCache {
    /// An empty cache; the first `load_cached` through it always refreshes.
    pub const fn new() -> SnapshotCache {
        SnapshotCache { cell: 0, epoch: 0, snap: None }
    }
}

/// One immutable generation of the alarm index: an STR-bulk-loaded base
/// of the alarms live when it was built, a small ordered delta of alarms
/// installed since (their ids continue the dense id space), and the set
/// of alarm ids deactivated since. Queries consult all three; the delta
/// and dead set are kept small by folds in [`VersionedAlarmIndex`], and a
/// fold drops every dead alarm, so a generation holds live alarms only
/// plus at most a dead set's worth of not-yet-folded ones.
#[derive(Debug)]
pub struct AlarmSnapshot {
    base: Arc<AlarmIndex>,
    delta: Vec<SpatialAlarm>,
    dead: HashSet<AlarmId>,
    /// The id the next install must carry.
    next: u64,
}

impl AlarmSnapshot {
    /// The next dense id: the number of alarms ever installed, dead ones
    /// included, though a dead alarm is no longer addressable.
    pub fn len(&self) -> usize {
        self.next as usize
    }

    /// True when no alarm was ever installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index this generation's base was built as: every alarm of a
    /// one-generation snapshot, otherwise the live alarms of the last fold.
    pub fn base(&self) -> &AlarmIndex {
        &self.base
    }

    /// The live alarm `id` (base or delta); `None` for a dead or unknown
    /// id.
    pub fn get(&self, id: AlarmId) -> Option<&SpatialAlarm> {
        let first_delta = self.next - self.delta.len() as u64;
        let alarm = if id.0 >= self.next {
            None
        } else if id.0 >= first_delta {
            self.delta.get((id.0 - first_delta) as usize)
        } else {
            self.base.get(id)
        };
        alarm.filter(|_| self.live(id))
    }

    /// True unless `id` was deactivated in this generation. The common
    /// case (nothing deactivated since the last fold) is one branch.
    fn live(&self, id: AlarmId) -> bool {
        self.dead.is_empty() || !self.dead.contains(&id)
    }

    /// The next generation with everything folded into a fresh base: this
    /// generation's live alarms except `retiring`, then `installed`, in id
    /// order. Costs O(live alarms), however many have ever died.
    fn fold(&self, installed: Option<SpatialAlarm>, retiring: Option<AlarmId>) -> AlarmSnapshot {
        let next = self.next + u64::from(installed.is_some());
        let live: Vec<SpatialAlarm> = self
            .base
            .alarms()
            .iter()
            .chain(&self.delta)
            .filter(|a| self.live(a.id()) && Some(a.id()) != retiring)
            .cloned()
            .chain(installed)
            .collect();
        AlarmSnapshot {
            base: Arc::new(AlarmIndex::from_live(live)),
            delta: Vec::new(),
            dead: HashSet::new(),
            next,
        }
    }

    /// Visits each live alarm relevant to `user` whose region contains
    /// `pos` and returns the base tree walk's [`QueryStats`]: the trigger
    /// check, which the server runs per position update (ignoring the
    /// stats) and the simulator charges to *alarm processing*.
    pub fn relevant_at_visit<'a>(
        &'a self,
        user: SubscriberId,
        pos: Point,
        f: impl FnMut(&'a SpatialAlarm),
    ) -> QueryStats {
        self.visit(Rect::point(pos), |a| a.is_relevant_to(user), f)
    }

    /// Visits every live alarm (regardless of subscriber) whose region
    /// intersects `area` and returns the base tree walk's [`QueryStats`]:
    /// the read behind every region refresh (MWPSR/PBSR obstacles, the
    /// OPT push list), in the server and the simulator alike.
    pub fn all_intersecting_visit<'a>(
        &'a self,
        area: Rect,
        f: impl FnMut(&'a SpatialAlarm),
    ) -> QueryStats {
        self.visit(area, |_| true, f)
    }

    /// The one spatial walk: each live alarm passing `keep` whose region
    /// intersects `area` (closed boundaries), base in tree order, then
    /// the delta in install order; returns the base tree walk's stats.
    fn visit<'a>(
        &'a self,
        area: Rect,
        keep: impl Fn(&SpatialAlarm) -> bool,
        mut f: impl FnMut(&'a SpatialAlarm),
    ) -> QueryStats {
        let base = &*self.base;
        let stats = base.tree.visit_intersecting(area, |_, &p| {
            let a = &base.alarms[p];
            if keep(a) && self.live(a.id()) {
                f(a);
            }
        });
        for a in &self.delta {
            if a.region().intersects(&area) && keep(a) && self.live(a.id()) {
                f(a);
            }
        }
        stats
    }

    /// Alarms relevant to `user` intersecting `area`, in
    /// [`AlarmSnapshot::all_intersecting_visit`]'s order.
    pub fn relevant_intersecting(&self, user: SubscriberId, area: Rect) -> Vec<&SpatialAlarm> {
        let mut hits = Vec::new();
        self.visit(area, |a| a.is_relevant_to(user), |a| hits.push(a));
        hits
    }

    /// All alarms intersecting `area`, regardless of subscriber.
    pub fn all_intersecting(&self, area: Rect) -> Vec<&SpatialAlarm> {
        let mut hits = Vec::new();
        self.all_intersecting_visit(area, |a| hits.push(a));
        hits
    }

    /// Distance from `pos` to the nearest live alarm relevant to `user`
    /// passing `keep` — the safe-period baseline's core query: a filtered
    /// best-first search of the all-alarm tree for public alarms, then a
    /// scan of the subscriber's personal alarms and the delta. The stats
    /// count the tree walk even when it finds nothing (the Figure 4(b)/6(d)
    /// load model must see a fruitless walk) plus every alarm scanned.
    pub fn nearest_relevant_distance<F: Fn(AlarmId) -> bool>(
        &self,
        user: SubscriberId,
        pos: Point,
        keep: F,
    ) -> (Option<f64>, QueryStats) {
        let base = &*self.base;
        let (public, mut stats) = base.tree.nearest_matching(pos, |&p| {
            let a = &base.alarms[p];
            a.is_public() && self.live(a.id()) && keep(a.id())
        });
        stats.entries_tested += base.personal_alarms(user).len() + self.delta.len();
        (self.nearest_personal(user, pos, &keep, public.map(|(_, _, d)| d)), stats)
    }

    /// The distance [`AlarmSnapshot::nearest_relevant_distance`] reports,
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
        let base = &*self.base;
        let public = base.public.nearest_distance_matching(pos, |&p| {
            let id = base.alarms[p].id();
            self.live(id) && keep(id)
        });
        self.nearest_personal(user, pos, &keep, public)
    }

    /// `best`, or the distance to a nearer live alarm passing `keep`
    /// among `user`'s personal alarms in the base and the delta's alarms
    /// relevant to `user` — the scan both nearest forms share.
    fn nearest_personal(
        &self,
        user: SubscriberId,
        pos: Point,
        keep: impl Fn(AlarmId) -> bool,
        best: Option<f64>,
    ) -> Option<f64> {
        let delta = self.delta.iter().filter(|a| a.is_relevant_to(user));
        self.base
            .personal_alarms(user)
            .chain(delta)
            .filter(|a| keep(a.id()) && self.live(a.id()))
            .map(|a| a.region().distance_to_point(pos))
            .fold(best, |best, d| if best.is_none_or(|b| d < b) { Some(d) } else { best })
    }
}

impl From<AlarmIndex> for AlarmSnapshot {
    /// The one-generation snapshot of `index` (no delta, nothing dead): how
    /// the simulator reads its static alarms, and a [`VersionedAlarmIndex`]'s
    /// first generation.
    fn from(index: AlarmIndex) -> AlarmSnapshot {
        AlarmSnapshot {
            next: index.len() as u64,
            base: Arc::new(index),
            delta: Vec::new(),
            dead: HashSet::new(),
        }
    }
}

/// How many delta entries (or dead ids) a generation tolerates before a
/// writer folds them into a freshly bulk-loaded base. Small enough that
/// the linear delta scan stays negligible next to a tree descent, large
/// enough that rebuilds amortize.
const DEFAULT_MERGE_THRESHOLD: usize = 64;

/// The churn-tolerant alarm index: an epoch-versioned sequence of
/// immutable [`AlarmSnapshot`] generations. Readers pin a generation
/// ([`VersionedAlarmIndex::snapshot`] or, on hot paths,
/// [`VersionedAlarmIndex::load_cached`]) and query it lock-free; writers
/// ([`VersionedAlarmIndex::try_install`],
/// [`VersionedAlarmIndex::deactivate`]) serialize on an internal mutex,
/// build the next generation, and publish it with an `Arc` swap plus an
/// epoch bump.
pub struct VersionedAlarmIndex {
    /// This index's identity in a [`SnapshotCache`], from `CELL_IDS`.
    id: u64,
    /// The publish count: a cached generation is current while it matches.
    epoch: AtomicU64,
    /// The current generation. The write lock is held only for the
    /// pointer swap.
    slot: RwLock<Arc<AlarmSnapshot>>,
    writer: Mutex<()>,
    merge_threshold: usize,
}

impl std::fmt::Debug for VersionedAlarmIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedAlarmIndex")
            .field("id", &self.id)
            .field("epoch", &self.epoch())
            .field("merge_threshold", &self.merge_threshold)
            .finish_non_exhaustive()
    }
}

impl VersionedAlarmIndex {
    /// Builds the first generation over `alarms` (STR bulk load).
    ///
    /// # Errors
    ///
    /// [`NonDenseIdError`] when ids are not exactly `0..alarms.len()`.
    pub fn new(alarms: Vec<SpatialAlarm>) -> Result<VersionedAlarmIndex, NonDenseIdError> {
        VersionedAlarmIndex::with_merge_threshold(alarms, DEFAULT_MERGE_THRESHOLD)
    }

    /// Like [`VersionedAlarmIndex::new`] with an explicit delta size at
    /// which generations merge (tests use small values to force merges).
    ///
    /// # Errors
    ///
    /// [`NonDenseIdError`] when ids are not exactly `0..alarms.len()`.
    pub fn with_merge_threshold(
        alarms: Vec<SpatialAlarm>,
        merge_threshold: usize,
    ) -> Result<VersionedAlarmIndex, NonDenseIdError> {
        let first = AlarmSnapshot::from(AlarmIndex::try_build(alarms)?);
        Ok(VersionedAlarmIndex {
            id: CELL_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(1),
            slot: RwLock::new(Arc::new(first)),
            writer: Mutex::new(()),
            merge_threshold: merge_threshold.max(1),
        })
    }

    /// Pins and returns the current generation (for as long as the `Arc`
    /// is held, regardless of later publishes).
    pub fn snapshot(&self) -> Arc<AlarmSnapshot> {
        Arc::clone(&self.slot.read())
    }

    /// The hot-path read: the cached generation while the epoch is
    /// unchanged (one atomic load, no lock, no allocation), refreshing the
    /// cache from the slot otherwise.
    pub fn load_cached<'a>(&self, cache: &'a mut SnapshotCache) -> &'a AlarmSnapshot {
        let epoch = self.epoch.load(Ordering::Acquire);
        if cache.cell != self.id || cache.epoch != epoch || cache.snap.is_none() {
            cache.snap = Some(self.snapshot());
            cache.cell = self.id;
            cache.epoch = epoch;
        }
        cache.snap.as_deref().expect("cache was just refilled")
    }

    /// Non-blocking peek at the current generation: `None` only while a
    /// writer is mid-publish. For contexts that must never wait (`fmt`).
    pub fn try_peek(&self) -> Option<Arc<AlarmSnapshot>> {
        self.slot.try_read().as_deref().map(Arc::clone)
    }

    /// The publish count (starts at 1, +1 per install/deactivate).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The next dense id of the current generation ([`AlarmSnapshot::len`]).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when no alarm was ever installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes `next` as the current generation and bumps the epoch.
    fn publish(&self, next: AlarmSnapshot) {
        *self.slot.write() = Arc::new(next);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Installs `alarm` into the next generation and publishes it.
    /// Readers holding the previous generation are unaffected.
    ///
    /// # Errors
    ///
    /// [`NonDenseIdError`] when the alarm's id does not continue the
    /// dense id space — the wire-reachable malformed-install case; the
    /// server maps this to an error response instead of panicking.
    pub fn try_install(&self, alarm: SpatialAlarm) -> Result<(), NonDenseIdError> {
        let _writer = self.writer.lock();
        let cur = self.snapshot();
        if alarm.id().0 != cur.next {
            return Err(NonDenseIdError { expected: cur.next, got: alarm.id().0 });
        }
        let next = if cur.delta.len() + 1 >= self.merge_threshold {
            cur.fold(Some(alarm), None)
        } else {
            let mut delta = cur.delta.clone();
            delta.push(alarm);
            AlarmSnapshot {
                base: Arc::clone(&cur.base),
                delta,
                dead: cur.dead.clone(),
                next: cur.next + 1,
            }
        };
        self.publish(next);
        Ok(())
    }

    /// Deactivates alarm `id` in the next generation. Returns `false`
    /// when the current generation holds no live alarm `id` — unknown,
    /// or already deactivated (so a repeat deactivation is a no-op) — and
    /// `true` otherwise.
    pub fn deactivate(&self, id: AlarmId) -> bool {
        let _writer = self.writer.lock();
        let cur = self.snapshot();
        if cur.get(id).is_none() {
            return false;
        }
        let next = if cur.dead.len() + 1 >= self.merge_threshold {
            cur.fold(None, Some(id))
        } else {
            let mut dead = cur.dead.clone();
            dead.insert(id);
            AlarmSnapshot {
                base: Arc::clone(&cur.base),
                delta: cur.delta.clone(),
                dead,
                next: cur.next,
            }
        };
        self.publish(next);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlarmScope;

    fn public(id: u64, x: f64, y: f64) -> SpatialAlarm {
        SpatialAlarm::around_static_target(
            AlarmId(id),
            Point::new(x, y),
            100.0,
            AlarmScope::Public { owner: SubscriberId(0) },
        )
        .unwrap()
    }

    fn private(id: u64, owner: u32, x: f64, y: f64) -> SpatialAlarm {
        SpatialAlarm::around_static_target(
            AlarmId(id),
            Point::new(x, y),
            100.0,
            AlarmScope::Private { owner: SubscriberId(owner) },
        )
        .unwrap()
    }

    /// Public alarm 0 and private alarm 1 (user 1's) share a spot; shared
    /// alarm 2 (user 2's, shared with 3) overlaps them; public alarm 3 is
    /// far away.
    fn build_small() -> AlarmSnapshot {
        let mk = |id: u64, x: f64, y: f64, scope: AlarmScope| {
            SpatialAlarm::around_static_target(AlarmId(id), Point::new(x, y), 50.0, scope).unwrap()
        };
        let user = SubscriberId;
        AlarmSnapshot::from(AlarmIndex::build(vec![
            mk(0, 100.0, 100.0, AlarmScope::Public { owner: user(0) }),
            mk(1, 100.0, 100.0, AlarmScope::Private { owner: user(1) }),
            mk(2, 105.0, 105.0, AlarmScope::shared(user(2), vec![user(3)])),
            mk(3, 5_000.0, 5_000.0, AlarmScope::Public { owner: user(0) }),
        ]))
    }

    fn ids_at(snap: &AlarmSnapshot, user: u32, x: f64, y: f64) -> Vec<u64> {
        let mut v = Vec::new();
        snap.relevant_at_visit(SubscriberId(user), Point::new(x, y), |a| v.push(a.id().0));
        v.sort_unstable();
        v
    }

    #[test]
    fn relevant_at_per_user_breakdown() {
        let snap = build_small();
        // Public alarm 0 for everyone, plus each user's own private or
        // shared alarms: alarm 2's shared list is {2, 3}.
        assert_eq!(ids_at(&snap, 0, 100.0, 100.0), vec![0]);
        assert_eq!(ids_at(&snap, 1, 100.0, 100.0), vec![0, 1]);
        assert_eq!(ids_at(&snap, 2, 100.0, 100.0), vec![0, 2]);
        assert_eq!(ids_at(&snap, 3, 100.0, 100.0), vec![0, 2]);
        assert_eq!(ids_at(&snap, 9, 100.0, 100.0), vec![0]);
    }

    #[test]
    fn relevant_intersecting_scopes_to_area() {
        let snap = build_small();
        let cell = Rect::new(0.0, 0.0, 1_000.0, 1_000.0).unwrap();
        let mut ids: Vec<u64> =
            snap.relevant_intersecting(SubscriberId(3), cell).iter().map(|a| a.id().0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2]); // alarm 3 is far away, alarm 1 is private to user 1
    }

    #[test]
    fn all_intersecting_ignores_scope() {
        let snap = build_small();
        let cell = Rect::new(0.0, 0.0, 1_000.0, 1_000.0).unwrap();
        let mut seen = 0;
        let stats = snap.all_intersecting_visit(cell, |_| seen += 1);
        assert_eq!((seen, stats.matches), (3, 3));
        assert!(stats.nodes_visited >= 1);
    }

    #[test]
    fn relevant_at_agrees_with_linear_scan_on_generated_workload() {
        let workload = crate::AlarmWorkload::generate(&crate::WorkloadConfig {
            alarms: 500,
            subscribers: 100,
            universe: Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap(),
            ..crate::WorkloadConfig::default()
        });
        let snap = AlarmSnapshot::from(AlarmIndex::build(workload.alarms().to_vec()));
        for k in 0..20 {
            let (x, y) = (k as f64 * 500.0, (19 - k) as f64 * 500.0);
            let p = Point::new(x, y);
            let expected: Vec<u64> = workload
                .alarms()
                .iter()
                .filter(|a| a.contains(p) && a.is_relevant_to(SubscriberId(17)))
                .map(|a| a.id().0)
                .collect();
            assert_eq!(ids_at(&snap, 17, x, y), expected);
        }
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
        let mixed = crate::AlarmWorkload::generate(&crate::WorkloadConfig {
            alarms: 400,
            subscribers: 40,
            universe,
            seed: 99,
            ..crate::WorkloadConfig::default()
        })
        .alarms()
        .to_vec();
        let all_public: Vec<SpatialAlarm> = mixed
            .iter()
            .map(|a| {
                let scope = AlarmScope::Public { owner: SubscriberId(0) };
                SpatialAlarm::new(a.id(), a.region(), a.target(), scope)
            })
            .collect();
        // No alarm, one public alarm, only public alarms, and the
        // generator's mix, where most alarms are not public.
        let cases = [Vec::new(), all_public[..1].to_vec(), all_public, mixed];
        for alarms in cases {
            let snap = AlarmSnapshot::from(AlarmIndex::build(alarms.clone()));
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
                        let (metered, _) = snap.nearest_relevant_distance(user, pos, keep);
                        let unmetered = snap.nearest_relevant_distance_unmetered(user, pos, keep);
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
        let alarms = (0..6).map(|i| public(i, 100.0 * i as f64, 500.0)).collect();
        let snap = AlarmSnapshot::from(AlarmIndex::build(alarms));
        let (none, stats) =
            snap.nearest_relevant_distance(SubscriberId(9), Point::new(0.0, 0.0), |_| false);
        assert!(none.is_none());
        assert!(stats.nodes_visited >= 1, "visited {}", stats.nodes_visited);
        assert!(stats.entries_tested >= 6, "tested {}", stats.entries_tested);
        assert_eq!(stats.matches, 0);
    }

    #[test]
    fn nearest_relevant_distance_respects_filter() {
        let snap = AlarmSnapshot::from(AlarmIndex::build(vec![
            public(0, 300.0, 500.0),
            public(1, 800.0, 500.0),
        ]));
        let (user, pos) = (SubscriberId(5), Point::new(150.0, 500.0));
        let (all, _) = snap.nearest_relevant_distance(user, pos, |_| true);
        assert!((all.unwrap() - 50.0).abs() < 1e-9); // alarm 0's edge at x=200
        // Excluding alarm 0 (e.g. already fired) falls back to alarm 1.
        let (filtered, _) = snap.nearest_relevant_distance(user, pos, |id| id != AlarmId(0));
        assert!((filtered.unwrap() - 550.0).abs() < 1e-9);
        // Excluding everything yields none.
        let (none, _) = snap.nearest_relevant_distance(user, pos, |_| false);
        assert!(none.is_none());
    }

    #[test]
    fn installs_appear_in_later_snapshots_only() {
        let v = VersionedAlarmIndex::new(vec![public(0, 100.0, 100.0)]).unwrap();
        let pinned = v.snapshot();
        v.try_install(public(1, 100.0, 100.0)).unwrap();
        assert_eq!(ids_at(&pinned, 9, 100.0, 100.0), vec![0], "pinned generation is frozen");
        assert_eq!(ids_at(&v.snapshot(), 9, 100.0, 100.0), vec![0, 1]);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn deactivations_filter_everywhere_including_personal_scan() {
        let v = VersionedAlarmIndex::new(vec![
            public(0, 100.0, 100.0),
            private(1, 7, 100.0, 100.0),
        ])
        .unwrap();
        assert!(v.deactivate(AlarmId(1)));
        assert!(!v.deactivate(AlarmId(1)), "second deactivate is a no-op");
        assert!(!v.deactivate(AlarmId(99)), "unknown ids are rejected");
        let snap = v.snapshot();
        assert_eq!(ids_at(&snap, 7, 100.0, 100.0), vec![0]);
        // The nearest query must not see the dead personal alarm either.
        let (d, _) =
            snap.nearest_relevant_distance(SubscriberId(7), Point::new(100.0, 100.0), |_| true);
        assert_eq!(ids_at(&snap, 7, 100.0, 100.0), vec![0]);
        assert!(d.is_some(), "public alarm 0 still answers");
        // A dead id is not addressable; a live one is.
        assert_eq!(snap.get(AlarmId(1)), None);
        assert_eq!(snap.get(AlarmId(0)), Some(&public(0, 100.0, 100.0)));
        assert_eq!(snap.len(), 2, "dead alarms still count in the id space");
    }

    #[test]
    fn generations_merge_at_the_threshold_without_changing_answers() {
        let v = VersionedAlarmIndex::with_merge_threshold(vec![public(0, 0.0, 0.0)], 3).unwrap();
        for i in 1..10u64 {
            v.try_install(public(i, 50.0 * i as f64, 50.0 * i as f64)).unwrap();
        }
        assert!(v.deactivate(AlarmId(4)));
        let snap = v.snapshot();
        assert_eq!(snap.len(), 10);
        for i in 0..10u64 {
            let got = ids_at(&snap, 3, 50.0 * i as f64, 50.0 * i as f64);
            assert_eq!(got.contains(&i), i != 4, "alarm {i} at its own center");
        }
        // A deactivate folded into a merged base stays deactivated, and
        // re-deactivating it still reports false.
        for i in 10..20u64 {
            v.try_install(public(i, 50.0 * i as f64, 50.0 * i as f64)).unwrap();
        }
        assert!(!v.deactivate(AlarmId(4)));
        let merged = v.snapshot();
        assert!(!ids_at(&merged, 3, 200.0, 200.0).contains(&4));
    }

    #[test]
    fn a_fold_keeps_only_live_alarms_whatever_the_history() {
        const LIVE: u64 = 20;
        let threshold = DEFAULT_MERGE_THRESHOLD;
        let first = (0..LIVE).map(|i| public(i, 10.0 * i as f64, 0.0)).collect();
        let v = VersionedAlarmIndex::new(first).unwrap();
        // Each cycle installs one alarm and retires the oldest live one:
        // the live count stays fixed while the id space grows tenfold past
        // the fold threshold.
        for id in LIVE..LIVE + 10 * threshold as u64 {
            v.try_install(public(id, 10.0 * (id % 100) as f64, 0.0)).unwrap();
            assert!(v.deactivate(AlarmId(id - LIVE)));
            let held = v.snapshot().base.len();
            assert!(held <= LIVE as usize + threshold, "base holds {held} alarms after id {id}");
        }
    }

    #[test]
    fn install_rejects_gapped_ids_with_a_typed_error() {
        let v = VersionedAlarmIndex::new(vec![public(0, 0.0, 0.0)]).unwrap();
        let before = v.epoch();
        let err = v.try_install(public(7, 1.0, 1.0)).unwrap_err();
        assert_eq!(err, NonDenseIdError { expected: 1, got: 7 });
        assert_eq!(v.epoch(), before, "a rejected install publishes nothing");
        v.try_install(public(1, 1.0, 1.0)).unwrap();
    }

    #[test]
    fn cached_loads_refresh_only_on_publish() {
        let v = VersionedAlarmIndex::new(vec![public(0, 0.0, 0.0)]).unwrap();
        let mut cache = SnapshotCache::new();
        let len_before = v.load_cached(&mut cache).len();
        assert_eq!(len_before, 1);
        // Unchanged epoch: the cache answers (same generation observable
        // via the stored Arc pointer).
        let first = Arc::clone(cache.snap.as_ref().unwrap());
        let again = v.load_cached(&mut cache);
        assert!(std::ptr::eq(again, first.as_ref()));
        v.try_install(public(1, 10.0, 10.0)).unwrap();
        assert_eq!(v.load_cached(&mut cache).len(), 2, "publish invalidates the cache");
    }

    #[test]
    fn caches_never_leak_across_cells() {
        let a = VersionedAlarmIndex::new(vec![public(0, 0.0, 0.0)]).unwrap();
        let b = VersionedAlarmIndex::new(Vec::new()).unwrap();
        let mut cache = SnapshotCache::new();
        assert_eq!(a.load_cached(&mut cache).len(), 1);
        // Same epoch value on both indexes — their ids must disambiguate.
        assert_eq!(b.load_cached(&mut cache).len(), 0);
        assert_eq!(a.load_cached(&mut cache).len(), 1);
    }

    #[test]
    fn try_peek_only_fails_mid_publish() {
        let v = VersionedAlarmIndex::new(vec![public(0, 0.0, 0.0)]).unwrap();
        assert_eq!(v.try_peek().expect("no writer active").len(), 1);
    }

    #[test]
    fn readers_pin_generations_across_concurrent_churn() {
        let v = Arc::new(VersionedAlarmIndex::with_merge_threshold(Vec::new(), 8).unwrap());
        let writer = {
            let v = Arc::clone(&v);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    v.try_install(public(i, (i % 100) as f64 * 10.0, 500.0)).unwrap();
                    if i % 3 == 0 {
                        v.deactivate(AlarmId(i / 2));
                    }
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    let mut cache = SnapshotCache::new();
                    for k in 0..2_000u64 {
                        let snap = v.load_cached(&mut cache);
                        let p = Point::new((k % 100) as f64 * 10.0, 500.0);
                        // Every hit must come from a consistent generation:
                        // its id addressable, its region containing p.
                        snap.relevant_at_visit(SubscriberId(1), p, |a| {
                            assert!(a.contains(p));
                            assert_eq!(snap.get(a.id()).map(SpatialAlarm::id), Some(a.id()));
                        });
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(v.len(), 500);
    }
}
