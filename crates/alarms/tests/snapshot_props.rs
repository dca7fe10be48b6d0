//! Property-based equivalence: an epoch-pinned [`AlarmSnapshot`] must
//! answer `relevant_at_visit` / `relevant_intersecting` /
//! `all_intersecting_visit` / the nearest-distance queries exactly like a
//! linear scan over the surviving alarm set, and address exactly the
//! surviving alarms by id, across
//! randomized interleavings of install / deactivate / query — and a
//! generation pinned mid-sequence must keep answering for the state it
//! was pinned at, whatever churn follows.

use proptest::prelude::*;
use sa_alarms::{
    AlarmId, AlarmScope, AlarmSnapshot, SpatialAlarm, SubscriberId, VersionedAlarmIndex,
};
use sa_geometry::{Point, Rect};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    /// Install an alarm centred at (x, y) with half-extent r; `scope`
    /// picks public / private / shared, owned by `owner`.
    Install { x: f64, y: f64, r: f64, scope: u8, owner: u32 },
    /// Deactivate the k-th (mod current count) installed alarm.
    Deactivate(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (50.0..950.0f64, 50.0..950.0f64, 5.0..80.0f64, 0u8..3, 0u32..4)
            .prop_map(|(x, y, r, scope, owner)| Op::Install { x, y, r, scope, owner }),
        1 => (0usize..64).prop_map(Op::Deactivate),
    ]
}

fn make_alarm(id: u64, op: &Op) -> SpatialAlarm {
    let Op::Install { x, y, r, scope, owner } = *op else { unreachable!() };
    let owner_id = SubscriberId(owner);
    let scope = match scope {
        0 => AlarmScope::Public { owner: owner_id },
        1 => AlarmScope::Private { owner: owner_id },
        _ => AlarmScope::shared(owner_id, vec![SubscriberId(owner + 1)]),
    };
    SpatialAlarm::around_static_target(AlarmId(id), Point::new(x, y), r, scope).unwrap()
}

/// The reference: a linear scan over the surviving alarms.
struct Reference<'a>(Vec<&'a SpatialAlarm>);

impl<'a> Reference<'a> {
    fn new(installed: &'a [SpatialAlarm], dead: &[AlarmId]) -> Reference<'a> {
        Reference(installed.iter().filter(|a| !dead.contains(&a.id())).collect())
    }

    /// Ids of the surviving alarms passing `hit`, ascending.
    fn ids(&self, hit: impl Fn(&SpatialAlarm) -> bool) -> Vec<u64> {
        self.0.iter().filter(|a| hit(a)).map(|a| a.id().0).collect()
    }

    /// Distance from `p` to the nearest surviving alarm relevant to `user`
    /// that passes `keep`.
    fn nearest(&self, user: SubscriberId, p: Point, keep: impl Fn(AlarmId) -> bool) -> Option<f64> {
        self.0
            .iter()
            .filter(|a| a.is_relevant_to(user) && keep(a.id()))
            .map(|a| a.region().distance_to_point(p))
            .min_by(f64::total_cmp)
    }
}

/// Deterministic probe set covering the op-generation area.
fn probes() -> (Vec<Point>, Vec<Rect>) {
    let points = (0..6)
        .flat_map(|i| (0..6).map(move |j| Point::new(100.0 + i as f64 * 150.0, 100.0 + j as f64 * 150.0)))
        .collect();
    let rects = (0..4)
        .map(|i| {
            let min = 50.0 + i as f64 * 200.0;
            Rect::new(min, min, min + 350.0, min + 350.0).unwrap()
        })
        .collect();
    (points, rects)
}

fn verify(snap: &AlarmSnapshot, installed: &[SpatialAlarm], dead: &[AlarmId]) {
    let reference = Reference::new(installed, dead);
    assert_eq!(snap.len(), installed.len(), "dead alarms still count in the id space");
    // Exactly the surviving alarms are addressable, folded or not.
    for a in installed {
        let want = (!dead.contains(&a.id())).then_some(a);
        assert_eq!(snap.get(a.id()), want, "get({:?})", a.id());
    }
    assert_eq!(snap.get(AlarmId(installed.len() as u64)), None, "get past the id space");
    let (points, rects) = probes();
    for user in [SubscriberId(0), SubscriberId(2), SubscriberId(4)] {
        for &p in &points {
            let mut got: Vec<u64> = Vec::new();
            snap.relevant_at_visit(user, p, |a| got.push(a.id().0));
            got.sort_unstable();
            let want = reference.ids(|a| a.contains(p) && a.is_relevant_to(user));
            assert_eq!(got, want, "relevant_at_visit diverged for user {user:?} at {p:?}");
            // Both nearest forms agree with each other and the reference,
            // with and without a filter.
            for modulus in [1, 2] {
                let keep = |id: AlarmId| id.0.is_multiple_of(modulus);
                let metered = snap.nearest_relevant_distance(user, p, keep).0;
                assert_eq!(snap.nearest_relevant_distance_unmetered(user, p, keep), metered);
                assert_eq!(metered, reference.nearest(user, p, keep));
            }
        }
        for &area in &rects {
            let mut got: Vec<u64> =
                snap.relevant_intersecting(user, area).iter().map(|a| a.id().0).collect();
            got.sort_unstable();
            let want =
                reference.ids(|a| a.region().intersects(&area) && a.is_relevant_to(user));
            assert_eq!(got, want, "relevant_intersecting diverged for user {user:?}");
        }
    }
    // With no delta and nothing dead the base tree holds every alarm, so
    // the walk's stats count exactly the alarms it emitted.
    let base_only = dead.is_empty() && snap.base().len() == snap.len();
    for &area in &rects {
        let mut got: Vec<u64> = Vec::new();
        let stats = snap.all_intersecting_visit(area, |a| got.push(a.id().0));
        if base_only {
            assert_eq!(stats.matches, got.len(), "stats over {area:?}");
        }
        got.sort_unstable();
        let want = reference.ids(|a| a.region().intersects(&area));
        assert_eq!(got, want, "all_intersecting_visit diverged over {area:?}");
    }
}

/// Builds an index over the installs of `base` (STR-loaded, public tree
/// included), applies `ops` to it, and checks the first generation, the
/// final one and one pinned mid-sequence against the linear scan.
fn run(base: &[Op], ops: Vec<Op>, merge_threshold: usize) {
    let mut installed: Vec<SpatialAlarm> =
        base.iter().enumerate().map(|(id, op)| make_alarm(id as u64, op)).collect();
    let v = VersionedAlarmIndex::with_merge_threshold(installed.clone(), merge_threshold).unwrap();
    // The first generation is its base alone.
    verify(&v.snapshot(), &installed, &[]);
    let mut dead: Vec<AlarmId> = Vec::new();
    // Pinned mid-sequence: the generation plus the state it saw.
    let mut pinned: Option<(Arc<AlarmSnapshot>, Vec<SpatialAlarm>, Vec<AlarmId>)> = None;
    let half = ops.len() / 2;
    for (step, op) in ops.into_iter().enumerate() {
        match op {
            Op::Install { .. } => {
                let alarm = make_alarm(installed.len() as u64, &op);
                v.try_install(alarm.clone()).unwrap();
                installed.push(alarm);
            }
            Op::Deactivate(k) => {
                if installed.is_empty() {
                    continue;
                }
                let id = AlarmId((k % installed.len()) as u64);
                let first_time = !dead.contains(&id);
                assert_eq!(v.deactivate(id), first_time, "deactivate({id:?}) idempotence");
                if first_time {
                    dead.push(id);
                }
            }
        }
        if step == half {
            pinned = Some((v.snapshot(), installed.clone(), dead.clone()));
        }
    }
    // The current generation answers like a scan of the surviving set...
    verify(&v.snapshot(), &installed, &dead);
    // A dead id stays dead whether it still sits in the dead set or a
    // fold dropped it from the generation.
    for &id in &dead {
        assert!(!v.deactivate(id), "re-deactivate({id:?}) at the end");
    }
    // ...and the mid-sequence pin still answers for the state it was
    // pinned at, untouched by everything published since.
    if let Some((snap, installed_then, dead_then)) = pinned {
        verify(&snap, &installed_then, &dead_then);
    }
}

fn install(x: f64, y: f64, scope: u8) -> Op {
    Op::Install { x, y, r: 40.0, scope, owner: 2 }
}

/// The safe-period nearest search walks the base's public-only tree,
/// then the delta, with the dead set filtering both. Each place a public
/// alarm can sit is pinned here, with exact `f64` equality against the
/// metered search and the linear scan (`verify`).
#[test]
fn nearest_reads_public_alarms_in_the_base_the_delta_and_the_dead_set() {
    // A 4 × 4 base cycling public / private / shared: alarms 0, 3, 6, 9,
    // 12 and 15 are public.
    let base: Vec<Op> = (0..16u8)
        .map(|i| {
            let (col, row) = (f64::from(i % 4), f64::from(i / 4));
            install(150.0 + 200.0 * col, 150.0 + 200.0 * row, i % 3)
        })
        .collect();
    // Public installs between the base alarms, then removes of public
    // base alarms (3, 6, 12) and one private one (4).
    let public_installs = [(250.0, 250.0), (650.0, 450.0), (450.0, 850.0)];
    let ops: Vec<Op> = public_installs
        .into_iter()
        .map(|(x, y)| install(x, y, 0))
        .chain([3, 6, 12, 4].map(Op::Deactivate))
        .collect();
    // At threshold 64 the installs stay in the delta and the removes in
    // the dead set; at 3 both fold into rebuilt bases mid-sequence.
    for threshold in [64, 3] {
        run(&base, ops.clone(), threshold);
    }
    // Only public alarms, and a base of one public alarm removed again.
    let all_public: Vec<Op> =
        (0..9).map(|i| install(100.0 + 100.0 * f64::from(i), 500.0, 0)).collect();
    run(&all_public, vec![install(500.0, 900.0, 0), Op::Deactivate(4)], 64);
    run(&all_public[..1], vec![Op::Deactivate(0)], 64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_matches_fresh_index(ops in prop::collection::vec(arb_op(), 1..40)) {
        run(&[], ops, 64);
    }

    #[test]
    fn snapshot_matches_fresh_index_across_merges(ops in prop::collection::vec(arb_op(), 1..40)) {
        // A merge threshold of 3 forces repeated generation merges, so
        // base rebuilds, delta scans, and the dead-set reset all happen
        // inside most sequences.
        run(&[], ops, 3);
    }

    #[test]
    fn snapshot_over_a_built_base_matches_fresh_index(
        base in prop::collection::vec(arb_op(), 0..30),
        ops in prop::collection::vec(arb_op(), 1..20),
    ) {
        // The base is STR-loaded, so its public alarms sit in the public
        // tree before any fold; removes of them land in the dead set.
        let base: Vec<Op> =
            base.into_iter().filter(|op| matches!(op, Op::Install { .. })).collect();
        run(&base, ops, 64);
    }
}
