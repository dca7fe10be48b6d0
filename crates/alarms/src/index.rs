use crate::{AlarmId, AlarmScope, SpatialAlarm, SubscriberId};
use sa_geometry::Rect;
use sa_index::RStarTree;
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

/// The alarms of one index build: an R*-tree over their regions (paper
/// §5.1), a second tree over the public ones alone, and per-subscriber
/// lists of the private and shared ones. Immutable once built: a changed
/// alarm set is a new index ([`crate::VersionedAlarmIndex`] builds one per
/// fold).
///
/// An `AlarmIndex` holds the trees but does not read them by space:
/// every spatial read goes through an [`AlarmSnapshot`](crate::AlarmSnapshot),
/// the one read surface, which the simulator and the live server share.
/// Wrap a built index with `AlarmSnapshot::from` to read it.
#[derive(Debug)]
pub struct AlarmIndex {
    /// Items are positions in `alarms`, so the tree never assumes an
    /// alarm's id is its position.
    pub(crate) tree: RStarTree<usize>,
    /// The public alarms' positions alone: the entries a safe-period
    /// nearest search can return from a spatial query, so the unmetered
    /// search never opens a leaf of other subscribers' alarms.
    pub(crate) public: RStarTree<usize>,
    /// In ascending id order: exactly `0..len` on an index from
    /// [`AlarmIndex::try_build`], the live alarms of a snapshot
    /// generation on one from [`AlarmIndex::from_live`].
    pub(crate) alarms: Vec<SpatialAlarm>,
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
    pub(crate) fn personal_alarms(
        &self,
        user: SubscriberId,
    ) -> impl ExactSizeIterator<Item = &SpatialAlarm> {
        let positions = self.personal.get(&user).map_or(&[][..], Vec::as_slice);
        positions.iter().map(|&p| &self.alarms[p])
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlarmScope, AlarmWorkload, WorkloadConfig};
    use sa_geometry::Point;

    fn user(n: u32) -> SubscriberId {
        SubscriberId(n)
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
}
