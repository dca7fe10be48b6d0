//! The fired table: which alarms have already fired for which
//! subscriber — the state behind "an alarm fires exactly once".
//!
//! Keyed by subscriber and striped like the session table, so a region
//! refresh reads only its own subscriber's handful of ids (≈ 5 at the
//! end of the paper's hour) instead of walking every firing the server
//! has ever recorded. Each subscriber's ids are a sorted, duplicate-free
//! `Vec`: the handoff export is deterministic without a sort, and the
//! worker filters candidate alarms with a binary search over a copy.
//!
//! Entries live as long as the server — they outlast sessions, which is
//! what keeps delivery exactly-once across reconnects and handoffs. The
//! callers only ever record ids below the alarm count, so a subscriber's
//! list is bounded by the number of installed alarms. No stripe lock is
//! ever held across a computation: readers copy the list out
//! ([`FiredTable::copy_into`]) and compute on the copy.

use crate::server::SESSION_STRIPES;
use parking_lot::RwLock;
use sa_alarms::{AlarmId, SubscriberId};
use std::collections::HashMap;

/// Per-subscriber fired-alarm lists, striped by subscriber id.
pub(crate) struct FiredTable {
    stripes: Vec<RwLock<HashMap<SubscriberId, Vec<AlarmId>>>>,
}

impl FiredTable {
    pub(crate) fn new() -> FiredTable {
        FiredTable { stripes: (0..SESSION_STRIPES).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    fn stripe(&self, user: SubscriberId) -> &RwLock<HashMap<SubscriberId, Vec<AlarmId>>> {
        &self.stripes[user.0 as usize % SESSION_STRIPES]
    }

    /// Records that `id` fired for `user`. Returns `true` exactly once
    /// per pair — the caller delivers the alarm only then.
    pub(crate) fn insert(&self, user: SubscriberId, id: AlarmId) -> bool {
        let mut stripe = self.stripe(user).write();
        let ids = stripe.entry(user).or_default();
        match ids.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                ids.insert(at, id);
                true
            }
        }
    }

    /// Unions `ids` into `user`'s list (the handoff import) — idempotent,
    /// so a retried import is harmless.
    pub(crate) fn extend(&self, user: SubscriberId, ids: impl IntoIterator<Item = AlarmId>) {
        let mut ids = ids.into_iter().peekable();
        if ids.peek().is_none() {
            return;
        }
        let mut stripe = self.stripe(user).write();
        let list = stripe.entry(user).or_default();
        list.extend(ids);
        list.sort_unstable();
        list.dedup();
    }

    /// Replaces `out` with `user`'s fired ids, sorted ascending. The
    /// stripe's read lock is released before this returns.
    pub(crate) fn copy_into(&self, user: SubscriberId, out: &mut Vec<AlarmId>) {
        out.clear();
        if let Some(ids) = self.stripe(user).read().get(&user) {
            out.extend_from_slice(ids);
        }
    }

    /// `user`'s fired ids as wire words, sorted ascending (the handoff
    /// export).
    pub(crate) fn sorted_u32(&self, user: SubscriberId) -> Vec<u32> {
        self.stripe(user)
            .read()
            .get(&user)
            .map_or_else(Vec::new, |ids| ids.iter().map(|a| a.0 as u32).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier};

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u64),
        Extend(u32, Vec<u64>),
        CopyInto(u32),
        SortedU32(u32),
    }

    /// Few users and few alarm ids, so pairs repeat and users share
    /// stripes (user `u` and `u + 16` land on the same one).
    fn op_strategy() -> impl Strategy<Value = Op> {
        let user = || (0u32..4).prop_map(|u| u * 8);
        prop_oneof![
            (user(), 0u64..12).prop_map(|(u, a)| Op::Insert(u, a)),
            (user(), prop::collection::vec(0u64..12, 0..6usize))
                .prop_map(|(u, ids)| Op::Extend(u, ids)),
            user().prop_map(Op::CopyInto),
            user().prop_map(Op::SortedU32),
        ]
    }

    fn model_ids(model: &HashSet<(SubscriberId, AlarmId)>, user: SubscriberId) -> Vec<AlarmId> {
        let mut ids: Vec<AlarmId> =
            model.iter().filter(|(u, _)| *u == user).map(|(_, a)| *a).collect();
        ids.sort_unstable();
        ids
    }

    proptest! {
        #[test]
        fn table_matches_a_pair_set_model(
            ops in prop::collection::vec(op_strategy(), 0..80usize)
        ) {
            let table = FiredTable::new();
            let mut model: HashSet<(SubscriberId, AlarmId)> = HashSet::new();
            // Starts non-empty: copy_into must replace, not append.
            let mut scratch = vec![AlarmId(99)];
            for op in ops {
                match op {
                    Op::Insert(u, a) => {
                        let (user, id) = (SubscriberId(u), AlarmId(a));
                        prop_assert_eq!(table.insert(user, id), model.insert((user, id)));
                    }
                    Op::Extend(u, ids) => {
                        let user = SubscriberId(u);
                        table.extend(user, ids.iter().map(|&a| AlarmId(a)));
                        let once = table.sorted_u32(user);
                        // Importing the same blob again changes nothing.
                        table.extend(user, ids.iter().map(|&a| AlarmId(a)));
                        prop_assert_eq!(&table.sorted_u32(user), &once);
                        model.extend(ids.iter().map(|&a| (user, AlarmId(a))));
                    }
                    Op::CopyInto(u) => {
                        let user = SubscriberId(u);
                        table.copy_into(user, &mut scratch);
                        prop_assert_eq!(&scratch, &model_ids(&model, user));
                    }
                    Op::SortedU32(u) => {
                        let user = SubscriberId(u);
                        let got = table.sorted_u32(user);
                        prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
                        let want: Vec<u32> =
                            model_ids(&model, user).iter().map(|a| a.0 as u32).collect();
                        prop_assert_eq!(got, want);
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_inserts_of_one_pair_report_exactly_one_true() {
        const THREADS: usize = 8;
        let table = Arc::new(FiredTable::new());
        for round in 0..200u64 {
            let barrier = Arc::new(Barrier::new(THREADS));
            let wins: usize = (0..THREADS)
                .map(|_| {
                    let (table, barrier) = (Arc::clone(&table), Arc::clone(&barrier));
                    std::thread::spawn(move || {
                        barrier.wait();
                        table.insert(SubscriberId(3), AlarmId(round))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| usize::from(t.join().expect("inserter panicked")))
                .sum();
            assert_eq!(wins, 1, "round {round}: the pair must fire exactly once");
        }
        assert_eq!(table.sorted_u32(SubscriberId(3)).len(), 200);
    }
}
