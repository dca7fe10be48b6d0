//! The server's one shared-map shape: a `u32`-keyed hash map striped
//! across [`STRIPES`] read-write locks, so concurrent callers touching
//! different keys almost always take different locks. The server keeps
//! two of them — sessions keyed by session id, and the fired table keyed
//! by subscriber id.
//!
//! The fired table is the state behind "an alarm fires exactly once":
//! each subscriber's ids are a sorted, duplicate-free `Vec`, so a region
//! refresh reads only its own subscriber's handful of ids (≈ 5 at the
//! end of the paper's hour), the handoff export is deterministic without
//! a sort, and the worker filters candidate alarms with a binary search
//! over a copy. Entries live as long as the server — they outlast
//! sessions, which is what keeps delivery exactly-once across reconnects
//! and handoffs. The callers only ever record ids below the alarm count,
//! so a subscriber's list is bounded by the number of installed alarms.
//!
//! No stripe lock is ever held across a computation: every method runs
//! its closure under one stripe lock and returns, and readers of the
//! fired table copy the list out ([`Striped::copy_fired`]) and compute
//! on the copy.

use parking_lot::RwLock;
use sa_alarms::AlarmId;
use std::collections::HashMap;

/// Stripe count — a power of two comfortably above the reactor's worker
/// count, so keys spread across stripes and concurrent callers and the
/// federation handoff exporter almost always lock different stripes.
const STRIPES: usize = 16;

/// A `u32`-keyed map striped by `key % STRIPES`.
pub(crate) struct Striped<V> {
    stripes: Vec<RwLock<HashMap<u32, V>>>,
}

impl<V> Striped<V> {
    pub(crate) fn new() -> Striped<V> {
        Striped { stripes: (0..STRIPES).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    fn stripe(&self, key: u32) -> &RwLock<HashMap<u32, V>> {
        &self.stripes[key as usize % STRIPES]
    }

    pub(crate) fn insert(&self, key: u32, value: V) {
        self.stripe(key).write().insert(key, value);
    }

    pub(crate) fn remove(&self, key: u32) -> Option<V> {
        self.stripe(key).write().remove(&key)
    }

    /// Runs `f` on the entry under its stripe's read lock.
    pub(crate) fn read<R>(&self, key: u32, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.stripe(key).read().get(&key).map(f)
    }

    /// Runs `f` on the entry under its stripe's write lock.
    pub(crate) fn with_mut<R>(&self, key: u32, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        self.stripe(key).write().get_mut(&key).map(f)
    }

    /// Entries across every stripe.
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }
}

/// The fired table's operations, keyed by subscriber id.
impl Striped<Vec<AlarmId>> {
    /// Records that `id` fired for `user`. Returns `true` exactly once
    /// per pair — the caller delivers the alarm only then.
    pub(crate) fn fire(&self, user: u32, id: AlarmId) -> bool {
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
    pub(crate) fn fire_all(&self, user: u32, ids: impl IntoIterator<Item = AlarmId>) {
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
    pub(crate) fn copy_fired(&self, user: u32, out: &mut Vec<AlarmId>) {
        out.clear();
        self.read(user, |ids| out.extend_from_slice(ids));
    }

    /// `user`'s fired ids as wire words, sorted ascending (the handoff
    /// export).
    pub(crate) fn fired_u32(&self, user: u32) -> Vec<u32> {
        self.read(user, |ids| ids.iter().map(|a| a.0 as u32).collect()).unwrap_or_default()
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
        Fire(u32, u64),
        FireAll(u32, Vec<u64>),
        CopyFired(u32),
        FiredU32(u32),
    }

    /// Few users and few alarm ids, so pairs repeat and users share
    /// stripes (user `u` and `u + 16` land on the same one).
    fn op_strategy() -> impl Strategy<Value = Op> {
        let user = || (0u32..4).prop_map(|u| u * 8);
        prop_oneof![
            (user(), 0u64..12).prop_map(|(u, a)| Op::Fire(u, a)),
            (user(), prop::collection::vec(0u64..12, 0..6usize))
                .prop_map(|(u, ids)| Op::FireAll(u, ids)),
            user().prop_map(Op::CopyFired),
            user().prop_map(Op::FiredU32),
        ]
    }

    fn model_ids(model: &HashSet<(u32, AlarmId)>, user: u32) -> Vec<AlarmId> {
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
            let table = Striped::<Vec<AlarmId>>::new();
            let mut model: HashSet<(u32, AlarmId)> = HashSet::new();
            // Starts non-empty: copy_fired must replace, not append.
            let mut scratch = vec![AlarmId(99)];
            for op in ops {
                match op {
                    Op::Fire(user, a) => {
                        let id = AlarmId(a);
                        prop_assert_eq!(table.fire(user, id), model.insert((user, id)));
                    }
                    Op::FireAll(user, ids) => {
                        table.fire_all(user, ids.iter().map(|&a| AlarmId(a)));
                        let once = table.fired_u32(user);
                        // Importing the same blob again changes nothing.
                        table.fire_all(user, ids.iter().map(|&a| AlarmId(a)));
                        prop_assert_eq!(&table.fired_u32(user), &once);
                        model.extend(ids.iter().map(|&a| (user, AlarmId(a))));
                    }
                    Op::CopyFired(user) => {
                        table.copy_fired(user, &mut scratch);
                        prop_assert_eq!(&scratch, &model_ids(&model, user));
                    }
                    Op::FiredU32(user) => {
                        let got = table.fired_u32(user);
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
        let table = Arc::new(Striped::<Vec<AlarmId>>::new());
        for round in 0..200u64 {
            let barrier = Arc::new(Barrier::new(THREADS));
            let wins: usize = (0..THREADS)
                .map(|_| {
                    let (table, barrier) = (Arc::clone(&table), Arc::clone(&barrier));
                    std::thread::spawn(move || {
                        barrier.wait();
                        table.fire(3, AlarmId(round))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| usize::from(t.join().expect("inserter panicked")))
                .sum();
            assert_eq!(wins, 1, "round {round}: the pair must fire exactly once");
        }
        assert_eq!(table.fired_u32(3).len(), 200);
    }
}
