//! Grid-cell sharding: worker threads, bounded job queues with explicit
//! backpressure, and the shard-local alarm indexes.
//!
//! The router maps every grid cell to one shard with the deterministic
//! [`shard_of_index`] function; a shard owns every alarm whose region
//! intersects one of its cells. Because a triggering alarm contains the
//! client's position — and therefore intersects the position's cell — the
//! owning shard can evaluate triggers and compute safe regions for its
//! cells entirely from its local index.
//!
//! Jobs reach workers through **bounded** channels. The router only ever
//! uses [`ShardPool::try_submit`]: when a shard's queue is full the
//! submission fails immediately and the router answers
//! `Response::Overloaded` instead of blocking behind a slow shard.

use crate::clock::SharedClock;
use crate::wire::{Request, Response};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use sa_alarms::{AlarmId, AlarmIndex, SnapshotCache, SnapshotCell, SpatialAlarm, SubscriberId};
use sa_geometry::{Point, Rect};
use sa_obs::{Counter, Gauge, Registry};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Deterministic cell → shard mapping over flattened cell indexes.
pub fn shard_of_index(cell_index: u64, num_shards: usize) -> usize {
    (cell_index % num_shards as u64) as usize
}

/// One alarm as seen by a worker: global id plus the fields trigger
/// checks and safe-region computations consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlarmView {
    /// Global alarm id.
    pub id: AlarmId,
    /// The alarm's spatial region.
    pub region: Rect,
    /// True for public-scope alarms.
    pub public: bool,
    /// True when the alarm can fire for the queried subscriber.
    pub relevant: bool,
}

/// A shard-local [`AlarmIndex`] over the alarms intersecting the shard's
/// cells.
///
/// `AlarmIndex` requires a dense id space (ids double as vector indexes),
/// but a shard holds an arbitrary subset of the global alarms, so the
/// index relabels them with dense local ids and keeps the local ↔ global
/// mapping here. All public methods speak global ids.
#[derive(Debug)]
pub struct ShardIndex {
    index: AlarmIndex,
    to_global: Vec<AlarmId>,
    from_global: HashMap<AlarmId, AlarmId>,
}

impl ShardIndex {
    /// Builds the index over the given (globally-labelled) alarms in one
    /// STR bulk load (relabelling to dense local ids first).
    pub fn build(alarms: &[SpatialAlarm]) -> ShardIndex {
        let mut to_global = Vec::with_capacity(alarms.len());
        let mut from_global = HashMap::with_capacity(alarms.len());
        let local_alarms: Vec<SpatialAlarm> = alarms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let local = AlarmId(i as u64);
                to_global.push(a.id());
                from_global.insert(a.id(), local);
                SpatialAlarm::new(local, a.region(), a.target(), a.scope().clone())
            })
            .collect();
        ShardIndex { index: AlarmIndex::build(local_alarms), to_global, from_global }
    }

    /// Adds one alarm (next dense local id).
    pub fn install(&mut self, alarm: &SpatialAlarm) {
        let local = AlarmId(self.to_global.len() as u64);
        self.to_global.push(alarm.id());
        self.from_global.insert(alarm.id(), local);
        self.index.install(SpatialAlarm::new(
            local,
            alarm.region(),
            alarm.target(),
            alarm.scope().clone(),
        ));
    }

    /// Deactivates an alarm by global id. Returns false when this shard
    /// never owned it.
    pub fn deactivate(&mut self, global: AlarmId) -> bool {
        match self.from_global.get(&global) {
            Some(&local) => self.index.deactivate(local),
            None => false,
        }
    }

    /// Number of alarms ever installed in this shard.
    pub fn len(&self) -> usize {
        self.to_global.len()
    }

    /// True when the shard owns no alarms.
    pub fn is_empty(&self) -> bool {
        self.to_global.is_empty()
    }

    fn global(&self, local: AlarmId) -> AlarmId {
        self.to_global[local.0 as usize]
    }

    /// True when this shard tracks the given global id.
    pub fn owns(&self, global: AlarmId) -> bool {
        self.from_global.contains_key(&global)
    }

    /// Reconstructs the shard's alarms with their **global** ids — the
    /// input `build` would need to reproduce this shard. Used by the
    /// versioned layer's generation merges.
    fn global_alarms(&self) -> Vec<SpatialAlarm> {
        self.index
            .alarms()
            .iter()
            .map(|a| SpatialAlarm::new(self.global(a.id()), a.region(), a.target(), a.scope().clone()))
            .collect()
    }

    /// Global ids of the relevant alarms whose regions *strictly* contain
    /// `pos` — the server-side trigger check (the caller still filters by
    /// fired state).
    pub fn triggering_at(&self, user: SubscriberId, pos: Point) -> Vec<AlarmId> {
        let mut out = Vec::new();
        self.for_each_triggering(user, pos, |id| out.push(id));
        out
    }

    /// Visits the global id of every relevant alarm triggering at `pos`
    /// without allocating — the worker hot path's trigger check. Callers
    /// push hits into a reused scratch buffer so the steady-state (no
    /// triggering alarms) update touches the heap zero times.
    pub fn for_each_triggering(&self, user: SubscriberId, pos: Point, mut f: impl FnMut(AlarmId)) {
        self.index.relevant_at_visit(user, pos, |a| {
            if a.triggers_at(pos) {
                f(self.global(a.id()));
            }
        });
    }

    /// Visits a view of **every** alarm intersecting `area`, with
    /// per-user relevance flags, without allocating — region refreshes
    /// build their obstacle and push lists straight from this.
    pub fn for_each_intersecting(&self, user: SubscriberId, area: Rect, mut f: impl FnMut(AlarmView)) {
        self.index.all_intersecting_visit(area, |a| {
            f(AlarmView {
                id: self.global(a.id()),
                region: a.region(),
                public: a.is_public(),
                relevant: a.is_relevant_to(user),
            });
        });
    }

    /// Visits a view of every alarm relevant to `user` intersecting
    /// `area` — the obstacle candidates for a safe-region computation.
    pub fn for_each_relevant_intersecting(
        &self,
        user: SubscriberId,
        area: Rect,
        mut f: impl FnMut(AlarmView),
    ) {
        self.for_each_intersecting(user, area, |v| {
            if v.relevant {
                f(v);
            }
        });
    }

    /// The views [`ShardIndex::for_each_relevant_intersecting`] visits.
    pub fn relevant_intersecting(&self, user: SubscriberId, area: Rect) -> Vec<AlarmView> {
        let mut views = Vec::new();
        self.for_each_relevant_intersecting(user, area, |v| views.push(v));
        views
    }

    /// The views [`ShardIndex::for_each_intersecting`] visits (the OPT
    /// push payload).
    pub fn all_intersecting(&self, user: SubscriberId, area: Rect) -> Vec<AlarmView> {
        let mut views = Vec::new();
        self.for_each_intersecting(user, area, |v| views.push(v));
        views
    }
}

/// One immutable generation of a shard's index: a bulk-loaded
/// [`ShardIndex`] base plus a small delta of globally-labelled alarms
/// installed since, and the global ids deactivated since. The shard
/// worker's trigger checks read a pinned generation lock-free while the
/// install path builds the next one.
#[derive(Debug)]
pub struct ShardSnapshot {
    base: Arc<ShardIndex>,
    delta: Vec<SpatialAlarm>,
    dead: HashSet<AlarmId>,
}

impl ShardSnapshot {
    /// Number of alarms this generation tracks (base + delta; alarms
    /// dropped by a generation merge no longer count).
    pub fn len(&self) -> usize {
        self.base.len() + self.delta.len()
    }

    /// True when the generation tracks no alarms.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True unless `global` was deactivated in this generation.
    fn live(&self, global: AlarmId) -> bool {
        self.dead.is_empty() || !self.dead.contains(&global)
    }

    fn owns(&self, global: AlarmId) -> bool {
        self.base.owns(global) || self.delta.iter().any(|a| a.id() == global)
    }

    /// Visits the global id of every relevant alarm triggering at `pos`
    /// without allocating — the worker hot path. See
    /// [`ShardIndex::for_each_triggering`].
    pub fn for_each_triggering(&self, user: SubscriberId, pos: Point, mut f: impl FnMut(AlarmId)) {
        self.base.for_each_triggering(user, pos, |gid| {
            if self.live(gid) {
                f(gid);
            }
        });
        for a in &self.delta {
            if self.live(a.id()) && a.is_relevant_to(user) && a.triggers_at(pos) {
                f(a.id());
            }
        }
    }

    /// Global ids of the relevant alarms triggering at `pos` (allocating
    /// convenience over [`ShardSnapshot::for_each_triggering`]).
    pub fn triggering_at(&self, user: SubscriberId, pos: Point) -> Vec<AlarmId> {
        let mut out = Vec::new();
        self.for_each_triggering(user, pos, |id| out.push(id));
        out
    }

    /// Visits a view of **every** live alarm intersecting `area`, with
    /// per-user relevance flags, without allocating. See
    /// [`ShardIndex::for_each_intersecting`].
    pub fn for_each_intersecting(&self, user: SubscriberId, area: Rect, mut f: impl FnMut(AlarmView)) {
        self.base.for_each_intersecting(user, area, |v| {
            if self.live(v.id) {
                f(v);
            }
        });
        for a in &self.delta {
            if self.live(a.id()) && a.region().intersects(&area) {
                f(AlarmView {
                    id: a.id(),
                    region: a.region(),
                    public: a.is_public(),
                    relevant: a.is_relevant_to(user),
                });
            }
        }
    }

    /// Visits a view of every live alarm relevant to `user` intersecting
    /// `area`.
    pub fn for_each_relevant_intersecting(
        &self,
        user: SubscriberId,
        area: Rect,
        mut f: impl FnMut(AlarmView),
    ) {
        self.for_each_intersecting(user, area, |v| {
            if v.relevant {
                f(v);
            }
        });
    }

    /// The views [`ShardSnapshot::for_each_relevant_intersecting`] visits.
    pub fn relevant_intersecting(&self, user: SubscriberId, area: Rect) -> Vec<AlarmView> {
        let mut views = Vec::new();
        self.for_each_relevant_intersecting(user, area, |v| views.push(v));
        views
    }

    /// The views [`ShardSnapshot::for_each_intersecting`] visits.
    pub fn all_intersecting(&self, user: SubscriberId, area: Rect) -> Vec<AlarmView> {
        let mut views = Vec::new();
        self.for_each_intersecting(user, area, |v| views.push(v));
        views
    }
}

/// How many delta entries (or dead ids) a shard generation tolerates
/// before the writer folds them into a rebuilt (bulk-loaded) base.
const SHARD_MERGE_THRESHOLD: usize = 64;

/// Epoch-versioned shard index: the churn-tolerant wrapper the server
/// mounts per shard. Readers pin a [`ShardSnapshot`] generation through a
/// per-thread [`SnapshotCache`] (lock-free, allocation-free on the steady
/// state); [`VersionedShardIndex::install`] and
/// [`VersionedShardIndex::deactivate`] serialize on an internal mutex and
/// publish the next generation with an `Arc` swap.
#[derive(Debug)]
pub struct VersionedShardIndex {
    cell: SnapshotCell<ShardSnapshot>,
    /// Global ids ever deactivated (never cleared: generation merges drop
    /// the dead fringe, and repeated deactivates must stay no-ops).
    retired: Mutex<HashSet<AlarmId>>,
    merge_threshold: usize,
}

impl VersionedShardIndex {
    /// Builds the first generation over the given globally-labelled
    /// alarms (one STR bulk load).
    pub fn build(alarms: &[SpatialAlarm]) -> VersionedShardIndex {
        VersionedShardIndex::with_merge_threshold(alarms, SHARD_MERGE_THRESHOLD)
    }

    /// Like [`VersionedShardIndex::build`] with an explicit merge
    /// threshold (tests use small values to force generation merges).
    pub fn with_merge_threshold(
        alarms: &[SpatialAlarm],
        merge_threshold: usize,
    ) -> VersionedShardIndex {
        VersionedShardIndex {
            cell: SnapshotCell::new(ShardSnapshot {
                base: Arc::new(ShardIndex::build(alarms)),
                delta: Vec::new(),
                dead: HashSet::new(),
            }),
            retired: Mutex::new(HashSet::new()),
            merge_threshold: merge_threshold.max(1),
        }
    }

    /// Pins and returns the current generation.
    pub fn snapshot(&self) -> Arc<ShardSnapshot> {
        self.cell.load()
    }

    /// Hot-path read through a per-thread cache: no lock and no
    /// allocation while no writer has published.
    pub fn load_cached<'a>(&self, cache: &'a mut SnapshotCache<ShardSnapshot>) -> &'a ShardSnapshot {
        self.cell.load_cached(cache)
    }

    /// Adds one globally-labelled alarm to the next generation.
    pub fn install(&self, alarm: &SpatialAlarm) {
        let retired = self.retired.lock();
        let cur = self.cell.load();
        let next = if cur.delta.len() + 1 >= self.merge_threshold {
            let mut alarms = cur.base.global_alarms();
            alarms.extend(cur.delta.iter().cloned());
            alarms.push(alarm.clone());
            alarms.retain(|a| !retired.contains(&a.id()));
            ShardSnapshot {
                base: Arc::new(ShardIndex::build(&alarms)),
                delta: Vec::new(),
                dead: HashSet::new(),
            }
        } else {
            let mut delta = cur.delta.clone();
            delta.push(alarm.clone());
            ShardSnapshot { base: Arc::clone(&cur.base), delta, dead: cur.dead.clone() }
        };
        self.cell.publish(Arc::new(next));
    }

    /// Deactivates an alarm by global id in the next generation. Returns
    /// false when this shard never owned it or it was already
    /// deactivated.
    pub fn deactivate(&self, global: AlarmId) -> bool {
        let mut retired = self.retired.lock();
        let cur = self.cell.load();
        if !cur.owns(global) || !retired.insert(global) {
            return false;
        }
        let next = if cur.dead.len() + 1 >= self.merge_threshold {
            let mut alarms = cur.base.global_alarms();
            alarms.extend(cur.delta.iter().cloned());
            alarms.retain(|a| !retired.contains(&a.id()));
            ShardSnapshot {
                base: Arc::new(ShardIndex::build(&alarms)),
                delta: Vec::new(),
                dead: HashSet::new(),
            }
        } else {
            let mut dead = cur.dead.clone();
            dead.insert(global);
            ShardSnapshot { base: Arc::clone(&cur.base), delta: cur.delta.clone(), dead }
        };
        self.cell.publish(Arc::new(next));
        true
    }
}

/// One update of a batch sliced out for a single shard: the batch-wide
/// position of the update (so the router can reassemble replies in
/// order) plus the session and the per-update request.
#[derive(Debug)]
pub struct ShardUpdate {
    /// Index of this update in the original batch frame.
    pub index: u32,
    /// The session the update belongs to.
    pub session: u32,
    /// The per-update request (a `LocationUpdate` in practice).
    pub req: Request,
}

/// What a shard worker is asked to do.
#[derive(Debug)]
pub enum JobPayload {
    /// One decoded request on one session — the per-request path.
    Single {
        /// The session the request arrived on.
        session: u32,
        /// The decoded request.
        req: Request,
    },
    /// The shard's slice of a [`crate::wire::Request::Batch`]: every
    /// update whose cell this shard owns, in batch order. The worker
    /// processes them back to back and answers once.
    Batch(Vec<ShardUpdate>),
}

/// One reply unit a worker sends back: the batch index the responses
/// belong to (0 for single-request jobs) and the full response sequence
/// of that update.
pub type JobReply = Vec<(u32, Vec<Response>)>;

/// One queued unit of shard work: a payload plus the reply channel the
/// worker answers on.
#[derive(Debug)]
pub struct Job {
    /// What to do.
    pub payload: JobPayload,
    /// Where the worker sends the indexed response sequences.
    pub reply: Sender<JobReply>,
    /// When the request entered the router, in the server clock's
    /// nanoseconds — stamped **once** at router entry and threaded
    /// through, so the hot path pays a single clock read per request
    /// instead of one per job hop. The dispatch-wait histogram
    /// therefore measures router-entry→worker-pickup (queue wait plus
    /// the router's constant-time fan-out work).
    pub enqueued_at_ns: u64,
    /// Pre-allocated reply buffers the worker fills and sends back over
    /// `reply` instead of allocating its own. The router's reply-slot
    /// pool seeds this with warmed (already-at-capacity) vectors and
    /// recycles them once the reply is consumed, making the steady-state
    /// single-update round trip allocation-free. An empty scratch is
    /// always valid — the worker falls back to fresh vectors.
    pub scratch: JobReply,
}

impl Job {
    /// A single-request job carrying the router's entry timestamp.
    pub fn new(session: u32, req: Request, reply: Sender<JobReply>, entered_ns: u64) -> Job {
        Job {
            payload: JobPayload::Single { session, req },
            reply,
            enqueued_at_ns: entered_ns,
            scratch: Vec::new(),
        }
    }

    /// A batch-slice job carrying the router's entry timestamp.
    pub fn batch(updates: Vec<ShardUpdate>, reply: Sender<JobReply>, entered_ns: u64) -> Job {
        Job {
            payload: JobPayload::Batch(updates),
            reply,
            enqueued_at_ns: entered_ns,
            scratch: Vec::new(),
        }
    }

    /// The single request inside a [`JobPayload::Single`] job, if any.
    pub fn request(&self) -> Option<&Request> {
        match &self.payload {
            JobPayload::Single { req, .. } => Some(req),
            JobPayload::Batch(_) => None,
        }
    }

    /// Number of position updates this job carries.
    pub fn update_count(&self) -> usize {
        match &self.payload {
            JobPayload::Single { .. } => 1,
            JobPayload::Batch(updates) => updates.len(),
        }
    }
}

/// Per-shard instrumentation handles.
#[derive(Debug, Clone)]
struct ShardMeter {
    /// Jobs currently sitting in (or being drained from) the queue.
    depth: Gauge,
    /// Submissions bounced because the queue was at capacity.
    queue_full: Counter,
}

/// Submission failure modes of [`ShardPool::try_submit`].
#[derive(Debug)]
pub enum SubmitError {
    /// The shard's bounded queue is full — answer `Overloaded`.
    Full(Job),
    /// The shard's worker is gone (pool shut down).
    Disconnected(Job),
}

/// The worker shards: one bounded queue and (normally) one thread each.
///
/// Instrumentation registered on the pool's registry: a
/// `sa_shard_queue_depth{shard=…}` gauge and a
/// `sa_shard_queue_full_total{shard=…}` counter per shard — so an
/// `Overloaded` bounce is attributable to the one shard that was
/// saturated — plus one `sa_shard_dispatch_wait_ns` histogram of the
/// submit-to-pickup queue wait.
#[derive(Debug)]
pub struct ShardPool {
    senders: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    meters: Vec<ShardMeter>,
}

fn shard_meters(num_shards: usize, registry: &Registry) -> Vec<ShardMeter> {
    (0..num_shards)
        .map(|shard| {
            let label = shard.to_string();
            ShardMeter {
                depth: registry.gauge_with("sa_shard_queue_depth", &[("shard", &label)]),
                queue_full: registry
                    .counter_with("sa_shard_queue_full_total", &[("shard", &label)]),
            }
        })
        .collect()
}

impl ShardPool {
    /// Spawns `num_shards` workers, each draining its own queue of
    /// capacity `queue_capacity` through `handler(shard, job)`, with
    /// queue instrumentation registered on `registry`. Queue-wait
    /// measurements read `clock` — the same clock that stamped the jobs.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards` or `queue_capacity` is zero.
    pub fn spawn<H>(
        num_shards: usize,
        queue_capacity: usize,
        handler: Arc<H>,
        registry: &Registry,
        clock: SharedClock,
    ) -> ShardPool
    where
        H: Fn(usize, Job) + Send + Sync + 'static,
    {
        assert!(num_shards > 0, "need at least one shard");
        assert!(queue_capacity > 0, "queues must hold at least one job");
        let meters = shard_meters(num_shards, registry);
        let dispatch_wait = registry.histogram("sa_shard_dispatch_wait_ns");
        let mut senders = Vec::with_capacity(num_shards);
        let mut workers = Vec::with_capacity(num_shards);
        for (shard, meter) in meters.iter().enumerate() {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = bounded(queue_capacity);
            senders.push(tx);
            let handler = Arc::clone(&handler);
            let depth = meter.depth.clone();
            let dispatch_wait = dispatch_wait.clone();
            let clock = Arc::clone(&clock);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sa-shard-{shard}"))
                    .spawn(move || {
                        for job in rx.iter() {
                            depth.dec();
                            dispatch_wait.record_duration(clock.elapsed_since(job.enqueued_at_ns));
                            handler(shard, job);
                        }
                    })
                    .expect("spawning a shard worker"),
            );
        }
        ShardPool { senders, workers, meters }
    }

    /// A pool with queues but **no worker threads** — nothing ever drains
    /// the queues, so `queue_capacity` submissions fill a shard. Only
    /// useful to test backpressure.
    pub fn without_workers(
        num_shards: usize,
        queue_capacity: usize,
        registry: &Registry,
    ) -> ShardPool {
        assert!(num_shards > 0, "need at least one shard");
        assert!(queue_capacity > 0, "queues must hold at least one job");
        let meters = shard_meters(num_shards, registry);
        let mut senders = Vec::with_capacity(num_shards);
        let mut workers = Vec::new();
        for _ in 0..num_shards {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = bounded(queue_capacity);
            // Park the receiver in a thread that never reads, keeping the
            // channel connected so try_send reports Full, not Disconnected.
            senders.push(tx);
            workers.push(
                std::thread::Builder::new()
                    .spawn(move || {
                        let _rx = rx;
                        std::thread::park();
                    })
                    .expect("spawning a parked holder"),
            );
        }
        ShardPool { senders, workers, meters }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// Queue depth of one shard (for tests and stats).
    pub fn queue_len(&self, shard: usize) -> usize {
        self.senders[shard].len()
    }

    /// Non-blocking submission. The job keeps the router-entry
    /// timestamp it was built with — no re-stamp, no extra clock read on
    /// the hot path.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the shard's queue is at capacity (the
    /// router converts this to `Overloaded`), [`SubmitError::Disconnected`]
    /// after shutdown.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    // The large Err is the point: a bounced job comes back by value so
    // the router can reclaim its pooled scratch buffers, and the error
    // path (queue full / shutdown) is cold by construction.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, shard: usize, job: Job) -> Result<(), SubmitError> {
        match self.senders[shard].try_send(job) {
            Ok(()) => {
                self.meters[shard].depth.inc();
                Ok(())
            }
            Err(TrySendError::Full(job)) => {
                self.meters[shard].queue_full.inc();
                Err(SubmitError::Full(job))
            }
            Err(TrySendError::Disconnected(job)) => Err(SubmitError::Disconnected(job)),
        }
    }

    /// Drops the queues and joins the workers. Workers holding queued
    /// jobs finish them first; parked no-worker holders are unparked.
    pub fn shutdown(self) {
        drop(self.senders);
        for worker in &self.workers {
            worker.thread().unpark();
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::StrategySpec;
    use crossbeam::channel::unbounded;
    use sa_alarms::{AlarmScope, AlarmTarget};

    fn alarm(id: u64, min: f64, public: bool) -> SpatialAlarm {
        let scope = if public {
            AlarmScope::Public { owner: SubscriberId(0) }
        } else {
            AlarmScope::Private { owner: SubscriberId(1) }
        };
        SpatialAlarm::new(
            AlarmId(id),
            Rect::new(min, min, min + 100.0, min + 100.0).unwrap(),
            AlarmTarget::Static(Point::new(min + 50.0, min + 50.0)),
            scope,
        )
    }

    #[test]
    fn shard_index_speaks_global_ids() {
        // Sparse global ids 7 and 42: a plain AlarmIndex would reject them.
        let alarms = vec![alarm(7, 0.0, true), alarm(42, 1_000.0, false)];
        let shard = ShardIndex::build(&alarms);
        assert_eq!(shard.len(), 2);
        let hit = shard.triggering_at(SubscriberId(9), Point::new(50.0, 50.0));
        assert_eq!(hit, vec![AlarmId(7)]);
        // The private alarm only triggers for its owner.
        assert!(shard.triggering_at(SubscriberId(9), Point::new(1_050.0, 1_050.0)).is_empty());
        assert_eq!(
            shard.triggering_at(SubscriberId(1), Point::new(1_050.0, 1_050.0)),
            vec![AlarmId(42)]
        );
        let area = Rect::new(0.0, 0.0, 2_000.0, 2_000.0).unwrap();
        let all = shard.all_intersecting(SubscriberId(9), area);
        assert_eq!(all.len(), 2);
        assert!(all.iter().any(|v| v.id == AlarmId(42) && !v.relevant && !v.public));
        assert_eq!(shard.relevant_intersecting(SubscriberId(9), area).len(), 1);
    }

    #[test]
    fn shard_index_deactivation() {
        let alarms = vec![alarm(7, 0.0, true)];
        let mut shard = ShardIndex::build(&alarms);
        assert!(!shard.is_empty());
        assert!(shard.deactivate(AlarmId(7)));
        assert!(!shard.deactivate(AlarmId(7)), "second deactivation is a no-op");
        assert!(!shard.deactivate(AlarmId(99)), "unknown ids are not owned");
        assert!(shard.triggering_at(SubscriberId(9), Point::new(50.0, 50.0)).is_empty());
    }

    #[test]
    fn versioned_shard_pins_generations_and_tracks_churn() {
        let v = VersionedShardIndex::with_merge_threshold(&[alarm(7, 0.0, true)], 3);
        let pinned = v.snapshot();
        // Churn past the merge threshold with sparse global ids.
        for (i, min) in [(20u64, 1_000.0), (31, 2_000.0), (55, 3_000.0), (90, 4_000.0)] {
            v.install(&alarm(i, min, true));
        }
        assert!(v.deactivate(AlarmId(31)));
        assert!(!v.deactivate(AlarmId(31)), "second deactivation is a no-op");
        assert!(!v.deactivate(AlarmId(999)), "unknown ids are not owned");
        // The pinned generation still answers from before the churn.
        assert_eq!(pinned.triggering_at(SubscriberId(9), Point::new(50.0, 50.0)), vec![AlarmId(7)]);
        assert!(pinned.triggering_at(SubscriberId(9), Point::new(2_050.0, 2_050.0)).is_empty());
        // The current generation sees installs minus the deactivation.
        let cur = v.snapshot();
        assert_eq!(cur.triggering_at(SubscriberId(9), Point::new(1_050.0, 1_050.0)), vec![AlarmId(20)]);
        assert!(cur.triggering_at(SubscriberId(9), Point::new(2_050.0, 2_050.0)).is_empty());
        let area = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
        let views = cur.relevant_intersecting(SubscriberId(9), area);
        let mut ids: Vec<u64> = views.iter().map(|view| view.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![7, 20, 55, 90]);
        assert_eq!(cur.all_intersecting(SubscriberId(9), area).len(), 4);
    }

    #[test]
    fn versioned_shard_cached_reads_survive_merges() {
        let v = VersionedShardIndex::with_merge_threshold(&[], 2);
        let mut cache = SnapshotCache::new();
        assert!(v.load_cached(&mut cache).is_empty());
        for i in 0..20u64 {
            v.install(&alarm(i * 3, i as f64 * 500.0, i % 2 == 0));
        }
        let snap = v.load_cached(&mut cache);
        assert_eq!(snap.len(), 20);
        // A deactivate folded through a merge stays deactivated.
        assert!(v.deactivate(AlarmId(0)));
        assert!(v
            .load_cached(&mut cache)
            .triggering_at(SubscriberId(5), Point::new(50.0, 50.0))
            .is_empty());
    }

    #[test]
    fn full_queue_reports_backpressure_without_blocking() {
        let registry = Registry::new();
        let pool = ShardPool::without_workers(2, 1, &registry);
        let (reply, _keep) = unbounded();
        let job = |seq| Job::new(0, Request::Bye { seq }, reply.clone(), 0);
        assert!(pool.try_submit(0, job(1)).is_ok());
        let start = std::time::Instant::now();
        match pool.try_submit(0, job(2)) {
            Err(SubmitError::Full(job)) => {
                assert_eq!(job.request(), Some(&Request::Bye { seq: 2 }))
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert!(
            start.elapsed() < std::time::Duration::from_millis(100),
            "try_submit must not block on a full queue"
        );
        // The sibling shard still accepts work.
        assert!(pool.try_submit(1, job(3)).is_ok());
        assert_eq!(pool.queue_len(0), 1);
        pool.shutdown();
    }

    #[test]
    fn workers_drain_jobs_and_answer_on_the_reply_channel() {
        let handler = Arc::new(|shard: usize, job: Job| {
            let seq = job.request().expect("single job").seq();
            let _ = job
                .reply
                .send(vec![(0, vec![Response::Error { seq, code: shard as u32 }])]);
        });
        let registry = Registry::new();
        let pool =
            ShardPool::spawn(3, 4, handler, &registry, crate::clock::SystemClock::shared());
        assert_eq!(pool.num_shards(), 3);
        let (reply_tx, reply_rx) = unbounded();
        for shard in 0..3 {
            pool.try_submit(
                shard,
                Job::new(
                    1,
                    Request::Hello { seq: shard as u32, user: 0, strategy: StrategySpec::Mwpsr },
                    reply_tx.clone(),
                    0,
                ),
            )
            .unwrap();
        }
        let mut codes: Vec<u32> = (0..3)
            .map(|_| match reply_rx.recv().unwrap().pop().unwrap() {
                (0, resps) => match resps.last() {
                    Some(Response::Error { code, .. }) => *code,
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        codes.sort_unstable();
        assert_eq!(codes, vec![0, 1, 2]);
        // After the drain every depth gauge is back to zero and the
        // dispatch-wait histogram saw all three jobs.
        let snap = registry.snapshot();
        for shard in ["0", "1", "2"] {
            assert_eq!(snap.gauge("sa_shard_queue_depth", &[("shard", shard)]), Some(0));
        }
        assert_eq!(
            snap.histogram("sa_shard_dispatch_wait_ns", &[]).map(|h| h.count),
            Some(3)
        );
        pool.shutdown();
    }

    #[test]
    fn saturating_one_shard_spikes_only_its_gauge() {
        const CAPACITY: usize = 5;
        let registry = Registry::new();
        let pool = ShardPool::without_workers(3, CAPACITY, &registry);
        let (reply, _keep) = unbounded();
        // Fill shard 1 to capacity, then push two more over the brim.
        for seq in 0..CAPACITY as u32 {
            pool.try_submit(1, Job::new(0, Request::Bye { seq }, reply.clone(), 0)).unwrap();
        }
        for seq in 0..2 {
            let job = Job::new(0, Request::Bye { seq: 100 + seq }, reply.clone(), 0);
            match pool.try_submit(1, job) {
                Err(SubmitError::Full(_)) => {}
                other => panic!("expected Full, got {other:?}"),
            }
        }
        // One stray job on shard 2 so "only shard 1 spikes" is tested
        // against a non-idle sibling, not an empty pool.
        pool.try_submit(2, Job::new(0, Request::Bye { seq: 7 }, reply.clone(), 0)).unwrap();

        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge("sa_shard_queue_depth", &[("shard", "1")]),
            Some(CAPACITY as i64),
            "the saturated shard's gauge shows a full queue"
        );
        assert_eq!(snap.gauge("sa_shard_queue_depth", &[("shard", "0")]), Some(0));
        assert_eq!(snap.gauge("sa_shard_queue_depth", &[("shard", "2")]), Some(1));
        assert_eq!(
            snap.counter("sa_shard_queue_full_total", &[("shard", "1")]),
            Some(2),
            "both bounces are charged to the saturated shard"
        );
        assert_eq!(snap.counter("sa_shard_queue_full_total", &[("shard", "0")]), Some(0));
        assert_eq!(snap.counter("sa_shard_queue_full_total", &[("shard", "2")]), Some(0));
        pool.shutdown();
    }
}
