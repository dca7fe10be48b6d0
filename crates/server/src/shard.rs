//! Grid-cell sharding of batch frames: worker threads and bounded job
//! queues with explicit backpressure.
//!
//! A single location update never comes here — it runs to completion on
//! the thread that decoded it. Only a [`crate::wire::Request::Batch`]
//! frame fans out: the router maps every entry's grid cell to one shard
//! with the deterministic [`shard_of_index`] function and submits one
//! [`Job`] per shard, so the entries of one frame that share a cell are
//! processed in frame order on one worker. Shards partition *work*, not
//! data: every worker reads the server's one alarm index through a
//! pinned immutable snapshot.
//!
//! Jobs reach workers through **bounded** channels. The router only ever
//! uses [`ShardPool::try_submit`]: when a shard's queue is full the
//! submission fails immediately and the router answers each entry of the
//! slice `Response::Overloaded` instead of blocking behind a slow shard.

use crate::clock::SharedClock;
use crate::wire::{Request, Response};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use sa_obs::{Counter, Gauge, Registry};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Deterministic cell → shard mapping over flattened cell indexes.
pub fn shard_of_index(cell_index: u64, num_shards: usize) -> usize {
    (cell_index % num_shards as u64) as usize
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

/// What a worker sends back for one job: each update's batch index and
/// its full response sequence.
pub type JobReply = Vec<(u32, Vec<Response>)>;

/// One queued unit of shard work: the shard's slice of a batch frame —
/// every entry whose cell this shard owns, in frame order — plus the
/// reply channel the worker answers on, once, after processing them
/// back to back.
#[derive(Debug)]
pub struct Job {
    /// The shard's slice of the frame.
    pub updates: Vec<ShardUpdate>,
    /// Where the worker sends the indexed response sequences.
    pub reply: Sender<JobReply>,
    /// When the frame entered the router, in the server clock's
    /// nanoseconds — stamped **once** at router entry and threaded
    /// through, so the dispatch-wait histogram measures
    /// router-entry→worker-pickup (queue wait plus the router's fan-out
    /// work).
    pub enqueued_at_ns: u64,
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
    /// timestamp it was built with — no re-stamp, no extra clock read.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the shard's queue is at capacity (the
    /// router converts this to `Overloaded`), [`SubmitError::Disconnected`]
    /// after shutdown. Either way the job comes back by value, so the
    /// router can answer its entries.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
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
    use crossbeam::channel::unbounded;

    /// A one-entry batch slice whose entry carries `seq` as both its
    /// frame index and its sequence number.
    fn job(seq: u32, reply: &Sender<JobReply>) -> Job {
        let req = Request::LocationUpdate { seq, x_fx: 0, y_fx: 0, motion: 0 };
        Job {
            updates: vec![ShardUpdate { index: seq, session: 0, req }],
            reply: reply.clone(),
            enqueued_at_ns: 0,
        }
    }

    #[test]
    fn full_queue_reports_backpressure_without_blocking() {
        let registry = Registry::new();
        let pool = ShardPool::without_workers(2, 1, &registry);
        let (reply, _keep) = unbounded();
        assert!(pool.try_submit(0, job(1, &reply)).is_ok());
        let start = std::time::Instant::now();
        match pool.try_submit(0, job(2, &reply)) {
            // The bounced slice comes back whole, for the router to answer.
            Err(SubmitError::Full(job)) => {
                assert_eq!(job.updates.iter().map(|u| u.req.seq()).collect::<Vec<_>>(), [2])
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert!(
            start.elapsed() < std::time::Duration::from_millis(100),
            "try_submit must not block on a full queue"
        );
        // The sibling shard still accepts work.
        assert!(pool.try_submit(1, job(3, &reply)).is_ok());
        assert_eq!(pool.queue_len(0), 1);
        pool.shutdown();
    }

    #[test]
    fn workers_drain_jobs_and_answer_on_the_reply_channel() {
        let handler = Arc::new(|shard: usize, job: Job| {
            let answer = |u: &ShardUpdate| Response::Error { seq: u.req.seq(), code: shard as u32 };
            let reply = job.updates.iter().map(|u| (u.index, vec![answer(u)])).collect();
            let _ = job.reply.send(reply);
        });
        let registry = Registry::new();
        let pool =
            ShardPool::spawn(3, 4, handler, &registry, crate::clock::SystemClock::shared());
        assert_eq!(pool.num_shards(), 3);
        let (reply_tx, reply_rx) = unbounded();
        for shard in 0..3 {
            pool.try_submit(shard, job(shard as u32, &reply_tx)).unwrap();
        }
        let mut codes: Vec<u32> = (0..3)
            .map(|_| match reply_rx.recv().unwrap().as_slice() {
                // Each slice is answered by the shard it was sent to.
                [(index, resps)] => match resps.as_slice() {
                    [Response::Error { code, .. }] if code == index => *code,
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
            pool.try_submit(1, job(seq, &reply)).unwrap();
        }
        for seq in 0..2 {
            match pool.try_submit(1, job(100 + seq, &reply)) {
                Err(SubmitError::Full(_)) => {}
                other => panic!("expected Full, got {other:?}"),
            }
        }
        // One stray job on shard 2 so "only shard 1 spikes" is tested
        // against a non-idle sibling, not an empty pool.
        pool.try_submit(2, job(7, &reply)).unwrap();

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
