//! Grid-cell sharding of batch frames: worker threads and their job
//! queues.
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
//! The queues have no bound and a submission never fails while the
//! worker lives. Their depth stays bounded anyway: a batch caller
//! submits at most one job per shard and then waits for its own
//! replies, so a queue never holds more jobs than there are callers
//! blocked in [`crate::Server::handle`].

use crate::clock::SharedClock;
use crate::wire::{Request, Response};
use crossbeam::channel::{unbounded, Receiver, Sender};
use sa_obs::{Gauge, Registry};
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

/// The worker shards: one queue and one thread each.
///
/// Instrumentation registered on the pool's registry: a
/// `sa_shard_queue_depth{shard=…}` gauge per shard plus one
/// `sa_shard_dispatch_wait_ns` histogram of the submit-to-pickup queue
/// wait.
#[derive(Debug)]
pub struct ShardPool {
    senders: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    depths: Vec<Gauge>,
}

impl ShardPool {
    /// Spawns `num_shards` workers, each draining its own queue through
    /// `handler(shard, job)`, with queue instrumentation registered on
    /// `registry`. Queue-wait measurements read `clock` — the same clock
    /// that stamped the jobs.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards` is zero.
    pub fn spawn<H>(
        num_shards: usize,
        handler: Arc<H>,
        registry: &Registry,
        clock: SharedClock,
    ) -> ShardPool
    where
        H: Fn(usize, Job) + Send + Sync + 'static,
    {
        assert!(num_shards > 0, "need at least one shard");
        let dispatch_wait = registry.histogram("sa_shard_dispatch_wait_ns");
        let mut senders = Vec::with_capacity(num_shards);
        let mut workers = Vec::with_capacity(num_shards);
        let mut depths = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
            senders.push(tx);
            let depth =
                registry.gauge_with("sa_shard_queue_depth", &[("shard", &shard.to_string())]);
            depths.push(depth.clone());
            let handler = Arc::clone(&handler);
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
        ShardPool { senders, workers, depths }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// Queues `job` on `shard`'s worker. The job keeps the router-entry
    /// timestamp it was built with — no re-stamp, no extra clock read.
    ///
    /// # Errors
    ///
    /// The job comes back by value when the shard's worker is gone (it
    /// panicked), so the router can answer its entries.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn submit(&self, shard: usize, job: Job) -> Result<(), Job> {
        self.senders[shard].send(job).map_err(|e| e.0)?;
        self.depths[shard].inc();
        Ok(())
    }

    /// Drops the queues and joins the workers. Workers holding queued
    /// jobs finish them first.
    pub fn shutdown(self) {
        drop(self.senders);
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn workers_drain_jobs_and_answer_on_the_reply_channel() {
        let handler = Arc::new(|shard: usize, job: Job| {
            let answer = |u: &ShardUpdate| Response::Error { seq: u.req.seq(), code: shard as u32 };
            let reply = job.updates.iter().map(|u| (u.index, vec![answer(u)])).collect();
            let _ = job.reply.send(reply);
        });
        let registry = Registry::new();
        let pool = ShardPool::spawn(3, handler, &registry, crate::clock::SystemClock::shared());
        assert_eq!(pool.num_shards(), 3);
        let (reply_tx, reply_rx) = unbounded();
        for shard in 0..3 {
            pool.submit(shard, job(shard as u32, &reply_tx)).unwrap();
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
}
