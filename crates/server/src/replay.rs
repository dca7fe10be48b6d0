//! Trace replay through the live server.
//!
//! Rebuilds the simulator's world (road network, fleet, alarms), starts
//! a [`Server`] over it, connects one [`Client`] per vehicle through a
//! caller-chosen transport, and streams the deterministic `sa-roadnet`
//! trace through the live stack. Every firing observed by any client is
//! collected and diffed against the simulator's [`GroundTruth`] — the
//! live runtime must reproduce the paper's 100%-accuracy requirement,
//! end to end through real message encoding and real threads.
//!
//! Only static alarms are replayed (the wire protocol carries no
//! moving-target coordination); build the harness with
//! `config.moving_alarms == 0`.

use crate::client::{Client, ClientStats};
use crate::server::{Server, ServerConfig, ServerStats};
use crate::transport::{InProcTransport, TcpServerHandle, TcpTransport, Transport, TransportError};
use crate::wire::{BatchReply, BatchedUpdate, Request, Response, StrategySpec, SEQ_MASK};
use crate::CacheStats;
use sa_alarms::SubscriberId;
use sa_obs::{FlightBundle, Snapshot, TraceMode};
use sa_roadnet::Fleet;
use sa_sim::{FiredEvent, GroundTruth, SimulationHarness};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to replay and through what server shape.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Steps to replay; `None` replays the harness's full trace.
    pub steps: Option<u32>,
    /// Server sizing.
    pub server: ServerConfig,
    /// Strategies assigned to vehicles round-robin.
    pub strategies: Vec<StrategySpec>,
    /// Span-recording mode installed on the server at start — the
    /// `trace_overhead` bench drives the same replay with tracing off
    /// and fully on to price the instrumentation.
    pub trace_mode: TraceMode,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            steps: None,
            server: ServerConfig::default(),
            trace_mode: TraceMode::Full,
            strategies: vec![
                StrategySpec::Mwpsr,
                StrategySpec::Pbsr { height: 5 },
                StrategySpec::Opt,
                StrategySpec::SafePeriod,
            ],
        }
    }
}

/// What one [`replay_batched_in_proc`] worker spent on one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepCost {
    /// The step.
    pub step: u32,
    /// Location updates the worker sent for the step (first attempts; an
    /// overload retry is cost, not another update).
    pub updates: u32,
    /// Worker time inside the step: sampling, client monitoring and the
    /// batch exchanges.
    pub busy: Duration,
}

/// The median per-step cost, in worker microseconds per update, of each
/// quarter of a `steps`-long replay (steps that sent nothing carry no
/// cost per update and are skipped; 0 for a quarter with none left).
/// A median, not a mean: on a shared box a burst of noise lands on some
/// steps of a quarter, not on most of them.
pub fn quarter_us_per_update(costs: &[StepCost], steps: u32) -> [f64; 4] {
    let mut quarters: [Vec<f64>; 4] = Default::default();
    for c in costs.iter().filter(|c| c.updates > 0 && c.step < steps) {
        let quarter = (u64::from(c.step) * 4 / u64::from(steps)) as usize;
        quarters[quarter].push(c.busy.as_secs_f64() * 1e6 / f64::from(c.updates));
    }
    quarters.map(|mut q| {
        q.sort_by(f64::total_cmp);
        q.get(q.len() / 2).copied().unwrap_or(0.0)
    })
}

/// The result of one replay.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Every firing observed by any client, unsorted.
    pub fired: Vec<FiredEvent>,
    /// Diff against the ground truth restricted to the replayed steps;
    /// `Err` describes the first discrepancy.
    pub verification: Result<(), String>,
    /// Per-client `(subscriber, strategy, counters)`.
    pub clients: Vec<(SubscriberId, StrategySpec, ClientStats)>,
    /// Server counters.
    pub server: ServerStats,
    /// Safe-region cache counters.
    pub cache: CacheStats,
    /// Full registry snapshot (every counter, gauge, and histogram),
    /// captured just before the server shut down. Render with
    /// [`sa_obs::render_snapshot`] for the Prometheus text form.
    pub metrics: Snapshot,
    /// Steps actually replayed.
    pub steps: u32,
    /// Per-worker, per-step driver cost (see [`quarter_us_per_update`]).
    /// Only [`replay_batched_in_proc`] meters it; empty elsewhere.
    pub step_costs: Vec<StepCost>,
}

impl ReplayOutcome {
    /// Panics with the discrepancy when the replay missed, mistimed or
    /// spuriously fired an alarm.
    ///
    /// # Panics
    ///
    /// Panics when `verification` is an error.
    pub fn assert_accurate(&self) {
        if let Err(e) = &self.verification {
            panic!("live replay violated the 100% accuracy requirement: {e}");
        }
    }
}

/// Replays `harness`'s trace through a fresh server, connecting each
/// client with `connect`. Generic over the transport so the in-proc and
/// TCP paths share one driver.
///
/// # Errors
///
/// Fails when any client's transport breaks mid-replay.
///
/// # Panics
///
/// Panics when the harness was built with moving-target alarms.
pub fn replay<T, F>(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
    mut connect: F,
) -> Result<ReplayOutcome, TransportError>
where
    T: Transport,
    F: FnMut(&Arc<Server>) -> Result<T, TransportError>,
{
    assert!(
        harness.moving_alarms().is_none(),
        "the live wire protocol carries static alarms only"
    );
    assert!(!cfg.strategies.is_empty(), "need at least one strategy to assign");

    let config = harness.config();
    let dt = config.sample_period_s;
    let steps = cfg.steps.unwrap_or(config.steps() as u32).min(config.steps() as u32);

    let server = Server::start(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        cfg.server,
    );
    server.set_trace_mode(cfg.trace_mode);

    let mut clients: Vec<Client<T>> = (0..config.fleet.vehicles as u32)
        .map(|v| {
            let strategy = cfg.strategies[v as usize % cfg.strategies.len()];
            let transport = connect(&server)?;
            Client::connect(transport, SubscriberId(v), strategy, harness.grid().clone(), dt)
        })
        .collect::<Result<_, _>>()?;

    let mut fleet = Fleet::new(harness.network(), &config.fleet);
    let mut samples = Vec::new();
    for step in 0..steps {
        fleet.step_into(dt, &mut samples);
        for s in &samples {
            clients[s.vehicle.0 as usize].observe(step, s.pos, s.heading, s.speed)?;
        }
    }

    let mut fired = Vec::new();
    let mut per_client = Vec::new();
    for client in &mut clients {
        per_client.push((client.user(), client.strategy(), client.stats()));
        fired.extend(client.take_fired());
    }

    // A firing at step s depends only on samples up to s, so the ground
    // truth restricted to the replayed prefix is exact.
    let expected: Vec<FiredEvent> = harness
        .ground_truth()
        .events()
        .iter()
        .filter(|e| e.step < steps)
        .cloned()
        .collect();
    // On a divergence, the failure message is a flight-recorder bundle:
    // span trees, trace ring and registry snapshot in one document.
    let verification =
        GroundTruth::new(expected).verify(&fired).map_err(|e| divergence_bundle(e, &server));

    let outcome = ReplayOutcome {
        fired,
        verification,
        clients: per_client,
        server: server.stats(),
        cache: server.cache_stats(),
        metrics: server.registry().snapshot(),
        steps,
        step_costs: Vec::new(),
    };
    server.shutdown();
    Ok(outcome)
}

/// Renders the single-server divergence flight bundle (see
/// [`FlightBundle`]).
fn divergence_bundle(reason: String, server: &Server) -> String {
    let mut bundle = FlightBundle::new(reason);
    bundle.spans = server.spans();
    bundle.rings.push(("server".to_string(), server.trace_dump()));
    bundle.snapshots.push(("server".to_string(), server.registry().snapshot()));
    bundle.render()
}

/// [`replay`] over the in-process transport.
///
/// # Errors
///
/// Fails when a client exchange breaks (see [`replay`]).
pub fn replay_in_proc(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, TransportError> {
    replay(harness, cfg, |server| Ok(InProcTransport::connect(Arc::clone(server))))
}

/// Hard cap on entries per [`Request::Batch`] frame, keeping the worst
/// case reply frame (a height-5 bitmap install for *every* entry) well
/// under [`crate::wire::MAX_FRAME_LEN`].
const MAX_BATCH_ENTRIES: usize = 1024;

/// Overload retry rounds per step before a batch worker gives up.
const MAX_BATCH_ROUNDS: u32 = 10_000;

/// The multi-worker batched replay: splits the fleet into `workers`
/// contiguous vehicle-id ranges (the [`Fleet::with_id_range`] sharding —
/// each shard reproduces exactly its slice of the full trace), drives
/// each range on its own thread, and submits each worker's step as
/// [`Request::Batch`] frames over in-proc transport instead of one
/// request/RTT per vehicle. Firings are still cross-checked against the
/// simulator's [`GroundTruth`] exactly.
///
/// Free-running workers are sound because alarms fire per (subscriber,
/// alarm): one vehicle's firings never depend on another vehicle's
/// position, so worker skew cannot change what fires or when. Within a
/// worker, each client completes its step-`n` responses before polling
/// step `n + 1`, preserving per-client strategy semantics.
///
/// # Errors
///
/// Fails when a transport breaks, the server answers outside the batch
/// protocol, or a shard queue stays overloaded past the retry budget.
///
/// # Panics
///
/// Panics when the harness was built with moving-target alarms.
pub fn replay_batched_in_proc(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
    workers: usize,
) -> Result<ReplayOutcome, TransportError> {
    assert!(
        harness.moving_alarms().is_none(),
        "the live wire protocol carries static alarms only"
    );
    assert!(!cfg.strategies.is_empty(), "need at least one strategy to assign");

    let config = harness.config();
    let dt = config.sample_period_s;
    let steps = cfg.steps.unwrap_or(config.steps() as u32).min(config.steps() as u32);
    let server = Server::start(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        cfg.server,
    );
    server.set_trace_mode(cfg.trace_mode);

    // One contiguous vehicle range per worker, like the simulator's own
    // parallel replay.
    let vehicles = config.fleet.vehicles as u32;
    let workers = (workers.max(1) as u32).min(vehicles.max(1));
    let base = vehicles / workers;
    let extra = vehicles % workers;
    let mut ranges = Vec::with_capacity(workers as usize);
    let mut start = 0u32;
    for w in 0..workers {
        let len = base + u32::from(w < extra);
        if len > 0 {
            ranges.push(start..start + len);
            start += len;
        }
    }

    let results: Result<Vec<_>, TransportError> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let server = Arc::clone(&server);
                scope.spawn(move || batch_worker(&server, harness, cfg, range, steps, dt))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("batch worker panicked")).collect()
    });
    let results = results?;

    let mut fired = Vec::new();
    let mut per_client = Vec::new();
    let mut step_costs = Vec::new();
    for (worker_fired, worker_clients, worker_costs) in results {
        fired.extend(worker_fired);
        per_client.extend(worker_clients);
        step_costs.extend(worker_costs);
    }

    let expected: Vec<FiredEvent> = harness
        .ground_truth()
        .events()
        .iter()
        .filter(|e| e.step < steps)
        .cloned()
        .collect();
    let verification =
        GroundTruth::new(expected).verify(&fired).map_err(|e| divergence_bundle(e, &server));

    let outcome = ReplayOutcome {
        fired,
        verification,
        clients: per_client,
        server: server.stats(),
        cache: server.cache_stats(),
        metrics: server.registry().snapshot(),
        steps,
        step_costs,
    };
    server.shutdown();
    Ok(outcome)
}

/// One worker of [`replay_batched_in_proc`]: drives the vehicles of
/// `range` over its own driver connection, one batch exchange per step
/// (chunked at [`MAX_BATCH_ENTRIES`]).
fn batch_worker(
    server: &Arc<Server>,
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
    range: std::ops::Range<u32>,
    steps: u32,
    dt: f64,
) -> Result<WorkerOutcome, TransportError> {
    let mut sessions = Vec::with_capacity(range.len());
    let mut clients: Vec<Client<InProcTransport>> = range
        .clone()
        .map(|v| {
            let strategy = cfg.strategies[v as usize % cfg.strategies.len()];
            let transport = InProcTransport::connect(Arc::clone(server));
            sessions.push(transport.session());
            Client::connect(transport, SubscriberId(v), strategy, harness.grid().clone(), dt)
        })
        .collect::<Result<_, _>>()?;
    let mut driver = InProcTransport::connect(Arc::clone(server));
    let mut fleet = Fleet::with_id_range(harness.network(), &harness.config().fleet, range.clone());
    let mut samples = Vec::new();
    let mut batch_seq = 0u32;
    let mut step_costs = Vec::with_capacity(steps as usize);

    for step in 0..steps {
        let step_started = Instant::now();
        fleet.step_into(dt, &mut samples);
        let mut entries: Vec<BatchedUpdate> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        for s in &samples {
            let local = (s.vehicle.0 - range.start) as usize;
            if let Some(entry) =
                clients[local].poll_update(sessions[local], step, s.pos, s.heading, s.speed)?
            {
                entries.push(entry);
                owners.push(local);
            }
        }
        let updates = entries.len() as u32;
        // Exchange (and re-exchange overloaded entries) until the step
        // is fully absorbed — every client must complete step `step`
        // before any polls `step + 1`.
        let mut rounds = 0u32;
        while !entries.is_empty() {
            if rounds >= MAX_BATCH_ROUNDS {
                return Err(TransportError::Protocol("server stayed overloaded"));
            }
            rounds += 1;
            let mut retry_entries = Vec::new();
            let mut retry_owners = Vec::new();
            for (chunk, chunk_owners) in
                entries.chunks(MAX_BATCH_ENTRIES).zip(owners.chunks(MAX_BATCH_ENTRIES))
            {
                batch_seq = (batch_seq + 1) & SEQ_MASK;
                let replies = exchange_batch(&mut driver, batch_seq, chunk)?;
                if replies.len() != chunk.len() {
                    return Err(TransportError::Protocol("batch reply count mismatch"));
                }
                for ((reply, &owner), &entry) in
                    replies.into_iter().zip(chunk_owners).zip(chunk)
                {
                    if reply.session != entry.session {
                        return Err(TransportError::Protocol("batch reply session mismatch"));
                    }
                    if !clients[owner].complete_update(reply.responses)? {
                        retry_entries.push(entry);
                        retry_owners.push(owner);
                    }
                }
            }
            if !retry_entries.is_empty() {
                std::thread::yield_now();
            }
            entries = retry_entries;
            owners = retry_owners;
        }
        step_costs.push(StepCost { step, updates, busy: step_started.elapsed() });
    }

    let mut fired = Vec::new();
    let mut per_client = Vec::new();
    for client in &mut clients {
        per_client.push((client.user(), client.strategy(), client.stats()));
        fired.extend(client.take_fired());
    }
    Ok((fired, per_client, step_costs))
}

type WorkerOutcome =
    (Vec<FiredEvent>, Vec<(SubscriberId, StrategySpec, ClientStats)>, Vec<StepCost>);

/// One batch frame round trip, unwrapped to its reply groups.
fn exchange_batch(
    driver: &mut InProcTransport,
    seq: u32,
    updates: &[BatchedUpdate],
) -> Result<Vec<BatchReply>, TransportError> {
    let resps = driver.request(Request::Batch { seq, updates: updates.to_vec() })?;
    match resps.into_iter().next() {
        Some(Response::Batch { seq: echoed, replies }) if echoed == seq => Ok(replies),
        _ => Err(TransportError::Protocol("batch request answered without a batch reply")),
    }
}

/// [`replay`] over loopback TCP: starts an accept loop, gives every
/// client its own connection, and tears the listener down afterwards.
///
/// # Errors
///
/// Fails when the listener cannot bind or a client exchange breaks.
pub fn replay_tcp(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, TransportError> {
    let mut handle: Option<TcpServerHandle> = None;
    let outcome = replay(harness, cfg, |server| {
        if handle.is_none() {
            handle = Some(TcpServerHandle::serve(Arc::clone(server))?);
        }
        let addr = handle.as_ref().expect("listener just started").addr();
        Ok(TcpTransport::connect(addr)?)
    });
    if let Some(mut h) = handle {
        h.shutdown();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sim::SimulationConfig;

    #[test]
    fn in_proc_replay_fires_exactly_the_ground_truth_prefix() {
        let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
        let cfg = ReplayConfig { steps: Some(120), ..ReplayConfig::default() };
        let outcome = replay_in_proc(&harness, &cfg).expect("transport must hold");
        outcome.assert_accurate();
        assert_eq!(outcome.steps, 120);
        assert_eq!(outcome.clients.len(), harness.config().fleet.vehicles);
        let uplinks: u64 = outcome.clients.iter().map(|(_, _, s)| s.uplinks).sum();
        assert!(uplinks > 0, "someone must have talked to the server");
        assert!(
            uplinks < harness.config().fleet.vehicles as u64 * 120,
            "safe regions must suppress most samples"
        );
    }

    #[test]
    fn batched_replay_matches_ground_truth_and_per_request_traffic() {
        let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
        let cfg = ReplayConfig { steps: Some(120), ..ReplayConfig::default() };
        let batched = replay_batched_in_proc(&harness, &cfg, 3).expect("transport must hold");
        batched.assert_accurate();
        assert_eq!(batched.steps, 120);
        assert_eq!(batched.clients.len(), harness.config().fleet.vehicles);
        // Batching changes the framing, not the strategies: the same
        // uplinks, installs and deliveries as the per-request driver.
        let per_request = replay_in_proc(&harness, &cfg).expect("transport must hold");
        let totals = |o: &ReplayOutcome| {
            o.clients.iter().fold((0u64, 0u64, 0u64), |(u, i, d), (_, _, s)| {
                (u + s.uplinks, i + s.region_installs, d + s.deliveries)
            })
        };
        assert_eq!(totals(&batched), totals(&per_request));
        assert!(totals(&batched).0 > 0, "someone must have talked to the server");
        // Every worker meters every step, and the metered updates are
        // the uplinks (the smoke run never overloads a shard).
        assert_eq!(batched.step_costs.len(), 3 * 120);
        let metered: u64 = batched.step_costs.iter().map(|c| u64::from(c.updates)).sum();
        assert_eq!(metered, totals(&batched).0);
        assert!(per_request.step_costs.is_empty());
    }

    #[test]
    fn quarter_cost_is_the_median_step_of_each_quarter() {
        let cost = |step, updates, us| StepCost { step, updates, busy: Duration::from_micros(us) };
        let costs = [
            // Quarter 0 (steps 0–1): 10, 30 and a 1000 µs/update burst.
            cost(0, 2, 20),
            cost(1, 1, 30),
            cost(1, 1, 1_000),
            // Quarter 1: nothing sent — no cost per update to speak of.
            cost(2, 0, 500),
            // Quarter 3 (steps 6–7), two workers.
            cost(6, 4, 80),
            cost(7, 1, 40),
            // Past the replayed steps: ignored.
            cost(8, 1, 9_999),
        ];
        assert_eq!(quarter_us_per_update(&costs, 8), [30.0, 0.0, 0.0, 40.0]);
    }

    #[test]
    fn replay_caches_public_bitmaps_across_pbsr_clients() {
        let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
        let cfg = ReplayConfig {
            steps: Some(120),
            strategies: vec![StrategySpec::Pbsr { height: 3 }],
            ..ReplayConfig::default()
        };
        let outcome = replay_in_proc(&harness, &cfg).expect("transport must hold");
        outcome.assert_accurate();
        let stats = outcome.cache;
        assert!(
            stats.hits + stats.misses > 0,
            "PBSR installs must consult the public-bitmap cache"
        );
        assert!(stats.hits > 0, "12 clients over a small grid must share some bitmaps");
    }
}
