//! Trace replay through the live server: the workspace's one driver.
//!
//! Starts a [`Server`] over the simulator's world, connects one
//! [`Client`] per vehicle, streams the deterministic `sa-roadnet` trace
//! through the live stack and diffs every firing against the
//! simulator's [`GroundTruth`] — the paper's 100%-accuracy requirement,
//! end to end through real message encoding and real threads.
//!
//! Every replay is three routines: `drive` (the step loop, arming any
//! faulty links), `BatchExchange` (a batched step, each entry sent to
//! the member its client routes to) and `verify_prefix` (the
//! ground-truth diff, a [`FlightBundle`] on divergence). [`replay`],
//! [`replay_tcp`], [`replay_batched_in_proc`] and [`crate::run_case`]
//! supply only transports, workers or a per-step hook.
//!
//! Only static alarms are replayed (the wire protocol carries no
//! moving-target coordination); build the harness with
//! `config.moving_alarms == 0`.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use sa_alarms::SubscriberId;
use sa_fed::FedTransport;
use sa_geometry::Point;
use sa_obs::{FlightBundle, Snapshot, Span, TraceMode};
use sa_roadnet::{Fleet, TraceSample};
use sa_server::wire::{BatchReply, BatchedUpdate, SEQ_MASK};
use sa_server::{
    CacheStats, ChaosControls, Client, ClientStats, FaultPlan, InProcTransport, Reactor,
    ReactorConfig, Request, Response, Server, SharedClock, StrategySpec, SystemClock, TcpTransport,
    Transport, TransportError,
};
use sa_sim::{FiredEvent, GroundTruth, SimulationHarness};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to replay, with which strategies and span-recording mode.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Steps to replay; `None` replays the harness's full trace.
    pub steps: Option<u32>,
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

impl ReplayConfig {
    /// Starts a server over `harness`'s world, every
    /// timestamp on `clock`; also returns the steps a replay drives.
    ///
    /// # Panics
    ///
    /// Panics when the harness was built with moving-target alarms.
    pub fn start(&self, harness: &SimulationHarness, clock: SharedClock) -> (Arc<Server>, u32) {
        assert!(
            harness.moving_alarms().is_none(),
            "the live wire protocol carries static alarms only"
        );
        let server = Server::start_with_clock(
            harness.grid().clone(),
            harness.index().alarms().to_vec(),
            harness.v_max(),
            clock,
        );
        server.set_trace_mode(self.trace_mode);
        let all = harness.config().steps() as u32;
        (server, self.steps.unwrap_or(all).min(all))
    }
}

/// What the step loop spent on one batched step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepCost {
    /// The step.
    pub step: u32,
    /// Location updates the worker sent for the step.
    pub updates: u32,
    /// Driver time inside the step: sampling, client monitoring and the
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
    /// Safe-region cache counters.
    pub cache: CacheStats,
    /// Full registry snapshot (every counter, gauge, and histogram),
    /// captured just before the server shut down — the server's own
    /// counters are its `sa_server_*_total` entries. Render with
    /// [`sa_obs::render_snapshot`] for the Prometheus text form.
    pub metrics: Snapshot,
    /// Steps actually replayed.
    pub steps: u32,
    /// Per-worker cost of every batched step (see
    /// [`quarter_us_per_update`]); empty from the per-request drivers.
    pub step_costs: Vec<StepCost>,
}

impl ReplayOutcome {
    /// Location updates the server's workers processed: the
    /// `sa_server_location_updates_total` counter of [`Self::metrics`].
    pub fn location_updates(&self) -> u64 {
        self.metrics.counter("sa_server_location_updates_total", &[]).unwrap_or(0)
    }

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

/// Hard cap on entries per [`Request::Batch`] frame, keeping the worst
/// case reply frame (a height-5 bitmap install for *every* entry) well
/// under [`sa_server::wire::MAX_FRAME_LEN`].
const MAX_BATCH_ENTRIES: usize = 1024;

/// Re-route rounds per batched step before the exchange gives up — a
/// livelock guard against members that keep bouncing an entry with
/// `WrongOwner`, far above the one or two rounds a repartition costs.
const MAX_REROUTE_ROUNDS: u32 = 10_000;

/// Salt of the seeded visiting order's RNG stream.
const ORDER_SALT: u64 = 0x0D0E_0A0D_0F00_D5ED;

/// Fisher–Yates under the given RNG (the vendored `rand` has no
/// `shuffle`; this mirrors `SliceRandom::shuffle`).
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Connects one client per vehicle of `vehicles` — strategies assigned
/// round-robin by vehicle id — each over the transport `link` opens.
///
/// # Errors
///
/// Fails when a link cannot be opened or a handshake is rejected.
///
/// # Panics
///
/// Panics when `strategies` is empty.
pub(crate) fn connect_fleet<T: Transport>(
    harness: &SimulationHarness,
    strategies: &[StrategySpec],
    vehicles: Range<u32>,
    mut link: impl FnMut(u32) -> Result<T, TransportError>,
) -> Result<Vec<Client<T>>, TransportError> {
    assert!(!strategies.is_empty(), "need at least one strategy to assign");
    let dt = harness.config().sample_period_s;
    vehicles
        .map(|v| {
            let strategy = strategies[v as usize % strategies.len()];
            Client::connect(link(v)?, SubscriberId(v), strategy, harness.grid().clone(), dt)
        })
        .collect()
}

/// What [`drive`] observed.
#[derive(Debug, Default)]
pub(crate) struct Driven {
    /// Every firing observed by the driven clients, unsorted.
    pub(crate) fired: Vec<FiredEvent>,
    /// Per-client `(subscriber, strategy, counters)`.
    pub(crate) clients: Vec<(SubscriberId, StrategySpec, ClientStats)>,
    /// Cost of every batched step.
    pub(crate) step_costs: Vec<StepCost>,
}

/// The one trace-replay step loop: streams `steps` steps of the trace of
/// `vehicles` — the whole fleet, or one worker's contiguous slice of it
/// ([`Fleet::with_id_range`] reproduces exactly that slice) — through
/// `clients` (`clients[i]` is vehicle `vehicles.start + i`).
///
/// `faults` is the plan and the switches every faulty link of the run
/// shares: handshakes ran before the loop and stay fault-free, faults arm
/// for the replayed steps with the breaker following the plan's
/// disconnect windows, and the final drain of every client's backlog runs
/// disarmed with the link restored, as a real outage ends. `order_seed`
/// seeds a fresh pseudo-random visiting order each step, so shared server
/// state (cache epochs, delivery logs) meets many arrival orders while
/// staying a function of the seed; `None` visits in vehicle order.
///
/// Each step, before anything is exchanged, `hook` runs (advance a
/// virtual clock, repartition a federation, …) and either exchanges the
/// step itself — batched — returning the number of updates it sent, or
/// returns `None` to have every sample [`Client::observe`]d per request.
///
/// # Errors
///
/// Fails when a client's transport breaks non-transiently or `hook`
/// fails.
pub(crate) fn drive<T, H>(
    harness: &SimulationHarness,
    vehicles: Range<u32>,
    steps: u32,
    faults: Option<(&FaultPlan, &ChaosControls)>,
    order_seed: Option<u64>,
    clients: &mut [Client<T>],
    mut hook: H,
) -> Result<Driven, TransportError>
where
    T: Transport,
    H: FnMut(u32, &mut [Client<T>], &[TraceSample]) -> Result<Option<u32>, TransportError>,
{
    let config = harness.config();
    let dt = config.sample_period_s;
    let mut fleet = Fleet::with_id_range(harness.network(), &config.fleet, vehicles.clone());
    let mut order_rng = order_seed.map(|seed| SmallRng::seed_from_u64(seed ^ ORDER_SALT));
    let mut samples = Vec::new();
    let mut driven = Driven::default();

    if let Some((_, link)) = faults {
        link.set_armed(true);
    }
    for step in 0..steps {
        let started = Instant::now();
        if let Some((plan, link)) = faults {
            link.set_link_down(plan.disconnected_at(step));
        }
        fleet.step_into(dt, &mut samples);
        if let Some(rng) = &mut order_rng {
            shuffle(&mut samples, rng);
        }
        match hook(step, clients, &samples)? {
            Some(updates) => {
                driven.step_costs.push(StepCost { step, updates, busy: started.elapsed() });
            }
            None => {
                for s in &samples {
                    let client = &mut clients[(s.vehicle.0 - vehicles.start) as usize];
                    client.observe(step, s.pos, s.heading, s.speed)?;
                }
            }
        }
    }
    if let Some((_, link)) = faults {
        link.set_link_down(false);
        link.set_armed(false);
    }
    for client in clients.iter_mut() {
        client.finish()?;
    }
    for client in clients.iter_mut() {
        driven.clients.push((client.user(), client.strategy(), client.stats()));
        driven.fired.extend(client.take_fired());
    }
    Ok(driven)
}

/// The routing seam of [`BatchExchange`]: which member a client's entry
/// goes to, and what a `WrongOwner` bounce of it means.
pub(crate) trait BatchRoute {
    /// The member `pos` belongs to and this client's session there.
    fn route(&mut self, pos: Point) -> Result<(usize, u32), TransportError>;

    /// Absorbs member `member`'s `WrongOwner` bounce of entry `seq`.
    fn bounce(&mut self, member: usize, seq: u32) -> Result<(), TransportError>;
}

/// A standalone server is member 0, reached on the client's own session;
/// it owns every cell, so a bounce is a protocol violation.
impl BatchRoute for InProcTransport {
    fn route(&mut self, _: Point) -> Result<(usize, u32), TransportError> {
        Ok((0, self.session()))
    }

    fn bounce(&mut self, _: usize, _: u32) -> Result<(), TransportError> {
        Err(TransportError::Protocol("a standalone server bounced a batch entry"))
    }
}

/// A federation member is the owner under the router's cached map (the
/// session migrates there first); a bounce refreshes that map from the
/// bouncing member.
impl BatchRoute for FedTransport {
    fn route(&mut self, pos: Point) -> Result<(usize, u32), TransportError> {
        let member = self.route_for(pos)?;
        Ok((member, self.session_on(member)))
    }

    fn bounce(&mut self, member: usize, seq: u32) -> Result<(), TransportError> {
        self.note_bounce(member, seq)
    }
}

/// The one batched exchange: submits a whole step of [`drive`]'s
/// clients as [`Request::Batch`] frames — one per member per
/// [`MAX_BATCH_ENTRIES`] chunk — instead of one request per vehicle.
pub(crate) struct BatchExchange {
    links: Vec<Box<dyn Transport + Send>>,
    /// The vehicle id of `clients[0]`.
    first_vehicle: u32,
    seq: u32,
    /// Entries a member bounced with `WrongOwner`.
    pub(crate) bounces: u64,
}

impl BatchExchange {
    /// An exchange over `links[m]` to member `m`, for clients from vehicle `first_vehicle` on.
    pub(crate) fn new(links: Vec<Box<dyn Transport + Send>>, first_vehicle: u32) -> BatchExchange {
        BatchExchange { links, first_vehicle, seq: 0, bounces: 0 }
    }

    /// Exchanges one step and returns the updates staged. An entry
    /// bounced with `WrongOwner` stays pending on its client and goes
    /// out again, re-routed, in the next round.
    ///
    /// # Errors
    ///
    /// Fails when a transport or a migration breaks, the server answers
    /// outside the batch protocol (`Overloaded` included), or bounces
    /// outlast [`MAX_REROUTE_ROUNDS`].
    pub(crate) fn step<T: Transport + BatchRoute>(
        &mut self,
        clients: &mut [Client<T>],
        step: u32,
        samples: &[TraceSample],
    ) -> Result<u32, TransportError> {
        // (client, entry, position) of every staged update.
        let mut staged: Vec<(usize, BatchedUpdate, Point)> = Vec::new();
        for s in samples {
            let local = (s.vehicle.0 - self.first_vehicle) as usize;
            let client = &mut clients[local];
            let (_, session) = client.transport_mut().route(s.pos)?;
            if let Some(entry) = client.poll_update(session, step, s.pos, s.heading, s.speed)? {
                staged.push((local, entry, s.pos));
            }
        }
        let updates = staged.len() as u32;
        let mut rounds = 0u32;
        while !staged.is_empty() {
            rounds += 1;
            if rounds > MAX_REROUTE_ROUNDS {
                return Err(TransportError::Protocol("batched step failed to converge"));
            }
            // Group by member, preserving order; a bounce may have moved
            // the route since the entry was staged.
            let mut per_member: Vec<Vec<usize>> = vec![Vec::new(); self.links.len()];
            for (slot, (local, entry, pos)) in staged.iter_mut().enumerate() {
                let (member, session) = clients[*local].transport_mut().route(*pos)?;
                entry.session = session;
                per_member[member].push(slot);
            }
            let mut bounced = Vec::new();
            for (member, slots) in per_member.iter().enumerate() {
                for chunk in slots.chunks(MAX_BATCH_ENTRIES) {
                    let replies =
                        self.frame(member, chunk.iter().map(|&i| staged[i].1).collect())?;
                    for (reply, &slot) in replies.into_iter().zip(chunk) {
                        let (local, entry, _) = staged[slot];
                        let client = &mut clients[local];
                        let bounce =
                            matches!(reply.responses.last(), Some(Response::WrongOwner { .. }));
                        if reply.session != entry.session {
                            return Err(TransportError::Protocol("batch reply session mismatch"));
                        } else if bounce {
                            client.transport_mut().bounce(member, entry.seq)?;
                            self.bounces += 1;
                            bounced.push(slot);
                        } else if !client.complete_update(reply.responses)? {
                            return Err(TransportError::Protocol(
                                "batched update answered Overloaded",
                            ));
                        }
                    }
                }
            }
            bounced.sort_unstable();
            staged = bounced.into_iter().map(|i| staged[i]).collect();
        }
        Ok(updates)
    }

    /// One [`Request::Batch`] frame to `member`, unwrapped to its reply
    /// groups: one per entry, in order.
    fn frame(
        &mut self,
        member: usize,
        updates: Vec<BatchedUpdate>,
    ) -> Result<Vec<BatchReply>, TransportError> {
        self.seq = (self.seq + 1) & SEQ_MASK;
        let (seq, entries) = (self.seq, updates.len());
        match self.links[member].request(Request::Batch { seq, updates })?.into_iter().next() {
            Some(Response::Batch { seq: echoed, replies })
                if echoed == seq && replies.len() == entries =>
            {
                Ok(replies)
            }
            _ => Err(TransportError::Protocol("batch frame not answered in kind")),
        }
    }
}

/// Diffs `fired` against the ground truth restricted to the replayed
/// prefix — a firing at step `s` depends only on samples up to `s`, so
/// the prefix is exact. On a divergence the error is a rendered
/// [`FlightBundle`]: the discrepancy, `spans()` assembled into trees —
/// every firing a `trigger` span inside its update's tree — and every
/// member server's registry snapshot.
///
/// # Errors
///
/// Describes the first missed, mistimed or spurious firing.
pub(crate) fn verify_prefix(
    harness: &SimulationHarness,
    steps: u32,
    fired: &[FiredEvent],
    spans: impl FnOnce() -> Vec<Span>,
    members: &[Arc<Server>],
) -> Result<(), String> {
    let expected: Vec<FiredEvent> =
        harness.ground_truth().events().iter().filter(|e| e.step < steps).cloned().collect();
    GroundTruth::new(expected).verify(fired).map_err(|reason| {
        let mut bundle = FlightBundle::new(reason);
        bundle.spans = spans();
        for (i, server) in members.iter().enumerate() {
            bundle.snapshots.push((format!("member {i}"), server.registry().snapshot()));
        }
        bundle.render()
    })
}

/// Verifies a single-server run and gathers the server's counters.
fn conclude(
    harness: &SimulationHarness,
    server: &Arc<Server>,
    steps: u32,
    driven: Driven,
) -> ReplayOutcome {
    let lone = std::slice::from_ref(server);
    ReplayOutcome {
        verification: verify_prefix(harness, steps, &driven.fired, || server.spans(), lone),
        fired: driven.fired,
        clients: driven.clients,
        cache: server.cache_stats(),
        metrics: server.registry().snapshot(),
        steps,
        step_costs: driven.step_costs,
    }
}

/// Replays `steps` steps of `harness`'s trace per request through
/// `server` (both from [`ReplayConfig::start`]), each client over the
/// transport `connect` opens — generic so in-proc and TCP share it.
///
/// # Errors
///
/// Fails when any client's transport breaks mid-replay.
pub fn replay<T: Transport>(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
    server: &Arc<Server>,
    steps: u32,
    connect: impl FnMut(u32) -> Result<T, TransportError>,
) -> Result<ReplayOutcome, TransportError> {
    let vehicles = 0..harness.config().fleet.vehicles as u32;
    let mut clients = connect_fleet(harness, &cfg.strategies, vehicles.clone(), connect)?;
    let driven = drive(harness, vehicles, steps, None, None, &mut clients, |_, _, _| Ok(None))?;
    Ok(conclude(harness, server, steps, driven))
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
    let (server, steps) = cfg.start(harness, SystemClock::shared());
    replay(harness, cfg, &server, steps, |_| Ok(InProcTransport::connect(Arc::clone(&server))))
}

/// [`replay`] over loopback TCP: binds a [`Reactor`] front end, gives
/// every client its own connection, and tears the listener down
/// afterwards.
///
/// # Errors
///
/// Fails when the listener cannot bind or a client exchange breaks.
pub fn replay_tcp(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, TransportError> {
    let (server, steps) = cfg.start(harness, SystemClock::shared());
    let mut reactor = Reactor::bind(Arc::clone(&server), ReactorConfig::default())?;
    let addr = reactor.addr();
    let outcome = replay(harness, cfg, &server, steps, |_| Ok(TcpTransport::connect(addr)?));
    reactor.shutdown();
    outcome
}

/// The multi-worker batched replay: splits the fleet into `workers`
/// contiguous vehicle-id ranges, drives each range on its own thread,
/// and submits each worker's step as batch frames over an in-proc link
/// of its own. Firings are still cross-checked against the simulator's
/// [`GroundTruth`] exactly.
///
/// Free-running workers are sound because alarms fire per (subscriber,
/// alarm): one vehicle's firings never depend on another vehicle's
/// position, so worker skew cannot change what fires or when. Within a
/// worker, each client completes its step-`n` responses before polling
/// step `n + 1`, preserving per-client strategy semantics.
///
/// # Errors
///
/// Fails when a transport breaks or the server answers outside the batch
/// protocol.
pub fn replay_batched_in_proc(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
    workers: usize,
) -> Result<ReplayOutcome, TransportError> {
    let (server, steps) = cfg.start(harness, SystemClock::shared());
    let vehicles = harness.config().fleet.vehicles as u32;
    let workers = (workers.max(1) as u32).min(vehicles.max(1));
    // Worker `w` drives vehicles `cut(w)..cut(w + 1)`: `vehicles / workers`
    // each, the remainder spread over the first workers.
    let cut = |w: u32| w * (vehicles / workers) + w.min(vehicles % workers);

    let worker = |range: Range<u32>| {
        let link = Box::new(InProcTransport::connect(Arc::clone(&server)));
        drive_batched(harness, cfg, &server, range, steps, link)
    };
    let results: Vec<Result<Driven, TransportError>> = std::thread::scope(|scope| {
        let (worker, cut) = (&worker, &cut);
        let handles: Vec<_> =
            (0..workers).map(|w| scope.spawn(move || worker(cut(w)..cut(w + 1)))).collect();
        handles.into_iter().map(|h| h.join().expect("batch worker panicked")).collect()
    });

    let mut driven = Driven::default();
    for result in results {
        let part = result?;
        driven.fired.extend(part.fired);
        driven.clients.extend(part.clients);
        driven.step_costs.extend(part.step_costs);
    }
    Ok(conclude(harness, &server, steps, driven))
}

/// One batch worker: connects the clients of `vehicles` to `server` and
/// drives every step of theirs as batch frames over `link`.
fn drive_batched(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
    server: &Arc<Server>,
    vehicles: Range<u32>,
    steps: u32,
    link: Box<dyn Transport + Send>,
) -> Result<Driven, TransportError> {
    let connect = |_| Ok(InProcTransport::connect(Arc::clone(server)));
    let mut clients = connect_fleet(harness, &cfg.strategies, vehicles.clone(), connect)?;
    let mut batches = BatchExchange::new(vec![link], vehicles.start);
    drive(harness, vehicles, steps, None, None, &mut clients, |step, clients, samples| {
        batches.step(clients, step, samples).map(Some)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transcript::{RecordingTransport, SharedTranscript};
    use sa_sim::SimulationConfig;

    /// Uplinks, region installs and deliveries summed over the clients.
    fn totals(o: &ReplayOutcome) -> (u64, u64, u64) {
        o.clients.iter().fold((0, 0, 0), |(u, i, d), (_, _, s)| {
            (u + s.uplinks, i + s.region_installs, d + s.deliveries)
        })
    }

    /// The firings in a canonical order.
    fn fired(o: &ReplayOutcome) -> Vec<FiredEvent> {
        let mut fired = o.fired.clone();
        fired.sort_by_key(|e| (e.step, e.subscriber.0, e.alarm.0));
        fired
    }

    #[test]
    fn batched_replay_matches_ground_truth_and_per_request_traffic() {
        let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
        let cfg = ReplayConfig { steps: Some(120), ..ReplayConfig::default() };
        let batched = replay_batched_in_proc(&harness, &cfg, 3).expect("transport must hold");
        let per_request = replay_in_proc(&harness, &cfg).expect("transport must hold");
        let tcp = replay_tcp(&harness, &cfg).expect("loopback transport must hold");
        // Batching and the reactor's sockets change the framing, not the
        // strategies: the same uplinks, installs, deliveries and firings
        // whichever way the trace reaches the server.
        for outcome in [&batched, &per_request, &tcp] {
            outcome.assert_accurate();
            assert_eq!(outcome.steps, 120);
            assert_eq!(outcome.clients.len(), harness.config().fleet.vehicles);
            assert_eq!(totals(outcome), totals(&per_request));
            assert_eq!(fired(outcome), fired(&per_request));
        }
        let uplinks = totals(&per_request).0;
        assert!(uplinks > 0, "someone must have talked to the server");
        assert!(
            uplinks < harness.config().fleet.vehicles as u64 * 120,
            "safe regions must suppress most samples"
        );
        // Every worker meters every step, and the metered updates are
        // the uplinks.
        assert_eq!(batched.step_costs.len(), 3 * 120);
        let metered: u64 = batched.step_costs.iter().map(|c| u64::from(c.updates)).sum();
        assert_eq!(metered, totals(&batched).0);
        assert!(per_request.step_costs.is_empty() && tcp.step_costs.is_empty());
    }

    /// A step with more uplinks than one frame holds goes out as several
    /// frames. At step 0 no client holds a region yet, so each of 1,100
    /// vehicles uplinks: one frame of 1,024 entries, then one of 76.
    #[test]
    fn a_step_past_the_frame_cap_splits_into_two_frames() {
        let harness = SimulationHarness::build(&SimulationConfig::fuzz_slice(1100, 48, 3, 7));
        let cfg = ReplayConfig::default();
        let (server, steps) = cfg.start(&harness, SystemClock::shared());
        let log = SharedTranscript::default();
        let link = InProcTransport::connect(Arc::clone(&server));
        let link = Box::new(RecordingTransport::new(link, 0, Arc::clone(&log)));
        let driven = drive_batched(&harness, &cfg, &server, 0..1100, steps, link)
            .expect("in-proc transport must hold");
        let transcript = log.lock().expect("transcript lock poisoned");
        let frames: Vec<usize> = transcript
            .entries()
            .iter()
            .map(|e| match Request::decode(&e.request) {
                Ok(Request::Batch { updates, .. }) => updates.len(),
                other => panic!("the batch link sent {other:?}"),
            })
            .collect();
        assert_eq!(frames[..2], [MAX_BATCH_ENTRIES, 76]);
        assert_eq!(driven.step_costs[0].updates, 1100);

        let batched = conclude(&harness, &server, steps, driven);
        let per_request = replay_in_proc(&harness, &cfg).expect("in-proc transport must hold");
        batched.assert_accurate();
        per_request.assert_accurate();
        assert_eq!(totals(&batched), totals(&per_request));
        assert_eq!(fired(&batched), fired(&per_request));
    }

    /// A forced divergence: the run is exact, then the latest firing is
    /// withheld from the diff. The rendered bundle must show that firing
    /// as a `trigger` span, alarm id and all, inside the tree of the
    /// update that fired it — so "which update, in which cell" is
    /// answered by the failure message itself.
    #[test]
    fn a_divergence_bundle_shows_the_trigger_inside_its_updates_tree() {
        let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
        let cfg = ReplayConfig {
            steps: Some(120),
            strategies: vec![StrategySpec::Mwpsr],
            ..ReplayConfig::default()
        };
        let (server, steps) = cfg.start(&harness, SystemClock::shared());
        let vehicles = 0..harness.config().fleet.vehicles as u32;
        let link = |_| Ok(InProcTransport::connect(Arc::clone(&server)));
        let mut clients = connect_fleet(&harness, &cfg.strategies, vehicles.clone(), link)
            .expect("in-proc handshakes");
        let mut fired = drive(&harness, vehicles, steps, None, None, &mut clients, |_, _, _| Ok(None))
            .expect("in-proc transport must hold")
            .fired;
        let lone = std::slice::from_ref(&server);
        verify_prefix(&harness, steps, &fired, || server.spans(), lone).expect("the run is exact");

        fired.sort_by_key(|e| e.step);
        let withheld = fired.pop().expect("the smoke run fires alarms");
        let text = verify_prefix(&harness, steps, &fired, || server.spans(), lone)
            .expect_err("a withheld firing is a divergence");

        assert!(text.contains("=== flight recorder ==="), "{text}");
        let lines: Vec<&str> = text.lines().collect();
        let operands = format!(" a={} b={}", withheld.subscriber.0, withheld.alarm.0);
        let at = lines
            .iter()
            .position(|l| l.trim_start().starts_with("trigger ") && l.ends_with(&operands))
            .unwrap_or_else(|| panic!("no trigger span for {withheld:?} in:\n{text}"));
        let indent = |l: &str| l.len() - l.trim_start().len();
        let parent = lines[..at]
            .iter()
            .rev()
            .find(|l| indent(l) < indent(lines[at]))
            .expect("a trigger is never a root");
        assert!(
            parent.trim_start().starts_with("update_dispatch "),
            "the trigger must nest under its update's dispatch, not {parent:?}"
        );
    }

    /// `scaling_curve` and `trace_overhead` price tracing by flipping
    /// `ReplayConfig::trace_mode`: the mode must reach the server.
    #[test]
    fn a_replay_honours_the_trace_mode() {
        let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
        let cfg =
            ReplayConfig { steps: Some(120), trace_mode: TraceMode::Off, ..ReplayConfig::default() };
        let (server, steps) = cfg.start(&harness, SystemClock::shared());
        let link = |_| Ok(InProcTransport::connect(Arc::clone(&server)));
        let outcome = replay(&harness, &cfg, &server, steps, link).expect("in-proc transport");
        outcome.assert_accurate();
        assert!(outcome.location_updates() > 0, "the replay must have reached the server");
        assert!(server.spans().is_empty(), "TraceMode::Off must record no span");
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
