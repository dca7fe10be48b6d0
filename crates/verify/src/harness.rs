//! The deterministic schedule harness — the workspace's one
//! fault-injected replay.
//!
//! [`FuzzCase`] is a complete description of one end-to-end run — fleet
//! slice, alarm workload, strategy mix, fault plan, batching cadence,
//! federation size and repartition point — derivable from a single
//! `u64` seed ([`FuzzCase::from_seed`]). [`run_case`] executes it
//! against a live `sa-fed` federation of `partitions` `sa-server`
//! members (one member answers every request as a standalone server
//! does: its map owns every cell, so nothing ever bounces) on a
//! [`VirtualClock`]: every timestamp, injected delay and backoff sleep
//! advances simulated time instead of wall time, every RNG is seeded
//! from the case, and the single driver thread exchanges requests
//! synchronously — so the entire run, including its byte-level
//! [`Transcript`], is a pure function of the case.
//!
//! The transcript records **every** exchange on every link — client,
//! handoff mesh, coordinator and batched exchange — tagged by
//! [`link_salt`], in driver order; [`check_transcript`] decodes the same
//! tags. Mid-run, at `repartition_at`, the driver reads the
//! federation-wide per-cell load counters and lets the [`Coordinator`]
//! re-cut the map. Clients are deliberately **not** told: they discover
//! the new epoch through `WrongOwner` bounces, exercising the
//! stale-route redirect path end to end.
//!
//! Determinism boundary: the server owns no threads. Every request —
//! a batch frame's entries included, in frame order — runs on the
//! driver thread itself, so the transcript never observes thread
//! timing.

use crate::oracle::check_transcript;
use crate::replay::{connect_fleet, drive, verify_prefix, BatchExchange};
use crate::transcript::{RecordingTransport, SharedTranscript, Transcript};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use sa_alarms::SubscriberId;
use sa_fed::{Coordinator, FedTransport, Federation, HandoffChannel};
use sa_obs::{Span, SpanRecorder, TimeSource};
use sa_server::{
    ChaosControls, Client, ClientStats, FaultLeg, FaultPlan, FaultyTransport, InProcTransport,
    ResiliencePolicy, SharedClock, StrategySpec, Transport, TransportError, VirtualClock,
};
use sa_sim::{FiredEvent, SimulationConfig, SimulationHarness};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Span-buffer capacity of each client router's recorder.
const ROUTER_SPAN_CAPACITY: usize = 1024;

/// Span-buffer capacity of the coordinator's recorder.
const COORD_SPAN_CAPACITY: usize = 256;

/// Pseudo-member id base for client routers — offset by the vehicle id,
/// above any real federation size so merged spans stay attributable.
const ROUTER_MEMBER_BASE: u32 = 100;

/// Pseudo-member id of the coordinator in merged span records.
const COORDINATOR_MEMBER: u32 = 200;

/// One fully-specified fuzz run: everything [`run_case`] needs, and
/// nothing it reads from anywhere else.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Master seed: world generation, fault RNG streams, interleaving.
    pub seed: u64,
    /// Fleet size (clamped to ≥ 1).
    pub vehicles: usize,
    /// Alarm workload size (clamped to ≥ 1).
    pub alarms: usize,
    /// Steps to drive (1 Hz sampling).
    pub steps: u32,
    /// Strategies assigned to vehicles round-robin.
    pub strategies: Vec<StrategySpec>,
    /// The fault schedule every client link runs under. The handoff
    /// mesh and coordinator links reuse its probabilistic legs but
    /// ignore the disconnect windows (a vehicle losing radio does not
    /// sever inter-server trunks).
    pub plan: FaultPlan,
    /// Every `batch_every`-th step is driven as [`sa_server::Request::Batch`]
    /// frames, one per member, instead of per-client exchanges; `0`
    /// never batches. Only meaningful under a clean plan —
    /// [`FuzzCase::from_seed`] never combines batching with faults,
    /// because the chaos semantics (retry, resync, degraded mode) are
    /// defined on the per-request path.
    pub batch_every: u32,
    /// Federation members the grid's cells are split across (clamped to
    /// `1..=` the grid's cell count).
    pub partitions: u32,
    /// Step at which the coordinator reads the load counters and re-cuts
    /// the map; `None` never repartitions.
    pub repartition_at: Option<u32>,
}

impl FuzzCase {
    /// Derives a complete case from one seed. The mapping is pure: the
    /// same seed always yields the same case.
    pub fn from_seed(seed: u64) -> FuzzCase {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0DE_5EED_F007_BA11);
        let vehicles = rng.gen_range(2..=6usize);
        let alarms = rng.gen_range(4..=48usize);
        let steps = rng.gen_range(16..=72u32);
        let pyramid_height = rng.gen_range(1..=5u32);
        let rot = rng.gen_range(0..4usize);
        let all = [
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: pyramid_height },
            StrategySpec::Opt,
            StrategySpec::SafePeriod,
        ];
        let strategies = (0..all.len()).map(|i| all[(i + rot) % all.len()]).collect();
        let plan = match rng.gen_range(0..5u32) {
            0 | 1 => FaultPlan::clean(),
            2 => FaultPlan {
                seed,
                up: FaultLeg { drop: 0.10, duplicate: 0.02, delay: 0.05, max_delay: Duration::from_millis(40) },
                down: FaultLeg { drop: 0.10, duplicate: 0.02, delay: 0.05, max_delay: Duration::from_millis(40) },
                disconnect_steps: random_windows(&mut rng, steps),
            },
            3 => FaultPlan { seed, disconnect_steps: random_windows(&mut rng, steps), ..FaultPlan::clean() },
            _ => FaultPlan::duplicating(seed),
        };
        let clean = plan == FaultPlan::clean();
        let batch_every = if clean { rng.gen_range(0..3u32) } else { 0 };
        // Drawn last: no other field of a seed depends on these draws.
        let partitions = rng.gen_range(1..=3u32);
        let repartition_at = (partitions > 1 && rng.gen_bool(0.5)).then(|| rng.gen_range(1..steps));
        FuzzCase {
            seed,
            vehicles,
            alarms,
            steps,
            strategies,
            plan,
            batch_every,
            partitions,
            repartition_at,
        }
    }
}

/// Up to two disconnect windows of 2–6 steps inside `0..steps`.
fn random_windows(rng: &mut SmallRng, steps: u32) -> Vec<std::ops::Range<u32>> {
    let count = rng.gen_range(1..=2u32);
    (0..count)
        .map(|_| {
            let len = rng.gen_range(2..=6u32);
            let start = rng.gen_range(0..steps.saturating_sub(len).max(1));
            start..start + len
        })
        .collect()
}

/// Everything one [`run_case`] execution produced.
#[derive(Debug)]
pub struct CaseOutcome {
    /// [`Transcript::digest`] of the run — the byte-identity witness.
    pub digest: u64,
    /// The full byte transcript.
    pub transcript: Transcript,
    /// Every firing observed by any client.
    pub fired: Vec<FiredEvent>,
    /// Diff against the simulator's ground truth restricted to the
    /// replayed steps (the paper's 100%-accuracy requirement).
    pub verification: Result<(), String>,
    /// The transcript-level install-soundness oracle (every safe region,
    /// alarm push and safe-period grant the members shipped, checked
    /// against the brute-force reference).
    pub oracle: Result<(), String>,
    /// Total faults the chaos layer injected, on client and trunk links.
    pub injected_total: u64,
    /// Per-client `(subscriber, strategy, counters)`: the retries,
    /// resyncs, degraded steps and buffered samples the faults forced.
    pub clients: Vec<(SubscriberId, StrategySpec, ClientStats)>,
    /// Steps actually driven.
    pub steps: u32,
    /// Completed session migrations across all clients.
    pub handoffs: u64,
    /// `WrongOwner` bounces the clients' routers and batch entries
    /// absorbed.
    pub redirects: u64,
    /// The batch entries among [`Self::redirects`]: entries a member
    /// bounced out of a `Request::Batch` frame, re-routed next round.
    pub batch_bounces: u64,
    /// Whether the mid-run repartition moved the cut.
    pub repartitioned: bool,
    /// Every span the run recorded — members, client routers and the
    /// coordinator merged and sorted on one time axis. Feed to
    /// [`sa_obs::assemble`] for causal trees, or to
    /// [`sa_obs::chrome_trace_json`] for Perfetto.
    pub spans: Vec<Span>,
}

impl CaseOutcome {
    /// The first invariant violation, if any.
    pub fn failure(&self) -> Option<String> {
        match (&self.verification, &self.oracle) {
            (Err(e), _) => Some(format!("ground-truth divergence: {e}")),
            (_, Err(e)) => Some(format!("oracle violation: {e}")),
            _ => None,
        }
    }

    /// Panics with the violation when the run was not clean.
    ///
    /// # Panics
    ///
    /// Panics when the ground-truth diff or the install oracle failed.
    pub fn assert_clean(&self) {
        if let Some(e) = self.failure() {
            panic!("fuzz case violated an invariant: {e}");
        }
    }
}

/// Executes one [`FuzzCase`] end to end — the one replay driver over a
/// federation on a [`VirtualClock`], every link recorded — and returns
/// its outcome.
///
/// # Errors
///
/// Fails when a client hits a non-transient transport error, a batch
/// reply violates the protocol, or a repartition push stays broken past
/// its retry budget.
///
/// # Panics
///
/// Panics when the case carries an empty strategy list.
pub fn run_case(case: &FuzzCase) -> Result<CaseOutcome, TransportError> {
    let config = SimulationConfig::fuzz_slice(case.vehicles, case.alarms, case.steps, case.seed);
    config.validate();
    let harness = SimulationHarness::build(&config);
    let dt = Duration::from_secs_f64(config.sample_period_s);
    let steps = case.steps.max(1).min(config.steps() as u32);
    let vehicles = 0..config.fleet.vehicles as u32;
    let cells = u32::try_from(harness.grid().cell_count()).unwrap_or(u32::MAX);
    let partitions = case.partitions.clamp(1, cells);
    let n = partitions as usize;

    let vclock = Arc::new(VirtualClock::new());
    let clock: SharedClock = vclock.clone();
    let fed = Federation::launch(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        partitions,
        Arc::clone(&clock),
    );
    let log: SharedTranscript = Arc::new(Mutex::new(Transcript::new()));

    // One time source for every recorder in the run, reading the shared
    // virtual clock — merged spans land on a single time axis.
    let time = {
        let clock = Arc::clone(&clock);
        TimeSource::new(move || clock.now_ns() / 1_000)
    };

    // Client links run the plan under the switches the step loop flips.
    // Inter-server legs (mesh, coordinator) reuse the plan's
    // probabilistic faults, always armed, but not the breaker windows:
    // radio outages hit vehicles, not trunks. The batched exchange speaks
    // to each member over clean links — batching never rides chaos.
    let link = ChaosControls::default();
    let trunk = ChaosControls::default();
    trunk.set_armed(true);
    let trunk_plan = FaultPlan { disconnect_steps: Vec::new(), ..case.plan.clone() };
    let client_chaos = Some((&case.plan, &link));
    let trunk_chaos = Some((&trunk_plan, &trunk));
    let links = |kind: u32, client: u32, chaos: Option<(&FaultPlan, &ChaosControls)>| {
        (0..n)
            .map(|s| {
                let inner = InProcTransport::connect(Arc::clone(fed.server(s)));
                let session = inner.session();
                let tag = link_salt(kind, client, s as u32);
                let log = Arc::clone(&log);
                let tagged: Box<dyn Transport + Send> = match chaos {
                    Some((plan, controls)) => {
                        let inner = FaultyTransport::new(inner, plan.clone(), tag)
                            .with_clock(Arc::clone(&clock))
                            .sharing(controls);
                        Box::new(RecordingTransport::new(inner, tag, log))
                    }
                    None => Box::new(RecordingTransport::new(inner, tag, log)),
                };
                (tagged, session)
            })
            .collect::<Vec<_>>()
    };
    let trunks = |kind, client, chaos| -> Vec<Box<dyn Transport + Send>> {
        links(kind, client, chaos).into_iter().map(|(link, _)| link).collect()
    };

    let mut router_spans: Vec<Arc<SpanRecorder>> = Vec::with_capacity(vehicles.len());
    let mut clients = connect_fleet(&harness, &case.strategies, vehicles.clone(), |v| {
        let member_links = links(0, v, client_chaos);
        let mesh = HandoffChannel::new(trunks(1, v, trunk_chaos), Arc::clone(&clock));
        let map = fed.initial_map().clone();
        let mut router = FedTransport::new(member_links, mesh, harness.grid().clone(), map);
        router.instrument(fed.server(0).registry());
        let spans = Arc::new(SpanRecorder::new(1, ROUTER_SPAN_CAPACITY, time.clone()));
        spans.set_member(ROUTER_MEMBER_BASE + v);
        router.set_spans(Arc::clone(&spans));
        router_spans.push(spans);
        Ok(router)
    })?;
    for (v, client) in clients.iter_mut().enumerate() {
        client.set_clock(Arc::clone(&clock));
        client.enable_resilience(ResiliencePolicy::standard(case.seed ^ 0xBACC_0FF5 ^ v as u64));
    }
    let mut batches = BatchExchange::new(trunks(3, u32::MAX, None), 0);
    let coordinator_links = trunks(2, u32::MAX, trunk_chaos);
    let mut coordinator =
        Coordinator::new(coordinator_links, fed.initial_map().clone(), Arc::clone(&clock));
    let coordinator_spans = Arc::new(SpanRecorder::new(1, COORD_SPAN_CAPACITY, time.clone()));
    coordinator_spans.set_member(COORDINATOR_MEMBER);
    coordinator.set_spans(Arc::clone(&coordinator_spans));

    let mut repartitioned = false;
    let hook = |step, clients: &mut [_], samples: &[_]| {
        vclock.advance(dt);
        if Some(step) == case.repartition_at {
            let loads = fed.cell_loads();
            repartitioned = coordinator.maybe_repartition(fed.grid(), &loads)?;
        }
        if case.batch_every > 0 && step % case.batch_every == 0 {
            batches.step(clients, step, samples).map(Some)
        } else {
            Ok(None)
        }
    };
    let order = Some(case.seed);
    let driven = drive(&harness, vehicles, steps, client_chaos, order, &mut clients, hook)?;

    let mut handoffs = 0u64;
    let mut redirects = 0u64;
    let mut sessions = Vec::with_capacity(clients.len());
    for client in &mut clients {
        handoffs += client.transport_mut().handoffs();
        redirects += client.transport_mut().redirects() + client.stats().redirects;
        sessions.push((0..n).map(|m| client.transport_mut().session_on(m)).collect());
    }
    let strategies: Vec<StrategySpec> = clients.iter().map(Client::strategy).collect();

    // Merge every recorder — members, client routers, coordinator —
    // into one causally-ordered record while the servers are still up.
    let mut spans: Vec<Span> = Vec::new();
    for s in fed.servers() {
        spans.extend(s.spans());
    }
    for recorder in &router_spans {
        spans.extend(recorder.spans());
    }
    spans.extend(coordinator_spans.spans());
    spans.sort_by_key(|s| (s.start_us, s.ctx.span_id));

    // On a divergence: merged span trees plus every member's registry
    // snapshot.
    let verification =
        verify_prefix(&harness, steps, &driven.fired, || spans.clone(), fed.servers());

    let transcript = log.lock().expect("transcript lock poisoned").clone();
    let oracle = check_transcript(&transcript, &harness, &sessions, &strategies);
    Ok(CaseOutcome {
        digest: transcript.digest(),
        transcript,
        fired: driven.fired,
        verification,
        oracle,
        injected_total: link.counts().total() + trunk.counts().total(),
        clients: driven.clients,
        steps,
        handoffs,
        redirects,
        batch_bounces: batches.bounces,
        repartitioned,
        spans,
    })
}

/// The transcript tag and chaos salt of one link, decorrelated per
/// (kind, client, member) — kind 0: client link, 1: handoff mesh link,
/// 2: coordinator link, 3: batch link (the last two with client
/// `u32::MAX`). [`check_transcript`] decodes the same layout.
pub(crate) fn link_salt(kind: u32, client: u32, member: u32) -> u64 {
    (u64::from(kind) << 48) | (u64::from(client) << 16) | u64::from(member)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_pure_and_varies() {
        let a = FuzzCase::from_seed(7);
        assert_eq!(a, FuzzCase::from_seed(7));
        let b = FuzzCase::from_seed(8);
        assert_ne!(a, b);
        assert!(a.vehicles >= 1 && a.steps >= 1 && !a.strategies.is_empty());
    }

    #[test]
    fn seeds_cover_clean_and_faulty_plans_and_batching() {
        let cases: Vec<FuzzCase> = (0..64).map(FuzzCase::from_seed).collect();
        assert!(cases.iter().any(|c| c.plan == FaultPlan::clean()));
        assert!(cases.iter().any(|c| c.plan != FaultPlan::clean()));
        assert!(cases.iter().any(|c| c.batch_every > 0));
        // Batching never rides on a faulty plan (chaos semantics are
        // per-request).
        assert!(cases
            .iter()
            .all(|c| c.batch_every == 0 || c.plan == FaultPlan::clean()));
        // Federations of every drawn size, some repartitioning mid-run;
        // a lone member never repartitions.
        for partitions in 1..=3 {
            assert!(cases.iter().any(|c| c.partitions == partitions));
        }
        assert!(cases.iter().any(|c| c.repartition_at.is_some()));
        assert!(cases.iter().any(|c| c.partitions > 1 && c.repartition_at.is_none()));
        assert!(cases
            .iter()
            .all(|c| c.partitions > 1 || c.repartition_at.is_none()));
        assert!(cases.iter().all(|c| c.repartition_at.is_none_or(|r| r < c.steps)));
    }

    #[test]
    fn a_tiny_clean_case_runs_clean() {
        let case = FuzzCase {
            seed: 11,
            vehicles: 2,
            alarms: 8,
            steps: 20,
            strategies: vec![StrategySpec::Mwpsr, StrategySpec::Pbsr { height: 2 }],
            plan: FaultPlan::clean(),
            batch_every: 2,
            partitions: 1,
            repartition_at: None,
        };
        let outcome = run_case(&case).expect("transport must hold");
        outcome.assert_clean();
        assert!(!outcome.transcript.entries().is_empty());
    }
}
