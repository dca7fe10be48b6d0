//! The deterministic federation replay driver.
//!
//! [`fed_replay`] runs a seeded fleet against a live N-member
//! federation the way `sa-verify`'s `run_case` runs one against a
//! single server — both are callers of `sa-server`'s one replay driver
//! ([`drive`]): one [`VirtualClock`] behind every timestamp, every
//! RNG seeded from the config, one synchronous driver thread, chaos
//! decorators on the client links (and, fault-plan permitting, the
//! handoff mesh and coordinator links), and an exact
//! [`sa_sim::GroundTruth`] gate over the observed firings.
//!
//! Byte-level determinism is witnessed by the digest of one
//! [`Transcript`] recording **every** exchange on every link — client,
//! mesh, coordinator and batch-driver — tagged by link, in driver
//! order. Two runs of the same config must produce the same digest.
//!
//! Mid-run, at `repartition_at`, the driver reads the federation-wide
//! per-cell load counters and lets the [`Coordinator`] re-cut the map.
//! Clients are deliberately **not** told: they discover the new epoch
//! through `WrongOwner` bounces, exercising the stale-route redirect
//! path end to end.

use crate::coordinator::Coordinator;
use crate::federation::Federation;
use crate::handoff::HandoffChannel;
use crate::router::FedTransport;
use crate::stats::federated_scrape;
use sa_geometry::Point;
use sa_obs::{chrome_trace_json, Span, SpanRecorder, TimeSource};
use sa_roadnet::TraceSample;
use sa_server::transcript::{RecordingTransport, SharedTranscript, Transcript};
use sa_server::wire::{BatchedUpdate, SEQ_MASK};
use sa_server::{
    connect_fleet, drive, exchange_batch, verify_prefix, ChaosControls, Client, FaultPlan,
    FaultyTransport, InProcTransport, ResiliencePolicy, Response, SharedClock, StrategySpec,
    Transport, TransportError, VirtualClock,
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

/// Re-route rounds per batched step before the driver gives up — a
/// livelock guard against members that keep bouncing an entry with
/// `WrongOwner`, far above the one or two rounds a repartition costs.
const MAX_REROUTE_ROUNDS: u32 = 10_000;

/// One fully-specified federation replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FedReplayConfig {
    /// Federation members (2–4 per the acceptance gate; ≥ 1 enforced).
    pub partitions: u32,
    /// Fleet size.
    pub vehicles: usize,
    /// Alarm workload size.
    pub alarms: usize,
    /// Steps to drive at 1 Hz sampling.
    pub steps: u32,
    /// Master seed: world generation, chaos streams, interleaving.
    pub seed: u64,
    /// Fault schedule of the client links. The mesh and coordinator
    /// links reuse its probabilistic legs but ignore the disconnect
    /// windows (a vehicle losing radio does not sever inter-server
    /// trunks).
    pub plan: FaultPlan,
    /// Every `batch_every`-th step rides `Request::Batch` frames; `0`
    /// never batches. Only sound on a clean plan (chaos semantics are
    /// defined on the per-request path).
    pub batch_every: u32,
    /// Step at which the coordinator reads the load counters and
    /// re-cuts the map; `None` never repartitions.
    pub repartition_at: Option<u32>,
    /// Strategies assigned round-robin.
    pub strategies: Vec<StrategySpec>,
}

/// Everything one [`fed_replay`] execution produced.
#[derive(Debug)]
pub struct FedOutcome {
    /// Every firing observed by any client.
    pub fired: Vec<FiredEvent>,
    /// Exact diff against the simulator's ground truth.
    pub verification: Result<(), String>,
    /// [`Transcript::digest`] over every exchange on every link.
    pub digest: u64,
    /// Completed session migrations across all clients.
    pub handoffs: u64,
    /// `WrongOwner` bounces absorbed by the routers.
    pub redirects: u64,
    /// Position-bearing requests the members bounced.
    pub wrong_owner_bounces: u64,
    /// Location updates processed per member (partition throughput).
    pub per_partition_updates: Vec<u64>,
    /// The topology epoch every member ended on.
    pub final_epoch: u64,
    /// Whether the mid-run repartition actually moved the cut.
    pub repartitioned: bool,
    /// Total chaos injections across every decorated link.
    pub injected_total: u64,
    /// Steps driven.
    pub steps: u32,
    /// Every span the run recorded — members, client routers and the
    /// coordinator merged and sorted on one time axis. Feed to
    /// [`sa_obs::assemble`] for causal trees.
    pub spans: Vec<Span>,
    /// Chrome trace-event JSON over [`FedOutcome::spans`] (loadable in
    /// Perfetto / `chrome://tracing`).
    pub trace_json: String,
    /// The federated Prometheus scrape taken at the end of the run.
    pub scrape: String,
}

/// Executes one federation replay end to end.
///
/// # Errors
///
/// Fails when a client hits a non-transient transport error, a batch
/// reply violates the protocol, or a repartition push stays broken past
/// its retry budget.
///
/// # Panics
///
/// Panics when the config carries no strategies or zero partitions.
pub fn fed_replay(cfg: &FedReplayConfig) -> Result<FedOutcome, TransportError> {
    assert!(cfg.partitions >= 1, "need at least one partition");
    let config = SimulationConfig::fuzz_slice(cfg.vehicles, cfg.alarms, cfg.steps, cfg.seed);
    config.validate();
    let harness = SimulationHarness::build(&config);
    let dt = Duration::from_secs_f64(config.sample_period_s);
    let steps = cfg.steps.max(1).min(config.steps() as u32);
    let vehicles = 0..config.fleet.vehicles as u32;
    let n = cfg.partitions as usize;

    let vclock = Arc::new(VirtualClock::new());
    let clock: SharedClock = vclock.clone();
    let fed = Federation::launch(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        cfg.partitions,
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
    // radio outages hit vehicles, not trunks. The batch driver speaks to
    // each member over clean links, as in the single-server harness —
    // batching never rides chaos.
    let link = ChaosControls::default();
    let trunk = ChaosControls::default();
    trunk.set_armed(true);
    let trunk_plan = FaultPlan { disconnect_steps: Vec::new(), ..cfg.plan.clone() };
    let client_chaos = Some((&cfg.plan, &link));
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
    let mut clients = connect_fleet(&harness, &cfg.strategies, vehicles.clone(), |v| {
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
        client.enable_resilience(ResiliencePolicy::standard(cfg.seed ^ 0xBACC_0FF5 ^ v as u64));
    }
    let mut driver_links = trunks(3, u32::MAX, None);
    let coordinator_links = trunks(2, u32::MAX, trunk_chaos);
    let mut coordinator =
        Coordinator::new(coordinator_links, fed.initial_map().clone(), Arc::clone(&clock));
    let coordinator_spans = Arc::new(SpanRecorder::new(1, COORD_SPAN_CAPACITY, time.clone()));
    coordinator_spans.set_member(COORDINATOR_MEMBER);
    coordinator.set_spans(Arc::clone(&coordinator_spans));

    let mut batch_seq = 0u32;
    let mut repartitioned = false;
    let hook = |step, clients: &mut [_], samples: &[_]| {
        vclock.advance(dt);
        if Some(step) == cfg.repartition_at {
            let loads = fed.cell_loads();
            repartitioned = coordinator.maybe_repartition(fed.grid(), &loads)?;
        }
        if cfg.batch_every > 0 && step % cfg.batch_every == 0 {
            drive_batched_step(clients, &mut driver_links, samples, step, &mut batch_seq).map(Some)
        } else {
            Ok(None)
        }
    };
    let order = Some(cfg.seed);
    let driven = drive(&harness, vehicles, steps, client_chaos, order, &mut clients, hook)?;

    let mut handoffs = 0u64;
    let mut redirects = 0u64;
    for client in &mut clients {
        handoffs += client.transport_mut().handoffs();
        redirects += client.transport_mut().redirects() + client.stats().redirects;
    }

    // Merge every recorder — members, client routers, coordinator —
    // into one causally-ordered record while the servers are still up.
    let mut all_spans: Vec<Span> = Vec::new();
    for s in fed.servers() {
        all_spans.extend(s.spans());
    }
    for spans in &router_spans {
        all_spans.extend(spans.spans());
    }
    all_spans.extend(coordinator_spans.spans());
    all_spans.sort_by_key(|s| (s.start_us, s.ctx.span_id));
    let trace_json = chrome_trace_json(&all_spans);
    let scrape =
        federated_scrape(fed.servers(), fed.grid(), coordinator.map(), &fed.cell_loads());

    // On a divergence: merged span trees plus every member's registry
    // snapshot.
    let verification =
        verify_prefix(&harness, steps, &driven.fired, || all_spans.clone(), fed.servers());

    let per_partition_updates: Vec<u64> =
        fed.servers()
            .iter()
            .map(|s| s.registry().counter("sa_server_location_updates_total").get())
            .collect();
    let wrong_owner_bounces: u64 = fed.servers().iter().map(|s| s.wrong_owner_total()).sum();
    let final_epoch = fed.server(0).topology().0;

    let digest = log.lock().expect("transcript lock poisoned").digest();
    Ok(FedOutcome {
        fired: driven.fired,
        verification,
        digest,
        handoffs,
        redirects,
        wrong_owner_bounces,
        per_partition_updates,
        final_epoch,
        repartitioned,
        injected_total: link.counts().total() + trunk.counts().total(),
        steps,
        spans: all_spans,
        trace_json,
        scrape,
    })
}

/// One batched step: poll every client, route each staged entry to its
/// owner, send one `Request::Batch` per member, absorb replies. A
/// `WrongOwner` terminal re-routes that entry (refresh + migrate) and
/// retries it next round. Returns the number of updates staged.
fn drive_batched_step(
    clients: &mut [Client<FedTransport>],
    driver_links: &mut [Box<dyn Transport + Send>],
    samples: &[TraceSample],
    step: u32,
    batch_seq: &mut u32,
) -> Result<u32, TransportError> {
    // (vehicle, entry, pos) staged this step, routing re-resolved each
    // round.
    let mut staged: Vec<(usize, BatchedUpdate, Point)> = Vec::new();
    for s in samples {
        let v = s.vehicle.0 as usize;
        let owner = clients[v].transport_mut().route_for(s.pos)?;
        let session = clients[v].transport_mut().session_on(owner);
        if let Some(entry) = clients[v].poll_update(session, step, s.pos, s.heading, s.speed)? {
            staged.push((v, entry, s.pos));
        }
    }
    let updates = staged.len() as u32;
    let mut rounds = 0u32;
    while !staged.is_empty() {
        rounds += 1;
        if rounds > MAX_REROUTE_ROUNDS {
            return Err(TransportError::Protocol("batched step failed to converge"));
        }
        // Group the staged entries by owning member, preserving order.
        let mut per_member: Vec<Vec<usize>> = vec![Vec::new(); driver_links.len()];
        for (slot, (v, entry, pos)) in staged.iter_mut().enumerate() {
            let owner = clients[*v].transport_mut().route_for(*pos)?;
            entry.session = clients[*v].transport_mut().session_on(owner);
            per_member[owner].push(slot);
        }
        let mut retry_slots = Vec::new();
        for (member, slots) in per_member.iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let updates: Vec<BatchedUpdate> = slots.iter().map(|&i| staged[i].1).collect();
            *batch_seq = (*batch_seq + 1) & SEQ_MASK;
            let replies = exchange_batch(&mut *driver_links[member], *batch_seq, &updates)?;
            for (reply, &slot) in replies.into_iter().zip(slots) {
                let (v, entry, _) = staged[slot];
                match reply.responses.last() {
                    Some(Response::WrongOwner { .. }) => {
                        // The member's map is newer: refresh from it and
                        // re-route this entry next round (the client's
                        // staged state stays pending).
                        clients[v].transport_mut().note_bounce(member, entry.seq)?;
                        retry_slots.push(slot);
                    }
                    _ => {
                        if !clients[v].complete_update(reply.responses)? {
                            return Err(TransportError::Protocol(
                                "batched update answered Overloaded",
                            ));
                        }
                    }
                }
            }
        }
        retry_slots.sort_unstable();
        staged = retry_slots.into_iter().map(|i| staged[i]).collect();
    }
    Ok(updates)
}

/// Decorrelated chaos/digest salts per (kind, client, member) — kind 0:
/// client link, 1: mesh link, 2: coordinator link, 3: batch driver.
fn link_salt(kind: u32, client: u32, member: u32) -> u64 {
    (u64::from(kind) << 48) | (u64::from(client) << 16) | u64::from(member)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, partitions: u32, plan: FaultPlan, batch_every: u32) -> FedReplayConfig {
        FedReplayConfig {
            partitions,
            vehicles: 3,
            alarms: 12,
            steps: 32,
            seed,
            plan,
            batch_every,
            repartition_at: None,
            strategies: vec![
                StrategySpec::Mwpsr,
                StrategySpec::Pbsr { height: 2 },
                StrategySpec::Opt,
            ],
        }
    }

    #[test]
    fn clean_two_partition_replay_matches_ground_truth() {
        let cfg = small(5, 2, FaultPlan::clean(), 0);
        let out = fed_replay(&cfg).expect("transport must hold");
        out.verification.as_ref().expect("fired set must match ground truth");
        assert_eq!(out.per_partition_updates.len(), 2);
        assert_eq!(out.final_epoch, 0);
        assert!(out.trace_json.contains("\"traceEvents\""), "trace export must be produced");
        assert!(out.scrape.contains("member=\"federation\""), "scrape must carry roll-ups");
        assert!(out.scrape.contains("sa_fed_epoch"), "scrape must carry coordinator gauges");
    }

    #[test]
    fn replay_is_digest_deterministic_per_seed() {
        let cfg = small(11, 3, FaultPlan::lossy(11), 0);
        let a = fed_replay(&cfg).expect("run a");
        let b = fed_replay(&cfg).expect("run b");
        a.verification.as_ref().expect("lossy replay must still be exact");
        assert_eq!(a.digest, b.digest, "same config must replay byte-identically");
        let other = fed_replay(&small(12, 3, FaultPlan::lossy(12), 0)).expect("run c");
        assert_ne!(a.digest, other.digest, "different seeds must diverge");
    }

    #[test]
    fn mid_run_repartition_keeps_the_replay_exact() {
        let mut cfg = small(21, 3, FaultPlan::clean(), 0);
        cfg.steps = 40;
        cfg.repartition_at = Some(16);
        let out = fed_replay(&cfg).expect("transport must hold");
        out.verification.as_ref().expect("repartitioned replay must stay exact");
        if out.repartitioned {
            assert_eq!(out.final_epoch, 1, "accepted epoch must be visible on members");
        }
    }

    #[test]
    fn batched_replay_stays_exact_across_partitions() {
        let cfg = small(31, 2, FaultPlan::clean(), 2);
        let out = fed_replay(&cfg).expect("transport must hold");
        out.verification.as_ref().expect("batched fed replay must match ground truth");
    }
}
