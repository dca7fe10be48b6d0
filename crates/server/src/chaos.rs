//! Deterministic fault injection for the live runtime.
//!
//! [`FaultyTransport`] decorates any [`Transport`] and injects failures
//! at **exchange granularity** — the wire protocol is strictly
//! request→response, so a "message" here is one whole exchange leg:
//!
//! * **uplink drop** — the request never reaches the server (the inner
//!   transport is not called); the caller sees [`TransportError::TimedOut`].
//! * **downlink drop** — the server *processes* the request but every
//!   response frame is lost; the caller again sees `TimedOut`. This is
//!   the nasty case: server state advanced, client learned nothing —
//!   exactly what [`crate::wire::Request::Resync`] exists to repair.
//! * **uplink duplicate** — the server receives the request twice (the
//!   second response set is delivered), exercising server idempotency.
//! * **downlink duplicate** — every non-terminal response frame is
//!   delivered twice, exercising the client's delivery dedup gate.
//! * **delay** — a bounded random sleep before (uplink) or after
//!   (downlink) the exchange.
//! * **disconnect** — while the externally driven breaker is down,
//!   every exchange fails with [`TransportError::Closed`] without
//!   touching the inner transport.
//!
//! All randomness comes from one [`SmallRng`] seeded from the
//! [`FaultPlan`] plus a per-client salt, so a chaos run is exactly
//! reproducible. Injections are observable as
//! `sa_chaos_injected_total{kind=…}` counters and through the
//! [`InjectedCounts`] handle shared with the driver.
//!
//! [`chaos_replay_in_proc`] is the end-to-end harness: it replays a
//! simulator trace through resilient clients on faulty transports,
//! drives the disconnect windows from the plan's step ranges, and
//! verifies the fired-alarm sequence against the ground truth — the
//! paper's 100%-accuracy requirement must survive the fault plan.

use crate::client::{Client, ResiliencePolicy};
use crate::clock::{SharedClock, SystemClock};
use crate::replay::{ReplayConfig, ReplayOutcome};
use crate::server::Server;
use crate::transport::{InProcTransport, Transport, TransportError};
use crate::wire::{Request, Response};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use sa_alarms::SubscriberId;
use sa_obs::{Counter, Registry};
use sa_roadnet::Fleet;
use sa_sim::{FiredEvent, GroundTruth, SimulationHarness};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fault probabilities for one direction of an exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultLeg {
    /// Probability the leg is dropped entirely.
    pub drop: f64,
    /// Probability the leg is delivered twice.
    pub duplicate: f64,
    /// Probability the leg is delayed.
    pub delay: f64,
    /// Upper bound of an injected delay.
    pub max_delay: Duration,
}

impl FaultLeg {
    /// A leg that never misbehaves.
    pub const CLEAN: FaultLeg = FaultLeg {
        drop: 0.0,
        duplicate: 0.0,
        delay: 0.0,
        max_delay: Duration::ZERO,
    };
}

impl Default for FaultLeg {
    fn default() -> FaultLeg {
        FaultLeg::CLEAN
    }
}

/// A deterministic fault schedule: per-direction probabilities plus
/// full-disconnect windows expressed in simulation steps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the injection RNG (combined with a per-client salt).
    pub seed: u64,
    /// Client→server faults.
    pub up: FaultLeg,
    /// Server→client faults.
    pub down: FaultLeg,
    /// Step ranges during which the link is fully down for every
    /// client (the replay driver throws the breaker at these steps).
    pub disconnect_steps: Vec<Range<u32>>,
}

impl FaultPlan {
    /// No faults at all — [`FaultyTransport`] under this plan must be
    /// byte-identical to the inner transport.
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    /// The acceptance-gate preset: 10% drops on both legs, a sprinkle
    /// of duplicates, and one 5-second (5-step at the smoke trace's
    /// 1 Hz sampling) disconnect window.
    pub fn lossy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            up: FaultLeg { drop: 0.10, duplicate: 0.02, delay: 0.0, max_delay: Duration::ZERO },
            down: FaultLeg { drop: 0.10, duplicate: 0.02, delay: 0.0, max_delay: Duration::ZERO },
            disconnect_steps: std::iter::once(60..65).collect(),
        }
    }

    /// No probabilistic faults, but two long disconnect windows — the
    /// pure-partition case that exercises degraded mode and resync.
    pub fn partitioned(seed: u64) -> FaultPlan {
        FaultPlan { seed, disconnect_steps: vec![40..55, 150..170], ..FaultPlan::default() }
    }

    /// Heavy duplication on both legs with no drops — every exchange
    /// may be replayed at the server and every delivery doubled at the
    /// client; accuracy must hold through idempotency and dedup alone.
    pub fn duplicating(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            up: FaultLeg { drop: 0.0, duplicate: 0.25, delay: 0.0, max_delay: Duration::ZERO },
            down: FaultLeg { drop: 0.0, duplicate: 0.25, delay: 0.0, max_delay: Duration::ZERO },
            ..FaultPlan::default()
        }
    }

    /// Looks up a preset by name (`clean`, `lossy`, `partitioned`,
    /// `duplicating`).
    pub fn preset(name: &str, seed: u64) -> Option<FaultPlan> {
        match name {
            "clean" => Some(FaultPlan::clean()),
            "lossy" => Some(FaultPlan::lossy(seed)),
            "partitioned" => Some(FaultPlan::partitioned(seed)),
            "duplicating" => Some(FaultPlan::duplicating(seed)),
            _ => None,
        }
    }

    /// Whether `step` falls inside a disconnect window.
    pub fn disconnected_at(&self, step: u32) -> bool {
        self.disconnect_steps.iter().any(|w| w.contains(&step))
    }
}

/// Shared tally of injected faults, one counter per kind.
#[derive(Debug, Default)]
pub struct InjectedCounts {
    /// Requests dropped before the server saw them.
    pub drop_up: AtomicU64,
    /// Response sequences dropped after the server processed.
    pub drop_down: AtomicU64,
    /// Requests delivered to the server twice.
    pub dup_up: AtomicU64,
    /// Response frames delivered to the client twice.
    pub dup_down: AtomicU64,
    /// Delays injected before the request.
    pub delay_up: AtomicU64,
    /// Delays injected after the response.
    pub delay_down: AtomicU64,
    /// Exchanges refused while the breaker was down.
    pub disconnect: AtomicU64,
}

impl InjectedCounts {
    /// Sum over every fault kind.
    pub fn total(&self) -> u64 {
        self.drop_up.load(Ordering::Relaxed)
            + self.drop_down.load(Ordering::Relaxed)
            + self.dup_up.load(Ordering::Relaxed)
            + self.dup_down.load(Ordering::Relaxed)
            + self.delay_up.load(Ordering::Relaxed)
            + self.delay_down.load(Ordering::Relaxed)
            + self.disconnect.load(Ordering::Relaxed)
    }

    /// `(kind, count)` pairs for reporting, in a stable order.
    pub fn by_kind(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("drop_up", self.drop_up.load(Ordering::Relaxed)),
            ("drop_down", self.drop_down.load(Ordering::Relaxed)),
            ("dup_up", self.dup_up.load(Ordering::Relaxed)),
            ("dup_down", self.dup_down.load(Ordering::Relaxed)),
            ("delay_up", self.delay_up.load(Ordering::Relaxed)),
            ("delay_down", self.delay_down.load(Ordering::Relaxed)),
            ("disconnect", self.disconnect.load(Ordering::Relaxed)),
        ]
    }
}

/// External switches of one faulty link, shared with the driver.
#[derive(Debug, Clone, Default)]
pub struct ChaosControls {
    /// While true, every exchange fails with `Closed`.
    link_down: Arc<AtomicBool>,
    /// While false, the transport is a pure passthrough (used to keep
    /// handshakes and final drains fault-free).
    armed: Arc<AtomicBool>,
}

impl ChaosControls {
    /// Throws (true) or restores (false) the breaker.
    pub fn set_link_down(&self, down: bool) {
        self.link_down.store(down, Ordering::SeqCst);
    }

    /// Enables (true) or suspends (false) probabilistic injection.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// Whether the breaker is currently thrown.
    pub fn is_link_down(&self) -> bool {
        self.link_down.load(Ordering::SeqCst)
    }
}

/// Pre-resolved `sa_chaos_injected_total{kind=…}` handles.
#[derive(Debug, Clone)]
struct ChaosMeter {
    drop_up: Counter,
    drop_down: Counter,
    dup_up: Counter,
    dup_down: Counter,
    delay_up: Counter,
    delay_down: Counter,
    disconnect: Counter,
}

impl ChaosMeter {
    fn new(registry: &Registry) -> ChaosMeter {
        let k = |kind| registry.counter_with("sa_chaos_injected_total", &[("kind", kind)]);
        ChaosMeter {
            drop_up: k("drop_up"),
            drop_down: k("drop_down"),
            dup_up: k("dup_up"),
            dup_down: k("dup_down"),
            delay_up: k("delay_up"),
            delay_down: k("delay_down"),
            disconnect: k("disconnect"),
        }
    }
}

/// A [`Transport`] decorator injecting the faults of a [`FaultPlan`],
/// deterministically under a seeded RNG.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    rng: SmallRng,
    controls: ChaosControls,
    counts: Arc<InjectedCounts>,
    meter: Option<ChaosMeter>,
    /// Injected delays sleep on this clock; under a
    /// [`crate::clock::VirtualClock`] they advance simulated time
    /// instead of blocking, keeping chaos runs deterministic and fast.
    clock: SharedClock,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` under `plan`. `salt` decorrelates the RNG streams
    /// of transports sharing one plan (use the client index). The
    /// transport starts **disarmed** (pure passthrough) — arm it via
    /// [`FaultyTransport::controls`] once the handshake is done.
    pub fn new(inner: T, plan: FaultPlan, salt: u64) -> FaultyTransport<T> {
        let seed = plan.seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        FaultyTransport {
            inner,
            plan,
            rng: SmallRng::seed_from_u64(seed),
            controls: ChaosControls::default(),
            counts: Arc::new(InjectedCounts::default()),
            meter: None,
            clock: SystemClock::shared(),
        }
    }

    /// Replaces the clock injected delays sleep on (builder-style).
    pub fn with_clock(mut self, clock: SharedClock) -> FaultyTransport<T> {
        self.clock = clock;
        self
    }

    /// The switches the driver flips (breaker, arming). Clone it
    /// before handing the transport to a client.
    pub fn controls(&self) -> ChaosControls {
        self.controls.clone()
    }

    /// The shared injected-fault tally. Clone it before handing the
    /// transport to a client.
    pub fn counts(&self) -> Arc<InjectedCounts> {
        Arc::clone(&self.counts)
    }

    /// Registers the `sa_chaos_injected_total{kind=…}` counters on
    /// `registry`; all instrumented transports aggregate there.
    pub fn instrument(&mut self, registry: &Registry) {
        self.meter = Some(ChaosMeter::new(registry));
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_range(0..1_000_000u64) < (p * 1_000_000.0) as u64
    }

    fn inject_delay(&mut self, max: Duration) {
        let max_ns = max.as_nanos().min(u128::from(u64::MAX)) as u64;
        if max_ns > 0 {
            let ns = self.rng.gen_range(1..=max_ns);
            self.clock.sleep(Duration::from_nanos(ns));
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        if !self.controls.armed.load(Ordering::SeqCst) {
            return self.inner.request(req);
        }
        if self.controls.link_down.load(Ordering::SeqCst) {
            self.counts.disconnect.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.meter {
                m.disconnect.inc();
            }
            return Err(TransportError::Closed);
        }
        let up = self.plan.up;
        let down = self.plan.down;
        if self.roll(up.delay) {
            self.counts.delay_up.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.meter {
                m.delay_up.inc();
            }
            self.inject_delay(up.max_delay);
        }
        if self.roll(up.drop) {
            // The server never sees the request.
            self.counts.drop_up.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.meter {
                m.drop_up.inc();
            }
            return Err(TransportError::TimedOut);
        }
        let mut resps = if self.roll(up.duplicate) {
            // The server processes the request twice; the client reads
            // the first response set and never learns about the replay.
            // (A lost first response is a different fault — drop_down —
            // which forces the client through Resync.)
            self.counts.dup_up.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.meter {
                m.dup_up.inc();
            }
            let resps = self.inner.request(req.clone())?;
            let _ = self.inner.request(req)?;
            resps
        } else {
            self.inner.request(req)?
        };
        if self.roll(down.delay) {
            self.counts.delay_down.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.meter {
                m.delay_down.inc();
            }
            self.inject_delay(down.max_delay);
        }
        if self.roll(down.drop) {
            // The server processed and answered, but the client hears
            // nothing — the divergence Resync repairs.
            self.counts.drop_down.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.meter {
                m.drop_down.inc();
            }
            return Err(TransportError::TimedOut);
        }
        if self.roll(down.duplicate) {
            // Double every non-terminal frame (trigger deliveries);
            // duplicating the terminal would be a framing violation.
            self.counts.dup_down.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.meter {
                m.dup_down.inc();
            }
            let mut doubled = Vec::with_capacity(resps.len() * 2);
            for r in resps {
                if !r.is_terminal() {
                    doubled.push(r.clone());
                }
                doubled.push(r);
            }
            resps = doubled;
        }
        Ok(resps)
    }
}

/// Chaos-specific sizing on top of a [`ReplayConfig`].
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Base replay shape (steps, server sizing, strategies).
    pub replay: ReplayConfig,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Per-client resilience knobs; `None` uses
    /// [`ResiliencePolicy::standard`] seeded per client.
    pub policy: Option<ResiliencePolicy>,
}

/// A [`ReplayOutcome`] plus the chaos-specific evidence.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The underlying replay result (fired events, verification,
    /// per-client and server stats, metric snapshot).
    pub replay: ReplayOutcome,
    /// Injected faults by kind.
    pub injected: Vec<(&'static str, u64)>,
    /// Total injected faults.
    pub injected_total: u64,
    /// Fraction of (client, step) samples processed in degraded mode.
    pub degraded_fraction: f64,
    /// Sum of client transient-failure retries.
    pub retries: u64,
    /// Sum of client resync exchanges.
    pub resyncs: u64,
}

/// Replays `harness`'s trace through resilient clients on
/// [`FaultyTransport`]-wrapped in-proc connections, driving the plan's
/// disconnect windows, and verifies the fired sequence against the
/// ground truth. The handshake runs fault-free; faults arm for the
/// replayed steps; the final drain ([`Client::finish`]) runs with the
/// link restored, as a real outage ends.
///
/// # Errors
///
/// Fails when a client hits a non-transient transport error.
///
/// # Panics
///
/// Panics when the harness was built with moving-target alarms or no
/// strategy was configured.
pub fn chaos_replay_in_proc(
    harness: &SimulationHarness,
    cfg: &ChaosConfig,
) -> Result<ChaosOutcome, TransportError> {
    assert!(
        harness.moving_alarms().is_none(),
        "the live wire protocol carries static alarms only"
    );
    assert!(!cfg.replay.strategies.is_empty(), "need at least one strategy to assign");

    let config = harness.config();
    let dt = config.sample_period_s;
    let steps = cfg.replay.steps.unwrap_or(config.steps() as u32).min(config.steps() as u32);

    let server = Server::start(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        cfg.replay.server,
    );
    let registry = server.registry().clone();

    let mut controls = Vec::new();
    let mut counts = Vec::new();
    let mut clients: Vec<Client<FaultyTransport<InProcTransport>>> = (0..config
        .fleet
        .vehicles as u32)
        .map(|v| {
            let strategy = cfg.replay.strategies[v as usize % cfg.replay.strategies.len()];
            let inner = InProcTransport::connect(Arc::clone(&server));
            let mut transport = FaultyTransport::new(inner, cfg.plan.clone(), u64::from(v));
            transport.instrument(&registry);
            controls.push(transport.controls());
            counts.push(transport.counts());
            let mut client = Client::connect(
                transport,
                SubscriberId(v),
                strategy,
                harness.grid().clone(),
                dt,
            )?;
            let policy = cfg
                .policy
                .unwrap_or_else(|| ResiliencePolicy::standard(cfg.plan.seed ^ u64::from(v)));
            client.enable_resilience(policy);
            client.instrument(&registry);
            Ok(client)
        })
        .collect::<Result<_, TransportError>>()?;

    // Handshakes are done — let the faults fly.
    for c in &controls {
        c.set_armed(true);
    }

    let mut fleet = Fleet::new(harness.network(), &config.fleet);
    let mut samples = Vec::new();
    let mut was_down = false;
    for step in 0..steps {
        let down = cfg.plan.disconnected_at(step);
        if down != was_down {
            for c in &controls {
                c.set_link_down(down);
            }
            was_down = down;
        }
        fleet.step_into(dt, &mut samples);
        for s in &samples {
            clients[s.vehicle.0 as usize].observe(step, s.pos, s.heading, s.speed)?;
        }
    }

    // The outage is over: restore the link, keep probabilistic faults
    // off for the drain, and reconcile every backlog.
    for c in &controls {
        c.set_link_down(false);
        c.set_armed(false);
    }
    for client in &mut clients {
        client.finish()?;
    }

    let mut fired = Vec::new();
    let mut per_client = Vec::new();
    let mut degraded_steps = 0u64;
    let mut retries = 0u64;
    let mut resyncs = 0u64;
    for client in &mut clients {
        let stats = client.stats();
        degraded_steps += stats.degraded_steps;
        retries += stats.retries;
        resyncs += stats.resyncs;
        per_client.push((client.user(), client.strategy(), stats));
        fired.extend(client.take_fired());
    }

    let expected: Vec<FiredEvent> = harness
        .ground_truth()
        .events()
        .iter()
        .filter(|e| e.step < steps)
        .cloned()
        .collect();
    let verification = GroundTruth::new(expected).verify(&fired).map_err(|e| {
        let dump = server.trace_dump();
        if dump.is_empty() {
            e
        } else {
            format!("{e}\nserver trace ring:\n{dump}")
        }
    });

    // Fold the per-transport tallies into one.
    let mut by_kind: Vec<(&'static str, u64)> = vec![
        ("drop_up", 0),
        ("drop_down", 0),
        ("dup_up", 0),
        ("dup_down", 0),
        ("delay_up", 0),
        ("delay_down", 0),
        ("disconnect", 0),
    ];
    for c in &counts {
        for (slot, (kind, n)) in by_kind.iter_mut().zip(c.by_kind()) {
            debug_assert_eq!(slot.0, kind);
            slot.1 += n;
        }
    }
    let injected_total: u64 = by_kind.iter().map(|(_, n)| n).sum();

    let total_samples = u64::from(steps) * config.fleet.vehicles as u64;
    let outcome = ChaosOutcome {
        replay: ReplayOutcome {
            fired,
            verification,
            clients: per_client,
            server: server.stats(),
            cache: server.cache_stats(),
            metrics: server.registry().snapshot(),
            steps,
            step_costs: Vec::new(),
        },
        injected: by_kind,
        injected_total,
        degraded_fraction: if total_samples == 0 {
            0.0
        } else {
            degraded_steps as f64 / total_samples as f64
        },
        retries,
        resyncs,
    };
    server.shutdown();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::wire::StrategySpec;
    use sa_geometry::{Grid, Rect};

    fn tiny_server() -> Arc<Server> {
        let universe = Rect::new(0.0, 0.0, 3_000.0, 3_000.0).unwrap();
        let grid = Grid::new(universe, 1_000.0).unwrap();
        Server::start(grid, Vec::new(), 30.0, ServerConfig::default())
    }

    fn hello(seq: u32) -> Request {
        Request::Hello { seq, user: 7, strategy: StrategySpec::Mwpsr }
    }

    #[test]
    fn disarmed_transport_is_a_passthrough() {
        let server = tiny_server();
        let inner = InProcTransport::connect(Arc::clone(&server));
        let mut t = FaultyTransport::new(inner, FaultPlan::lossy(1), 0);
        // Never armed: even a lossy plan must not interfere.
        assert_eq!(t.request(hello(1)).unwrap(), vec![Response::Ack { seq: 1 }]);
        for seq in 2..=200 {
            assert!(t.request(Request::Stats { seq }).is_ok(), "exchange {seq} interfered");
        }
        assert_eq!(t.counts().total(), 0);
        server.shutdown();
    }

    #[test]
    fn breaker_refuses_exchanges_and_counts_them() {
        let server = tiny_server();
        let inner = InProcTransport::connect(Arc::clone(&server));
        let mut t = FaultyTransport::new(inner, FaultPlan::clean(), 0);
        let controls = t.controls();
        let counts = t.counts();
        assert!(t.request(hello(1)).is_ok());
        controls.set_armed(true);
        controls.set_link_down(true);
        assert!(controls.is_link_down());
        let err = t.request(hello(2)).unwrap_err();
        assert!(err.is_transient(), "a thrown breaker must look transient: {err}");
        assert_eq!(counts.disconnect.load(Ordering::Relaxed), 1);
        controls.set_link_down(false);
        assert!(t.request(hello(3)).is_ok());
        server.shutdown();
    }

    #[test]
    fn injection_is_deterministic_per_seed_and_salt() {
        let plan = FaultPlan::lossy(99);
        let outcomes = |salt: u64| -> Vec<bool> {
            let server = tiny_server();
            let inner = InProcTransport::connect(Arc::clone(&server));
            let mut t = FaultyTransport::new(inner, plan.clone(), salt);
            t.controls().set_armed(true);
            let mut pattern = vec![t.request(hello(1)).is_ok()];
            for seq in 2..200 {
                pattern.push(t.request(Request::Stats { seq }).is_ok());
            }
            server.shutdown();
            pattern
        };
        assert_eq!(outcomes(3), outcomes(3), "same salt must replay identically");
        assert_ne!(outcomes(3), outcomes(4), "salts must decorrelate streams");
    }

    #[test]
    fn lossy_preset_actually_drops() {
        let server = tiny_server();
        let inner = InProcTransport::connect(Arc::clone(&server));
        let mut t = FaultyTransport::new(inner, FaultPlan::lossy(7), 1);
        t.controls().set_armed(true);
        let counts = t.counts();
        let mut failures = 0;
        for seq in 1..=300 {
            let req = if seq == 1 { hello(seq) } else { Request::Stats { seq } };
            if t.request(req).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "10% drop over 300 exchanges must fail sometimes");
        assert!(
            counts.drop_up.load(Ordering::Relaxed) + counts.drop_down.load(Ordering::Relaxed) > 0
        );
        server.shutdown();
    }
}
