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
//! [`InjectedCounts`] of the [`ChaosControls`] shared with the driver.
//!
//! `sa-verify`'s step loop arms the links and throws the breaker at the
//! plan's disconnect windows. `sa_verify::run_case`, the workspace's one
//! fault-injected replay, drives resilient clients over these transports
//! — to one server or to a federation of them — on a virtual clock and
//! diffs the firings against the ground truth: the paper's
//! 100%-accuracy requirement must survive the fault plan.

use crate::clock::{SharedClock, SystemClock};
use crate::transport::{Transport, TransportError};
use crate::wire::{Request, Response};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use sa_obs::{Counter, Registry};
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

    /// Whether `step` falls inside a disconnect window.
    pub fn disconnected_at(&self, step: u32) -> bool {
        self.disconnect_steps.iter().any(|w| w.contains(&step))
    }
}

/// The injectable fault kinds, in reporting order: the slots of
/// [`InjectedCounts`] and the `kind` labels of `sa_chaos_injected_total`.
const KINDS: [&str; 7] =
    ["drop_up", "drop_down", "dup_up", "dup_down", "delay_up", "delay_down", "disconnect"];
/// A request dropped before the server saw it.
const DROP_UP: usize = 0;
/// A response sequence dropped after the server processed.
const DROP_DOWN: usize = 1;
/// A request delivered to the server twice.
const DUP_UP: usize = 2;
/// Response frames delivered to the client twice.
const DUP_DOWN: usize = 3;
/// A delay injected before the request.
const DELAY_UP: usize = 4;
/// A delay injected after the response.
const DELAY_DOWN: usize = 5;
/// An exchange refused while the breaker was down.
const DISCONNECT: usize = 6;

/// Shared tally of injected faults, one counter per kind.
#[derive(Debug, Default)]
pub struct InjectedCounts([AtomicU64; KINDS.len()]);

impl InjectedCounts {
    /// Sum over every fault kind.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }

    /// `(kind, count)` pairs for reporting, in a stable order.
    pub fn by_kind(&self) -> Vec<(&'static str, u64)> {
        KINDS.iter().zip(&self.0).map(|(kind, n)| (*kind, n.load(Ordering::Relaxed))).collect()
    }
}

/// The driver's end of a faulty link — or, shared
/// ([`FaultyTransport::sharing`]), of every faulty link of a run: its
/// external switches and its injected-fault tally.
#[derive(Debug, Clone, Default)]
pub struct ChaosControls {
    /// While true, every exchange fails with `Closed`.
    link_down: Arc<AtomicBool>,
    /// While false, the transport is a pure passthrough (used to keep
    /// handshakes and final drains fault-free).
    armed: Arc<AtomicBool>,
    counts: Arc<InjectedCounts>,
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

    /// The faults injected on the controlled link(s) so far.
    pub fn counts(&self) -> &InjectedCounts {
        &self.counts
    }
}

/// A [`Transport`] decorator injecting the faults of a [`FaultPlan`],
/// deterministically under a seeded RNG.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    rng: SmallRng,
    controls: ChaosControls,
    /// Pre-resolved `sa_chaos_injected_total{kind=…}` handles, by kind.
    meter: Option<[Counter; KINDS.len()]>,
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
            meter: None,
            clock: SystemClock::shared(),
        }
    }

    /// Replaces the clock injected delays sleep on (builder-style).
    pub fn with_clock(mut self, clock: SharedClock) -> FaultyTransport<T> {
        self.clock = clock;
        self
    }

    /// Replaces this link's switches and tally with ones shared by every
    /// faulty link of a run (builder-style): the driver flips and reads
    /// one [`ChaosControls`].
    pub fn sharing(mut self, controls: &ChaosControls) -> FaultyTransport<T> {
        self.controls = controls.clone();
        self
    }

    /// The switches the driver flips (breaker, arming) and the tally it
    /// reads. Clone it before handing the transport to a client.
    pub fn controls(&self) -> ChaosControls {
        self.controls.clone()
    }

    /// Registers the `sa_chaos_injected_total{kind=…}` counters on
    /// `registry`; all instrumented transports aggregate there.
    pub fn instrument(&mut self, registry: &Registry) {
        let series = |kind| registry.counter_with("sa_chaos_injected_total", &[("kind", kind)]);
        self.meter = Some(KINDS.map(series));
    }

    /// Tallies one injected fault of `kind`.
    fn note(&self, kind: usize) {
        self.controls.counts.0[kind].fetch_add(1, Ordering::Relaxed);
        if let Some(meter) = &self.meter {
            meter[kind].inc();
        }
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
            self.note(DISCONNECT);
            return Err(TransportError::Closed);
        }
        let up = self.plan.up;
        let down = self.plan.down;
        if self.roll(up.delay) {
            self.note(DELAY_UP);
            self.inject_delay(up.max_delay);
        }
        if self.roll(up.drop) {
            // The server never sees the request.
            self.note(DROP_UP);
            return Err(TransportError::TimedOut);
        }
        let mut resps = if self.roll(up.duplicate) {
            // The server processes the request twice; the client reads
            // the first response set and never learns about the replay.
            // (A lost first response is a different fault — drop_down —
            // which forces the client through Resync.)
            self.note(DUP_UP);
            let resps = self.inner.request(req.clone())?;
            let _ = self.inner.request(req)?;
            resps
        } else {
            self.inner.request(req)?
        };
        if self.roll(down.delay) {
            self.note(DELAY_DOWN);
            self.inject_delay(down.max_delay);
        }
        if self.roll(down.drop) {
            // The server processed and answered, but the client hears
            // nothing — the divergence Resync repairs.
            self.note(DROP_DOWN);
            return Err(TransportError::TimedOut);
        }
        if self.roll(down.duplicate) {
            // Double every non-terminal frame (trigger deliveries);
            // duplicating the terminal would be a framing violation.
            self.note(DUP_DOWN);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crate::transport::InProcTransport;
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
        assert_eq!(t.controls().counts().total(), 0);
    }

    #[test]
    fn breaker_refuses_exchanges_and_counts_them() {
        let server = tiny_server();
        let inner = InProcTransport::connect(Arc::clone(&server));
        let mut t = FaultyTransport::new(inner, FaultPlan::clean(), 0);
        let controls = t.controls();
        assert!(t.request(hello(1)).is_ok());
        controls.set_armed(true);
        controls.set_link_down(true);
        assert!(controls.is_link_down());
        let err = t.request(hello(2)).unwrap_err();
        assert!(err.is_transient(), "a thrown breaker must look transient: {err}");
        assert_eq!(controls.counts().by_kind()[DISCONNECT], ("disconnect", 1));
        controls.set_link_down(false);
        assert!(t.request(hello(3)).is_ok());
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
        let controls = t.controls();
        controls.set_armed(true);
        let mut failures = 0;
        for seq in 1..=300 {
            let req = if seq == 1 { hello(seq) } else { Request::Stats { seq } };
            if t.request(req).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "10% drop over 300 exchanges must fail sometimes");
        let by_kind = controls.counts().by_kind();
        assert!(by_kind[DROP_UP].1 + by_kind[DROP_DOWN].1 > 0);
    }
}
