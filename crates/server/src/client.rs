//! Client-side strategy mirrors and the link-resilience state machine.
//!
//! Each [`Client`] owns one transport connection and reproduces the
//! client half of a `sa-sim` strategy over the wire protocol, deciding
//! with the simulator's own rules ([`sa_sim::Held`]):
//!
//! * **MWPSR** — silent while inside the installed rectangle, uplink on
//!   exit, install the rectangle the server answers with.
//! * **PBSR** — silent while the pyramid bitmap grants the position,
//!   uplink on a blocked subcell or base-cell exit; a bare `Ack` means
//!   the current bitmap is still the right one (§4.2 quick update).
//! * **OPT** — uplink only on base-cell change; between uplinks the
//!   client checks its pushed alarm set locally and notifies the server
//!   of client-detected firings.
//! * **Safe period** — silent until the granted period expires.
//!
//! Every alarm firing observed by the client — delivered by the server
//! or detected locally — is recorded as a [`FiredEvent`] with the step
//! it happened at, so a replay can be diffed against the simulator's
//! ground truth. Deliveries are deduplicated by alarm id (alarms fire
//! once per subscriber), so injected duplicates and resync re-deliveries
//! never double-record.
//!
//! # Resilience: retry → degraded → resync → steady
//!
//! With a [`ResiliencePolicy`] enabled, a transient exchange failure
//! (lost message, timeout, broken link — see
//! [`TransportError::is_transient`]) no longer aborts the client.
//! Instead the client walks a four-state machine:
//!
//! 1. **Retry** — the unacknowledged uplink is retried up to
//!    `max_retries` times under capped exponential backoff with jitter
//!    ([`Backoff`]). Because the first send *may* have been processed
//!    (only the response lost), every retry is a
//!    [`Request::Resync`] carrying the client's delivery cursor, so the
//!    server re-sends any trigger deliveries the downlink swallowed.
//! 2. **Degraded** — when retries are exhausted the client stops
//!    talking and monitors **against its last installed safe region**,
//!    which stays sound by the paper's safe-region invariant: no
//!    unfired relevant alarm intersects the region, so silence inside
//!    it can never miss a firing. Samples that *would* have required an
//!    uplink (region exit, period expiry, cell change) are buffered in
//!    order with their step numbers; OPT clients keep detecting firings
//!    locally and buffer the notifies.
//! 3. **Resync** — every subsequent sample first probes the link once:
//!    buffered operations are replayed in order (samples as `Resync`
//!    requests attributed to their *original* steps, notifies as plain
//!    `TriggerNotify`), recovering both lost deliveries and the
//!    crossings that happened while disconnected.
//! 4. **Steady** — once the backlog drains the client is back to
//!    normal silent-inside-the-region operation.
//!
//! What degraded mode does **not** guarantee: alarms installed or
//! removed *during* the outage are only observed at resync, and the
//! buffered crossings are reported late in wall-clock terms (their
//! step attribution stays exact).

use crate::clock::{SharedClock, SystemClock};
use crate::transport::{Transport, TransportError};
use crate::wire::{
    dequantize_rect, pack_motion, quantize_m, BatchedUpdate, PushedAlarm, Request, Response,
    StrategySpec,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use sa_alarms::{AlarmId, SubscriberId};
use sa_core::BitmapSafeRegion;
use sa_geometry::{CellId, Grid, Point};
use sa_obs::{Counter, Histogram, Registry};
use sa_sim::{pbsr_pyramid, silent_steps, FiredEvent, Held, OptAlarm};
use std::collections::{HashSet, VecDeque};
use std::time::Duration;

/// Reconciliation rounds [`Client::finish`] attempts before declaring
/// the backlog undeliverable.
const FINISH_ROUNDS: u32 = 64;

/// Capped exponential backoff with equal jitter, deterministic under a
/// seeded RNG.
///
/// Retry `attempt` (0-based) sleeps a duration drawn uniformly from
/// `[exp/2, exp]` where `exp = min(cap, base · 2^attempt)` — the
/// "equal jitter" scheme: never less than half the exponential target
/// (so retry pressure still decays exponentially) and never more than
/// the cap (so a long outage cannot push waits unboundedly).
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    rng: SmallRng,
}

impl Backoff {
    /// A schedule starting at `base`, capped at `cap`, jittered by a
    /// stream seeded with `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff { base, cap, rng: SmallRng::seed_from_u64(seed) }
    }

    /// The sleep before retry `attempt` (0-based).
    pub fn delay(&mut self, attempt: u32) -> Duration {
        let base_ns = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap_ns = self.cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        let scale = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        let exp = base_ns.saturating_mul(scale).min(cap_ns);
        if exp == 0 {
            return Duration::ZERO;
        }
        let half = exp / 2;
        Duration::from_nanos(self.rng.gen_range(half..=exp))
    }
}

/// Knobs of the client's retry/degraded-mode machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Backoff-retried attempts after the initial send before the
    /// client declares the link down and enters degraded mode.
    pub max_retries: u32,
    /// First backoff step.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed of the jitter stream (keep it distinct per client so
    /// retries do not synchronize into thundering herds).
    pub seed: u64,
}

impl ResiliencePolicy {
    /// A schedule tuned for the replay drivers: microsecond-scale
    /// backoff so a chaos run over thousands of exchanges stays fast,
    /// with enough attempts that an isolated drop almost never
    /// escalates to degraded mode.
    pub fn standard(seed: u64) -> ResiliencePolicy {
        ResiliencePolicy {
            max_retries: 6,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(2),
            seed,
        }
    }
}

/// One buffered operation awaiting reconciliation, in arrival order.
#[derive(Debug, Clone, Copy)]
enum PendingOp {
    /// A position sample that required server contact while the link
    /// was down; replayed as a [`Request::Resync`] attributed to `step`.
    Sample { step: u32, pos: Point, heading: f64, speed: f64 },
    /// A locally detected firing (OPT) whose notify could not be sent.
    Notify { alarm: u32 },
}

/// The resilience state riding along a client when a
/// [`ResiliencePolicy`] is enabled.
#[derive(Debug)]
struct Resilience {
    policy: ResiliencePolicy,
    backoff: Backoff,
    /// Buffered operations, oldest first.
    pending: VecDeque<PendingOp>,
    /// True while the client has given up on the link and buffers.
    degraded: bool,
    /// When the current outage was first observed, in client-clock
    /// nanoseconds (for the reconnect RTT histogram).
    outage_started_ns: Option<u64>,
    /// Simulated seconds spent degraded, not yet flushed to the
    /// whole-second `sa_client_degraded_seconds` counter.
    degraded_acc_s: f64,
}

impl Resilience {
    fn new(policy: ResiliencePolicy) -> Resilience {
        Resilience {
            backoff: Backoff::new(policy.backoff_base, policy.backoff_cap, policy.seed),
            policy,
            pending: VecDeque::new(),
            degraded: false,
            outage_started_ns: None,
            degraded_acc_s: 0.0,
        }
    }
}

/// Pre-resolved `sa-obs` handles for the client-side failure metrics
/// (shared series — every instrumented client of a run aggregates into
/// them).
#[derive(Debug, Clone)]
struct ClientMeter {
    /// `sa_client_retries_total`.
    retries: Counter,
    /// `sa_client_resyncs_total`.
    resyncs: Counter,
    /// `sa_client_degraded_seconds` (whole simulated seconds).
    degraded_seconds: Counter,
    /// `sa_client_reconnect_rtt_ns` — outage start to backlog drained.
    reconnect_rtt: Histogram,
    /// `sa_client_redirects_total` — federation `WrongOwner` bounces.
    redirects: Counter,
}

/// Per-client message counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Location-update uplinks that were accepted (retries not counted).
    pub uplinks: u64,
    /// Client-detected firings notified to the server (OPT only).
    pub notifies: u64,
    /// Safe-region installs received (rectangle or bitmap).
    pub region_installs: u64,
    /// Alarm-set pushes received (OPT only).
    pub alarm_pushes: u64,
    /// Safe-period grants received.
    pub grants: u64,
    /// Trigger deliveries received from the server.
    pub deliveries: u64,
    /// Firings the client detected locally (OPT only).
    pub client_fires: u64,
    /// Batched entries answered `Overloaded`, for which
    /// [`Client::complete_update`] returned `false` (the caller re-sends
    /// them). `sa-server` itself never answers `Overloaded`, so against
    /// it this stays 0.
    pub overload_retries: u64,
    /// Encoded request bytes sent.
    pub bytes_up: u64,
    /// Encoded response bytes received.
    pub bytes_down: u64,
    /// Transient-failure retries (backoff attempts).
    pub retries: u64,
    /// `Resync` requests acknowledged (retry path + reconciliation).
    pub resyncs: u64,
    /// Samples processed while the link was degraded.
    pub degraded_steps: u64,
    /// Samples buffered for post-reconnect reconciliation.
    pub buffered_samples: u64,
    /// Locally detected firings whose notify was buffered.
    pub buffered_notifies: u64,
    /// Duplicate trigger deliveries ignored by the dedup gate.
    pub dup_deliveries: u64,
    /// Federation `WrongOwner` bounces surfaced by the retry machine.
    /// Redirects are **not** retried here — re-routing is the federation
    /// router's job, so each bounce escapes immediately as
    /// [`TransportError::WrongOwner`] instead of burning backoff budget.
    pub redirects: u64,
}

/// Context of an uplink staged by [`Client::poll_update`], consumed when
/// [`Client::complete_update`] absorbs the batch round trip.
#[derive(Debug, Clone, Copy)]
struct PendingBatch {
    step: u32,
    cell: CellId,
}

/// One simulated mobile client bound to a strategy and a transport.
pub struct Client<T: Transport> {
    transport: T,
    user: SubscriberId,
    strategy: StrategySpec,
    grid: Grid,
    /// Simulation step length in seconds (converts safe periods to
    /// silent steps exactly like the simulator).
    dt: f64,
    /// What the last server answer left the client to monitor; `None`
    /// before the first one.
    held: Option<Held>,
    seq: u32,
    fired: Vec<FiredEvent>,
    /// Alarm ids already recorded as fired (delivered or local) — the
    /// dedup gate that makes duplicate delivery harmless.
    fired_alarms: HashSet<u32>,
    /// Alarm ids received as server `TriggerDelivery` frames; its size
    /// is the delivery cursor a `Resync` advertises.
    counted_deliveries: HashSet<u32>,
    resilience: Option<Resilience>,
    meter: Option<ClientMeter>,
    stats: ClientStats,
    /// Set between a [`Client::poll_update`] that staged an uplink and
    /// the [`Client::complete_update`] that absorbs its responses.
    pending_batch: Option<PendingBatch>,
    /// Backoff sleeps and outage timing read this clock; a
    /// [`crate::clock::VirtualClock`] makes them simulated.
    clock: SharedClock,
}

impl<T: Transport> Client<T> {
    /// Performs the `Hello` handshake and returns a ready client.
    ///
    /// # Errors
    ///
    /// Fails when the handshake cannot be exchanged or is rejected.
    pub fn connect(
        mut transport: T,
        user: SubscriberId,
        strategy: StrategySpec,
        grid: Grid,
        dt: f64,
    ) -> Result<Client<T>, TransportError> {
        assert!(dt > 0.0, "sample period must be positive");
        let hello = Request::Hello { seq: 0, user: user.0, strategy };
        let mut stats = ClientStats::default();
        stats.bytes_up += hello.encoded_len() as u64;
        let resps = transport.request(hello)?;
        stats.bytes_down += resps.iter().map(|r| r.encoded_len() as u64).sum::<u64>();
        if !matches!(resps.as_slice(), [Response::Ack { .. }]) {
            return Err(TransportError::Protocol("hello was not acknowledged"));
        }
        Ok(Client {
            transport,
            user,
            strategy,
            grid,
            dt,
            held: None,
            seq: 0,
            fired: Vec::new(),
            fired_alarms: HashSet::new(),
            counted_deliveries: HashSet::new(),
            resilience: None,
            meter: None,
            stats,
            pending_batch: None,
            clock: SystemClock::shared(),
        })
    }

    /// Replaces the clock backoff sleeps and outage timing read
    /// (deterministic harnesses hand every client one
    /// [`crate::clock::VirtualClock`]).
    pub fn set_clock(&mut self, clock: SharedClock) {
        self.clock = clock;
    }

    /// Enables the retry/degraded-mode machinery. Without this, any
    /// transport failure aborts the client (the pre-chaos behaviour).
    pub fn enable_resilience(&mut self, policy: ResiliencePolicy) {
        self.resilience = Some(Resilience::new(policy));
    }

    /// Registers the client failure metrics (`sa_client_retries_total`,
    /// `sa_client_resyncs_total`, `sa_client_degraded_seconds`,
    /// `sa_client_reconnect_rtt_ns`, `sa_client_redirects_total`) on
    /// `registry`. Instrumented clients sharing one registry aggregate
    /// into the same series.
    pub fn instrument(&mut self, registry: &Registry) {
        self.meter = Some(ClientMeter {
            retries: registry.counter("sa_client_retries_total"),
            resyncs: registry.counter("sa_client_resyncs_total"),
            degraded_seconds: registry.counter("sa_client_degraded_seconds"),
            reconnect_rtt: registry.histogram("sa_client_reconnect_rtt_ns"),
            redirects: registry.counter("sa_client_redirects_total"),
        });
    }

    /// The subscriber this client simulates.
    pub fn user(&self) -> SubscriberId {
        self.user
    }

    /// The strategy this client runs.
    pub fn strategy(&self) -> StrategySpec {
        self.strategy
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// True while the client has declared the link down and buffers
    /// operations instead of exchanging.
    pub fn is_degraded(&self) -> bool {
        self.resilience.as_ref().is_some_and(|r| r.degraded)
    }

    /// Buffered operations awaiting reconciliation.
    pub fn pending_ops(&self) -> usize {
        self.resilience.as_ref().map_or(0, |r| r.pending.len())
    }

    /// Mutable access to the underlying transport — `sa-verify`'s batched
    /// exchange needs it to steer ownership (topology refresh, session
    /// handoff) between polls without tearing the client down.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Every firing observed so far, in observation order.
    pub fn fired(&self) -> &[FiredEvent] {
        &self.fired
    }

    /// Drains the recorded firings.
    pub fn take_fired(&mut self) -> Vec<FiredEvent> {
        std::mem::take(&mut self.fired)
    }

    /// Feeds one position sample; exchanges messages with the server
    /// exactly when the strategy requires it, riding out transient
    /// transport failures when a [`ResiliencePolicy`] is enabled.
    ///
    /// # Errors
    ///
    /// Fails when the transport breaks non-transiently (or at all,
    /// without resilience), or the server answers outside the protocol.
    pub fn observe(
        &mut self,
        step: u32,
        pos: Point,
        heading: f64,
        speed: f64,
    ) -> Result<(), TransportError> {
        // While degraded, probe the link once; only a fully drained
        // backlog returns this sample to normal processing below.
        if self.is_degraded() && !self.try_reconcile()? {
            self.degraded_observe(step, pos, heading, speed);
            return Ok(());
        }
        self.steady_observe(step, pos, heading, speed)
    }

    /// Drains any degraded-mode backlog, retrying with backoff, so a
    /// replay ends with every buffered crossing reconciled. Call after
    /// the last [`Client::observe`].
    ///
    /// # Errors
    ///
    /// Fails on a non-transient error, or with
    /// [`TransportError::TimedOut`] when the link never came back.
    pub fn finish(&mut self) -> Result<(), TransportError> {
        if self.resilience.is_none() || !self.is_degraded() {
            return Ok(());
        }
        for attempt in 0..FINISH_ROUNDS {
            if self.try_reconcile()? {
                return Ok(());
            }
            self.count_retry();
            let delay = self
                .resilience
                .as_mut()
                .expect("resilience checked above")
                .backoff
                .delay(attempt.min(16));
            self.clock.sleep(delay);
        }
        Err(TransportError::TimedOut)
    }

    /// Stages one position sample for a **batched** exchange instead of
    /// exchanging inline: returns the [`BatchedUpdate`] entry to put in
    /// the step's [`Request::Batch`] when the strategy demands server
    /// contact, `None` when the sample is silent. OPT local firings are
    /// still detected (and notified on this client's own transport —
    /// they are rare and must reach the server before the next batch).
    ///
    /// The caller must feed the entry's response group back through
    /// [`Client::complete_update`] before polling the next step. The
    /// batch path assumes a reliable transport (no [`ResiliencePolicy`]
    /// machinery runs here).
    ///
    /// # Errors
    ///
    /// Fails when an OPT notify cannot be exchanged or is rejected.
    pub fn poll_update(
        &mut self,
        session: u32,
        step: u32,
        pos: Point,
        heading: f64,
        speed: f64,
    ) -> Result<Option<BatchedUpdate>, TransportError> {
        debug_assert!(
            self.pending_batch.is_none(),
            "complete_update must absorb the previous step before the next poll"
        );
        let cell = self.grid.cell_of(pos);
        if !self.uplink_needed(step, pos, cell) {
            for alarm in self.local_opt_fires(step, pos) {
                if !self.resilient_notify(alarm)? {
                    return Err(TransportError::Protocol("notify failed on the batch path"));
                }
                self.stats.notifies += 1;
            }
            return Ok(None);
        }
        let seq = self.next_seq();
        let update = BatchedUpdate {
            session,
            seq,
            x_fx: quantize_m(pos.x),
            y_fx: quantize_m(pos.y),
            motion: pack_motion(heading, speed),
        };
        // 20 bytes: the entry's exact footprint inside the batch frame.
        self.stats.bytes_up += 20;
        self.pending_batch = Some(PendingBatch { step, cell });
        Ok(Some(update))
    }

    /// Absorbs the response group a batched update produced. Returns
    /// `false` when the terminal response was `Overloaded` (wire protocol
    /// v1 keeps the message; `sa-server` never sends it) — the staged
    /// state stays pending and the caller must re-send the same entry
    /// (its retransmission bytes are charged here).
    ///
    /// # Errors
    ///
    /// Fails when no update is pending, the group is empty, or a
    /// response is outside the protocol.
    pub fn complete_update(&mut self, responses: Vec<Response>) -> Result<bool, TransportError> {
        let pending = self
            .pending_batch
            .ok_or(TransportError::Protocol("no batched update pending"))?;
        if responses.is_empty() {
            return Err(TransportError::Protocol("empty batch response group"));
        }
        self.stats.bytes_down += responses.iter().map(|r| r.encoded_len() as u64).sum::<u64>();
        if matches!(responses.last(), Some(Response::Overloaded { .. })) {
            self.stats.overload_retries += 1;
            self.stats.bytes_up += 20;
            return Ok(false);
        }
        self.pending_batch = None;
        self.stats.uplinks += 1;
        for resp in responses {
            self.absorb(resp, pending.step, pending.cell)?;
        }
        Ok(true)
    }

    /// Steady-state sample processing (the pre-chaos `observe` body,
    /// with resilient exchanges).
    fn steady_observe(
        &mut self,
        step: u32,
        pos: Point,
        heading: f64,
        speed: f64,
    ) -> Result<(), TransportError> {
        let cell = self.grid.cell_of(pos);
        if !self.uplink_needed(step, pos, cell) {
            // OPT monitors its pushed set locally between cell changes.
            let locally_fired = self.local_opt_fires(step, pos);
            for (i, &alarm) in locally_fired.iter().enumerate() {
                match self.resilient_notify(alarm)? {
                    true => self.stats.notifies += 1,
                    false => {
                        // Link is down: buffer this notify and the rest.
                        for &later in &locally_fired[i..] {
                            self.buffer(PendingOp::Notify { alarm: later });
                        }
                        self.go_degraded();
                        return Ok(());
                    }
                }
            }
            return Ok(());
        }

        match self.resilient_uplink(step, pos, heading, speed)? {
            Some(resps) => {
                self.stats.uplinks += 1;
                for resp in resps {
                    self.absorb(resp, step, cell)?;
                }
                Ok(())
            }
            None => {
                // Retries exhausted: this sample still needs the server
                // — buffer it and fall back to the last safe region.
                self.buffer(PendingOp::Sample { step, pos, heading, speed });
                self.go_degraded();
                // With the server unreachable, the local OPT check must
                // run even on a cell-changed sample: a boundary-spanning
                // alarm entered right now would otherwise be detected a
                // step late. The buffered replay re-fires it server-side
                // at this same step, so the records agree.
                for alarm in self.local_opt_fires(step, pos) {
                    self.buffer(PendingOp::Notify { alarm });
                }
                Ok(())
            }
        }
    }

    /// Degraded-mode sample processing: monitor against the (stale but
    /// sound) installed region, buffer everything that would need the
    /// server.
    fn degraded_observe(&mut self, step: u32, pos: Point, heading: f64, speed: f64) {
        self.account_degraded_step();
        let cell = self.grid.cell_of(pos);
        if self.uplink_needed(step, pos, cell) {
            self.buffer(PendingOp::Sample { step, pos, heading, speed });
        }
        // Inside the installed region nothing can fire by the
        // safe-region invariant — except for OPT, whose "region" is the
        // pushed alarm set, monitored locally exactly as when steady.
        // The check runs even on buffered (cell-changed) samples: with
        // no server to evaluate the crossing now, skipping it would
        // record a boundary-spanning alarm one step late. The buffered
        // replay re-fires it server-side at this same step, so the
        // records agree (deliveries dedup).
        for alarm in self.local_opt_fires(step, pos) {
            self.buffer(PendingOp::Notify { alarm });
        }
    }

    /// Whether this sample must reach the server ([`Held::must_uplink`]).
    fn uplink_needed(&self, step: u32, pos: Point, cell: CellId) -> bool {
        self.held.as_ref().is_none_or(|held| held.must_uplink(step, pos, cell))
    }

    /// OPT's local check of the pushed set ([`Held::opt_check`]): records
    /// the firings of the sample at `step` and returns their alarms, to
    /// notify.
    fn local_opt_fires(&mut self, step: u32, pos: Point) -> Vec<u32> {
        let fired = self.held.as_mut().map_or_else(Vec::new, |held| held.opt_check(pos));
        let alarms: Vec<u32> = fired.iter().map(|id| id.0 as u32).collect();
        for &alarm in &alarms {
            self.stats.client_fires += u64::from(self.record_fire(alarm, step));
        }
        alarms
    }

    /// Records one firing unless the alarm already fired for this
    /// client, in which case the recorded step moves back to `step` if
    /// that is earlier: after an outage, a local OPT check of the
    /// current sample can fire an alarm (against a set a reconciled
    /// sample just pushed) before a still-buffered earlier sample that
    /// was already inside it is replayed, and that replay's delivery,
    /// attributed to its own step, dates the firing. Returns whether
    /// the event was new.
    fn record_fire(&mut self, alarm: u32, step: u32) -> bool {
        if self.fired_alarms.insert(alarm) {
            self.fired.push(FiredEvent {
                subscriber: self.user,
                alarm: AlarmId(alarm as u64),
                step,
            });
            return true;
        }
        if let Some(event) = self.fired.iter_mut().find(|e| e.alarm.0 == u64::from(alarm)) {
            event.step = event.step.min(step);
        }
        false
    }

    /// The uplink for one sample: a plain `LocationUpdate` first, then
    /// — because the server may have processed a send whose response
    /// was lost — `Resync` retries under backoff. `Ok(None)` means the
    /// retry budget is exhausted (enter degraded mode).
    fn resilient_uplink(
        &mut self,
        step: u32,
        pos: Point,
        heading: f64,
        speed: f64,
    ) -> Result<Option<Vec<Response>>, TransportError> {
        let seq = self.next_seq();
        let first = Request::LocationUpdate {
            seq,
            x_fx: quantize_m(pos.x),
            y_fx: quantize_m(pos.y),
            motion: pack_motion(heading, speed),
        };
        match self.exchange_routed(first) {
            Ok(resps) => {
                self.note_recovery();
                return Ok(Some(resps));
            }
            Err(e) if e.is_transient() && self.resilience.is_some() => self.note_outage(),
            Err(e) => return Err(e),
        }
        let max_retries = self.resilience.as_ref().expect("checked above").policy.max_retries;
        for attempt in 0..max_retries {
            self.count_retry();
            let delay =
                self.resilience.as_mut().expect("checked above").backoff.delay(attempt);
            self.clock.sleep(delay);
            match self.resync_once(step, pos, heading, speed)? {
                Some(resps) => return Ok(Some(resps)),
                None => continue,
            }
        }
        Ok(None)
    }

    /// One `Resync` exchange for a (possibly buffered) sample.
    /// `Ok(None)` is a transient failure; fatal errors propagate.
    fn resync_once(
        &mut self,
        _step: u32,
        pos: Point,
        heading: f64,
        speed: f64,
    ) -> Result<Option<Vec<Response>>, TransportError> {
        let seq = self.next_seq();
        let req = Request::Resync {
            seq,
            x_fx: quantize_m(pos.x),
            y_fx: quantize_m(pos.y),
            motion: pack_motion(heading, speed),
            acked: self.counted_deliveries.len() as u32,
        };
        match self.exchange_routed(req) {
            Ok(resps) => {
                self.stats.resyncs += 1;
                if let Some(m) = &self.meter {
                    m.resyncs.inc();
                }
                self.note_recovery();
                Ok(Some(resps))
            }
            Err(e) if e.is_transient() => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// One notify exchange with the transient-retry ladder. Returns
    /// whether it was acknowledged (false = link down, go degraded).
    fn resilient_notify(&mut self, alarm: u32) -> Result<bool, TransportError> {
        let max_retries =
            self.resilience.as_ref().map_or(0, |r| r.policy.max_retries);
        let mut attempt = 0;
        loop {
            let seq = self.next_seq();
            match self.exchange_routed(Request::TriggerNotify { seq, alarm }) {
                Ok(resps) => {
                    if !matches!(resps.as_slice(), [Response::Ack { .. }]) {
                        return Err(TransportError::Protocol(
                            "trigger notify was not acknowledged",
                        ));
                    }
                    self.note_recovery();
                    return Ok(true);
                }
                Err(e) if e.is_transient() && self.resilience.is_some() => {
                    self.note_outage();
                    if attempt >= max_retries {
                        return Ok(false);
                    }
                    self.count_retry();
                    let delay = self
                        .resilience
                        .as_mut()
                        .expect("resilience checked above")
                        .backoff
                        .delay(attempt);
                    self.clock.sleep(delay);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One reconciliation probe: replays buffered operations in order,
    /// one single attempt each. `Ok(true)` when the backlog fully
    /// drained (back to steady), `Ok(false)` when the link is still
    /// down.
    fn try_reconcile(&mut self) -> Result<bool, TransportError> {
        let had_backlog = self.resilience.as_ref().is_some_and(|r| !r.pending.is_empty());
        while let Some(op) = self.resilience.as_ref().and_then(|r| r.pending.front().copied()) {
            let done = match op {
                PendingOp::Sample { step, pos, heading, speed } => {
                    match self.resync_once(step, pos, heading, speed)? {
                        Some(resps) => {
                            self.stats.uplinks += 1;
                            let cell = self.grid.cell_of(pos);
                            for resp in resps {
                                // Deliveries recovered here are
                                // attributed to the buffered sample's
                                // original step.
                                self.absorb(resp, step, cell)?;
                            }
                            true
                        }
                        None => false,
                    }
                }
                PendingOp::Notify { alarm } => {
                    let seq = self.next_seq();
                    match self.exchange_routed(Request::TriggerNotify { seq, alarm }) {
                        Ok(resps) => {
                            if !matches!(resps.as_slice(), [Response::Ack { .. }]) {
                                return Err(TransportError::Protocol(
                                    "trigger notify was not acknowledged",
                                ));
                            }
                            self.stats.notifies += 1;
                            true
                        }
                        Err(e) if e.is_transient() => false,
                        Err(e) => return Err(e),
                    }
                }
            };
            if !done {
                return Ok(false);
            }
            self.resilience
                .as_mut()
                .expect("resilience holds a pending op")
                .pending
                .pop_front();
        }
        if let Some(r) = self.resilience.as_mut() {
            r.degraded = false;
        }
        // An empty backlog proves nothing about the link; leave the
        // outage open until a real exchange succeeds.
        if had_backlog {
            self.note_recovery();
        }
        Ok(true)
    }

    /// Buffers one operation for reconciliation.
    fn buffer(&mut self, op: PendingOp) {
        match op {
            PendingOp::Sample { .. } => self.stats.buffered_samples += 1,
            PendingOp::Notify { .. } => self.stats.buffered_notifies += 1,
        }
        self.resilience
            .as_mut()
            .expect("buffering requires a resilience policy")
            .pending
            .push_back(op);
    }

    /// Declares the link down; the entering step counts as degraded.
    fn go_degraded(&mut self) {
        if let Some(r) = self.resilience.as_mut() {
            r.degraded = true;
        }
        self.account_degraded_step();
    }

    /// Adds one sample period to the degraded-time accounting.
    fn account_degraded_step(&mut self) {
        self.stats.degraded_steps += 1;
        let Some(r) = self.resilience.as_mut() else { return };
        r.degraded_acc_s += self.dt;
        if let Some(m) = &self.meter {
            while r.degraded_acc_s >= 1.0 {
                m.degraded_seconds.inc();
                r.degraded_acc_s -= 1.0;
            }
        }
    }

    /// Marks the start of an outage (first transient failure).
    fn note_outage(&mut self) {
        let now_ns = self.clock.now_ns();
        if let Some(r) = self.resilience.as_mut() {
            r.outage_started_ns.get_or_insert(now_ns);
        }
    }

    /// Marks recovery; records the outage duration into the reconnect
    /// RTT histogram.
    fn note_recovery(&mut self) {
        let now_ns = self.clock.now_ns();
        let Some(r) = self.resilience.as_mut() else { return };
        if let Some(started_ns) = r.outage_started_ns.take() {
            if let Some(m) = &self.meter {
                m.reconnect_rtt
                    .record_duration(Duration::from_nanos(now_ns.saturating_sub(started_ns)));
            }
        }
    }

    /// Counts one transient-failure retry.
    fn count_retry(&mut self) {
        self.stats.retries += 1;
        if let Some(m) = &self.meter {
            m.retries.inc();
        }
    }

    /// Applies one response to the client state. Deliveries are
    /// attributed to `step` and deduplicated by alarm id.
    fn absorb(&mut self, resp: Response, step: u32, cell: CellId) -> Result<(), TransportError> {
        match resp {
            Response::TriggerDelivery { alarm, .. } => {
                // The delivery cursor advances on every distinct
                // server delivery, even when the firing was already
                // known locally (OPT).
                self.counted_deliveries.insert(alarm);
                if self.record_fire(alarm, step) {
                    self.stats.deliveries += 1;
                } else {
                    self.stats.dup_deliveries += 1;
                }
            }
            Response::RectInstall { rect, .. } => {
                let region = dequantize_rect(rect)
                    .map_err(|_| TransportError::Protocol("degenerate safe-region rectangle"))?;
                self.held = Some(Held::Rect(region));
                self.stats.region_installs += 1;
            }
            Response::BitmapInstall { cell: cell_word, bits, .. } => {
                let StrategySpec::Pbsr { height } = self.strategy else {
                    return Err(TransportError::Protocol("bitmap install for a non-PBSR client"));
                };
                let cell_rect = self.grid.cell_rect(self.cell_from_index(cell_word)?);
                let config = pbsr_pyramid(height);
                let region = BitmapSafeRegion::from_wire_bits(cell_rect, config, &bits)
                    .map_err(|_| TransportError::Protocol("malformed bitmap install"))?;
                self.held = Some(Held::Bitmap(region));
                self.stats.region_installs += 1;
            }
            Response::AlarmPush { alarms, .. } => {
                let set = alarms
                    .iter()
                    .map(|a: &PushedAlarm| {
                        let region = dequantize_rect(a.rect)
                            .map_err(|_| TransportError::Protocol("degenerate pushed alarm"))?;
                        Ok(OptAlarm { id: AlarmId(a.alarm as u64), region, relevant: a.relevant })
                    })
                    .collect::<Result<Vec<_>, TransportError>>()?;
                self.held = Some(Held::Alarms { cell, alarms: set });
                self.stats.alarm_pushes += 1;
            }
            Response::SafePeriodGrant { period_ms } => {
                let silent = silent_steps(f64::from(period_ms) / 1_000.0, self.dt);
                self.held = Some(Held::SilentUntil(step + silent));
                self.stats.grants += 1;
            }
            Response::Ack { .. } => {
                // PBSR quick-update path: the installed bitmap stands.
            }
            Response::Overloaded { .. } => {
                return Err(TransportError::Protocol("overload reply to a location update"));
            }
            Response::Stats { .. } => {
                return Err(TransportError::Protocol("stats reply to a location update"));
            }
            Response::Error { .. } => {
                return Err(TransportError::Protocol("server rejected a location update"));
            }
            Response::Batch { .. } => {
                return Err(TransportError::Protocol("batch reply to a per-request exchange"));
            }
            Response::Topology { .. } => {
                return Err(TransportError::Protocol("topology reply to a location update"));
            }
            Response::WrongOwner { .. } => {
                // exchange_routed converts bounces into
                // TransportError::WrongOwner before absorb ever runs.
                return Err(TransportError::Protocol("wrong-owner bounce leaked past routing"));
            }
            Response::SessionState { .. } => {
                return Err(TransportError::Protocol("session export reply to a location update"));
            }
        }
        Ok(())
    }

    fn cell_from_index(&self, index: u32) -> Result<CellId, TransportError> {
        let cols = self.grid.cols();
        let cell = CellId { col: index % cols, row: index / cols };
        if cell.row >= self.grid.rows() {
            return Err(TransportError::Protocol("cell index outside the grid"));
        }
        Ok(cell)
    }

    fn next_seq(&mut self) -> u32 {
        self.seq = (self.seq + 1) & crate::wire::SEQ_MASK;
        self.seq
    }

    /// One request/response exchange with byte accounting.
    fn exchange(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        self.stats.bytes_up += req.encoded_len() as u64;
        let resps = self.transport.request(req)?;
        self.stats.bytes_down += resps.iter().map(|r| r.encoded_len() as u64).sum::<u64>();
        Ok(resps)
    }

    /// [`Self::exchange`], with a federation `WrongOwner` terminal turned
    /// into an error. The bounce is **not** retried: resending to the
    /// same server can never succeed, so it surfaces immediately as the
    /// non-transient [`TransportError::WrongOwner`] — the federation
    /// router catches it and re-routes; a plain client propagates it.
    fn exchange_routed(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        let resps = self.exchange(req)?;
        if let Some(Response::WrongOwner { owner, epoch, .. }) = resps.last() {
            let (owner, epoch) = (*owner, *epoch);
            self.stats.redirects += 1;
            if let Some(m) = &self.meter {
                m.redirects.inc();
            }
            return Err(TransportError::WrongOwner { owner, epoch });
        }
        Ok(resps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_under_a_seed() {
        let mut a = Backoff::new(Duration::from_millis(1), Duration::from_millis(100), 7);
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(100), 7);
        let sa: Vec<Duration> = (0..12).map(|i| a.delay(i)).collect();
        let sb: Vec<Duration> = (0..12).map(|i| b.delay(i)).collect();
        assert_eq!(sa, sb, "same seed must give the same schedule");
        let mut c = Backoff::new(Duration::from_millis(1), Duration::from_millis(100), 8);
        let sc: Vec<Duration> = (0..12).map(|i| c.delay(i)).collect();
        assert_ne!(sa, sc, "different seeds must jitter differently");
    }

    #[test]
    fn backoff_is_capped_and_jittered_within_the_envelope() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(64);
        let mut b = Backoff::new(base, cap, 42);
        for attempt in 0..40 {
            let exp = (base * 2u32.saturating_pow(attempt.min(20))).min(cap);
            let d = b.delay(attempt);
            assert!(d <= exp, "attempt {attempt}: {d:?} above envelope {exp:?}");
            assert!(d >= exp / 2, "attempt {attempt}: {d:?} below half-envelope {exp:?}");
            assert!(d <= cap, "attempt {attempt}: {d:?} exceeds the cap");
        }
        // Attempt numbers beyond the shift width must not panic or
        // overflow past the cap.
        assert!(b.delay(200) <= cap);
    }

    #[test]
    fn backoff_grows_exponentially_before_the_cap() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_secs(3600), 1);
        // Lower bounds double per attempt: delay(n) >= 2^n * base / 2.
        for attempt in 0..10u32 {
            let floor = Duration::from_micros(500) * 2u32.pow(attempt);
            assert!(b.delay(attempt) >= floor);
        }
    }

    #[test]
    fn zero_base_schedules_zero_delay() {
        let mut b = Backoff::new(Duration::ZERO, Duration::from_secs(1), 3);
        assert_eq!(b.delay(0), Duration::ZERO);
        assert_eq!(b.delay(63), Duration::ZERO);
    }
}
