//! The concurrent safe-region server: session registry, request router,
//! and the per-update processing logic.
//!
//! Every request runs to completion on the thread that hands it to
//! [`Server::handle`] — a reactor worker that decoded it off a socket,
//! or an in-proc caller. Control messages (`Hello`, `Bye`, alarm
//! install/remove, OPT trigger notify) touch only lock-protected shared
//! maps and never compute geometry. A location update — the hot path —
//! is the paper's one job: check triggers, then refresh the safe region,
//! with no queue and no thread hop in between. A [`Request::Batch`]
//! frame is its entries run one after another, in frame order, through
//! that same path; the server owns no threads. No request is ever
//! answered [`Response::Overloaded`]: over TCP the reactor's admission
//! control and read throttling are the overload response.
//!
//! Lock discipline: every thread that processes a request takes at most
//! one lock at a time. Alarm reads never lock at all — each thread pins
//! an epoch-versioned generation of the grid-keyed alarm store through a
//! per-thread cache (see [`sa_alarms::AlarmStore`]) and reads its cell's
//! bucket while the install path publishes the next generation; no writer
//! ever takes a second lock, so no cycle exists.

use crate::cache::{CacheStats, RegionCache};
use crate::clock::{SharedClock, SystemClock};
use crate::striped::Striped;
use crate::wire::{
    dequantize_m, dequantize_rect, owner_of, quantize_rect, unpack_motion, BatchReply,
    BatchedUpdate, CellRange, Request, Response, SessionState, StrategySpec, TraceCtxExt,
    SEQ_MASK,
};
use parking_lot::RwLock;
use sa_alarms::{
    cells_covering, AlarmId, AlarmScope, AlarmStore, AlarmTarget, GenerationCache, SpatialAlarm,
    StoreGeneration, SubscriberId,
};
use sa_core::{BitVec, PyramidComputer};
use sa_geometry::{CellId, Grid, Point, Rect};
use sa_obs::{
    client_root_span, dispatch_span, trace_id_for, Counter, Exemplars, Histogram, Registry, Span,
    SpanKind, SpanRecorder, TimeSource, TraceCtx, TraceMode,
};
use sa_sim::{
    fires, is_obstacle, opt_entry, pbsr_pyramid, pbsr_refresh, region_cell, safe_period_s,
    server_mwpsr,
};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

thread_local! {
    /// Per-thread scratch for the trigger check's newly fired alarms,
    /// reused across updates so the steady-state case (no triggering
    /// alarms) never touches the heap.
    static TRIGGER_SCRATCH: RefCell<Vec<AlarmId>> = const { RefCell::new(Vec::new()) };
    /// Per-thread copy of the refreshing subscriber's fired ids (sorted):
    /// the fired table's stripe lock is dropped before any compute runs.
    static FIRED_SCRATCH: RefCell<Vec<AlarmId>> = const { RefCell::new(Vec::new()) };
    /// Per-thread obstacle list of the region refresh in progress.
    static OBSTACLE_SCRATCH: RefCell<Vec<Rect>> = const { RefCell::new(Vec::new()) };
    /// Per-thread pinned generation of the alarm store. While no
    /// install/remove has published, a read is one atomic epoch load — no
    /// lock, no allocation.
    static ALARMS: RefCell<GenerationCache> = const { RefCell::new(GenerationCache::new()) };
}

/// Error codes carried by [`Response::Error`].
pub mod error_code {
    /// The session id is unknown (no `Hello` seen).
    pub const NO_SESSION: u32 = 1;
    /// The request is invalid in the session's current state.
    pub const BAD_REQUEST: u32 = 2;
    /// An alarm id was out of range.
    pub const UNKNOWN_ALARM: u32 = 3;
}

/// The argument [`Server::start`] takes. It has no fields: the server
/// runs every request on its caller's thread, so there is nothing left
/// to size. It stays so that existing `Server::start` callers compile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerConfig {}

#[derive(Debug)]
struct Session {
    user: SubscriberId,
    strategy: StrategySpec,
    /// The last cell a bitmap/push was issued for (PBSR quick-update and
    /// OPT cell-transition bookkeeping).
    last_cell: Option<CellId>,
    /// Every alarm a `TriggerDelivery` was generated for on this
    /// session, in generation order. Each alarm appears at most once
    /// (the fired-set gate), so a [`Request::Resync`] carrying a
    /// delivery cursor of `acked` recovers exactly the suffix
    /// `delivery_log[acked..]` — the deliveries a lossy downlink may
    /// have swallowed.
    delivery_log: Vec<u32>,
    /// `Some(cap)` when the session was admitted under overload
    /// (reactor admission control): PBSR safe regions are computed at
    /// `min(requested_height, cap)` pyramid levels and padded back to
    /// the requested wire layout — coarser and cheaper, never refused.
    degraded_height_cap: Option<u32>,
}

impl Session {
    /// The cheap per-session header an update reads: subscriber,
    /// strategy, degraded-admission height cap.
    fn header(&self) -> (SubscriberId, StrategySpec, Option<u32>) {
        (self.user, self.strategy, self.degraded_height_cap)
    }
}

/// Federation membership of one server: its id and the epoch-versioned
/// partition map it enforces on position-bearing requests.
#[derive(Debug, Clone)]
struct FedState {
    self_id: u32,
    epoch: u64,
    /// Ownership ranges over the grid's Morton keys, sorted by start.
    ranges: Vec<CellRange>,
}

/// Pre-resolved handles onto the server's registry: one registry lock at
/// startup, then every hot-path increment is a single atomic RMW.
#[derive(Debug, Clone)]
pub(crate) struct ServerMetrics {
    location_updates: Counter,
    triggers: Counter,
    region_computations: Counter,
    /// `Resync` requests processed by workers.
    resyncs: Counter,
    /// Trigger deliveries re-sent from a session's delivery log.
    redeliveries: Counter,
    /// Position-bearing requests bounced with `WrongOwner`.
    wrong_owner: Counter,
    /// Sessions exported to another federation member.
    handoff_exports: Counter,
    /// Sessions imported from another federation member.
    handoff_imports: Counter,
    /// End-to-end location-update round trip: routing plus processing,
    /// the same span for a single update and for each batch entry.
    update_rtt: Histogram,
    /// One `RegionCache::lookup` call inside the PBSR path.
    cache_lookup: Histogram,
    /// Server-side response encoding (used by the transports).
    pub(crate) wire_encode: Histogram,
    /// Server-side request decoding (used by the transports).
    pub(crate) wire_decode: Histogram,
    /// Safe-region computation latency, labelled per algorithm.
    mwpsr: Histogram,
    pbsr: Histogram,
    opt: Histogram,
    safe_period: Histogram,
}

impl ServerMetrics {
    fn new(registry: &Registry) -> ServerMetrics {
        let compute = |algo: &str| {
            registry.histogram_with("sa_region_compute_ns", &[("algo", algo)])
        };
        ServerMetrics {
            location_updates: registry.counter("sa_server_location_updates_total"),
            triggers: registry.counter("sa_server_triggers_total"),
            region_computations: registry.counter("sa_server_region_computations_total"),
            resyncs: registry.counter("sa_server_resyncs_total"),
            redeliveries: registry.counter("sa_server_redeliveries_total"),
            wrong_owner: registry.counter("sa_server_wrong_owner_total"),
            handoff_exports: registry.counter("sa_server_handoff_exports_total"),
            handoff_imports: registry.counter("sa_server_handoff_imports_total"),
            update_rtt: registry.histogram("sa_update_rtt_ns"),
            cache_lookup: registry.histogram("sa_cache_lookup_ns"),
            wire_encode: registry.histogram("sa_wire_encode_ns"),
            wire_decode: registry.histogram("sa_wire_decode_ns"),
            mwpsr: compute("mwpsr"),
            pbsr: compute("pbsr"),
            opt: compute("opt"),
            safe_period: compute("safe_period"),
        }
    }

    /// The per-algorithm safe-region-computation histogram.
    fn compute_hist(&self, strategy: StrategySpec) -> &Histogram {
        match strategy {
            StrategySpec::Mwpsr => &self.mwpsr,
            StrategySpec::Pbsr { .. } => &self.pbsr,
            StrategySpec::Opt => &self.opt,
            StrategySpec::SafePeriod => &self.safe_period,
        }
    }
}

/// Span capacity per lane of the server's [`SpanRecorder`] — sized so a
/// replay-scale run keeps every span of its final divergence window.
const SPAN_LANE_CAPACITY: usize = 1024;

/// Data lanes of the server's [`SpanRecorder`]: an update's compute
/// spans go to lane `cell_index % SPAN_LANES`, so concurrent updates in
/// different cells mostly take different lane locks. Lane `SPAN_LANES`
/// is the router lane (dispatches, bounces, alarm writes, control
/// exchanges).
const SPAN_LANES: usize = 4;

/// The live safe-region service, shared by every thread that calls into
/// it. Build with [`Server::start`], talk to it through a
/// [`crate::transport::Transport`].
pub struct Server {
    grid: Grid,
    v_max: f64,
    /// The alarms (dense ids), one bucket per grid cell. Epoch-versioned:
    /// readers pin generations, writes publish new ones.
    alarms: AlarmStore,
    /// Which alarms already fired for which subscriber id — alarms fire
    /// once, for the lifetime of the server.
    fired: Striped<Vec<AlarmId>>,
    /// Live sessions by session id.
    sessions: Striped<Session>,
    /// Federation membership, when [`Server::enable_federation`] was
    /// called; `None` on a standalone server (no ownership checks).
    fed: RwLock<Option<FedState>>,
    /// One update counter per grid cell (`sa_cell_updates_total`), the
    /// load signal the federation's hot-cell repartitioner reads.
    cell_updates: Vec<Counter>,
    cache: RegionCache,
    /// Every counter/gauge/histogram of this server instance — scrapeable
    /// over the wire via [`Request::Stats`].
    registry: Arc<Registry>,
    metrics: ServerMetrics,
    /// Typed causal spans, [`SPAN_LANES`] data lanes plus the router
    /// lane — the server's one event record and the raw material of the
    /// federation-wide trace assembly.
    spans: SpanRecorder,
    /// Per-bucket trace exemplars of `sa_update_rtt_ns`, linking a p99
    /// readout to a trace that actually landed in that bucket.
    rtt_exemplars: Exemplars,
    next_session: AtomicU32,
    /// Every timestamp the runtime takes reads this clock — swap in a
    /// [`crate::clock::VirtualClock`] and timings become simulated.
    clock: SharedClock,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("alarms", &self.alarms).finish()
    }
}

impl Server {
    /// Builds the alarm store of `alarms` over `grid`.
    ///
    /// # Panics
    ///
    /// Panics when `v_max` is not positive.
    pub fn start(
        grid: Grid,
        alarms: Vec<SpatialAlarm>,
        v_max: f64,
        _config: ServerConfig,
    ) -> Arc<Server> {
        Server::start_with_clock(grid, alarms, v_max, SystemClock::shared())
    }

    /// [`Server::start`] with an explicit [`SharedClock`]. Every
    /// timestamp the server takes (router entry, safe-region compute
    /// timing, cache lookups, wire codec timing on the attached
    /// transports) reads this clock, so a
    /// [`crate::clock::VirtualClock`] makes the whole run's timing
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics when `v_max` is not positive.
    pub fn start_with_clock(
        grid: Grid,
        alarms: Vec<SpatialAlarm>,
        v_max: f64,
        clock: SharedClock,
    ) -> Arc<Server> {
        assert!(v_max > 0.0, "maximum speed must be positive");

        let registry = Arc::new(Registry::new());
        let metrics = ServerMetrics::new(&registry);
        // Spans timestamp on the *server clock's* axis: under a
        // VirtualClock two identical schedules record identical spans.
        let time = {
            let clock = Arc::clone(&clock);
            TimeSource::new(move || clock.now_ns() / 1_000)
        };
        let cell_updates = (0..grid.cell_count())
            .map(|idx| {
                let label = idx.to_string();
                registry.counter_with("sa_cell_updates_total", &[("cell", &label)])
            })
            .collect();
        Arc::new(Server {
            v_max,
            alarms: AlarmStore::new(grid.clone(), alarms).unwrap_or_else(|e| panic!("{e}")),
            fired: Striped::new(),
            sessions: Striped::new(),
            fed: RwLock::new(None),
            cell_updates,
            cache: RegionCache::with_registry(&registry),
            metrics,
            spans: SpanRecorder::new(SPAN_LANES + 1, SPAN_LANE_CAPACITY, time),
            rtt_exemplars: Exemplars::new(),
            registry,
            next_session: AtomicU32::new(1),
            clock,
            grid,
        })
    }

    /// Allocates a fresh session id. The session only becomes usable
    /// after a [`Request::Hello`] on it.
    pub fn open_session(&self) -> u32 {
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// How many sessions are currently registered (i.e. have completed
    /// a `Hello` and not been closed). The reactor's soak tests use
    /// this to assert the table returns to baseline after churn.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Drops a session's server-side state (last cell, delivery log) —
    /// not the subscriber's fired alarms, which outlive sessions. Called
    /// by the network front end when a connection closes. Returns `false`
    /// when the session was never registered (no `Hello` seen).
    pub fn close_session(&self, session: u32) -> bool {
        self.sessions.remove(session).is_some()
    }

    /// Caps the pyramid height this session's PBSR regions are
    /// *computed* at — the wire encoding is padded back to the height
    /// the client requested (see `pad_bitmap_wire_bits`), so the
    /// client is unaffected except for receiving a
    /// coarser (still sound) region. The reactor applies this to
    /// sessions admitted under overload. Returns `false` for an
    /// unknown session.
    pub fn degrade_session(&self, session: u32, height_cap: u32) -> bool {
        self.sessions
            .with_mut(session, |s| s.degraded_height_cap = Some(height_cap.max(1)))
            .is_some()
    }

    /// The grid the server partitions space with.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Joins a federation as member `self_id` under the given partition
    /// map. From here on, position-bearing requests whose cell another
    /// member owns are bounced with
    /// [`Response::WrongOwner`], and
    /// [`Request::InstallTopology`] pushes with a newer epoch replace
    /// the map.
    ///
    /// # Panics
    ///
    /// Panics when `ranges` is empty or not sorted by start key.
    pub fn enable_federation(&self, self_id: u32, epoch: u64, ranges: Vec<CellRange>) {
        assert!(!ranges.is_empty(), "a partition map needs at least one range");
        assert!(
            ranges.windows(2).all(|w| w[0].start <= w[1].start),
            "partition ranges must be sorted by start key"
        );
        self.spans.set_member(self_id);
        *self.fed.write() = Some(FedState { self_id, epoch, ranges });
    }

    /// The server's current partition map: `(epoch, ranges)`. A
    /// standalone server reports the trivial epoch-0 map owning the
    /// whole key space as member 0.
    pub fn topology(&self) -> (u64, Vec<CellRange>) {
        match self.fed.read().as_ref() {
            Some(f) => (f.epoch, f.ranges.clone()),
            None => (0, vec![CellRange { start: 0, end: u64::MAX, owner: 0 }]),
        }
    }

    /// This member's federation id, when federation is enabled.
    pub fn federation_id(&self) -> Option<u32> {
        self.fed.read().as_ref().map(|f| f.self_id)
    }

    /// Per-cell update counts (indexed by flattened cell index) — the
    /// load distribution the repartitioning coordinator balances on.
    pub fn cell_updates(&self) -> Vec<u64> {
        self.cell_updates.iter().map(Counter::get).collect()
    }

    /// How many position-bearing requests this member bounced with
    /// [`Response::WrongOwner`].
    pub fn wrong_owner_total(&self) -> u64 {
        self.metrics.wrong_owner.get()
    }

    /// Safe-region cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The metrics registry every counter, gauge, and histogram of this
    /// server (router, cache, wire, algorithms) is registered on.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The full metric state rendered in Prometheus text exposition
    /// format — the same text a [`Request::Stats`] scrape returns.
    pub fn prometheus(&self) -> String {
        sa_obs::render(&self.registry)
    }

    /// Switches span recording between [`TraceMode::Off`], sampled, and
    /// full. Firings, bounces and alarm writes are spans too,
    /// so `Off` records none of them; already-buffered spans stay.
    pub fn set_trace_mode(&self, mode: TraceMode) {
        self.spans.set_mode(mode);
    }

    /// Every causal span this server retains, start-time ordered —
    /// one member's contribution to the federation-wide trace assembly.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.spans()
    }

    /// Per-bucket trace exemplars of the `sa_update_rtt_ns` histogram:
    /// pass a snapshot quantile to
    /// [`Exemplars::for_value`] and get the trace id of a request that
    /// actually landed in that latency bucket.
    pub fn rtt_exemplars(&self) -> &Exemplars {
        &self.rtt_exemplars
    }

    /// Pre-resolved metric handles, for the transports' wire timers.
    pub(crate) fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The clock every runtime timestamp reads (the transports time
    /// their codec work against it too).
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Routes one request and returns its full response sequence: zero or
    /// more trigger deliveries followed by one terminal response.
    ///
    /// Allocates a fresh result vector per call; allocation-conscious
    /// callers use [`Server::handle_into`] with a reused buffer instead.
    pub fn handle(&self, session: u32, req: Request) -> Vec<Response> {
        let mut out = Vec::new();
        self.handle_into(session, req, &mut out);
        out
    }

    /// Routes one request, appending its full response sequence (zero or
    /// more trigger deliveries followed by one terminal response) to
    /// `out`.
    ///
    /// A location update runs to completion on the calling thread, with
    /// no queue (over TCP the reactor's admission control and read
    /// throttling are the overload response; an in-proc caller is its
    /// own backpressure). A batch frame's entries take the same path one
    /// after another, in frame order, so a batch is answered exactly as
    /// its entries sent one by one would be. Per-session order is the
    /// caller's — one reactor worker pumps each connection, and each
    /// in-proc session has one caller.
    ///
    /// This is the allocation-free entry point of the update hot path:
    /// once `out` and the calling thread's scratch are warm, a
    /// steady-state location update (the PBSR quick-update answer)
    /// allocates nothing — the invariant the `alloc_steady_state`
    /// integration test pins with a counting allocator.
    pub fn handle_into(&self, session: u32, req: Request, out: &mut Vec<Response>) {
        match req {
            Request::Hello { seq, user, strategy } => {
                self.sessions.insert(
                    session,
                    Session {
                        user: SubscriberId(user),
                        strategy,
                        last_cell: None,
                        delivery_log: Vec::new(),
                        degraded_height_cap: None,
                    },
                );
                out.push(Response::Ack { seq });
            }
            Request::Bye { seq } => {
                self.sessions.remove(session);
                out.push(Response::Ack { seq });
            }
            Request::TriggerNotify { seq, alarm } => {
                out.extend(self.notify_trigger(session, seq, alarm));
            }
            Request::InstallAlarm { seq, alarm, flags, rect } => {
                out.extend(self.install_alarm(session, seq, alarm, flags, rect));
            }
            Request::RemoveAlarm { seq, alarm } => {
                out.extend(self.remove_alarm(session, seq, alarm));
            }
            Request::Stats { seq } => {
                out.push(Response::Stats { seq, text: self.prometheus() });
            }
            Request::Topology { seq, .. } => {
                let (epoch, ranges) = self.topology();
                out.push(Response::Topology { seq, epoch, ranges });
            }
            Request::HandoffExport { seq, session: target, trace } => {
                let trace = control_ctx(trace, session, seq);
                out.extend(self.export_session(seq, target, trace));
            }
            Request::HandoffImport { seq, session: target, state, trace } => {
                let trace = control_ctx(trace, session, seq);
                out.extend(self.import_session(seq, target, state, trace));
            }
            Request::HandoffRelease { seq, session: target, trace } => {
                // Idempotent by design: releasing an absent session (a
                // retried handoff's second release) still acks. The
                // subscriber's fired entries stay — they can only
                // suppress an already-fired alarm, never add a firing.
                let started_ns = self.clock.now_ns();
                self.sessions.remove(target);
                let trace = control_ctx(trace, session, seq);
                let kind = SpanKind::HandoffRelease;
                self.span(SPAN_LANES, trace, kind, started_ns, u64::from(target), 0);
                out.push(Response::Ack { seq });
            }
            Request::InstallTopology { seq, epoch, ranges, trace } => {
                let trace = control_ctx(trace, session, seq);
                out.extend(self.install_topology(seq, epoch, ranges, trace));
            }
            Request::LocationUpdate { seq, x_fx, y_fx, motion } => {
                self.process_into(BatchedUpdate { session, seq, x_fx, y_fx, motion }, None, out);
            }
            Request::Resync { seq, x_fx, y_fx, motion, acked } => {
                let update = BatchedUpdate { session, seq, x_fx, y_fx, motion };
                self.process_into(update, Some(acked), out);
            }
            // Each entry's responses are its own vector — the
            // allocation-free invariant covers the single-update path;
            // a batch amortizes its allocations over the whole frame.
            Request::Batch { seq, updates } => {
                let replies = updates
                    .into_iter()
                    .map(|u| {
                        let mut responses = Vec::new();
                        self.process_into(u, None, &mut responses);
                        BatchReply { session: u.session, responses }
                    })
                    .collect();
                out.push(Response::Batch { seq, replies });
            }
        }
    }

    /// Installs a static-target alarm: one store publish, then — for a
    /// public alarm — the epoch bump (cache invalidation) of every cell
    /// it covers. Moving-target alarms are not part of wire
    /// protocol v1.
    fn install_alarm(&self, session: u32, seq: u32, alarm: u32, flags: u32, rect: [u32; 4]) -> Vec<Response> {
        if !self.session_exists(session) {
            return vec![Response::Error { seq, code: error_code::NO_SESSION }];
        }
        let Ok(region) = dequantize_rect(rect) else {
            return vec![Response::Error { seq, code: error_code::BAD_REQUEST }];
        };
        let owner = SubscriberId(flags >> 1);
        let scope = if flags & 1 == 1 {
            AlarmScope::Public { owner }
        } else {
            AlarmScope::Private { owner }
        };
        let center = region.center();
        let alarm = SpatialAlarm::new(
            AlarmId(alarm as u64),
            region,
            AlarmTarget::Static(center),
            scope,
        );
        // A gapped or out-of-order id is a malformed (wire-reachable)
        // frame: reject it with a typed error mapped to a response, never
        // a panic on a worker or router thread.
        let (id, public) = (alarm.id(), alarm.is_public());
        if self.alarms.try_install(alarm).is_err() {
            return vec![Response::Error { seq, code: error_code::UNKNOWN_ALARM }];
        }
        if public {
            self.bump_cells(region);
        }
        let (ctx, now_ns) = (derived_ctx(trace_id_for(session, seq)), self.clock.now_ns());
        self.span(SPAN_LANES, ctx, SpanKind::AlarmInstall, now_ns, id.0, u64::from(session));
        vec![Response::Ack { seq }]
    }

    /// Removes an alarm (one store publish), then — for a public alarm —
    /// invalidates the cached regions of every cell it covered.
    fn remove_alarm(&self, session: u32, seq: u32, alarm: u32) -> Vec<Response> {
        if !self.session_exists(session) {
            return vec![Response::Error { seq, code: error_code::NO_SESSION }];
        }
        let id = AlarmId(alarm as u64);
        let Some(removed) = self.alarms.remove(id) else {
            return vec![Response::Error { seq, code: error_code::UNKNOWN_ALARM }];
        };
        if removed.is_public() {
            self.bump_cells(removed.region());
        }
        let (ctx, now_ns) = (derived_ctx(trace_id_for(session, seq)), self.clock.now_ns());
        self.span(SPAN_LANES, ctx, SpanKind::AlarmRemove, now_ns, id.0, u64::from(session));
        vec![Response::Ack { seq }]
    }

    /// Does nothing. The server owns no threads — every request runs on
    /// the thread that hands it to [`Server::handle`] — so there is
    /// nothing to stop; the method stays so that callers pairing
    /// [`Server::start`] with a shutdown compile unchanged. A server
    /// keeps answering after this call.
    pub fn shutdown(&self) {}

    fn session_exists(&self, session: u32) -> bool {
        self.sessions.read(session, |_| ()).is_some()
    }

    /// Runs `f` against this thread's pinned generation of the alarm
    /// store. Steady state (no publish since the last call on this
    /// thread) is one atomic load — no lock, no allocation.
    fn with_alarms<R>(&self, f: impl FnOnce(&StoreGeneration) -> R) -> R {
        ALARMS.with(|c| {
            let mut cache = c.borrow_mut();
            f(self.alarms.load_cached(&mut cache))
        })
    }

    /// Records one span of `kind`, `started_ns` to now, in `ctx`'s trace
    /// under its parent, attributed to span lane `lane` (a data lane, or
    /// [`SPAN_LANES`] for the router). A span draws a fresh id only when
    /// it is recorded. The one exception is an update's dispatch span:
    /// its id is *derived* from the trace id, so the compute spans on
    /// this member and the root on the client join up in assembly with
    /// no wire bytes spent, and it is kept on the router lane.
    fn span(
        &self,
        lane: usize,
        ctx: TraceCtxExt,
        kind: SpanKind,
        started_ns: u64,
        a: u64,
        b: u64,
    ) {
        if !self.spans.enabled(ctx.trace_id) {
            return;
        }
        let member = self.spans.member();
        let (span_id, kept_on) = match kind {
            SpanKind::UpdateDispatch => (dispatch_span(ctx.trace_id, member), SPAN_LANES),
            _ => (self.spans.fresh_span_id(), lane),
        };
        let span = Span {
            ctx: TraceCtx { trace_id: ctx.trace_id, span_id, parent: ctx.parent_span },
            kind,
            start_us: started_ns / 1_000,
            dur_us: self.clock.elapsed_since(started_ns).as_micros() as u64,
            member,
            shard: lane as u32,
            a,
            b,
        };
        self.spans.record(kept_on, span);
    }

    /// When federation is enabled and `cell` belongs to another member,
    /// the `WrongOwner` bounce for it, recorded in the update's trace;
    /// `None` means "process locally" (standalone server, locally owned
    /// cell, or a map gap — the last treated as local so a malformed map
    /// degrades to the single-server behavior instead of bouncing
    /// traffic into a void).
    fn wrong_owner(&self, cell: CellId, seq: u32, trace: u64) -> Option<Response> {
        let fed = self.fed.read();
        let fed = fed.as_ref()?;
        let owner = owner_of(&fed.ranges, self.grid.morton_of(cell)).unwrap_or(fed.self_id);
        if owner == fed.self_id {
            return None;
        }
        self.metrics.wrong_owner.inc();
        let (ctx, now_ns) = (derived_ctx(trace), self.clock.now_ns());
        self.span(SPAN_LANES, ctx, SpanKind::WrongOwner, now_ns, u64::from(owner), fed.epoch);
        Some(Response::WrongOwner { seq, owner, epoch: fed.epoch })
    }

    /// The first leg of a handoff: a read-only snapshot of the named
    /// session plus the subscriber's fired alarms (the table keeps them
    /// sorted, so the blob's encoding is deterministic).
    fn export_session(&self, seq: u32, target: u32, trace: TraceCtxExt) -> Vec<Response> {
        let started_ns = self.clock.now_ns();
        let snapshot = |s: &Session| (s.user, s.strategy, s.last_cell, s.delivery_log.clone());
        let Some((user, strategy, last_cell, delivery_log)) = self.sessions.read(target, snapshot)
        else {
            // A retried handoff whose release already happened lands
            // here; the mesh treats NO_SESSION as "already moved".
            return vec![Response::Error { seq, code: error_code::NO_SESSION }];
        };
        self.metrics.handoff_exports.inc();
        let (a, b) = (u64::from(target), u64::from(user.0));
        self.span(SPAN_LANES, trace, SpanKind::HandoffExport, started_ns, a, b);
        let state = SessionState {
            user: user.0,
            strategy,
            last_cell: last_cell.map(|c| self.grid.cell_index(c) as u32),
            delivery_log,
            fired: self.fired.fired_u32(user.0),
        };
        vec![Response::SessionState { seq, state }]
    }

    /// The second leg of a handoff: installs the blob at `target`,
    /// overwriting any stale copy, and unions the fired alarms into the
    /// fired table — both idempotent, so a retried import is harmless.
    fn import_session(
        &self,
        seq: u32,
        target: u32,
        state: SessionState,
        trace: TraceCtxExt,
    ) -> Vec<Response> {
        let started_ns = self.clock.now_ns();
        let last_cell = match state.last_cell {
            Some(w) if u64::from(w) >= self.grid.cell_count() => {
                return vec![Response::Error { seq, code: error_code::BAD_REQUEST }];
            }
            Some(w) => Some(self.grid.cell_at_index(u64::from(w))),
            None => None,
        };
        // An id the store never issued is a malformed blob: in the fired
        // list it would grow the table past the alarm count, in the
        // delivery log a later `Resync` would deliver it.
        let alarm_count = self.with_alarms(StoreGeneration::len);
        let ids = state.fired.iter().chain(&state.delivery_log);
        if ids.copied().any(|alarm| alarm as usize >= alarm_count) {
            return vec![Response::Error { seq, code: error_code::BAD_REQUEST }];
        }
        let user = SubscriberId(state.user);
        self.fired.fire_all(user.0, state.fired.iter().map(|&alarm| AlarmId(u64::from(alarm))));
        self.sessions.insert(
            target,
            Session {
                user,
                strategy: state.strategy,
                last_cell,
                delivery_log: state.delivery_log,
                // Degradation is an admission-time condition of the
                // *admitting* server; an imported session starts at
                // full quality on its new owner.
                degraded_height_cap: None,
            },
        );
        self.metrics.handoff_imports.inc();
        let (a, b) = (u64::from(target), u64::from(user.0));
        self.span(SPAN_LANES, trace, SpanKind::HandoffImport, started_ns, a, b);
        vec![Response::Ack { seq }]
    }

    /// The coordinator's topology push: replace the map when the pushed
    /// epoch is newer; acknowledge (idempotently) when it is not.
    fn install_topology(
        &self,
        seq: u32,
        epoch: u64,
        ranges: Vec<CellRange>,
        trace: TraceCtxExt,
    ) -> Vec<Response> {
        if ranges.is_empty() || ranges.windows(2).any(|w| w[0].start > w[1].start) {
            return vec![Response::Error { seq, code: error_code::BAD_REQUEST }];
        }
        let started_ns = self.clock.now_ns();
        let num_ranges = ranges.len() as u64;
        let mut fed = self.fed.write();
        match fed.as_mut() {
            // Only federation members enforce ownership; a standalone
            // server rejects the push rather than silently absorbing a
            // map it would never apply.
            None => vec![Response::Error { seq, code: error_code::BAD_REQUEST }],
            Some(state) => {
                if epoch > state.epoch {
                    state.epoch = epoch;
                    state.ranges = ranges;
                    let kind = SpanKind::TopologyInstall;
                    self.span(SPAN_LANES, trace, kind, started_ns, epoch, num_ranges);
                }
                vec![Response::Ack { seq }]
            }
        }
    }

    /// Dequantizes a wire position and clamps it into the universe, so a
    /// coordinate that rounded marginally past the boundary still
    /// resolves to a valid cell whose rectangle contains it.
    fn clamped_position(&self, x_fx: u32, y_fx: u32) -> Point {
        let u = self.grid.universe();
        Point::new(
            dequantize_m(x_fx).clamp(u.min_x(), u.max_x()),
            dequantize_m(y_fx).clamp(u.min_y(), u.max_y()),
        )
    }

    /// Invalidates the cached bitmaps of every cell whose bucket holds an
    /// alarm over `region`.
    /// Writers call it after they publish a *public* alarm write, never
    /// before: `pbsr_payload` reads the epoch before it pins a snapshot,
    /// so a refresh that raced the publish stamps its bitmap with the
    /// pre-bump epoch and the cache refuses it. Other writes skip it —
    /// the cache holds public views only, and an unfired non-public
    /// alarm takes its subscribers off the public view
    /// (`with_unfired_obstacles`), so no cached bitmap can depend on one.
    fn bump_cells(&self, region: Rect) {
        for cell in cells_covering(&self.grid, region) {
            self.cache.bump_epoch(self.grid.cell_index(cell));
        }
    }

    /// Runs `f` on the pinned alarm generation and on a per-thread copy of
    /// the subscriber's fired alarm ids (sorted), taken first — no table
    /// lock is held while `f` computes.
    fn with_fired<R>(
        &self,
        user: SubscriberId,
        f: impl FnOnce(&StoreGeneration, &[AlarmId]) -> R,
    ) -> R {
        FIRED_SCRATCH.with(|scratch| {
            let mut fired = scratch.borrow_mut();
            self.fired.copy_fired(user.0, &mut fired);
            self.with_alarms(|alarms| f(alarms, &fired))
        })
    }

    /// OPT client-side trigger notification: record the firing (routed
    /// inline — it only touches the fired table). An id the store never
    /// issued is refused, so a subscriber's list stays bounded by the
    /// alarm count.
    fn notify_trigger(&self, session: u32, seq: u32, alarm: u32) -> Vec<Response> {
        let Some(user) = self.sessions.read(session, |s| s.user) else {
            return vec![Response::Error { seq, code: error_code::NO_SESSION }];
        };
        if alarm as usize >= self.with_alarms(StoreGeneration::len) {
            return vec![Response::Error { seq, code: error_code::UNKNOWN_ALARM }];
        }
        if self.fired.fire(user.0, AlarmId(alarm as u64)) {
            self.metrics.triggers.inc();
            let (ctx, now_ns) = (derived_ctx(trace_id_for(session, seq)), self.clock.now_ns());
            let (a, b) = (u64::from(user.0), u64::from(alarm));
            self.span(SPAN_LANES, ctx, SpanKind::Trigger, now_ns, a, b);
        }
        vec![Response::Ack { seq }]
    }

    /// Answers one position-bearing request — a `LocationUpdate`, a
    /// post-failure `Resync` (`resync_acked` is its delivery cursor), or
    /// one entry of a batch frame — on the calling thread, appending the
    /// response sequence to `out`: the ownership check, one session
    /// read, the trigger check and the strategy arm, then the round-trip
    /// sample, its exemplar and the dispatch span.
    fn process_into(
        &self,
        update: BatchedUpdate,
        resync_acked: Option<u32>,
        out: &mut Vec<Response>,
    ) {
        let BatchedUpdate { session, seq, x_fx, y_fx, motion } = update;
        let entered_ns = self.clock.now_ns();
        let pos = self.clamped_position(x_fx, y_fx);
        let (cell, cell_rect) = region_cell(&self.grid, pos);
        let trace = trace_id_for(session, seq);
        // Ownership precedes the session read: mid-handoff the old owner
        // has released the session, and the useful answer there is the
        // redirect, not NO_SESSION.
        if let Some(bounce) = self.wrong_owner(cell, seq, trace) {
            out.push(bounce);
            return;
        }
        let Some((user, strategy, degraded_cap)) = self.sessions.read(session, Session::header)
        else {
            out.push(Response::Error { seq, code: error_code::NO_SESSION });
            return;
        };
        self.metrics.location_updates.inc();
        let (heading, _speed) = unpack_motion(motion);
        let cell_word = self.grid.cell_index(cell) as u32;
        self.cell_updates[cell_word as usize].inc();
        let lane = cell_word as usize % SPAN_LANES;
        // The update's compute spans hang from this member's dispatch span.
        let parent_span = dispatch_span(trace, self.spans.member());
        let ctx = TraceCtxExt { trace_id: trace, parent_span };

        let before = out.len();
        if let Some(acked) = resync_acked {
            // A resync is never an error, whatever state the session is
            // in: re-send the deliveries past the client's cursor (lost
            // on a broken downlink) and drop the quick-update shortcut
            // so the terminal response reinstalls a full region.
            self.metrics.resyncs.inc();
            let redeliver_started_ns = self.clock.now_ns();
            let redeliver = self.sessions.with_mut(session, |s| {
                s.last_cell = None;
                s.delivery_log.get(acked as usize..).unwrap_or(&[]).to_vec()
            });
            for alarm in redeliver.unwrap_or_default() {
                self.metrics.redeliveries.inc();
                out.push(Response::TriggerDelivery { seq, alarm });
            }
            // Recorded even when nothing was pending: the redelivery
            // leg ran, and a post-handoff resync delivering 0 is as
            // causally interesting as one delivering 5 (b = count).
            let (a, b) = (u64::from(session), (out.len() - before) as u64);
            self.span(lane, ctx, SpanKind::Redelivery, redeliver_started_ns, a, b);
        }

        // Server-side trigger check. Firings land in a per-thread scratch
        // buffer, so the steady-state case (no triggering alarms) reads
        // the cell's bucket lock-free, finds nothing, and never
        // allocates — and the fired table is not touched at all.
        let fired_now = TRIGGER_SCRATCH.with(|scratch| {
            let mut newly_fired = scratch.borrow_mut();
            newly_fired.clear();
            self.with_alarms(|alarms| {
                alarms.relevant_at_visit(user, pos, |a| {
                    if fires(a, user, pos, |id| self.fired.fire(user.0, id)) {
                        newly_fired.push(a.id());
                    }
                });
            });
            if newly_fired.is_empty() {
                return false;
            }
            let now_ns = self.clock.now_ns();
            for id in newly_fired.iter() {
                self.metrics.triggers.inc();
                self.span(lane, ctx, SpanKind::Trigger, now_ns, u64::from(user.0), id.0);
            }
            // First-time firings join the session's delivery log so a
            // later resync can recover them if this response is lost.
            let alarms = newly_fired.iter().map(|id| id.0 as u32);
            self.sessions.with_mut(session, |s| s.delivery_log.extend(alarms.clone()));
            out.extend(alarms.map(|alarm| Response::TriggerDelivery { seq, alarm }));
            true
        });

        // Closes a strategy arm's compute: latency histogram plus span.
        let computed = |started_ns: u64| {
            let elapsed = self.clock.elapsed_since(started_ns);
            self.metrics.compute_hist(strategy).record_duration(elapsed);
            let (a, b) = (session as u64, cell_word as u64);
            self.span(lane, ctx, SpanKind::RegionCompute, started_ns, a, b);
        };
        match strategy {
            StrategySpec::Mwpsr => {
                self.metrics.region_computations.inc();
                let (started_ns, region) =
                    self.with_unfired_obstacles(user, cell, |obstacles, _| {
                        let mwpsr = server_mwpsr();
                        (self.clock.now_ns(), mwpsr.compute(pos, heading, cell_rect, obstacles))
                    });
                computed(started_ns);
                out.push(Response::RectInstall {
                    seq,
                    cell: cell_word,
                    rect: quantize_rect(region.rect()),
                });
            }
            StrategySpec::Pbsr { height } => {
                let prev = self.sessions.with_mut(session, |s| s.last_cell.replace(cell)).flatten();
                // §4.2: inside the base cell the region is only refreshed
                // when an alarm actually fired (the quick update); plain
                // blocked-subcell reports get a bare acknowledgement.
                if !pbsr_refresh(prev, cell, fired_now) {
                    out.push(Response::Ack { seq });
                } else {
                    // A degraded admission computes the pyramid at a
                    // capped height (fewer levels of geometry probes)
                    // and pads the encoding back to the height the
                    // client decodes with — same region, coarser and
                    // cheaper (DESIGN.md S18).
                    let eff = degraded_cap.map_or(height, |cap| height.min(cap.max(1)));
                    let started_ns = self.clock.now_ns();
                    let bits = self.pbsr_payload(lane, user, cell, eff, height, ctx);
                    computed(started_ns);
                    out.push(Response::BitmapInstall { seq, cell: cell_word, bits });
                }
            }
            StrategySpec::Opt => {
                let started_ns = self.clock.now_ns();
                self.metrics.region_computations.inc();
                let mut alarms = Vec::new();
                self.with_fired(user, |s, fired| {
                    let has_fired = |id: AlarmId| fired.binary_search(&id).is_ok();
                    s.cell_visit(cell, |a| {
                        if let Some(entry) = opt_entry(a, user, has_fired) {
                            alarms.push(crate::wire::PushedAlarm {
                                alarm: entry.id.0 as u32,
                                relevant: entry.relevant,
                                rect: quantize_rect(entry.region),
                            });
                        }
                    });
                });
                computed(started_ns);
                out.push(Response::AlarmPush { seq, cell: cell_word, alarms });
            }
            StrategySpec::SafePeriod => {
                self.metrics.region_computations.inc();
                let started_ns = self.clock.now_ns();
                let nearest = self.with_fired(user, |g, fired| {
                    let unfired = |id: AlarmId| fired.binary_search(&id).is_err();
                    g.nearest_relevant_distance(user, pos, unfired)
                });
                let period_s = safe_period_s(nearest, self.grid.universe(), self.v_max);
                computed(started_ns);
                // Flooring to milliseconds only shortens the silence —
                // the safe direction.
                let period_ms = ((period_s * 1_000.0).floor() as u64).min(SEQ_MASK as u64) as u32;
                out.push(Response::SafePeriodGrant { period_ms });
            }
        }
        let elapsed = self.clock.elapsed_since(entered_ns);
        self.metrics.update_rtt.record_duration(elapsed);
        self.rtt_exemplars.observe(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX), trace);
        let (a, b) = (u64::from(session), u64::from(seq));
        self.span(lane, derived_ctx(trace), SpanKind::UpdateDispatch, entered_ns, a, b);
    }

    /// Runs `f` on the regions of the unfired alarms relevant to `user`
    /// that meet `cell` — collected straight from the cell's bucket into
    /// per-thread scratch — and on whether that obstacle set is exactly
    /// the cell's public one (no personal obstacle, no fired public
    /// alarm).
    fn with_unfired_obstacles<R>(
        &self,
        user: SubscriberId,
        cell: CellId,
        f: impl FnOnce(&[Rect], bool) -> R,
    ) -> R {
        OBSTACLE_SCRATCH.with(|scratch| {
            let mut obstacles = scratch.borrow_mut();
            obstacles.clear();
            let mut public_view = true;
            self.with_fired(user, |s, fired| {
                let has_fired = |id: AlarmId| fired.binary_search(&id).is_ok();
                s.cell_visit(cell, |a| {
                    let obstacle = is_obstacle(a, user, has_fired);
                    if obstacle {
                        obstacles.push(a.region());
                    }
                    // An alarm irrelevant to the user is never public.
                    public_view &= obstacle == a.is_public();
                });
            });
            f(&obstacles, public_view)
        })
    }

    /// The PBSR terminal payload for one (user, cell): the region computed
    /// at height `eff` in the wire layout of `height`, the height the
    /// client decodes with (`eff` is lower on a degraded admission).
    /// Served from the public-bitmap cache when the user's view of the
    /// cell equals the public view (no personal obstacles, no fired
    /// public alarms), computed fresh otherwise.
    fn pbsr_payload(
        &self,
        lane: usize,
        user: SubscriberId,
        cell: CellId,
        eff: u32,
        height: u32,
        ctx: TraceCtxExt,
    ) -> BitVec {
        let computer = PyramidComputer::new(pbsr_pyramid(eff));
        let cell_rect = self.grid.cell_rect(cell);
        let cell_index = self.grid.cell_index(cell);
        // Read *before* the snapshot is pinned: writers publish, then
        // bump, so an epoch read first can be older than the obstacles
        // (a rejected insert) but never newer (a cached bitmap missing
        // an alarm the epoch claims to cover).
        let epoch = self.cache.epoch(cell_index);
        self.with_unfired_obstacles(user, cell, |obstacles, public_view| {
            if !public_view {
                self.metrics.region_computations.inc();
                return pad_bitmap_wire_bits(&computer.compute(cell_rect, obstacles), height);
            }
            // The user's obstacle set is exactly the cell's public set:
            // the cacheable case the paper precomputes offline. At the
            // asked height a hit is the payload as it is; a degraded
            // admission's coarser bitmap is decoded and padded.
            let lookup_started_ns = self.clock.now_ns();
            let cached = if eff == height {
                self.cache.lookup_wire(cell_index, height)
            } else {
                let coarse = self.cache.lookup(cell_index, eff);
                coarse.map(|region| pad_bitmap_wire_bits(&region, height))
            };
            self.metrics
                .cache_lookup
                .record_duration(self.clock.elapsed_since(lookup_started_ns));
            let (a, b) = (cell_index, u64::from(cached.is_some()));
            self.span(lane, ctx, SpanKind::CacheLookup, lookup_started_ns, a, b);
            if let Some(bits) = cached {
                return bits;
            }
            self.metrics.region_computations.inc();
            let region = computer.compute(cell_rect, obstacles);
            let bits = pad_bitmap_wire_bits(&region, height);
            self.cache.insert(cell_index, eff, epoch, region);
            bits
        })
    }
}

/// Re-encodes a pyramid region computed at a *lower* height into the
/// nominal wire layout of `target_height`, by appending the phantom
/// all-zero child blocks the deeper levels would carry.
///
/// In the paper's layout every zero bit at level `l < h` owns a
/// `U × V` child block at level `l + 1`; when the region was computed
/// at height `d < h`, levels `d+1..=h` are exactly those phantom
/// blocks — all zeros, sized `zeros(level) × fanout` cascading. The
/// padded encoding therefore decodes (at `target_height`) to the
/// *same* geometric region the height-`d` computation produced:
/// coarser than a native height-`h` region, but sound, and cheaper by
/// `h − d` levels of geometry probes. This is the degraded-admission
/// encoding bridge (see `DESIGN.md` S18): the client keeps decoding at
/// the height it asked for.
pub(crate) fn pad_bitmap_wire_bits(
    region: &sa_core::BitmapSafeRegion,
    target_height: u32,
) -> BitVec {
    let mut bits = region.to_wire_bits();
    let cfg = region.config();
    if region.is_whole_cell_free() || cfg.height >= target_height {
        return bits;
    }
    let fanout = u64::from(cfg.split_u) * u64::from(cfg.split_v);
    let mut zeros = region.nominal_level_zeros().last().copied().unwrap_or(0);
    for _ in cfg.height..target_height {
        let block = zeros.saturating_mul(fanout);
        bits.push_zeros(block as usize);
        zeros = block;
    }
    bits
}

/// The context a data-plane exchange's router-side spans record under:
/// its derived trace (see [`trace_id_for`]), parented on the client
/// root. The update's dispatch span hangs here, and so do the
/// zero-duration router events — a bounce, an alarm write, a
/// client-reported firing — whose exchanges have no dispatch span.
fn derived_ctx(trace_id: u64) -> TraceCtxExt {
    TraceCtxExt { trace_id, parent_span: client_root_span(trace_id) }
}

/// The context a control exchange records under: the wire-carried one,
/// or — from an untraced peer (all zero) — the exchange's own derived
/// trace, so a handoff leg or topology install is recorded whoever
/// sent it.
fn control_ctx(wire: TraceCtxExt, session: u32, seq: u32) -> TraceCtxExt {
    if wire.trace_id == 0 {
        derived_ctx(trace_id_for(session, seq))
    } else {
        wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_core::{BitmapSafeRegion, PyramidComputer, SafeRegion};

    fn region(height: u32, alarms: &[Rect]) -> BitmapSafeRegion {
        let cell = Rect::new(0.0, 0.0, 9.0, 9.0).unwrap();
        PyramidComputer::new(pbsr_pyramid(height)).compute(cell, alarms)
    }

    #[test]
    fn padded_bits_decode_at_the_requested_height_to_the_coarse_region() {
        let cell = Rect::new(0.0, 0.0, 9.0, 9.0).unwrap();
        let alarm = Rect::new(1.0, 1.0, 2.0, 2.0).unwrap();
        let coarse = region(2, &[alarm]);
        let bits = pad_bitmap_wire_bits(&coarse, 5);
        let decoded = BitmapSafeRegion::from_wire_bits(
            cell,
            pbsr_pyramid(5),
            &bits,
        )
        .expect("padded bits must decode at the requested height");
        assert!(
            (decoded.coverage() - coarse.coverage()).abs() < 1e-9,
            "padding must not change the region's area: {} vs {}",
            decoded.coverage(),
            coarse.coverage()
        );
        // Spot-check containment agreement on a grid of probe points.
        for ix in 0..30 {
            for iy in 0..30 {
                let p = Point::new(0.15 + ix as f64 * 0.3, 0.15 + iy as f64 * 0.3);
                assert_eq!(
                    decoded.contains(p),
                    coarse.contains(p),
                    "padded and coarse regions disagree at {p:?}"
                );
            }
        }
    }

    #[test]
    fn padding_is_identity_at_or_above_the_target_height() {
        let alarm = Rect::new(1.0, 1.0, 2.0, 2.0).unwrap();
        let native = region(3, &[alarm]);
        assert_eq!(pad_bitmap_wire_bits(&native, 3), native.to_wire_bits());
        assert_eq!(pad_bitmap_wire_bits(&native, 2), native.to_wire_bits());
    }

    /// A `BitmapInstall` carries, bit for bit, the padded encoding of a
    /// region computed fresh from the cell's obstacles — whether the
    /// cache missed, hit, was bumped by a public install, or served a
    /// degraded admission from its decoded coarse bitmap.
    #[test]
    fn pbsr_installs_carry_the_bits_of_a_fresh_computation() {
        const HEIGHT: u32 = 4;
        let grid = Grid::new(Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap(), 1_000.0).unwrap();
        let first = Rect::new(1_200.0, 1_300.0, 1_400.0, 1_450.0).unwrap();
        let second = Rect::new(1_550.0, 1_100.0, 1_900.0, 1_250.0).unwrap();
        let public = AlarmScope::Public { owner: SubscriberId(99) };
        let target = AlarmTarget::Static(first.center());
        let alarm = SpatialAlarm::new(AlarmId(0), first, target, public);
        let server = Server::start(grid.clone(), vec![alarm], 30.0, ServerConfig::default());
        let pos = Point::new(1_700.0, 1_700.0);
        let cell = grid.cell_of(pos);
        let fresh = |obstacles: &[Rect], eff: u32| {
            let computer = PyramidComputer::new(pbsr_pyramid(eff));
            pad_bitmap_wire_bits(&computer.compute(grid.cell_rect(cell), obstacles), HEIGHT)
        };
        let hello = |user, strategy| {
            let session = server.open_session();
            let resps = server.handle(session, Request::Hello { seq: 0, user, strategy });
            assert_eq!(resps, vec![Response::Ack { seq: 0 }]);
            session
        };
        let session = hello(7, StrategySpec::Pbsr { height: HEIGHT });
        // A resync always answers with a full region refresh.
        let (x_fx, y_fx) = (crate::wire::quantize_m(pos.x), crate::wire::quantize_m(pos.y));
        let resync = Request::Resync { seq: 1, x_fx, y_fx, motion: 0, acked: 0 };
        let refresh = || match server.handle(session, resync.clone()).pop() {
            Some(Response::BitmapInstall { bits, .. }) => bits,
            other => panic!("a PBSR resync must install a bitmap, got {other:?}"),
        };
        let hits_and_misses = || (server.cache_stats().hits, server.cache_stats().misses);

        assert_eq!(refresh(), fresh(&[first], HEIGHT), "cache miss");
        assert_eq!(hits_and_misses(), (0, 1));
        assert_eq!(refresh(), fresh(&[first], HEIGHT), "cache hit");
        assert_eq!(hits_and_misses(), (1, 1));

        let admin = hello(99, StrategySpec::Mwpsr);
        let rect = quantize_rect(second);
        let install = Request::InstallAlarm { seq: 1, alarm: 1, flags: (99 << 1) | 1, rect };
        assert_eq!(server.handle(admin, install), vec![Response::Ack { seq: 1 }]);
        assert_eq!(refresh(), fresh(&[first, second], HEIGHT), "miss after the bump");
        assert_eq!(refresh(), fresh(&[first, second], HEIGHT), "hit after the bump");
        assert_eq!(hits_and_misses(), (2, 2));
        // What `sa-benchmark`'s probe reads back: the inserted region.
        let cached = server.cache.lookup(grid.cell_index(cell), HEIGHT).expect("a current entry");
        assert_eq!(cached.to_wire_bits(), fresh(&[first, second], HEIGHT));

        assert!(server.degrade_session(session, 2));
        assert_eq!(refresh(), fresh(&[first, second], 2), "degraded miss");
        assert_eq!(refresh(), fresh(&[first, second], 2), "degraded hit");
        assert_eq!(hits_and_misses(), (4, 3));
        assert_ne!(fresh(&[first, second], 2), fresh(&[first, second], HEIGHT));
    }

    #[test]
    fn whole_cell_free_needs_no_padding() {
        // No alarms → the root bit alone encodes the region at any height.
        let free = region(2, &[]);
        assert!(free.is_whole_cell_free());
        let bits = pad_bitmap_wire_bits(&free, 6);
        assert_eq!(bits, free.to_wire_bits());
        let cell = Rect::new(0.0, 0.0, 9.0, 9.0).unwrap();
        let decoded = BitmapSafeRegion::from_wire_bits(cell, pbsr_pyramid(6), &bits)
            .expect("root-free bits are height-independent");
        assert!(decoded.is_whole_cell_free());
    }
}
