//! Typed causal spans and the per-process span recorder.
//!
//! A span is one timed unit of work — an update dispatch, a safe-region
//! computation, a cache probe, a handoff leg — keyed by a
//! [`TraceCtx`]: the trace it belongs to, its own span id, and its
//! parent's span id. Spans recorded on different federation members are
//! merged after the fact into one causally ordered tree (see
//! [`crate::export`]).
//!
//! # Context propagation without wire changes
//!
//! The paper's cost model charges every data-plane frame an exact bit
//! count, so the data plane cannot grow a trace-context header. Instead
//! the context is **derived**: [`trace_id_for`]`(session, seq)` is a
//! pure hash every member computes identically, and the root/dispatch
//! span ids are pure functions of it ([`client_root_span`],
//! [`dispatch_span`]) — so the client's root span and the owner's
//! dispatch span join up in assembly although no byte crossed the wire
//! for it. Only federation *control* exchanges (handoff legs, topology
//! pushes — outside the paper's cost model) carry an explicit context
//! extension. Retries reuse `(session, seq)` and therefore land in the
//! same trace, which is exactly the story a forensic reader wants.
//!
//! # Recording
//!
//! [`SpanRecorder`] is the one event recorder: per-lane drop-oldest
//! buffers behind short mutexes (a busy lane can never crowd out its
//! siblings' history), a [`TraceMode`] gate read with one
//! atomic load when tracing is off, and fresh span ids minted from an
//! atomic counter namespaced by member id so ids never collide across
//! the federation. Point events — a firing, a `WrongOwner` bounce,
//! an alarm write — are zero-duration spans in the tree of the exchange
//! that caused them, so a forensic reader finds them *inside* the
//! update, not in a side log.
//!
//! Timestamps come from a [`TimeSource`] so a runtime driven by a
//! virtual clock records identical spans per seed.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Where span timestamps come from: a shared closure returning
/// microseconds on some monotonic axis.
///
/// sa-obs cannot depend on the server's `Clock` seam (the dependency
/// points the other way), so the seam is threaded in as a closure: the
/// server wraps its clock, tests wrap a counter.
#[derive(Clone)]
pub struct TimeSource {
    now_us: Arc<dyn Fn() -> u64 + Send + Sync>,
}

impl TimeSource {
    /// A source reading `now_us` — typically a closure over a shared
    /// clock, converting its nanoseconds to microseconds.
    pub fn new(now_us: impl Fn() -> u64 + Send + Sync + 'static) -> TimeSource {
        TimeSource { now_us: Arc::new(now_us) }
    }

    /// Current time in microseconds.
    pub fn now_us(&self) -> u64 {
        (self.now_us)()
    }
}

impl fmt::Debug for TimeSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeSource").finish_non_exhaustive()
    }
}

/// The causal identity of one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// The trace (one client request's causal story) this span is in.
    pub trace_id: u64,
    /// This span's id, unique within the trace.
    pub span_id: u64,
    /// The parent span's id; 0 marks a root.
    pub parent: u64,
}

/// What kind of work a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The client-side root: one routed position update, including any
    /// redirect bounces.
    ClientUpdate,
    /// A member's handling of one update (router entry → reply).
    UpdateDispatch,
    /// One safe-region computation (any strategy).
    RegionCompute,
    /// One region-cache probe.
    CacheLookup,
    /// One `WrongOwner` bounce absorbed by the client-side router.
    RedirectHop,
    /// The export leg of a session handoff (old owner).
    HandoffExport,
    /// The import leg of a session handoff (new owner).
    HandoffImport,
    /// The release leg of a session handoff (old owner).
    HandoffRelease,
    /// The coordinator pushing a new epoch to one member.
    TopologyPush,
    /// A member installing a pushed topology epoch.
    TopologyInstall,
    /// Redelivery of unacknowledged firings on a resync.
    Redelivery,
    /// An alarm fired, first time, for a subscriber (zero duration;
    /// `a` = subscriber, `b` = alarm id).
    Trigger,
    /// A position-bearing request bounced to the cell's owner (zero
    /// duration; `a` = owner, `b` = epoch).
    WrongOwner,
    /// An alarm installed over the wire (zero duration; `a` = alarm
    /// id, `b` = session).
    AlarmInstall,
    /// An alarm removed over the wire (zero duration; `a` = alarm id,
    /// `b` = session).
    AlarmRemove,
}

impl SpanKind {
    /// Stable display name (used in Chrome trace JSON and tree dumps).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::ClientUpdate => "client_update",
            SpanKind::UpdateDispatch => "update_dispatch",
            SpanKind::RegionCompute => "region_compute",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::RedirectHop => "redirect_hop",
            SpanKind::HandoffExport => "handoff_export",
            SpanKind::HandoffImport => "handoff_import",
            SpanKind::HandoffRelease => "handoff_release",
            SpanKind::TopologyPush => "topology_push",
            SpanKind::TopologyInstall => "topology_install",
            SpanKind::Redelivery => "redelivery",
            SpanKind::Trigger => "trigger",
            SpanKind::WrongOwner => "wrong_owner",
            SpanKind::AlarmInstall => "alarm_install",
            SpanKind::AlarmRemove => "alarm_remove",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Causal identity.
    pub ctx: TraceCtx,
    /// What was timed.
    pub kind: SpanKind,
    /// Start, microseconds on the recorder's [`TimeSource`] axis.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Federation member (or pseudo-member for routers) that recorded it.
    pub member: u32,
    /// The recorder lane within the member the work is attributed to
    /// (0 when not lane-scoped).
    pub shard: u32,
    /// First operand (meaning depends on `kind`: session, epoch, cell…).
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

/// How much the recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing; the per-span cost is one relaxed atomic load.
    Off,
    /// Record every Nth trace (by `trace_id % n == 0`); `Sampled(1)`
    /// behaves like `Full`.
    Sampled(u64),
    /// Record every span.
    #[default]
    Full,
}

const MODE_OFF: u8 = 0;
const MODE_SAMPLED: u8 = 1;
const MODE_FULL: u8 = 2;

/// The per-process span recorder (see the module docs).
#[derive(Debug)]
pub struct SpanRecorder {
    lanes: Vec<Mutex<VecDeque<Span>>>,
    capacity: usize,
    time: TimeSource,
    mode: AtomicU8,
    sample_n: AtomicU64,
    member: AtomicU64,
    next_span: AtomicU64,
}

impl SpanRecorder {
    /// A recorder with `lanes` drop-oldest buffers of `capacity` spans
    /// each, reading timestamps from `time`, initially in
    /// [`TraceMode::Full`]. Lanes split the recording lock between
    /// concurrent recorders.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` or `capacity` is zero.
    pub fn new(lanes: usize, capacity: usize, time: TimeSource) -> SpanRecorder {
        assert!(lanes > 0, "need at least one span lane");
        assert!(capacity > 0, "lanes must hold at least one span");
        SpanRecorder {
            lanes: (0..lanes).map(|_| Mutex::new(VecDeque::with_capacity(capacity))).collect(),
            capacity,
            time,
            mode: AtomicU8::new(MODE_FULL),
            sample_n: AtomicU64::new(1),
            member: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
        }
    }

    /// Switches the recording mode. Takes effect for subsequent spans;
    /// already-buffered spans stay.
    pub fn set_mode(&self, mode: TraceMode) {
        match mode {
            TraceMode::Off => self.mode.store(MODE_OFF, Ordering::Relaxed),
            TraceMode::Sampled(n) => {
                self.sample_n.store(n.max(1), Ordering::Relaxed);
                self.mode.store(MODE_SAMPLED, Ordering::Relaxed);
            }
            TraceMode::Full => self.mode.store(MODE_FULL, Ordering::Relaxed),
        }
    }

    /// Sets the member id stamped on recorded spans (and namespacing
    /// fresh span ids). Call once when the process learns its
    /// federation id.
    pub fn set_member(&self, member: u32) {
        self.member.store(u64::from(member), Ordering::Relaxed);
    }

    /// The member id spans are stamped with.
    pub fn member(&self) -> u32 {
        self.member.load(Ordering::Relaxed) as u32
    }

    /// Whether spans of `trace_id` are currently recorded — the gate an
    /// instrumentation site checks before paying for a clock read.
    pub fn enabled(&self, trace_id: u64) -> bool {
        match self.mode.load(Ordering::Relaxed) {
            MODE_OFF => false,
            MODE_FULL => true,
            _ => trace_id.is_multiple_of(self.sample_n.load(Ordering::Relaxed)),
        }
    }

    /// Current time in microseconds on the recorder's axis.
    pub fn now_us(&self) -> u64 {
        self.time.now_us()
    }

    /// Mints a globally unique span id: the member id (plus one, so
    /// member 0 and "no namespace" differ) in the top 16 bits, an atomic
    /// counter below.
    pub fn fresh_span_id(&self) -> u64 {
        let member = self.member.load(Ordering::Relaxed) + 1;
        (member << 48) | (self.next_span.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF_FFFF)
    }

    /// Records one span on `lane`, dropping that lane's oldest span at
    /// capacity. An out-of-range lane is clamped to the last one (the
    /// router's) rather than panicking — tracing must never take a hot
    /// path down. Callers should
    /// check [`SpanRecorder::enabled`] first; this method re-checks so
    /// an unguarded call in a cold path stays correct.
    pub fn record(&self, lane: usize, span: Span) {
        if !self.enabled(span.ctx.trace_id) {
            return;
        }
        let lane = &self.lanes[lane.min(self.lanes.len() - 1)];
        let mut lane = lane.lock().expect("span lane poisoned");
        if lane.len() == self.capacity {
            lane.pop_front();
        }
        lane.push_back(span);
    }

    /// All retained spans merged across lanes, ordered by start time
    /// (stable across runs under a virtual clock: ties keep lane order).
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .lanes
            .iter()
            .flat_map(|l| l.lock().expect("span lane poisoned").iter().copied().collect::<Vec<_>>())
            .collect();
        all.sort_by_key(|s| (s.start_us, s.ctx.span_id));
        all
    }

    /// Total spans currently retained.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.lock().expect("span lane poisoned").len()).sum()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The deterministic trace id of the data-plane request `(session, seq)`
/// — FNV-1a over both, so every member (and the client router) derives
/// the same id with no wire bytes spent. Never 0.
pub fn trace_id_for(session: u32, seq: u32) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in session.to_be_bytes().into_iter().chain(seq.to_be_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h.max(1)
}

/// The span id of the client-side root span of `trace_id` — derived, so
/// a member can parent its dispatch span under the client root without
/// the id crossing the wire.
pub fn client_root_span(trace_id: u64) -> u64 {
    trace_id ^ 0x5EED_0000_0000_0001
}

/// The span id of `member`'s dispatch span within `trace_id` — derived,
/// so the compute spans on the member and redirect hops on the
/// client agree on the parent without coordination.
pub fn dispatch_span(trace_id: u64, member: u32) -> u64 {
    trace_id
        .rotate_left(17)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(member))
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn ticking() -> TimeSource {
        let tick = AtomicU64::new(0);
        TimeSource::new(move || tick.fetch_add(10, Ordering::Relaxed))
    }

    fn span(recorder: &SpanRecorder, trace_id: u64, kind: SpanKind) -> Span {
        Span {
            ctx: TraceCtx { trace_id, span_id: recorder.fresh_span_id(), parent: 0 },
            kind,
            start_us: recorder.now_us(),
            dur_us: 5,
            member: recorder.member(),
            shard: 0,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn derived_ids_are_pure_and_distinct() {
        assert_eq!(trace_id_for(7, 42), trace_id_for(7, 42));
        assert_ne!(trace_id_for(7, 42), trace_id_for(7, 43));
        assert_ne!(trace_id_for(7, 42), trace_id_for(8, 42));
        let t = trace_id_for(7, 42);
        assert_ne!(client_root_span(t), dispatch_span(t, 0));
        assert_ne!(dispatch_span(t, 0), dispatch_span(t, 1));
        assert_eq!(dispatch_span(t, 2), dispatch_span(t, 2));
        assert_ne!(t, 0);
    }

    #[test]
    fn off_mode_records_nothing_and_full_records_all() {
        let r = SpanRecorder::new(2, 8, ticking());
        r.set_mode(TraceMode::Off);
        assert!(!r.enabled(1));
        r.record(0, span(&r, 1, SpanKind::ClientUpdate));
        assert!(r.is_empty());
        r.set_mode(TraceMode::Full);
        assert!(r.enabled(1));
        r.record(0, span(&r, 1, SpanKind::ClientUpdate));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn sampled_mode_gates_by_trace_id() {
        let r = SpanRecorder::new(1, 16, ticking());
        r.set_mode(TraceMode::Sampled(4));
        assert!(r.enabled(8));
        assert!(!r.enabled(9));
        r.record(0, span(&r, 8, SpanKind::RegionCompute));
        r.record(0, span(&r, 9, SpanKind::RegionCompute));
        assert_eq!(r.len(), 1, "only the sampled trace is retained");
        // Sampled(0) clamps to every-trace rather than dividing by zero.
        r.set_mode(TraceMode::Sampled(0));
        assert!(r.enabled(9));
    }

    #[test]
    fn lanes_drop_oldest_and_out_of_range_lanes_clamp() {
        let r = SpanRecorder::new(2, 2, ticking());
        for i in 0..4 {
            let mut s = span(&r, 1, SpanKind::RegionCompute);
            s.a = i;
            r.record(0, s);
        }
        r.record(99, span(&r, 1, SpanKind::ClientUpdate));
        assert_eq!(r.len(), 3, "lane 0 capped at 2, clamped lane holds 1");
        let kept: Vec<u64> =
            r.spans().iter().filter(|s| s.kind == SpanKind::RegionCompute).map(|s| s.a).collect();
        assert_eq!(kept, vec![2, 3]);
    }

    #[test]
    fn fresh_span_ids_are_namespaced_by_member() {
        let a = SpanRecorder::new(1, 4, ticking());
        let b = SpanRecorder::new(1, 4, ticking());
        a.set_member(0);
        b.set_member(1);
        assert_eq!(a.member(), 0);
        let ida = a.fresh_span_id();
        let idb = b.fresh_span_id();
        assert_ne!(ida, idb, "same counter value, different namespaces");
        assert_eq!(ida >> 48, 1, "member 0 occupies namespace 1");
        assert_eq!(idb >> 48, 2);
    }
}
