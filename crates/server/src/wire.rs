//! The binary wire protocol of the live safe-region service.
//!
//! Every message travels as a **frame**: a big-endian `u32` length prefix
//! followed by that many body bytes. The first body word is the *head*:
//! the message type in the high nibble and a 28-bit sequence number in the
//! low bits. The one exception is [`Response::SafePeriodGrant`], which the
//! paper budgets at exactly 32 bits ([`payload::SAFE_PERIOD_BITS`]): its
//! single word carries the type nibble and a 28-bit period in
//! milliseconds, with no sequence number.
//!
//! The fixed-size messages encode to **exactly** the bit budgets the
//! simulation's bandwidth model charges (`sa_sim::message::payload`), so
//! the live server and the analytical model account bandwidth
//! identically; the codec tests assert each equality. Variable-size
//! messages (bitmap installs, alarm pushes) expose the charged size via
//! [`Response::charged_bits`], matching the model's
//! `REGION_HEADER_BITS + payload` formulas. On-wire those messages carry
//! a small amount of framing the model does not charge (an explicit bit
//! length, byte padding); [`Response::encoded_len`] documents the exact
//! byte layout.
//!
//! Coordinates are quantized to unsigned Q16.16 fixed point, the lattice
//! of [`sa_geometry::LATTICE_STEPS_PER_M`] (steps of ≈ 15 µm; the
//! generated worlds put every sample and alarm corner on it, so they
//! cross the wire exactly), headings to 16 bits over a full turn, speeds
//! to cm/s.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sa_core::BitVec;
use sa_geometry::{GeometryError, Rect, LATTICE_STEPS_PER_M};
use sa_sim::payload;
use std::fmt;

/// Sequence numbers occupy the low 28 bits of the head word.
pub const SEQ_MASK: u32 = 0x0FFF_FFFF;

/// Decode-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the layout was complete.
    Truncated,
    /// The type nibble does not name a message of the expected direction.
    UnknownType(u8),
    /// A structurally invalid body (bad length fields, trailing bytes…).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Quantizes a universe coordinate (meters) to unsigned Q16.16.
///
/// The simulated universes are at most ~32 km on a side, so the integer
/// part fits 16 bits with room to spare (2^16 = 65 536 m).
pub fn quantize_m(meters: f64) -> u32 {
    debug_assert!(
        (0.0..=f64::from(u32::MAX) / LATTICE_STEPS_PER_M).contains(&meters),
        "coordinate {meters} out of Q16.16 range"
    );
    (meters * LATTICE_STEPS_PER_M).round() as u32
}

/// Inverse of [`quantize_m`].
pub fn dequantize_m(fx: u32) -> f64 {
    fx as f64 / LATTICE_STEPS_PER_M
}

/// Quantizes a rect to its wire corners, `[min_x, min_y, max_x, max_y]`
/// in Q16.16 meters.
pub fn quantize_rect(rect: Rect) -> [u32; 4] {
    [
        quantize_m(rect.min_x()),
        quantize_m(rect.min_y()),
        quantize_m(rect.max_x()),
        quantize_m(rect.max_y()),
    ]
}

/// Inverse of [`quantize_rect`].
///
/// # Errors
///
/// Fails when the corners are inverted: no rect has them.
pub fn dequantize_rect(rect: [u32; 4]) -> Result<Rect, GeometryError> {
    let [min_x, min_y, max_x, max_y] = rect.map(dequantize_m);
    Rect::new(min_x, min_y, max_x, max_y)
}

/// Packs heading (radians) and speed (m/s) into one word: heading in the
/// high 16 bits (full turn mapped to 0..=65535), speed in cm/s in the low
/// 16 bits (clamped at ~655 m/s).
pub fn pack_motion(heading: f64, speed_mps: f64) -> u32 {
    let turn = heading.rem_euclid(std::f64::consts::TAU) / std::f64::consts::TAU;
    let h = ((turn * 65_535.0).round() as u32).min(65_535);
    let s = ((speed_mps.max(0.0) * 100.0).round() as u32).min(65_535);
    (h << 16) | s
}

/// Inverse of [`pack_motion`]: `(heading_radians, speed_mps)`.
pub fn unpack_motion(motion: u32) -> (f64, f64) {
    let heading = (motion >> 16) as f64 / 65_535.0 * std::f64::consts::TAU;
    let speed = (motion & 0xFFFF) as f64 / 100.0;
    (heading, speed)
}

/// The monitoring strategy a session asks the server to run for it,
/// negotiated in [`Request::Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategySpec {
    /// §3 rectangular safe regions (maximum perimeter variant).
    Mwpsr,
    /// §4 pyramid bitmap safe regions of the given height.
    Pbsr {
        /// Pyramid height (levels of 3×3 refinement).
        height: u32,
    },
    /// The §4 optimal baseline: push every alarm in the client's cell.
    Opt,
    /// The safe-period baseline \[3\].
    SafePeriod,
}

impl StrategySpec {
    fn encode(self) -> (u32, u32) {
        match self {
            StrategySpec::Mwpsr => (0, 0),
            StrategySpec::Pbsr { height } => (1, height),
            StrategySpec::Opt => (2, 0),
            StrategySpec::SafePeriod => (3, 0),
        }
    }

    fn decode(tag: u32, param: u32) -> Result<StrategySpec, WireError> {
        match tag {
            0 => Ok(StrategySpec::Mwpsr),
            1 if (1..=16).contains(&param) => Ok(StrategySpec::Pbsr { height: param }),
            1 => Err(WireError::Malformed("pyramid height out of range")),
            2 => Ok(StrategySpec::Opt),
            3 => Ok(StrategySpec::SafePeriod),
            _ => Err(WireError::Malformed("unknown strategy tag")),
        }
    }
}

/// One entry of a [`Request::Batch`]: a location update re-targeted at an
/// explicit session (the batch connection multiplexes many clients).
/// Exactly 20 bytes on the wire — a [`Request::LocationUpdate`] body plus
/// the session word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchedUpdate {
    /// The session this update belongs to.
    pub session: u32,
    /// Per-session request sequence number (28 bits).
    pub seq: u32,
    /// X coordinate, Q16.16 meters.
    pub x_fx: u32,
    /// Y coordinate, Q16.16 meters.
    pub y_fx: u32,
    /// Packed heading/speed (see [`pack_motion`]).
    pub motion: u32,
}

/// One reply group of a [`Response::Batch`]: the responses one batched
/// update produced, tagged with the session it belongs to. Groups appear
/// in batch entry order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReply {
    /// The session the group belongs to (echoed from the entry).
    pub session: u32,
    /// Zero or more [`Response::TriggerDelivery`] frames followed by
    /// exactly one terminal response — the same sequence a standalone
    /// [`Request::LocationUpdate`] would have produced. Nested batches
    /// are rejected by the codec.
    pub responses: Vec<Response>,
}

/// One contiguous range of space-filling-curve keys owned by one server
/// of a federation. Exactly 20 bytes on the wire: the 64-bit inclusive
/// start key, the 64-bit exclusive end key, and the owner id.
///
/// Ranges are keyed by `Grid::morton_of` codes, not flattened cell
/// indexes: Morton order keeps each range spatially compact, so a
/// vehicle crosses partition boundaries rarely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRange {
    /// First Morton key of the range (inclusive).
    pub start: u64,
    /// One past the last Morton key of the range (exclusive).
    pub end: u64,
    /// The federation server id owning every cell in the range.
    pub owner: u32,
}

/// The owner of Morton key `key` under `ranges` (sorted by start), or
/// `None` where the ranges leave a gap — only a map that does not cover
/// the whole key space has one.
pub fn owner_of(ranges: &[CellRange], key: u64) -> Option<u32> {
    let r = ranges.get(ranges.partition_point(|r| r.start <= key).checked_sub(1)?)?;
    (key < r.end).then_some(r.owner)
}

/// The explicit trace-context extension the federation *control plane*
/// carries: 16 bytes naming the trace and the parent span the exchange
/// causally belongs to.
///
/// Only [`Request::Topology`], the handoff trio and
/// [`Request::InstallTopology`] carry this — control exchanges sit
/// outside the paper's bandwidth model, so they may grow. Data-plane
/// frames stay byte-identical; their context is *derived* from
/// `(session, seq)` instead (see `sa_obs::trace_id_for`). The all-zero
/// default means "untraced" and is what non-instrumented callers send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtxExt {
    /// The trace this exchange belongs to (0 = untraced).
    pub trace_id: u64,
    /// The sender-side span the receiver should parent its span under
    /// (0 = untraced or rootless).
    pub parent_span: u64,
}

/// The migratable state of one session, carried by
/// [`Request::HandoffImport`] and [`Response::SessionState`] when a
/// session moves between federation servers.
///
/// The blob is everything the exactly-once firing guarantee depends on:
/// the delivery log (so a post-handoff [`Request::Resync`] re-delivers
/// from the same cursor), the subscriber's fired alarms (so the new
/// owner never re-fires them), and the quick-update cell. Both vectors
/// are in deterministic order — the fired set is sorted by the exporter
/// — so the encoding is a pure function of the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    /// Subscriber id of the session.
    pub user: u32,
    /// Monitoring strategy the session negotiated at hello.
    pub strategy: StrategySpec,
    /// Last cell a safe region was installed for (`None` encodes as
    /// `u32::MAX`, far above any flattened cell index).
    pub last_cell: Option<u32>,
    /// The session's delivery log, in delivery order.
    pub delivery_log: Vec<u32>,
    /// The subscriber's fired alarm ids, sorted ascending.
    pub fired: Vec<u32>,
}

impl SessionState {
    /// Exact encoded size in bytes within a carrying frame.
    pub fn encoded_len(&self) -> usize {
        24 + 4 * (self.delivery_log.len() + self.fired.len())
    }
}

/// One alarm entry of a [`Response::AlarmPush`]. The high bit of the
/// alarm word flags relevance (the OPT client spatially tests irrelevant
/// alarms too but never fires them); alarm ids therefore live in 31 bits
/// on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushedAlarm {
    /// Alarm id (31 bits on the wire).
    pub alarm: u32,
    /// Whether this alarm can fire for the receiving subscriber.
    pub relevant: bool,
    /// Alarm region corners as Q16.16: `[min_x, min_y, max_x, max_y]`.
    pub rect: [u32; 4],
}

/// Client → server messages. Type nibbles 0–7, plus nibbles 8–13 reused
/// direction-aware for [`Request::Batch`] and the federation control
/// plane ([`Request::Topology`], the session-handoff trio, and
/// [`Request::InstallTopology`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens a session: who the subscriber is and which strategy to run.
    Hello {
        /// Request sequence number (28 bits).
        seq: u32,
        /// Subscriber id.
        user: u32,
        /// Monitoring strategy for this session.
        strategy: StrategySpec,
    },
    /// One GPS fix, sent only when the client's local monitor demands
    /// server contact. Exactly [`payload::LOCATION_UPDATE_BITS`] on the
    /// wire.
    LocationUpdate {
        /// Request sequence number (28 bits).
        seq: u32,
        /// X coordinate, Q16.16 meters.
        x_fx: u32,
        /// Y coordinate, Q16.16 meters.
        y_fx: u32,
        /// Packed heading/speed (see [`pack_motion`]).
        motion: u32,
    },
    /// Client-side trigger detection (OPT): exactly
    /// [`payload::TRIGGER_NOTIFY_BITS`] on the wire.
    TriggerNotify {
        /// Request sequence number (28 bits).
        seq: u32,
        /// The alarm the client detected.
        alarm: u32,
    },
    /// Installs a static-target alarm at runtime.
    InstallAlarm {
        /// Request sequence number (28 bits).
        seq: u32,
        /// Alarm id to install.
        alarm: u32,
        /// Bit 0: public; bits 1..: owner subscriber id.
        flags: u32,
        /// Region corners as Q16.16: `[min_x, min_y, max_x, max_y]`.
        rect: [u32; 4],
    },
    /// Removes (deactivates) an alarm.
    RemoveAlarm {
        /// Request sequence number (28 bits).
        seq: u32,
        /// Alarm id to remove.
        alarm: u32,
    },
    /// Closes the session.
    Bye {
        /// Request sequence number (28 bits).
        seq: u32,
    },
    /// `StatsRequest`: asks for a metrics snapshot. Requires no session —
    /// a scrape tool connects, asks, disconnects. Answered inline by the
    /// router with a [`Response::Stats`] carrying the Prometheus text.
    Stats {
        /// Request sequence number (28 bits).
        seq: u32,
    },
    /// Post-failure recovery update: a [`Request::LocationUpdate`] whose
    /// sender suspects it missed responses. The server (a) re-delivers
    /// every session-scoped [`Response::TriggerDelivery`] past the
    /// client's `acked` cursor before any new deliveries, and (b) skips
    /// the quick-update shortcut so the terminal response always carries
    /// a full, fresh safe region — a stale-epoch resync after a
    /// disconnect window is a first-class request here, never an error.
    Resync {
        /// Request sequence number (28 bits).
        seq: u32,
        /// X coordinate, Q16.16 meters.
        x_fx: u32,
        /// Y coordinate, Q16.16 meters.
        y_fx: u32,
        /// Packed heading/speed (see [`pack_motion`]).
        motion: u32,
        /// Number of deliveries of this session the client has already
        /// received (its delivery cursor); the server re-sends its
        /// session delivery log from this offset.
        acked: u32,
    },
    /// A whole simulation step of position updates sharing one frame
    /// header — the replay driver's bulk path. Each entry names the
    /// session it belongs to, so one driver connection can carry updates
    /// for many clients; the server runs the entries in frame order, each
    /// exactly as if it had arrived alone, and answers with a single
    /// [`Response::Batch`] whose groups preserve entry order.
    Batch {
        /// Request sequence number of the batch frame itself (28 bits).
        seq: u32,
        /// The batched updates, one per vehicle polled this step.
        updates: Vec<BatchedUpdate>,
    },
    /// Asks for the federation partition map. Requires no session — a
    /// router refreshes its map from whichever server bounced it with
    /// [`Response::WrongOwner`]. Answered inline with a
    /// [`Response::Topology`]; a standalone server answers with the
    /// trivial single-range epoch-0 map.
    Topology {
        /// Request sequence number (28 bits).
        seq: u32,
        /// Causal context of the refresh (control-plane only, outside
        /// the paper's cost model).
        trace: TraceCtxExt,
    },
    /// Asks the server to export the migratable state of `session` (the
    /// first leg of a handoff). Answered inline with a
    /// [`Response::SessionState`], or `Error { NO_SESSION }` when the
    /// session does not exist — which a retried handoff treats as
    /// "already released".
    HandoffExport {
        /// Request sequence number (28 bits).
        seq: u32,
        /// The session to export (the mesh connection's own session is
        /// irrelevant — handoff names its target explicitly).
        session: u32,
        /// Causal context of the migration this leg belongs to.
        trace: TraceCtxExt,
    },
    /// Installs exported session state at `session` on the new owner
    /// (the second leg of a handoff). Overwrites any existing state at
    /// that id and unions the blob's fired alarms into the server's
    /// fired set, so a retried import is idempotent. Answered inline
    /// with an [`Response::Ack`].
    HandoffImport {
        /// Request sequence number (28 bits).
        seq: u32,
        /// The session id to install the state at.
        session: u32,
        /// Causal context of the migration this leg belongs to.
        trace: TraceCtxExt,
        /// The migrated state.
        state: SessionState,
    },
    /// Drops `session` on the old owner (the final leg of a handoff).
    /// Idempotent — releasing an absent session still acks, and a lost
    /// release merely leaves a stale copy the next import overwrites.
    /// The subscriber's fired alarms are deliberately retained: extra
    /// fired entries can only suppress an already-fired alarm, never
    /// add a firing.
    HandoffRelease {
        /// Request sequence number (28 bits).
        seq: u32,
        /// The session to release.
        session: u32,
        /// Causal context of the migration this leg belongs to.
        trace: TraceCtxExt,
    },
    /// The repartitioning coordinator's topology push: installs the
    /// epoch-versioned partition map on a federation member. Applied
    /// only when `epoch` is newer than the server's current map, so
    /// replayed or reordered pushes are harmless. Answered inline with
    /// an [`Response::Ack`] (or `Error { BAD_REQUEST }` on a server
    /// with federation disabled).
    InstallTopology {
        /// Request sequence number (28 bits).
        seq: u32,
        /// Version of the pushed map.
        epoch: u64,
        /// Causal context of the coordinator's push.
        trace: TraceCtxExt,
        /// The pushed ownership ranges, sorted by start key, covering
        /// the whole key space.
        ranges: Vec<CellRange>,
    },
}

/// Server → client messages. Type nibbles 8–15, plus nibbles 1–4 reused
/// direction-aware for [`Response::Batch`] and the federation control
/// plane ([`Response::Topology`], [`Response::WrongOwner`],
/// [`Response::SessionState`]).
///
/// A request is answered by zero or more [`Response::TriggerDelivery`]
/// frames followed by exactly one *terminal* frame (any other variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Positive acknowledgement with no payload.
    Ack {
        /// Echoed request sequence number.
        seq: u32,
    },
    /// A rectangular safe region (§3). Exactly
    /// `REGION_HEADER_BITS + 128` on the wire.
    RectInstall {
        /// Echoed request sequence number.
        seq: u32,
        /// Flattened grid-cell index the region was scoped to.
        cell: u32,
        /// Region corners as Q16.16: `[min_x, min_y, max_x, max_y]`.
        rect: [u32; 4],
    },
    /// A pyramid-bitmap safe region (§4) for the client's base cell.
    BitmapInstall {
        /// Echoed request sequence number.
        seq: u32,
        /// Flattened grid-cell index of the base cell.
        cell: u32,
        /// The nominal-layout bitmap
        /// (see `BitmapSafeRegion::to_wire_bits`).
        bits: BitVec,
    },
    /// The OPT baseline's alarm-set push for one cell.
    AlarmPush {
        /// Echoed request sequence number.
        seq: u32,
        /// Flattened grid-cell index the set was gathered for.
        cell: u32,
        /// The unfired alarms intersecting the cell.
        alarms: Vec<PushedAlarm>,
    },
    /// A server-detected alarm firing, delivered before the terminal
    /// response. Exactly [`payload::TRIGGER_DELIVERY_BITS`] on the wire.
    TriggerDelivery {
        /// Echoed request sequence number.
        seq: u32,
        /// The alarm that fired.
        alarm: u32,
    },
    /// The safe-period baseline's grant: a single word carrying the
    /// period in milliseconds (28 bits), exactly
    /// [`payload::SAFE_PERIOD_BITS`] on the wire. Carries no sequence
    /// number — the paper budgets this message at one word.
    SafePeriodGrant {
        /// Granted silent period in milliseconds (flooring only shortens
        /// the silence, which is the safe direction).
        period_ms: u32,
    },
    /// The server could not take the request now; the client should back
    /// off and retry. Part of protocol v1, but `sa-server` never sends
    /// it: its overload response is the reactor's admission control.
    Overloaded {
        /// Echoed request sequence number.
        seq: u32,
    },
    /// The request was rejected (unknown session, bad state…).
    Error {
        /// Echoed request sequence number.
        seq: u32,
        /// Coarse reason code.
        code: u32,
    },
    /// `StatsReply`: the server's metrics snapshot in the Prometheus text
    /// exposition format — the same bytes `sa_obs::render` produces
    /// locally, so a scrape and an offline dump diff cleanly.
    Stats {
        /// Echoed request sequence number.
        seq: u32,
        /// Prometheus text (UTF-8).
        text: String,
    },
    /// The answer to a [`Request::Batch`]: per-entry response groups in
    /// the order the updates arrived. Each group carries the full
    /// response sequence its update would have produced standalone, as
    /// nested length-prefixed response bodies.
    Batch {
        /// Echoed batch sequence number.
        seq: u32,
        /// Per-update reply groups, in batch entry order.
        replies: Vec<BatchReply>,
    },
    /// The answer to a [`Request::Topology`]: the answering server's
    /// current epoch-versioned partition map.
    Topology {
        /// Echoed request sequence number.
        seq: u32,
        /// Version of the map.
        epoch: u64,
        /// The ownership ranges, sorted by start key, covering the
        /// whole key space.
        ranges: Vec<CellRange>,
    },
    /// A position-bearing request landed on a server that does not own
    /// the position's cell under its current map. The request was *not*
    /// processed; the router should hand the session off to `owner` and
    /// resend — and refresh its map when its epoch trails `epoch`.
    WrongOwner {
        /// Echoed request sequence number.
        seq: u32,
        /// The federation server id that owns the cell.
        owner: u32,
        /// The answering server's map epoch.
        epoch: u64,
    },
    /// The answer to a [`Request::HandoffExport`]: the migratable state
    /// of the named session.
    SessionState {
        /// Echoed request sequence number.
        seq: u32,
        /// The exported state.
        state: SessionState,
    },
}

/// Nibble 0 is the post-failure resync update — the only request type
/// left once 1–7 were taken. An all-zero head word therefore parses as
/// `Resync { seq: 0 }`, but the fixed body layout and the trailing-bytes
/// check still reject random garbage.
const T_RESYNC: u8 = 0;
const T_HELLO: u8 = 1;
const T_LOCATION: u8 = 2;
const T_NOTIFY: u8 = 3;
const T_INSTALL: u8 = 4;
const T_REMOVE: u8 = 5;
const T_BYE: u8 = 6;
/// Nibble 7 is the stats scrape in *both* directions: decoding is
/// direction-aware, so the request decoder reads it as `StatsRequest`
/// and the response decoder as `StatsReply`.
const T_STATS: u8 = 7;
const T_ACK: u8 = 8;
/// The batch frames reuse nibbles across directions (all 16 are taken),
/// exactly like [`T_STATS`]: in the *request* direction nibble 8 —
/// `T_ACK` on the response side — is the batched location update, and in
/// the *response* direction nibble 2 — `T_LOCATION` on the request side —
/// is the batched reply.
const T_BATCH_REQ: u8 = T_ACK;
const T_BATCH_RESP: u8 = T_LOCATION;
const T_RECT: u8 = 9;
const T_BITMAP: u8 = 10;
const T_PUSH: u8 = 11;
const T_DELIVERY: u8 = 12;
const T_GRANT: u8 = 13;
const T_OVERLOADED: u8 = 14;
const T_ERROR: u8 = 15;
/// The federation control plane reuses nibbles direction-aware, exactly
/// like [`T_STATS`] and the batch frames: request-direction control
/// messages borrow response nibbles 9–13, response-direction control
/// messages borrow request nibbles 1, 3 and 4.
const T_TOPOLOGY_REQ: u8 = T_RECT;
const T_EXPORT: u8 = T_BITMAP;
const T_IMPORT: u8 = T_PUSH;
const T_RELEASE: u8 = T_DELIVERY;
const T_SET_TOPOLOGY: u8 = T_GRANT;
const T_TOPOLOGY_RESP: u8 = T_HELLO;
const T_WRONG_OWNER: u8 = T_NOTIFY;
const T_SESSION_STATE: u8 = T_INSTALL;

fn head(ty: u8, seq: u32) -> u32 {
    debug_assert!(seq <= SEQ_MASK, "sequence {seq} overflows 28 bits");
    ((ty as u32) << 28) | (seq & SEQ_MASK)
}

fn split_head(word: u32) -> (u8, u32) {
    ((word >> 28) as u8, word & SEQ_MASK)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u32())
}

fn get_rect(buf: &mut &[u8]) -> Result<[u32; 4], WireError> {
    Ok([get_u32(buf)?, get_u32(buf)?, get_u32(buf)?, get_u32(buf)?])
}

fn put_rect(buf: &mut BytesMut, rect: &[u32; 4]) {
    for &w in rect {
        buf.put_u32(w);
    }
}

fn expect_empty(buf: &[u8]) -> Result<(), WireError> {
    if buf.is_empty() { Ok(()) } else { Err(WireError::Malformed("trailing bytes")) }
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    let hi = get_u32(buf)?;
    let lo = get_u32(buf)?;
    Ok((u64::from(hi) << 32) | u64::from(lo))
}

fn put_u64(buf: &mut BytesMut, v: u64) {
    buf.put_u32((v >> 32) as u32);
    buf.put_u32(v as u32);
}

fn put_trace(buf: &mut BytesMut, trace: &TraceCtxExt) {
    put_u64(buf, trace.trace_id);
    put_u64(buf, trace.parent_span);
}

fn get_trace(buf: &mut &[u8]) -> Result<TraceCtxExt, WireError> {
    Ok(TraceCtxExt { trace_id: get_u64(buf)?, parent_span: get_u64(buf)? })
}

fn put_ranges(buf: &mut BytesMut, ranges: &[CellRange]) {
    buf.put_u32(ranges.len() as u32);
    for r in ranges {
        put_u64(buf, r.start);
        put_u64(buf, r.end);
        buf.put_u32(r.owner);
    }
}

fn get_ranges(buf: &mut &[u8]) -> Result<Vec<CellRange>, WireError> {
    let count = get_u32(buf)? as usize;
    if buf.len() != count * 20 {
        return Err(WireError::Malformed("range list length mismatch"));
    }
    let mut ranges = Vec::with_capacity(count);
    for _ in 0..count {
        ranges.push(CellRange {
            start: get_u64(buf)?,
            end: get_u64(buf)?,
            owner: get_u32(buf)?,
        });
    }
    Ok(ranges)
}

/// `None` travels as `u32::MAX`, far above any flattened cell index.
const NO_CELL: u32 = u32::MAX;

fn put_session_state(buf: &mut BytesMut, state: &SessionState) {
    let (tag, param) = state.strategy.encode();
    buf.put_u32(state.user);
    buf.put_u32(tag);
    buf.put_u32(param);
    buf.put_u32(state.last_cell.unwrap_or(NO_CELL));
    buf.put_u32(state.delivery_log.len() as u32);
    for &d in &state.delivery_log {
        buf.put_u32(d);
    }
    buf.put_u32(state.fired.len() as u32);
    for &a in &state.fired {
        buf.put_u32(a);
    }
}

fn get_session_state(buf: &mut &[u8]) -> Result<SessionState, WireError> {
    let user = get_u32(buf)?;
    let tag = get_u32(buf)?;
    let param = get_u32(buf)?;
    let strategy = StrategySpec::decode(tag, param)?;
    let last_cell = match get_u32(buf)? {
        NO_CELL => None,
        cell => Some(cell),
    };
    let log_len = get_u32(buf)? as usize;
    if buf.len() < log_len * 4 + 4 {
        return Err(WireError::Malformed("delivery log length mismatch"));
    }
    let mut delivery_log = Vec::with_capacity(log_len);
    for _ in 0..log_len {
        delivery_log.push(get_u32(buf)?);
    }
    let fired_len = get_u32(buf)? as usize;
    if buf.len() != fired_len * 4 {
        return Err(WireError::Malformed("fired list length mismatch"));
    }
    let mut fired = Vec::with_capacity(fired_len);
    for _ in 0..fired_len {
        fired.push(get_u32(buf)?);
    }
    Ok(SessionState { user, strategy, last_cell, delivery_log, fired })
}

impl Request {
    /// Serializes the frame body (without the length prefix).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        match self {
            Request::Hello { seq, user, strategy } => {
                let (tag, param) = strategy.encode();
                buf.put_u32(head(T_HELLO, *seq));
                buf.put_u32(*user);
                buf.put_u32(tag);
                buf.put_u32(param);
            }
            Request::LocationUpdate { seq, x_fx, y_fx, motion } => {
                buf.put_u32(head(T_LOCATION, *seq));
                buf.put_u32(*x_fx);
                buf.put_u32(*y_fx);
                buf.put_u32(*motion);
            }
            Request::TriggerNotify { seq, alarm } => {
                buf.put_u32(head(T_NOTIFY, *seq));
                buf.put_u32(*alarm);
            }
            Request::InstallAlarm { seq, alarm, flags, rect } => {
                buf.put_u32(head(T_INSTALL, *seq));
                buf.put_u32(*alarm);
                buf.put_u32(*flags);
                put_rect(&mut buf, rect);
            }
            Request::RemoveAlarm { seq, alarm } => {
                buf.put_u32(head(T_REMOVE, *seq));
                buf.put_u32(*alarm);
            }
            Request::Bye { seq } => buf.put_u32(head(T_BYE, *seq)),
            Request::Stats { seq } => buf.put_u32(head(T_STATS, *seq)),
            Request::Resync { seq, x_fx, y_fx, motion, acked } => {
                buf.put_u32(head(T_RESYNC, *seq));
                buf.put_u32(*x_fx);
                buf.put_u32(*y_fx);
                buf.put_u32(*motion);
                buf.put_u32(*acked);
            }
            Request::Batch { seq, updates } => {
                buf.put_u32(head(T_BATCH_REQ, *seq));
                buf.put_u32(updates.len() as u32);
                for u in updates {
                    debug_assert!(u.seq <= SEQ_MASK, "entry sequence overflows 28 bits");
                    buf.put_u32(u.session);
                    buf.put_u32(u.seq);
                    buf.put_u32(u.x_fx);
                    buf.put_u32(u.y_fx);
                    buf.put_u32(u.motion);
                }
            }
            Request::Topology { seq, trace } => {
                buf.put_u32(head(T_TOPOLOGY_REQ, *seq));
                put_trace(&mut buf, trace);
            }
            Request::HandoffExport { seq, session, trace } => {
                buf.put_u32(head(T_EXPORT, *seq));
                buf.put_u32(*session);
                put_trace(&mut buf, trace);
            }
            Request::HandoffImport { seq, session, trace, state } => {
                buf.put_u32(head(T_IMPORT, *seq));
                buf.put_u32(*session);
                put_trace(&mut buf, trace);
                put_session_state(&mut buf, state);
            }
            Request::HandoffRelease { seq, session, trace } => {
                buf.put_u32(head(T_RELEASE, *seq));
                buf.put_u32(*session);
                put_trace(&mut buf, trace);
            }
            Request::InstallTopology { seq, epoch, trace, ranges } => {
                buf.put_u32(head(T_SET_TOPOLOGY, *seq));
                put_u64(&mut buf, *epoch);
                put_trace(&mut buf, trace);
                put_ranges(&mut buf, ranges);
            }
        }
        debug_assert_eq!(buf.len(), self.encoded_len());
        buf.freeze()
    }

    /// Exact body length in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Request::Hello { .. } => 16,
            Request::LocationUpdate { .. } => 16,
            Request::TriggerNotify { .. } => 8,
            Request::InstallAlarm { .. } => 28,
            Request::RemoveAlarm { .. } => 8,
            Request::Bye { .. } => 4,
            Request::Stats { .. } => 4,
            Request::Resync { .. } => 20,
            Request::Batch { updates, .. } => 8 + 20 * updates.len(),
            Request::Topology { .. } => 20,
            Request::HandoffExport { .. } | Request::HandoffRelease { .. } => 24,
            Request::HandoffImport { state, .. } => 24 + state.encoded_len(),
            Request::InstallTopology { ranges, .. } => 32 + 20 * ranges.len(),
        }
    }

    /// The uplink bits the paper's bandwidth model charges for this
    /// message. Equal to `8 × encoded_len()` for the budgeted messages.
    pub fn charged_bits(&self) -> usize {
        match self {
            Request::LocationUpdate { .. } => payload::LOCATION_UPDATE_BITS,
            Request::TriggerNotify { .. } => payload::TRIGGER_NOTIFY_BITS,
            // A resync is a location update plus the 32-bit delivery
            // cursor; the model has no budget for recovery traffic, so
            // charge what the wire actually carries.
            Request::Resync { .. } => payload::LOCATION_UPDATE_BITS + 32,
            // Each batched entry charges what its standalone update
            // would: the batch envelope and session words are transport
            // framing the model does not budget.
            Request::Batch { updates, .. } => updates.len() * payload::LOCATION_UPDATE_BITS,
            other => other.encoded_len() * 8,
        }
    }

    /// The echoed sequence number.
    pub fn seq(&self) -> u32 {
        match self {
            Request::Hello { seq, .. }
            | Request::LocationUpdate { seq, .. }
            | Request::TriggerNotify { seq, .. }
            | Request::InstallAlarm { seq, .. }
            | Request::RemoveAlarm { seq, .. }
            | Request::Bye { seq }
            | Request::Stats { seq }
            | Request::Resync { seq, .. }
            | Request::Batch { seq, .. }
            | Request::Topology { seq, .. }
            | Request::HandoffExport { seq, .. }
            | Request::HandoffImport { seq, .. }
            | Request::HandoffRelease { seq, .. }
            | Request::InstallTopology { seq, .. } => *seq,
        }
    }

    /// The quantized position carried by this request, when it has one
    /// (location updates and resyncs — the requests the router checks
    /// for cell ownership).
    pub fn position_fx(&self) -> Option<(u32, u32)> {
        match self {
            Request::LocationUpdate { x_fx, y_fx, .. }
            | Request::Resync { x_fx, y_fx, .. } => Some((*x_fx, *y_fx)),
            _ => None,
        }
    }

    /// Parses a frame body.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the body is truncated, has trailing
    /// bytes, or does not carry a request type.
    pub fn decode(mut body: &[u8]) -> Result<Request, WireError> {
        let (ty, seq) = split_head(get_u32(&mut body)?);
        let req = match ty {
            T_HELLO => {
                let user = get_u32(&mut body)?;
                let tag = get_u32(&mut body)?;
                let param = get_u32(&mut body)?;
                Request::Hello { seq, user, strategy: StrategySpec::decode(tag, param)? }
            }
            T_LOCATION => Request::LocationUpdate {
                seq,
                x_fx: get_u32(&mut body)?,
                y_fx: get_u32(&mut body)?,
                motion: get_u32(&mut body)?,
            },
            T_NOTIFY => Request::TriggerNotify { seq, alarm: get_u32(&mut body)? },
            T_INSTALL => Request::InstallAlarm {
                seq,
                alarm: get_u32(&mut body)?,
                flags: get_u32(&mut body)?,
                rect: get_rect(&mut body)?,
            },
            T_REMOVE => Request::RemoveAlarm { seq, alarm: get_u32(&mut body)? },
            T_BYE => Request::Bye { seq },
            T_STATS => Request::Stats { seq },
            T_RESYNC => Request::Resync {
                seq,
                x_fx: get_u32(&mut body)?,
                y_fx: get_u32(&mut body)?,
                motion: get_u32(&mut body)?,
                acked: get_u32(&mut body)?,
            },
            T_BATCH_REQ => {
                let count = get_u32(&mut body)? as usize;
                if body.len() != count * 20 {
                    return Err(WireError::Malformed("batch length mismatch"));
                }
                let mut updates = Vec::with_capacity(count);
                for _ in 0..count {
                    let session = get_u32(&mut body)?;
                    let entry_seq = get_u32(&mut body)?;
                    if entry_seq > SEQ_MASK {
                        return Err(WireError::Malformed("entry sequence overflows 28 bits"));
                    }
                    updates.push(BatchedUpdate {
                        session,
                        seq: entry_seq,
                        x_fx: get_u32(&mut body)?,
                        y_fx: get_u32(&mut body)?,
                        motion: get_u32(&mut body)?,
                    });
                }
                Request::Batch { seq, updates }
            }
            T_TOPOLOGY_REQ => Request::Topology { seq, trace: get_trace(&mut body)? },
            T_EXPORT => Request::HandoffExport {
                seq,
                session: get_u32(&mut body)?,
                trace: get_trace(&mut body)?,
            },
            T_IMPORT => Request::HandoffImport {
                seq,
                session: get_u32(&mut body)?,
                trace: get_trace(&mut body)?,
                state: get_session_state(&mut body)?,
            },
            T_RELEASE => Request::HandoffRelease {
                seq,
                session: get_u32(&mut body)?,
                trace: get_trace(&mut body)?,
            },
            T_SET_TOPOLOGY => Request::InstallTopology {
                seq,
                epoch: get_u64(&mut body)?,
                trace: get_trace(&mut body)?,
                ranges: get_ranges(&mut body)?,
            },
            other => return Err(WireError::UnknownType(other)),
        };
        expect_empty(body)?;
        Ok(req)
    }
}

impl Response {
    /// True for the frame that completes a request's response sequence
    /// (everything except [`Response::TriggerDelivery`]).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::TriggerDelivery { .. })
    }

    /// Serializes the frame body (without the length prefix).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        match self {
            Response::Ack { seq } => buf.put_u32(head(T_ACK, *seq)),
            Response::RectInstall { seq, cell, rect } => {
                buf.put_u32(head(T_RECT, *seq));
                buf.put_u32(*cell);
                put_rect(&mut buf, rect);
            }
            Response::BitmapInstall { seq, cell, bits } => {
                buf.put_u32(head(T_BITMAP, *seq));
                buf.put_u32(*cell);
                buf.put_u32(bits.len() as u32);
                buf.put_slice(&bits.to_bytes());
            }
            Response::AlarmPush { seq, cell, alarms } => {
                buf.put_u32(head(T_PUSH, *seq));
                buf.put_u32(*cell);
                buf.put_u32(alarms.len() as u32);
                for a in alarms {
                    debug_assert!(a.alarm < (1 << 31), "alarm id overflows 31 wire bits");
                    buf.put_u32(a.alarm | if a.relevant { 1 << 31 } else { 0 });
                    put_rect(&mut buf, &a.rect);
                }
            }
            Response::TriggerDelivery { seq, alarm } => {
                buf.put_u32(head(T_DELIVERY, *seq));
                buf.put_u32(*alarm);
            }
            Response::SafePeriodGrant { period_ms } => {
                debug_assert!(*period_ms <= SEQ_MASK, "period overflows 28 bits");
                buf.put_u32(head(T_GRANT, *period_ms));
            }
            Response::Overloaded { seq } => buf.put_u32(head(T_OVERLOADED, *seq)),
            Response::Error { seq, code } => {
                buf.put_u32(head(T_ERROR, *seq));
                buf.put_u32(*code);
            }
            Response::Stats { seq, text } => {
                buf.put_u32(head(T_STATS, *seq));
                buf.put_u32(text.len() as u32);
                buf.put_slice(text.as_bytes());
            }
            Response::Batch { seq, replies } => {
                buf.put_u32(head(T_BATCH_RESP, *seq));
                buf.put_u32(replies.len() as u32);
                for group in replies {
                    buf.put_u32(group.session);
                    buf.put_u32(group.responses.len() as u32);
                    for r in &group.responses {
                        debug_assert!(
                            !matches!(r, Response::Batch { .. }),
                            "batches do not nest"
                        );
                        let nested = r.encode();
                        buf.put_u32(nested.len() as u32);
                        buf.put_slice(&nested);
                    }
                }
            }
            Response::Topology { seq, epoch, ranges } => {
                buf.put_u32(head(T_TOPOLOGY_RESP, *seq));
                put_u64(&mut buf, *epoch);
                put_ranges(&mut buf, ranges);
            }
            Response::WrongOwner { seq, owner, epoch } => {
                buf.put_u32(head(T_WRONG_OWNER, *seq));
                buf.put_u32(*owner);
                put_u64(&mut buf, *epoch);
            }
            Response::SessionState { seq, state } => {
                buf.put_u32(head(T_SESSION_STATE, *seq));
                put_session_state(&mut buf, state);
            }
        }
        debug_assert_eq!(buf.len(), self.encoded_len());
        buf.freeze()
    }

    /// Exact body length in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Response::Ack { .. } => 4,
            Response::RectInstall { .. } => 24,
            Response::BitmapInstall { bits, .. } => 12 + bits.len().div_ceil(8),
            Response::AlarmPush { alarms, .. } => 12 + 20 * alarms.len(),
            Response::TriggerDelivery { .. } => 8,
            Response::SafePeriodGrant { .. } => 4,
            Response::Overloaded { .. } => 4,
            Response::Error { .. } => 8,
            Response::Stats { text, .. } => 8 + text.len(),
            Response::Batch { replies, .. } => {
                8 + replies
                    .iter()
                    .map(|g| {
                        8 + g.responses.iter().map(|r| 4 + r.encoded_len()).sum::<usize>()
                    })
                    .sum::<usize>()
            }
            Response::Topology { ranges, .. } => 16 + 20 * ranges.len(),
            Response::WrongOwner { .. } => 16,
            Response::SessionState { state, .. } => 4 + state.encoded_len(),
        }
    }

    /// The downlink bits the paper's bandwidth model charges for this
    /// message: the `sa_sim::message::payload` budgets, with the
    /// region-bearing messages charged `REGION_HEADER_BITS` plus their
    /// payload formula.
    pub fn charged_bits(&self) -> usize {
        match self {
            Response::RectInstall { .. } => payload::REGION_HEADER_BITS + 128,
            Response::BitmapInstall { bits, .. } => payload::REGION_HEADER_BITS + bits.len(),
            Response::AlarmPush { alarms, .. } => {
                payload::REGION_HEADER_BITS + alarms.len() * payload::ALARM_PUSH_BITS
            }
            Response::TriggerDelivery { .. } => payload::TRIGGER_DELIVERY_BITS,
            Response::SafePeriodGrant { .. } => payload::SAFE_PERIOD_BITS,
            // A batch charges what its constituents would standalone;
            // the envelope is unbudgeted transport framing.
            Response::Batch { replies, .. } => replies
                .iter()
                .flat_map(|g| g.responses.iter())
                .map(Response::charged_bits)
                .sum(),
            other => other.encoded_len() * 8,
        }
    }

    /// Parses a frame body.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the body is truncated, has trailing
    /// bytes, carries inconsistent length fields, or does not carry a
    /// response type.
    pub fn decode(mut body: &[u8]) -> Result<Response, WireError> {
        let (ty, seq) = split_head(get_u32(&mut body)?);
        let resp = match ty {
            T_ACK => Response::Ack { seq },
            T_RECT => {
                Response::RectInstall { seq, cell: get_u32(&mut body)?, rect: get_rect(&mut body)? }
            }
            T_BITMAP => {
                let cell = get_u32(&mut body)?;
                let bit_len = get_u32(&mut body)? as usize;
                if body.len() != bit_len.div_ceil(8) {
                    return Err(WireError::Malformed("bitmap byte length mismatch"));
                }
                let bits =
                    BitVec::from_bytes(body, bit_len).ok_or(WireError::Truncated)?;
                body = &body[body.len()..];
                Response::BitmapInstall { seq, cell, bits }
            }
            T_PUSH => {
                let cell = get_u32(&mut body)?;
                let count = get_u32(&mut body)? as usize;
                if body.len() != count * 20 {
                    return Err(WireError::Malformed("alarm push length mismatch"));
                }
                let mut alarms = Vec::with_capacity(count);
                for _ in 0..count {
                    let word = get_u32(&mut body)?;
                    alarms.push(PushedAlarm {
                        alarm: word & !(1 << 31),
                        relevant: word >> 31 == 1,
                        rect: get_rect(&mut body)?,
                    });
                }
                Response::AlarmPush { seq, cell, alarms }
            }
            T_DELIVERY => Response::TriggerDelivery { seq, alarm: get_u32(&mut body)? },
            T_GRANT => Response::SafePeriodGrant { period_ms: seq },
            T_OVERLOADED => Response::Overloaded { seq },
            T_ERROR => Response::Error { seq, code: get_u32(&mut body)? },
            T_STATS => {
                let byte_len = get_u32(&mut body)? as usize;
                if body.len() != byte_len {
                    return Err(WireError::Malformed("stats byte length mismatch"));
                }
                let text = std::str::from_utf8(body)
                    .map_err(|_| WireError::Malformed("stats text is not utf-8"))?
                    .to_string();
                body = &body[body.len()..];
                Response::Stats { seq, text }
            }
            T_TOPOLOGY_RESP => Response::Topology {
                seq,
                epoch: get_u64(&mut body)?,
                ranges: get_ranges(&mut body)?,
            },
            T_WRONG_OWNER => Response::WrongOwner {
                seq,
                owner: get_u32(&mut body)?,
                epoch: get_u64(&mut body)?,
            },
            T_SESSION_STATE => {
                Response::SessionState { seq, state: get_session_state(&mut body)? }
            }
            T_BATCH_RESP => {
                let group_count = get_u32(&mut body)? as usize;
                // A group needs at least 8 bytes, so cap the
                // pre-allocation by what the body could actually hold.
                let mut replies = Vec::with_capacity(group_count.min(body.len() / 8));
                for _ in 0..group_count {
                    let session = get_u32(&mut body)?;
                    let resp_count = get_u32(&mut body)? as usize;
                    let mut responses = Vec::with_capacity(resp_count.min(body.len() / 4));
                    for _ in 0..resp_count {
                        let len = get_u32(&mut body)? as usize;
                        if body.len() < len {
                            return Err(WireError::Truncated);
                        }
                        let (nested, rest) = body.split_at(len);
                        let r = Response::decode(nested)?;
                        if matches!(r, Response::Batch { .. }) {
                            return Err(WireError::Malformed("batches do not nest"));
                        }
                        responses.push(r);
                        body = rest;
                    }
                    replies.push(BatchReply { session, responses });
                }
                Response::Batch { seq, replies }
            }
            other => return Err(WireError::UnknownType(other)),
        };
        expect_empty(body)?;
        Ok(resp)
    }
}

/// Prepends the length prefix to a frame body.
pub fn frame(body: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + body.len());
    buf.put_u32(body.len() as u32);
    buf.put_slice(body);
    buf.freeze()
}

/// Frames larger than this are rejected by [`read_frame`] (a corrupt
/// length prefix must not allocate unboundedly). Sized for the batch
/// path: a [`Response::Batch`] carrying a height-5 bitmap install for
/// every vehicle of a paper-scale step legitimately reaches several
/// megabytes.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Reads one length-prefixed frame body from a byte stream.
///
/// # Errors
///
/// Propagates I/O errors; a clean EOF before the prefix yields `Ok(None)`,
/// an EOF mid-frame or an oversized prefix yields `InvalidData`.
pub fn read_frame(stream: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = stream.read(&mut prefix[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "eof inside frame prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "oversized frame"));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes one length-prefixed frame to a byte stream.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_frame(stream: &mut impl std::io::Write, body: &Bytes) -> std::io::Result<()> {
    stream.write_all(&(body.len() as u32).to_be_bytes())?;
    stream.write_all(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let body = req.encode();
        assert_eq!(body.len(), req.encoded_len());
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let body = resp.encode();
        assert_eq!(body.len(), resp.encoded_len());
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn location_update_is_exactly_the_charged_payload() {
        let req = Request::LocationUpdate { seq: 77, x_fx: 1, y_fx: 2, motion: 3 };
        assert_eq!(req.encode().len() * 8, payload::LOCATION_UPDATE_BITS);
        assert_eq!(req.charged_bits(), payload::LOCATION_UPDATE_BITS);
        round_trip_request(req);
    }

    #[test]
    fn trigger_messages_are_exactly_the_charged_payload() {
        let notify = Request::TriggerNotify { seq: 5, alarm: 9 };
        assert_eq!(notify.encode().len() * 8, payload::TRIGGER_NOTIFY_BITS);
        round_trip_request(notify);
        let delivery = Response::TriggerDelivery { seq: 5, alarm: 9 };
        assert_eq!(delivery.encode().len() * 8, payload::TRIGGER_DELIVERY_BITS);
        assert_eq!(delivery.charged_bits(), payload::TRIGGER_DELIVERY_BITS);
        assert!(!delivery.is_terminal());
        round_trip_response(delivery);
    }

    #[test]
    fn rect_install_is_header_plus_rect_payload() {
        let resp = Response::RectInstall { seq: 3, cell: 12, rect: [1, 2, 3, 4] };
        assert_eq!(resp.encode().len() * 8, payload::REGION_HEADER_BITS + 128);
        assert_eq!(resp.charged_bits(), payload::REGION_HEADER_BITS + 128);
        assert!(resp.is_terminal());
        round_trip_response(resp);
    }

    #[test]
    fn safe_period_grant_is_one_word() {
        let resp = Response::SafePeriodGrant { period_ms: 123_456 };
        assert_eq!(resp.encode().len() * 8, payload::SAFE_PERIOD_BITS);
        assert_eq!(resp.charged_bits(), payload::SAFE_PERIOD_BITS);
        round_trip_response(resp);
    }

    #[test]
    fn bitmap_install_charges_header_plus_bitmap_size() {
        let bits: BitVec = (0..82).map(|i| i % 3 == 0).collect();
        let resp = Response::BitmapInstall { seq: 1, cell: 7, bits: bits.clone() };
        assert_eq!(resp.charged_bits(), payload::REGION_HEADER_BITS + bits.len());
        assert_eq!(resp.encoded_len(), 12 + 82usize.div_ceil(8));
        round_trip_response(resp);
    }

    #[test]
    fn alarm_push_charges_header_plus_per_alarm_payload() {
        let alarms = vec![
            PushedAlarm { alarm: 3, relevant: true, rect: [1, 2, 3, 4] },
            PushedAlarm { alarm: 250, relevant: false, rect: [5, 6, 7, 8] },
        ];
        let resp = Response::AlarmPush { seq: 2, cell: 4, alarms: alarms.clone() };
        assert_eq!(
            resp.charged_bits(),
            payload::REGION_HEADER_BITS + alarms.len() * payload::ALARM_PUSH_BITS
        );
        round_trip_response(resp);
    }

    #[test]
    fn control_messages_round_trip() {
        round_trip_request(Request::Hello { seq: 1, user: 4, strategy: StrategySpec::Mwpsr });
        round_trip_request(Request::Hello {
            seq: 2,
            user: 4,
            strategy: StrategySpec::Pbsr { height: 5 },
        });
        round_trip_request(Request::Hello { seq: 3, user: 4, strategy: StrategySpec::Opt });
        round_trip_request(Request::Hello { seq: 4, user: 4, strategy: StrategySpec::SafePeriod });
        round_trip_request(Request::InstallAlarm {
            seq: 5,
            alarm: 61,
            flags: 0b1,
            rect: [10, 20, 30, 40],
        });
        round_trip_request(Request::RemoveAlarm { seq: 6, alarm: 61 });
        round_trip_request(Request::Bye { seq: 7 });
        round_trip_response(Response::Ack { seq: 8 });
        round_trip_response(Response::Overloaded { seq: 9 });
        round_trip_response(Response::Error { seq: 10, code: 2 });
    }

    #[test]
    fn resync_is_a_location_update_plus_the_cursor() {
        let req = Request::Resync { seq: 44, x_fx: 9, y_fx: 8, motion: 7, acked: 3 };
        assert_eq!(req.encoded_len(), 20);
        assert_eq!(req.charged_bits(), payload::LOCATION_UPDATE_BITS + 32);
        assert_eq!(req.position_fx(), Some((9, 8)));
        round_trip_request(req);
        // An all-zero head parses as Resync seq 0, but only with the
        // exact fixed body behind it.
        assert_eq!(
            Request::decode(&[0u8; 20]).unwrap(),
            Request::Resync { seq: 0, x_fx: 0, y_fx: 0, motion: 0, acked: 0 }
        );
        assert_eq!(Request::decode(&[0u8; 8]), Err(WireError::Truncated));
        assert!(matches!(Request::decode(&[0u8; 24]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn stats_scrape_round_trips_in_both_directions() {
        round_trip_request(Request::Stats { seq: 11 });
        round_trip_response(Response::Stats { seq: 11, text: String::new() });
        round_trip_response(Response::Stats {
            seq: 12,
            text: "# TYPE sa_server_location_updates_total counter\n\
                   sa_server_location_updates_total 42\n"
                .to_string(),
        });
    }

    #[test]
    fn stats_reply_rejects_bad_lengths_and_non_utf8() {
        let mut body = Response::Stats { seq: 1, text: "ok".into() }.encode().to_vec();
        body.push(b'!');
        assert!(matches!(Response::decode(&body), Err(WireError::Malformed(_))));
        // Claimed length 1, payload 0xFF: valid length, invalid UTF-8.
        let mut bad = Vec::new();
        bad.extend_from_slice(&(((T_STATS as u32) << 28) | 1).to_be_bytes());
        bad.extend_from_slice(&1u32.to_be_bytes());
        bad.push(0xFF);
        assert!(matches!(Response::decode(&bad), Err(WireError::Malformed(_))));
    }

    #[test]
    fn decode_rejects_wrong_direction_and_garbage() {
        let req = Request::Bye { seq: 1 }.encode();
        assert!(matches!(Response::decode(&req), Err(WireError::UnknownType(6))));
        // Nibble 8 is Batch in the request direction, so a lone Ack head
        // parses as a truncated batch rather than an unknown type; use a
        // response nibble with no request-direction meaning instead.
        let resp = Response::Error { seq: 1, code: 2 }.encode();
        assert!(matches!(Request::decode(&resp), Err(WireError::UnknownType(15))));
        assert_eq!(Request::decode(&Response::Ack { seq: 1 }.encode()), Err(WireError::Truncated));
        assert_eq!(Request::decode(&[1, 2]), Err(WireError::Truncated));
        let mut long = Request::Bye { seq: 1 }.encode().to_vec();
        long.push(0);
        assert!(matches!(Request::decode(&long), Err(WireError::Malformed(_))));
    }

    fn sample_batch_request() -> Request {
        Request::Batch {
            seq: 9,
            updates: vec![
                BatchedUpdate { session: 1, seq: 40, x_fx: 10, y_fx: 20, motion: 30 },
                BatchedUpdate { session: 2, seq: 41, x_fx: 11, y_fx: 21, motion: 31 },
                BatchedUpdate { session: 7, seq: 5, x_fx: 12, y_fx: 22, motion: 32 },
            ],
        }
    }

    #[test]
    fn batch_request_round_trips_and_charges_per_update() {
        let req = sample_batch_request();
        assert_eq!(req.encoded_len(), 8 + 3 * 20);
        assert_eq!(req.charged_bits(), 3 * payload::LOCATION_UPDATE_BITS);
        assert_eq!(req.seq(), 9);
        assert_eq!(req.position_fx(), None);
        round_trip_request(req);
        round_trip_request(Request::Batch { seq: 0, updates: Vec::new() });
    }

    #[test]
    fn batch_response_round_trips_nested_frames() {
        let bits: BitVec = (0..82).map(|i| i % 3 == 0).collect();
        let resp = Response::Batch {
            seq: 9,
            replies: vec![
                BatchReply {
                    session: 1,
                    responses: vec![
                        Response::TriggerDelivery { seq: 40, alarm: 6 },
                        Response::RectInstall { seq: 40, cell: 3, rect: [1, 2, 3, 4] },
                    ],
                },
                BatchReply {
                    session: 2,
                    responses: vec![Response::BitmapInstall { seq: 41, cell: 8, bits }],
                },
                BatchReply { session: 7, responses: vec![Response::Overloaded { seq: 5 }] },
                BatchReply { session: 8, responses: Vec::new() },
            ],
        };
        assert!(resp.is_terminal());
        // The batch charges exactly what its constituents would.
        let constituent_bits: usize = match &resp {
            Response::Batch { replies, .. } => replies
                .iter()
                .flat_map(|g| g.responses.iter())
                .map(Response::charged_bits)
                .sum(),
            _ => unreachable!(),
        };
        assert_eq!(resp.charged_bits(), constituent_bits);
        round_trip_response(resp);
        round_trip_response(Response::Batch { seq: 0, replies: Vec::new() });
    }

    #[test]
    fn batch_frames_reject_malformed_bodies() {
        // Request: count disagreeing with the body length.
        let mut body = sample_batch_request().encode().to_vec();
        body.push(0);
        assert!(matches!(Request::decode(&body), Err(WireError::Malformed(_))));
        // Request: an entry sequence overflowing 28 bits.
        let mut overflow = Request::Batch { seq: 1, updates: Vec::new() }.encode().to_vec();
        overflow[4..8].copy_from_slice(&1u32.to_be_bytes()); // count = 1
        overflow.extend_from_slice(&0u32.to_be_bytes()); // session
        overflow.extend_from_slice(&u32::MAX.to_be_bytes()); // seq > SEQ_MASK
        overflow.extend_from_slice(&[0u8; 12]);
        assert!(matches!(Request::decode(&overflow), Err(WireError::Malformed(_))));
        // Response: a nested body longer than what remains.
        let ok = Response::Batch {
            seq: 2,
            replies: vec![BatchReply {
                session: 3,
                responses: vec![Response::Ack { seq: 1 }],
            }],
        };
        let mut truncated = ok.encode().to_vec();
        let nested_len_at = truncated.len() - 4 - 4; // before the Ack body
        truncated[nested_len_at..nested_len_at + 4].copy_from_slice(&99u32.to_be_bytes());
        assert_eq!(Response::decode(&truncated), Err(WireError::Truncated));
        // Response: batches must not nest.
        let inner = Response::Batch { seq: 3, replies: Vec::new() }.encode();
        let mut nested = Vec::new();
        nested.extend_from_slice(&(((T_BATCH_RESP as u32) << 28) | 4).to_be_bytes());
        nested.extend_from_slice(&1u32.to_be_bytes()); // one group
        nested.extend_from_slice(&5u32.to_be_bytes()); // session
        nested.extend_from_slice(&1u32.to_be_bytes()); // one response
        nested.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        nested.extend_from_slice(&inner);
        assert!(matches!(Response::decode(&nested), Err(WireError::Malformed(_))));
    }

    fn sample_session_state() -> SessionState {
        SessionState {
            user: 17,
            strategy: StrategySpec::Pbsr { height: 3 },
            last_cell: Some(42),
            delivery_log: vec![5, 9, 5],
            fired: vec![5, 9],
        }
    }

    #[test]
    fn federation_control_messages_round_trip() {
        let trace = TraceCtxExt { trace_id: 0xAAAA_BBBB_CCCC_DDDD, parent_span: 0x1234 };
        round_trip_request(Request::Topology { seq: 21, trace });
        round_trip_request(Request::Topology { seq: 21, trace: TraceCtxExt::default() });
        round_trip_request(Request::HandoffExport { seq: 22, session: 7, trace });
        round_trip_request(Request::HandoffRelease { seq: 23, session: 7, trace });
        round_trip_request(Request::HandoffImport {
            seq: 24,
            session: 7,
            trace,
            state: sample_session_state(),
        });
        round_trip_request(Request::HandoffImport {
            seq: 25,
            session: 8,
            trace: TraceCtxExt::default(),
            state: SessionState {
                user: 1,
                strategy: StrategySpec::Mwpsr,
                last_cell: None,
                delivery_log: Vec::new(),
                fired: Vec::new(),
            },
        });
        let ranges = vec![
            CellRange { start: 0, end: 1 << 33, owner: 0 },
            CellRange { start: 1 << 33, end: u64::MAX, owner: 1 },
        ];
        round_trip_request(Request::InstallTopology {
            seq: 26,
            epoch: 3,
            trace,
            ranges: ranges.clone(),
        });
        round_trip_response(Response::Topology { seq: 26, epoch: 3, ranges });
        round_trip_response(Response::Topology { seq: 0, epoch: 0, ranges: Vec::new() });
        round_trip_response(Response::WrongOwner { seq: 27, owner: 2, epoch: 5 });
        round_trip_response(Response::SessionState { seq: 28, state: sample_session_state() });
    }

    #[test]
    fn trace_context_rides_before_the_exact_length_tails() {
        // The 16 trace bytes sit between the fixed head words and the
        // self-describing tails, so the exact-tail length checks still
        // hold: a truncated context is Truncated, never a silent shift
        // of the tail.
        let req = Request::Topology { seq: 1, trace: TraceCtxExt::default() };
        assert_eq!(req.encoded_len(), 20, "head + 16 trace bytes");
        let body = req.encode();
        assert!(matches!(Request::decode(&body[..12]), Err(WireError::Truncated)));
        let exp =
            Request::HandoffExport { seq: 2, session: 3, trace: TraceCtxExt::default() };
        assert_eq!(exp.encoded_len(), 24, "head + session + 16 trace bytes");
        assert!(matches!(Request::decode(&exp.encode()[..16]), Err(WireError::Truncated)));
    }

    #[test]
    fn federation_frames_reject_malformed_bodies() {
        // Import whose delivery-log length disagrees with the body.
        let mut body = Request::HandoffImport {
            seq: 1,
            session: 2,
            trace: TraceCtxExt::default(),
            state: sample_session_state(),
        }
        .encode()
        .to_vec();
        body.push(0);
        assert!(matches!(Request::decode(&body), Err(WireError::Malformed(_))));
        // Topology push whose range count disagrees with the body.
        let mut push = Request::InstallTopology {
            seq: 1,
            epoch: 1,
            trace: TraceCtxExt::default(),
            ranges: vec![CellRange { start: 0, end: u64::MAX, owner: 0 }],
        }
        .encode()
        .to_vec();
        push.truncate(push.len() - 4);
        assert!(matches!(Request::decode(&push), Err(WireError::Malformed(_))));
        // A wrong-owner bounce is valid nested inside a batch reply.
        round_trip_response(Response::Batch {
            seq: 4,
            replies: vec![BatchReply {
                session: 9,
                responses: vec![Response::WrongOwner { seq: 3, owner: 1, epoch: 2 }],
            }],
        });
    }

    #[test]
    fn bitmap_length_mismatch_is_rejected() {
        let bits: BitVec = (0..10).map(|i| i % 2 == 0).collect();
        let mut body = Response::BitmapInstall { seq: 1, cell: 0, bits }.encode().to_vec();
        body.push(0xFF);
        assert!(matches!(Response::decode(&body), Err(WireError::Malformed(_))));
    }

    #[test]
    fn quantization_error_is_sub_micrometer_scale() {
        for &m in &[0.0, 0.015_3, 999.999, 4_000.0, 31_622.776_6] {
            let back = dequantize_m(quantize_m(m));
            assert!((back - m).abs() <= 1.0 / 131_072.0, "{m} → {back}");
            // A lattice value crosses the wire unchanged.
            let on = sa_geometry::Point::new(m, m).snapped().x;
            assert_eq!(dequantize_m(quantize_m(on)), on, "{on}");
        }
        let (h, s) = unpack_motion(pack_motion(-1.25, 33.337));
        assert!((h - (-1.25f64).rem_euclid(std::f64::consts::TAU)).abs() < 1e-4);
        assert!((s - 33.34).abs() < 1e-9);
    }

    #[test]
    fn frames_survive_a_byte_stream() {
        let mut wire = Vec::new();
        let a = Request::LocationUpdate { seq: 1, x_fx: 2, y_fx: 3, motion: 4 }.encode();
        let b = Request::Bye { seq: 2 }.encode();
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), a.as_ref());
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b.as_ref());
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }
}
