//! sa-obs: the workspace's unified observability substrate.
//!
//! The paper's whole evaluation is a measurement story — server CPU per
//! alarm check, messaging cost, client energy, safe-region hit ratios —
//! yet before this crate the live runtime exposed four ad-hoc atomic
//! counters and the simulator kept its own incompatible accounting. This
//! crate is the single substrate both now publish through:
//!
//! * [`Registry`] — named, label-carrying counters / gauges / histograms.
//!   Registration takes a short lock; every subsequent increment is one
//!   atomic RMW on a pre-resolved handle, so instrumented hot paths never
//!   contend on the registry itself.
//! * [`Histogram`] — log-bucketed (HDR-style) latency histograms with
//!   lossless small-value buckets, bounded relative error thereafter, and
//!   p50/p90/p99/max snapshots. Concurrent recorders never lose counts.
//! * [`SpanRecorder`] — the one event recorder: typed causal spans
//!   keyed by `{trace_id, span_id, parent}` in per-lane, fixed-capacity,
//!   drop-oldest buffers, with deterministic data-plane trace
//!   derivation ([`trace_id_for`]) so the paper's bit-accounted frames
//!   stay byte-identical. Point events (a firing, a `WrongOwner`
//!   bounce, an alarm write) are zero-duration spans inside the tree of the
//!   exchange that caused them; [`assemble`] / [`chrome_trace_json`]
//!   merge many members' buffers into one Perfetto-loadable timeline.
//! * [`Exemplars`] — per-histogram-bucket trace ids linking a p99
//!   readout to a trace that actually landed in that bucket.
//! * [`FlightBundle`] — the divergence flight recorder: span trees
//!   and registry snapshots rendered as one forensic text.
//! * [`render`] — the Prometheus text exposition format, used both by the
//!   wire-level `StatsRequest` scrape and by the offline drivers, so a
//!   live server and a replay log read identically.
//!
//! Everything is std-only by design: any crate in the workspace can adopt
//! instrumentation without inheriting new synchronization dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exemplar;
pub mod export;
pub mod flight;
pub mod histogram;
pub mod prometheus;
pub mod registry;
pub mod span;

pub use exemplar::{Exemplar, Exemplars};
pub use export::{assemble, chrome_trace_json, render_tree, TraceTree};
pub use flight::FlightBundle;
pub use histogram::{Histogram, HistogramSnapshot};
pub use prometheus::{render, render_snapshot};
pub use registry::{Counter, Gauge, MetricKey, Registry, Snapshot};
pub use span::{
    client_root_span, dispatch_span, trace_id_for, Span, SpanKind, SpanRecorder, TimeSource,
    TraceCtx, TraceMode,
};
