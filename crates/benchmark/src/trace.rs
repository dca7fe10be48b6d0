//! The benchmark's own span log.
//!
//! Spans are recorded from the benchmark's files, around the calls it
//! makes into each layer — nothing inside the program is instrumented
//! (`sa-obs`'s recorder stays at its default mode). The log is a
//! preallocated vector written out once, after the run.
//!
//! Two kinds of span share it. *In-run* spans wrap the driver's calls
//! (`gen.step` and its children `client.poll`, `server.batch`,
//! `client.absorb`, `alarms.write`; `socket.exchange` on the TCP
//! workloads). *Probe* spans come from re-executing a layer's public
//! function on a captured input after the window: a `server.handle`
//! root per sampled update and one child per layer function it is
//! attributed to. A probe root carries the `(user, seq)` of the update
//! it replays, which is how it joins the in-run span of that update.

use crate::json::Json;
use std::time::Instant;

/// Index of a span's parent: none.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`client.poll`, `alarms.trigger_probe`, …).
    pub name: &'static str,
    /// Start, nanoseconds from the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds from the log's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The update this span belongs to: subscriber id (0 for per-step
    /// spans).
    pub user: u32,
    /// The update this span belongs to: its wire sequence number, or
    /// the step for per-step spans.
    pub seq: u32,
    /// Items the span covered (samples polled, batch entries, writes).
    pub count: u32,
}

/// The in-memory span log; disabled logs record nothing.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Default for SpanLog {
    /// A disabled log.
    fn default() -> SpanLog {
        SpanLog::new(false, 0)
    }
}

impl SpanLog {
    /// A log that records (`enabled`) or ignores every span, with room
    /// for `capacity` spans up front so recording never reallocates
    /// inside the window.
    pub fn new(enabled: bool, capacity: usize) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            enabled,
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the log's origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records one span; returns its index ([`NO_PARENT`] when
    /// disabled) for children to name as their parent.
    pub fn record(&mut self, span: Span) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Sets the end of span `index` — for a parent recorded before its
    /// children so they can name it.
    pub fn close(&mut self, index: u32, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: a span's *self* time is its duration minus the
    /// durations of the spans that name it as parent.
    pub fn summary(&self) -> Vec<LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut rows: Vec<LayerRow> = Vec::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let row = match rows.iter_mut().find(|r| r.name == s.name) {
                Some(row) => row,
                None => {
                    rows.push(LayerRow {
                        name: s.name,
                        spans: 0,
                        total_ns: 0,
                        self_ns: 0,
                        items: 0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.spans += 1;
            row.total_ns += total;
            row.self_ns += total.saturating_sub(*children);
            row.items += u64::from(s.count);
        }
        rows
    }

    /// The log as a JSON document (`{"spans": [...]}`), one object per
    /// span with the fields of [`Span`].
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    (
                        "update",
                        Json::Arr(vec![
                            Json::Num(f64::from(s.user)),
                            Json::Num(f64::from(s.seq)),
                        ]),
                    ),
                    ("count", Json::Num(f64::from(s.count))),
                ])
            })
            .collect();
        Json::obj(vec![("spans", Json::Arr(spans))])
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub spans: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
    /// Summed `count` fields.
    pub items: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            user: 0,
            seq: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new(true, 8);
        let root = log.record(span("gen.step", 0, 100, NO_PARENT));
        log.record(span("client.poll", 0, 30, root));
        log.record(span("server.batch", 30, 90, root));
        let rows = log.summary();
        let step = rows.iter().find(|r| r.name == "gen.step").unwrap();
        assert_eq!((step.total_ns, step.self_ns), (100, 10));
        let batch = rows.iter().find(|r| r.name == "server.batch").unwrap();
        assert_eq!((batch.total_ns, batch.self_ns), (60, 60));
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, 8);
        assert_eq!(log.record(span("gen.step", 0, 1, NO_PARENT)), NO_PARENT);
        assert!(log.spans().is_empty());
    }
}
