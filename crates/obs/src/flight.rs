//! The divergence flight recorder: one forensic bundle per failure.
//!
//! When a replay or verification run diverges from ground truth, the
//! evidence is scattered: which spans led up to the divergent firing,
//! what the counters said. A [`FlightBundle`] gathers both into one
//! renderable document so the failure message *is* the forensic
//! record: the assembled span trees around the divergence — each
//! firing a `trigger` span, with its alarm id, inside the tree of the
//! update that caused it — and every member's registry snapshot in
//! Prometheus text.

use crate::export::{assemble, render_tree};
use crate::prometheus::render_snapshot;
use crate::registry::Snapshot;
use crate::span::Span;
use std::fmt::Write as _;

/// Everything gathered at a divergence (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct FlightBundle {
    /// The verification error that triggered the recorder.
    pub reason: String,
    /// Spans collected from every member and router, merged.
    pub spans: Vec<Span>,
    /// `(source label, registry snapshot)` per member.
    pub snapshots: Vec<(String, Snapshot)>,
}

impl FlightBundle {
    /// A bundle seeded with the triggering error.
    pub fn new(reason: impl Into<String>) -> FlightBundle {
        FlightBundle { reason: reason.into(), ..FlightBundle::default() }
    }

    /// Renders the bundle as one text document: the reason, the
    /// assembled span trees, then per-source snapshots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.reason);
        let _ = writeln!(out, "\n=== flight recorder ===");
        let trees = assemble(&self.spans);
        if trees.is_empty() {
            let _ = writeln!(out, "\n-- span trees: none recorded --");
        } else {
            let _ = writeln!(out, "\n-- span trees ({} traces) --", trees.len());
            out.push_str(&render_tree(&trees));
        }
        for (label, snap) in &self.snapshots {
            let _ = writeln!(out, "\n-- registry snapshot: {label} --");
            out.push_str(&render_snapshot(snap));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::span::{SpanKind, TraceCtx};

    fn span(id: u64, parent: u64, kind: SpanKind, a: u64, b: u64) -> Span {
        Span {
            ctx: TraceCtx { trace_id: 7, span_id: id, parent },
            kind,
            start_us: id,
            dur_us: 0,
            member: 0,
            shard: 0,
            a,
            b,
        }
    }

    #[test]
    fn render_carries_reason_trees_and_snapshots() {
        let registry = Registry::new();
        registry.counter("sa_fired_total").add(3);
        let mut bundle = FlightBundle::new("fired #4 expected (1,2) got (1,3)");
        bundle.spans.push(span(1, 0, SpanKind::ClientUpdate, 0, 0));
        bundle.spans.push(span(2, 1, SpanKind::UpdateDispatch, 1, 4));
        bundle.spans.push(span(3, 2, SpanKind::Trigger, 1, 4242));
        bundle.snapshots.push(("member 0".to_string(), registry.snapshot()));
        let text = bundle.render();
        assert!(text.starts_with("fired #4 expected (1,2) got (1,3)"));
        assert!(text.contains("=== flight recorder ==="));
        assert!(text.contains("span trees (1 traces)"));
        assert!(text.contains("client_update"));
        assert!(
            text.contains("      trigger [m0/s0] +3us 0us a=1 b=4242"),
            "the firing, with its alarm id, nests under the update's dispatch:\n{text}"
        );
        assert!(text.contains("sa_fired_total 3"));
    }
}
