//! Cross-member trace assembly and Chrome trace-event export.
//!
//! Every federation member (and the client-side router) records spans
//! independently; this module merges those buffers into causally
//! ordered per-trace trees and renders them two ways:
//!
//! * [`chrome_trace_json`] — the Chrome trace-event format (an array of
//!   `ph: "X"` complete events), loadable in Perfetto / `chrome://tracing`.
//!   `pid` carries the member, `tid` the lane, `args` the hex trace and
//!   span ids, so one federation run reads as one timeline with a row
//!   per member.
//! * [`render_tree`] — an indented text tree per trace, the
//!   screenshot-equivalent rendering used in bug reports and docs.
//!
//! Assembly is pure data work over [`Span`] values: group by trace id,
//! index spans by id, parent links make the edges. A parent id that no
//! recorded span carries (e.g. the root fell off a drop-oldest buffer)
//! makes its child a *dangling root* — [`TraceTree::is_connected`]
//! then reports false, which is exactly the signal the federation
//! acceptance test keys on.

use crate::span::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One assembled trace: the spans of a single trace id, indexed for
/// tree walks.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id all spans share.
    pub trace_id: u64,
    /// The trace's spans, start-time ordered.
    pub spans: Vec<Span>,
    /// Indexes into `spans` of the roots: spans whose parent is 0 or
    /// references no recorded span.
    pub roots: Vec<usize>,
    /// `children[i]` = indexes into `spans` of span `i`'s children,
    /// start-time ordered.
    pub children: Vec<Vec<usize>>,
}

impl TraceTree {
    /// True when the trace reconstructs as a single tree: exactly one
    /// root and every span reachable from it.
    pub fn is_connected(&self) -> bool {
        self.roots.len() == 1 && !self.spans.is_empty()
    }

    /// Distinct members that recorded at least one span of this trace.
    pub fn members(&self) -> Vec<u32> {
        let mut m: Vec<u32> = self.spans.iter().map(|s| s.member).collect();
        m.sort_unstable();
        m.dedup();
        m
    }
}

/// Groups `spans` (from any number of members, in any order) into
/// per-trace trees, trace-id ascending.
pub fn assemble(spans: &[Span]) -> Vec<TraceTree> {
    let mut by_trace: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.ctx.trace_id).or_default().push(*s);
    }
    by_trace
        .into_iter()
        .map(|(trace_id, mut spans)| {
            spans.sort_by_key(|s| (s.start_us, s.ctx.span_id));
            let by_id: BTreeMap<u64, usize> =
                spans.iter().enumerate().map(|(i, s)| (s.ctx.span_id, i)).collect();
            let mut roots = Vec::new();
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
            for (i, s) in spans.iter().enumerate() {
                match by_id.get(&s.ctx.parent) {
                    // A self-parenting span (malformed) is a root, not a cycle.
                    Some(&p) if p != i => children[p].push(i),
                    _ => roots.push(i),
                }
            }
            TraceTree { trace_id, spans, roots, children }
        })
        .collect()
}

/// Renders assembled traces as indented text trees — one block per
/// trace, each line `kind [member/lane] +start dur a b`.
pub fn render_tree(trees: &[TraceTree]) -> String {
    let mut out = String::new();
    for tree in trees {
        let _ = writeln!(
            out,
            "trace {:#018x} ({} spans, members {:?}{})",
            tree.trace_id,
            tree.spans.len(),
            tree.members(),
            if tree.is_connected() { "" } else { ", DISCONNECTED" }
        );
        for &root in &tree.roots {
            render_node(&mut out, tree, root, 1);
        }
    }
    out
}

fn render_node(out: &mut String, tree: &TraceTree, i: usize, depth: usize) {
    let s = &tree.spans[i];
    let _ = writeln!(
        out,
        "{}{} [m{}/s{}] +{}us {}us a={} b={}",
        "  ".repeat(depth),
        s.kind.name(),
        s.member,
        s.shard,
        s.start_us,
        s.dur_us,
        s.a,
        s.b
    );
    for &c in &tree.children[i] {
        render_node(out, tree, c, depth + 1);
    }
}

/// Renders `spans` as Chrome trace-event JSON (the `traceEvents` array
/// format Perfetto loads directly). Every span becomes one complete
/// (`ph: "X"`) event; `pid` = member, `tid` = lane.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_us, s.ctx.span_id));
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in sorted.iter().enumerate() {
        let comma = if i + 1 == sorted.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\
             \"args\":{{\"trace\":\"{:#018x}\",\"span\":\"{:#018x}\",\"parent\":\"{:#018x}\",\
             \"a\":{},\"b\":{}}}}}{comma}",
            s.kind.name(),
            s.start_us,
            s.dur_us,
            s.member,
            s.shard,
            s.ctx.trace_id,
            s.ctx.span_id,
            s.ctx.parent,
            s.a,
            s.b
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanKind, TraceCtx};

    fn span(trace: u64, id: u64, parent: u64, member: u32, start: u64, kind: SpanKind) -> Span {
        Span {
            ctx: TraceCtx { trace_id: trace, span_id: id, parent },
            kind,
            start_us: start,
            dur_us: 3,
            member,
            shard: 0,
            a: 0,
            b: 0,
        }
    }

    /// A realistic handoff-shaped trace: client root, old owner's
    /// dispatch, both handoff legs on their members, the new owner's
    /// redelivery.
    fn handoff_spans() -> Vec<Span> {
        vec![
            span(9, 100, 0, 100, 0, SpanKind::ClientUpdate),
            span(9, 101, 100, 0, 1, SpanKind::UpdateDispatch),
            span(9, 102, 101, 0, 2, SpanKind::HandoffExport),
            span(9, 103, 101, 1, 3, SpanKind::HandoffImport),
            span(9, 104, 101, 0, 4, SpanKind::HandoffRelease),
            span(9, 105, 103, 1, 5, SpanKind::Redelivery),
        ]
    }

    #[test]
    fn assembly_reconstructs_one_connected_multi_member_tree() {
        let trees = assemble(&handoff_spans());
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert!(t.is_connected(), "one root, all spans reachable");
        assert_eq!(t.members(), vec![0, 1, 100]);
        let text = render_tree(&trees);
        assert!(text.contains("client_update"));
        assert!(text.contains("    handoff_import [m1/s0]"), "import nests under dispatch");
        assert!(!text.contains("DISCONNECTED"));
    }

    #[test]
    fn assembly_is_order_independent() {
        // Property: any seeded interleaving of the members' buffers
        // reconstructs the identical tree — cross-member merge order
        // must not matter.
        let base = handoff_spans();
        let reference = render_tree(&assemble(&base));
        let mut rng = 0xD15E_A5E5u64;
        for _ in 0..100 {
            let mut shuffled = base.clone();
            for i in (1..shuffled.len()).rev() {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                shuffled.swap(i, (rng % (i as u64 + 1)) as usize);
            }
            let trees = assemble(&shuffled);
            assert!(trees[0].is_connected());
            assert_eq!(render_tree(&trees), reference, "shuffle must not change the tree");
        }
    }

    #[test]
    fn a_missing_parent_reports_disconnected() {
        let mut spans = handoff_spans();
        spans.retain(|s| s.ctx.span_id != 101); // drop the dispatch span
        let trees = assemble(&spans);
        assert!(!trees[0].is_connected(), "orphans make extra roots");
        assert!(render_tree(&trees).contains("DISCONNECTED"));
    }

    #[test]
    fn traces_do_not_bleed_into_each_other() {
        let mut spans = handoff_spans();
        spans.push(span(10, 200, 0, 2, 0, SpanKind::ClientUpdate));
        let trees = assemble(&spans);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace_id, 9);
        assert_eq!(trees[1].trace_id, 10);
        assert!(trees.iter().all(TraceTree::is_connected));
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let json = chrome_trace_json(&handoff_spans());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
        assert!(json.contains("\"name\":\"handoff_import\""));
        assert!(json.contains("\"pid\":100"), "the router pseudo-member appears as a pid");
        assert!(json.contains("\"trace\":\"0x0000000000000009\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
