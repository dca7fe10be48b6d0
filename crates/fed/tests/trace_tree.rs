//! Federation-wide causal-tracing acceptance.
//!
//! The pinned `handoff-during-disconnect` gate case must reconstruct a
//! migrated session's update as **one connected span tree** spanning at
//! least two federation members, containing both handoff legs — and the
//! run's post-handoff redelivery must itself assemble connected. Every
//! firing the clients observed must be a `trigger` span, carrying its
//! alarm id, under the dispatch of the update that fired it. The same
//! run must export loadable Chrome trace-event JSON carrying all of it.

use sa_fed::{fed_replay, handoff_during_disconnect_case};
use sa_obs::{assemble, render_tree, SpanKind, TraceTree};

fn has(tree: &TraceTree, kind: SpanKind) -> bool {
    tree.spans.iter().any(|s| s.kind == kind)
}

/// Members below the replay driver's pseudo-member range (client
/// routers start at 100) are real federation members.
fn real_members(tree: &TraceTree) -> usize {
    tree.members().iter().filter(|&&m| m < 100).count()
}

#[test]
fn handoff_case_assembles_one_connected_multi_member_trace() {
    let case = handoff_during_disconnect_case();
    let out = fed_replay(&case.config).expect("transport must hold");
    out.verification.as_ref().expect("the gate case must stay exact");
    assert!(out.handoffs >= 1, "the case must migrate at least one session");

    let trees = assemble(&out.spans);
    let handoff_trees: Vec<&TraceTree> = trees
        .iter()
        .filter(|t| has(t, SpanKind::HandoffExport) && has(t, SpanKind::HandoffImport))
        .collect();
    assert!(
        !handoff_trees.is_empty(),
        "some trace must carry both handoff legs:\n{}",
        render_tree(&trees)
    );
    let tree = handoff_trees
        .iter()
        .find(|t| t.is_connected() && real_members(t) >= 2)
        .unwrap_or_else(|| {
            panic!(
                "a handoff trace must assemble as one tree spanning >= 2 members:\n{}",
                render_tree(&trees)
            )
        });
    // The migrated update's causal chain: client root, the owning
    // member's dispatch, and the export/import pair across two members.
    assert!(has(tree, SpanKind::ClientUpdate), "client root missing:\n{}", render_tree(&trees));
    assert!(
        has(tree, SpanKind::UpdateDispatch),
        "the new owner's dispatch must join the tree:\n{}",
        render_tree(&trees)
    );

    // The disconnect window forces a resync with pending firings — the
    // redelivery span must appear and assemble connected to its update.
    let redelivery = trees
        .iter()
        .find(|t| has(t, SpanKind::Redelivery))
        .expect("the disconnect window must force a traced redelivery");
    assert!(
        redelivery.is_connected(),
        "redelivery must connect to its update's tree:\n{}",
        render_tree(std::slice::from_ref(&redelivery.clone()))
    );

    // Each observed firing is one trigger span (`a` = subscriber, `b` =
    // alarm), a child of its update's dispatch in a connected tree that
    // reaches back to the client root. (The pinned case's resyncs find
    // nothing pending, so the firings sit in the trees of the updates
    // that fired them, not in the redelivery trees.)
    let mut traced: Vec<(u32, u64)> = Vec::new();
    for tree in &trees {
        for (i, s) in tree.spans.iter().enumerate().filter(|(_, s)| s.kind == SpanKind::Trigger) {
            traced.push((s.a as u32, s.b));
            let parent = tree.children.iter().position(|c| c.contains(&i));
            assert!(
                tree.is_connected()
                    && has(tree, SpanKind::ClientUpdate)
                    && parent.is_some_and(|p| tree.spans[p].kind == SpanKind::UpdateDispatch),
                "a trigger must hang under its update's dispatch:\n{}",
                render_tree(std::slice::from_ref(tree))
            );
        }
    }
    let mut observed: Vec<(u32, u64)> =
        out.fired.iter().map(|e| (e.subscriber.0, e.alarm.0)).collect();
    traced.sort_unstable();
    observed.sort_unstable();
    assert!(!observed.is_empty(), "the case must fire at least one alarm");
    assert_eq!(traced, observed, "one trigger span per observed firing");

    // The exported Chrome JSON carries the same record.
    for name in ["handoff_export", "handoff_import", "client_update", "redelivery", "trigger"] {
        assert!(
            out.trace_json.contains(&format!("\"name\":\"{name}\"")),
            "trace JSON must carry {name} events"
        );
    }
}
