//! The federated scrape: every member's metrics in one Prometheus text.
//!
//! A federation is N independent registries; debugging it from N
//! separate scrapes means hand-joining series. [`federated_scrape`]
//! fans out over every member and renders one document:
//!
//! * every member's full snapshot, each series tagged with a `member`
//!   label so identically named series stay distinguishable;
//! * federation-level histogram roll-ups under `member="federation"`,
//!   produced by [`sa_obs::Histogram::absorb`] — bucket-wise exact, so the
//!   merged quantiles are what a single global histogram would have
//!   reported (within one bucket width);
//! * coordinator gauges: the partition-map epoch, per-member owned-cell
//!   counts, and the load imbalance ratio (max member load over mean,
//!   milli-scaled) — the signal the repartitioner acts on, now visible
//!   to the same scrape that sees its effects;
//! * `# exemplar` comment lines linking each member's `sa_update_rtt_ns`
//!   p99 bucket to the trace id of a request that actually landed
//!   there — the bridge from a quantile readout into the merged span
//!   timeline.

use crate::topology::PartitionMap;
use sa_geometry::Grid;
use sa_obs::{render_snapshot, Registry, Snapshot};
use sa_server::Server;
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-member load totals under `map`: `loads` (per cell, flattened
/// index order) summed by owning member.
fn member_loads(grid: &Grid, map: &PartitionMap, loads: &[u64]) -> Vec<u64> {
    let members = map.ranges.iter().map(|r| r.owner).max().map_or(1, |m| m as usize + 1);
    let mut per_member = vec![0u64; members];
    for idx in 0..grid.cell_count() {
        let key = grid.morton_of(grid.cell_at_index(idx));
        if let Some(owner) = map.owner_of(key) {
            if let Some(slot) = per_member.get_mut(owner as usize) {
                *slot += loads.get(idx as usize).copied().unwrap_or(0);
            }
        }
    }
    per_member
}

/// Per-member owned-cell counts under `map`.
fn owned_cells(grid: &Grid, map: &PartitionMap) -> Vec<u64> {
    let members = map.ranges.iter().map(|r| r.owner).max().map_or(1, |m| m as usize + 1);
    let mut per_member = vec![0u64; members];
    for idx in 0..grid.cell_count() {
        let key = grid.morton_of(grid.cell_at_index(idx));
        if let Some(owner) = map.owner_of(key) {
            if let Some(slot) = per_member.get_mut(owner as usize) {
                *slot += 1;
            }
        }
    }
    per_member
}

/// Tags every series of `snap` with `member=<id>`.
fn relabel(mut snap: Snapshot, member: &str) -> Snapshot {
    let tag = ("member".to_string(), member.to_string());
    for (key, _) in &mut snap.counters {
        key.labels.push(tag.clone());
    }
    for (key, _) in &mut snap.gauges {
        key.labels.push(tag.clone());
    }
    for (key, _) in &mut snap.histograms {
        key.labels.push(tag.clone());
    }
    snap
}

/// Renders the whole federation as one Prometheus text document (see
/// the module docs for the sections).
pub fn federated_scrape(
    members: &[Arc<Server>],
    grid: &Grid,
    map: &PartitionMap,
    loads: &[u64],
) -> String {
    let mut out = String::new();

    // Section 1: every member's registry, member-labelled. Each
    // snapshot's histogram series also fold into the federation-level
    // roll-ups under member="federation" (section 2, rendered below).
    let merged = Registry::new();
    for (i, server) in members.iter().enumerate() {
        let snap = server.registry().snapshot();
        for (key, hist) in &snap.histograms {
            let mut labels: Vec<(&str, &str)> =
                key.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            labels.push(("member", "federation"));
            merged.histogram_with(&key.name, &labels).absorb(hist);
        }
        out.push_str(&render_snapshot(&relabel(snap, &i.to_string())));
    }

    // Section 3: coordinator gauges on the same roll-up registry.
    merged.gauge("sa_fed_epoch").set(map.epoch as i64);
    let cells = owned_cells(grid, map);
    for (i, n) in cells.iter().enumerate() {
        merged.gauge_with("sa_fed_owned_cells", &[("member", &i.to_string())]).set(*n as i64);
    }
    let per_member = member_loads(grid, map, loads);
    let total: u64 = per_member.iter().sum();
    let imbalance_milli = if total == 0 || per_member.is_empty() {
        1_000
    } else {
        let max = *per_member.iter().max().expect("non-empty");
        // max/mean, milli-scaled: 1000 = perfectly balanced.
        (max as i64 * 1_000 * per_member.len() as i64) / total as i64
    };
    merged.gauge("sa_fed_load_imbalance_milli").set(imbalance_milli);
    out.push_str(&render_snapshot(&merged.snapshot()));

    // Section 4: p99 exemplars — the quantile-to-trace bridge.
    for (i, server) in members.iter().enumerate() {
        let Some(snap) = server.registry().snapshot().histogram("sa_update_rtt_ns", &[]) else {
            continue;
        };
        if let Some(ex) = server.rtt_exemplars().for_value(snap.p99) {
            let _ = writeln!(
                out,
                "# exemplar sa_update_rtt_ns{{member=\"{i}\",quantile=\"0.99\"}} \
                 value={} trace={:#018x}",
                ex.value, ex.trace_id
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::Federation;
    use sa_geometry::Rect;
    use sa_server::{SharedClock, VirtualClock};

    #[test]
    fn scrape_labels_members_and_exposes_coordinator_gauges() {
        let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
        let grid = Grid::new(universe, 1_000.0).unwrap();
        let clock: SharedClock = Arc::new(VirtualClock::new());
        let fed = Federation::launch(
            grid.clone(),
            Vec::new(),
            30.0,
            2,
            clock,
        );
        let loads = vec![1u64; grid.cell_count() as usize];
        let text = federated_scrape(fed.servers(), &grid, fed.initial_map(), &loads);
        assert!(text.contains("member=\"0\""));
        assert!(text.contains("member=\"1\""));
        assert!(text.contains("member=\"federation\""));
        assert!(text.contains("sa_fed_epoch 0"));
        assert!(text.contains("sa_fed_owned_cells{member=\"0\"}"));
        // Uniform load over an even cut is perfectly balanced.
        assert!(text.contains("sa_fed_load_imbalance_milli 1000"));
    }
}
