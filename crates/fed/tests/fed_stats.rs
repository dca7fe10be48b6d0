//! Federated-scrape acceptance: a 3-member federation scraped right
//! after a mid-run repartition must expose the coordinator's view —
//! the new epoch and per-member owned-cell gauges that are **disjoint
//! and complete** over the grid (every cell counted exactly once) —
//! alongside every member's own metrics under a `member` label.

use sa_fed::{federated_scrape, Coordinator, Federation};
use sa_geometry::{Grid, Rect};
use sa_server::{InProcTransport, SharedClock, Transport, VirtualClock};
use std::sync::Arc;

/// The value of the sample line starting with `prefix ` (name + labels).
fn sample_value(text: &str, prefix: &str) -> Option<i64> {
    text.lines()
        .find(|l| l.starts_with(prefix) && l[prefix.len()..].starts_with(' '))
        .and_then(|l| l[prefix.len() + 1..].trim().parse().ok())
}

#[test]
fn mid_repartition_scrape_reports_disjoint_complete_cell_ownership() {
    let universe = Rect::new(0.0, 0.0, 6_000.0, 6_000.0).unwrap();
    let grid = Grid::new(universe, 1_000.0).unwrap();
    let clock: SharedClock = Arc::new(VirtualClock::new());
    let fed = Federation::launch(
        grid.clone(),
        Vec::new(),
        30.0,
        3,
        Arc::clone(&clock),
    );
    let links: Vec<Box<dyn Transport + Send>> = fed
        .servers()
        .iter()
        .map(|s| Box::new(InProcTransport::connect(Arc::clone(s))) as Box<dyn Transport + Send>)
        .collect();
    let mut coord = Coordinator::new(links, fed.initial_map().clone(), Arc::clone(&clock));

    // A load gradient across the grid: enough skew to move the cut,
    // spread enough that every member keeps a share.
    let loads: Vec<u64> = (0..grid.cell_count()).map(|idx| idx * 10).collect();
    assert!(coord.maybe_repartition(&grid, &loads).unwrap(), "skew must move the cut");

    let text = federated_scrape(fed.servers(), &grid, coord.map(), &loads);

    assert_eq!(sample_value(&text, "sa_fed_epoch"), Some(1), "scrape must carry the new epoch");

    // Disjoint-complete: the three owned-cell gauges partition the grid.
    let counts: Vec<i64> = (0..3)
        .map(|m| {
            sample_value(&text, &format!("sa_fed_owned_cells{{member=\"{m}\"}}"))
                .unwrap_or_else(|| panic!("missing owned-cells gauge for member {m}:\n{text}"))
        })
        .collect();
    assert!(counts.iter().all(|&c| c > 0), "no member may end up empty: {counts:?}");
    assert_eq!(
        counts.iter().sum::<i64>(),
        grid.cell_count() as i64,
        "gauges must sum to the grid: {counts:?}"
    );
    // Cross-check against the authoritative map, cell by cell.
    for m in 0..3u32 {
        let owned = (0..grid.cell_count())
            .filter(|&idx| {
                coord.map().owner_of(grid.morton_of(grid.cell_at_index(idx))) == Some(m)
            })
            .count() as i64;
        assert_eq!(counts[m as usize], owned, "gauge for member {m} must match the map");
    }

    // The imbalance gauge is max/mean milli-scaled: never below 1000.
    let imbalance = sample_value(&text, "sa_fed_load_imbalance_milli")
        .expect("scrape must carry the imbalance gauge");
    assert!(imbalance >= 1_000, "max/mean can never be below the mean: {imbalance}");

    // Every member's own registry appears under its member label.
    for m in 0..3 {
        assert!(
            text.contains(&format!("member=\"{m}\"")),
            "member {m} series missing from the scrape"
        );
    }
    assert!(text.contains("member=\"federation\""), "histogram roll-ups must be present");
}
