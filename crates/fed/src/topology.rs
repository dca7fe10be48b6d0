//! The cell-ownership partition map.
//!
//! Ownership is expressed over the grid's **Morton key space**: every
//! cell maps to a `u64` Z-order key ([`Grid::morton_of`]), and a
//! [`PartitionMap`] is a sorted list of half-open key ranges
//! `[start, end)` covering `[0, u64::MAX)`, each owned by one
//! federation member. Z-order keeps a member's cells spatially
//! clustered, so boundary crossings — the events that force a session
//! handoff — are rare relative to plain cell crossings.
//!
//! Maps are versioned by an **epoch**. Every change goes through
//! [`PartitionMap::rebalance`], which bumps the epoch; members only
//! accept installs with a strictly newer epoch, so replayed or
//! reordered coordinator pushes are harmless.

use sa_geometry::Grid;
use sa_server::wire::{owner_of, CellRange};

/// An epoch-versioned assignment of Morton key ranges to members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// Version of this map; members reject installs that do not
    /// strictly increase it.
    pub epoch: u64,
    /// Sorted, non-overlapping ranges covering the whole key space.
    pub ranges: Vec<CellRange>,
}

impl PartitionMap {
    /// An epoch-0 map splitting the grid's cells into `partitions`
    /// contiguous Morton-order chunks of (nearly) equal cell count.
    ///
    /// # Panics
    ///
    /// Panics when `partitions` is zero or exceeds the cell count.
    pub fn even(grid: &Grid, partitions: u32) -> PartitionMap {
        let keys = sorted_keys(grid);
        assert!(partitions > 0, "need at least one partition");
        assert!(
            (partitions as u64) <= keys.len() as u64,
            "more partitions than grid cells"
        );
        let n = partitions as usize;
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0u64;
        for owner in 0..n {
            let end = if owner + 1 == n {
                u64::MAX
            } else {
                // First key of the next chunk: chunks are equal-sized
                // prefixes of the sorted key list.
                keys[(owner + 1) * keys.len() / n]
            };
            ranges.push(CellRange { start, end, owner: owner as u32 });
            start = end;
        }
        PartitionMap { epoch: 0, ranges }
    }

    /// The member owning Morton key `key`, or `None` if the key falls
    /// outside every range (possible only for maps not covering the
    /// full key space).
    pub fn owner_of(&self, key: u64) -> Option<u32> {
        owner_of(&self.ranges, key)
    }

    /// Re-cuts the ranges so each member carries a (nearly) equal share
    /// of the observed per-cell load, keeping the member count and
    /// Morton contiguity. `loads` is indexed by flattened cell index
    /// (the layout of [`sa_server::Server::cell_updates`]); every
    /// cell is weighted `load + 1` so zero-traffic cells still spread
    /// and no member ends up empty.
    ///
    /// Returns `None` when the balanced cut equals the current one —
    /// the caller should not push a new epoch for a no-op.
    ///
    /// # Panics
    ///
    /// Panics when `loads` is shorter than the grid's cell count.
    pub fn rebalance(&self, grid: &Grid, loads: &[u64]) -> Option<PartitionMap> {
        let cell_count = grid.cell_count();
        assert!(
            loads.len() as u64 >= cell_count,
            "need one load sample per grid cell"
        );
        let n = self.ranges.len();
        // Cells in Morton order, each with its observed weight.
        let mut cells: Vec<(u64, u64)> = (0..cell_count)
            .map(|idx| {
                let key = grid.morton_of(grid.cell_at_index(idx));
                (key, loads[idx as usize] + 1)
            })
            .collect();
        cells.sort_unstable_by_key(|&(key, _)| key);
        let total: u64 = cells.iter().map(|&(_, w)| w).sum();

        let mut ranges = Vec::with_capacity(n);
        let mut start = 0u64;
        let mut acc = 0u64;
        let mut cursor = 0usize;
        for owner in 0..n {
            let end = if owner + 1 == n {
                u64::MAX
            } else {
                // Advance until this member's share reaches its target
                // prefix of the total weight, but leave enough cells for
                // the members after it.
                let target = total * (owner as u64 + 1) / n as u64;
                let reserve = n - owner - 1;
                while cursor < cells.len().saturating_sub(reserve) && acc < target {
                    acc += cells[cursor].1;
                    cursor += 1;
                }
                cells[cursor.min(cells.len() - 1)].0
            };
            ranges.push(CellRange { start, end, owner: owner as u32 });
            start = end;
        }
        if ranges == self.ranges {
            return None;
        }
        Some(PartitionMap { epoch: self.epoch + 1, ranges })
    }

    /// The `k` most-loaded cells as `(cell_index, load)` pairs, busiest
    /// first — the hot-cell readout behind a repartition decision.
    pub fn hot_cells(loads: &[u64], k: usize) -> Vec<(u64, u64)> {
        let mut indexed: Vec<(u64, u64)> =
            loads.iter().enumerate().map(|(i, &l)| (i as u64, l)).collect();
        indexed.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        indexed.truncate(k);
        indexed
    }
}

/// All of the grid's Morton keys, sorted ascending.
fn sorted_keys(grid: &Grid) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..grid.cell_count())
        .map(|idx| grid.morton_of(grid.cell_at_index(idx)))
        .collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_geometry::Rect;

    fn grid() -> Grid {
        let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
        Grid::new(universe, 1_000.0).unwrap()
    }

    #[test]
    fn even_covers_every_cell_exactly_once() {
        let g = grid();
        for n in 1..=4u32 {
            let map = PartitionMap::even(&g, n);
            assert_eq!(map.ranges.len(), n as usize);
            assert_eq!(map.ranges[0].start, 0);
            assert_eq!(map.ranges.last().unwrap().end, u64::MAX);
            for w in map.ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must tile the key space");
            }
            let mut per_owner = vec![0u64; n as usize];
            for idx in 0..g.cell_count() {
                let key = g.morton_of(g.cell_at_index(idx));
                let owner = map.owner_of(key).expect("every cell key must be owned");
                per_owner[owner as usize] += 1;
            }
            assert_eq!(per_owner.iter().sum::<u64>(), g.cell_count());
            assert!(
                per_owner.iter().all(|&c| c > 0),
                "no member may start empty: {per_owner:?}"
            );
        }
    }

    #[test]
    fn owner_of_is_total_over_the_key_space() {
        let map = PartitionMap::even(&grid(), 3);
        for key in [0u64, 1, 5, 100, u64::MAX - 1] {
            assert!(map.owner_of(key).is_some(), "key {key} must have an owner");
        }
        // The single excluded point of the half-open tiling.
        assert_eq!(map.owner_of(u64::MAX), None);
    }

    #[test]
    fn rebalance_shifts_ranges_toward_hot_cells_and_bumps_the_epoch() {
        let g = grid();
        let map = PartitionMap::even(&g, 2);
        // Pile all load onto the very first Morton cell: after the
        // rebalance member 0 should own (nearly) only that cell.
        let hot = g.cell_index(g.cell_at_index(0));
        let mut loads = vec![0u64; g.cell_count() as usize];
        loads[hot as usize] = 10_000;
        let new = map.rebalance(&g, &loads).expect("skewed load must re-cut");
        assert_eq!(new.epoch, map.epoch + 1);
        assert_ne!(new.ranges, map.ranges);
        let count_owned_by_0 = (0..g.cell_count())
            .filter(|&idx| {
                new.owner_of(g.morton_of(g.cell_at_index(idx))) == Some(0)
            })
            .count();
        let before = (0..g.cell_count())
            .filter(|&idx| {
                map.owner_of(g.morton_of(g.cell_at_index(idx))) == Some(0)
            })
            .count();
        assert!(
            count_owned_by_0 < before,
            "hot member must shed cells: {count_owned_by_0} !< {before}"
        );
    }

    #[test]
    fn rebalance_of_uniform_load_is_a_no_op() {
        let g = grid();
        let map = PartitionMap::even(&g, 2);
        let loads = vec![5u64; g.cell_count() as usize];
        // Uniform load reproduces the even cut exactly.
        assert_eq!(map.rebalance(&g, &loads), None);
    }

    #[test]
    fn hot_cells_ranks_by_load() {
        let loads = vec![3, 9, 1, 9, 0];
        let top = PartitionMap::hot_cells(&loads, 3);
        assert_eq!(top, vec![(1, 9), (3, 9), (0, 3)]);
    }
}
