//! Launching N federation members on one clock.

use crate::topology::PartitionMap;
use sa_alarms::SpatialAlarm;
use sa_geometry::Grid;
use sa_server::{Server, SharedClock};
use std::sync::Arc;

/// A running fleet of federation members sharing one grid, one alarm
/// workload and one clock.
///
/// Every member holds the **full** alarm index: ownership of *cells*
/// moves between members, so any member must be able to compute the
/// safe region of any cell it may come to own. What is partitioned is
/// the update traffic (each position-bearing request is processed by
/// exactly one member — the owner of its cell) and the per-session
/// state, which follows the vehicle through handoffs.
pub struct Federation {
    servers: Vec<Arc<Server>>,
    map: PartitionMap,
    grid: Grid,
}

impl Federation {
    /// Starts `partitions` members, each a full [`Server`] on `clock`,
    /// under the even epoch-0 partition map.
    ///
    /// # Panics
    ///
    /// Panics when `partitions` is zero or exceeds the grid's cell
    /// count, or when `v_max` is not positive.
    pub fn launch(
        grid: Grid,
        alarms: Vec<SpatialAlarm>,
        v_max: f64,
        partitions: u32,
        clock: SharedClock,
    ) -> Federation {
        let map = PartitionMap::even(&grid, partitions);
        let servers: Vec<Arc<Server>> = (0..partitions)
            .map(|id| {
                let server = Server::start_with_clock(
                    grid.clone(),
                    alarms.clone(),
                    v_max,
                    Arc::clone(&clock),
                );
                server.enable_federation(id, map.epoch, map.ranges.clone());
                server
            })
            .collect();
        Federation { servers, map, grid }
    }

    /// The running members, indexed by federation id.
    pub fn servers(&self) -> &[Arc<Server>] {
        &self.servers
    }

    /// Member `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn server(&self, id: usize) -> &Arc<Server> {
        &self.servers[id]
    }

    /// The epoch-0 map the federation launched under. Live members may
    /// since have accepted newer epochs from a coordinator; read
    /// [`Server::topology`] for the current view.
    pub fn initial_map(&self) -> &PartitionMap {
        &self.map
    }

    /// The shared grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Element-wise sum of every member's per-cell update counters —
    /// the federation-wide load distribution a repartition balances on.
    pub fn cell_loads(&self) -> Vec<u64> {
        let mut total = vec![0u64; self.grid.cell_count() as usize];
        for server in &self.servers {
            for (slot, n) in total.iter_mut().zip(server.cell_updates()) {
                *slot += n;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_geometry::Rect;
    use sa_server::VirtualClock;

    #[test]
    fn launch_gives_every_member_the_same_epoch_zero_map() {
        let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
        let grid = Grid::new(universe, 1_000.0).unwrap();
        let clock: SharedClock = Arc::new(VirtualClock::new());
        let fed = Federation::launch(grid, Vec::new(), 30.0, 3, clock);
        assert_eq!(fed.servers().len(), 3);
        for (id, server) in fed.servers().iter().enumerate() {
            assert_eq!(server.federation_id(), Some(id as u32));
            let (epoch, ranges) = server.topology();
            assert_eq!(epoch, 0);
            assert_eq!(ranges, fed.initial_map().ranges);
        }
    }
}
