//! Epoch-versioned cache of per-cell *public* pyramid bitmaps — the live
//! counterpart of the paper's §4.2 precomputation ("the safe region
//! computation for public alarms can be performed offline and shared by
//! all users in the cell").
//!
//! Entries are keyed **per cell first** (`cell → {pyramid height →
//! entry}`) and stamped with the cell's **alarm-set epoch**, a counter
//! bumped whenever an alarm intersecting the cell is installed or
//! removed. A lookup only hits when the stamped epoch equals the cell's
//! current epoch, so mutations invalidate exactly the affected cells
//! without any global flush — and because a cell's entries live in one
//! inner map, [`RegionCache::bump_epoch`] drops them in O(entries of
//! that cell) rather than scanning the whole cache (an install storm
//! must not stall every reader behind a full-map retain under the write
//! lock).
//!
//! Inserts are validated against the cell's *current* epoch: a bitmap
//! computed while an install raced in is already stale, can never hit,
//! and is **rejected** instead of stored (counted as
//! `sa_cache_evictions_total`), so racing installs cannot grow the map
//! with dead entries.
//!
//! Cached bitmaps are computed from *all* public alarms in the cell,
//! ignoring per-user fired state. For a user none of whose public alarms
//! in the cell have fired this is exactly the fresh computation; the
//! server falls back to a per-user computation otherwise (a fired alarm
//! should rejoin the safe region — serving the cached bitmap instead
//! would be conservative but chatty).
//!
//! An entry holds the bitmap's wire encoding, made once at insert, so a
//! hit through [`RegionCache::lookup_wire`] is the response payload as
//! is. [`RegionCache::lookup`] decodes it back into the region.

use parking_lot::RwLock;
use sa_core::{BitVec, BitmapSafeRegion, PyramidConfig};
use sa_geometry::Rect;
use sa_obs::{Counter, Registry};
use std::collections::HashMap;

/// Hit/miss/invalidation snapshot — a thin view over the cache's
/// `sa-obs` counters, kept so existing callers of
/// [`RegionCache::stats`] / `Server::cache_stats` don't change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a current-epoch entry.
    pub hits: u64,
    /// Lookups that found no entry (or only a stale one).
    pub misses: u64,
    /// Entries dropped because their cell's epoch moved.
    pub invalidations: u64,
    /// Stale inserts rejected (or stale leftovers replaced) against the
    /// cell's current epoch.
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry {
    epoch: u64,
    /// The region's [`BitmapSafeRegion::to_wire_bits`]; with `cell` and
    /// `config` it decodes back to the region. The region itself is not
    /// kept beside it: it would double the entry.
    bits: BitVec,
    cell: Rect,
    config: PyramidConfig,
}

/// The shared public-bitmap cache (see the module docs).
///
/// Counters live on an [`sa_obs::Registry`]: build with
/// [`RegionCache::with_registry`] to publish them alongside the rest of
/// a server's metrics (`sa_cache_hits_total` / `sa_cache_misses_total` /
/// `sa_cache_invalidations_total` / `sa_cache_evictions_total`), or
/// [`RegionCache::new`] for a standalone cache with a private registry.
#[derive(Debug)]
pub struct RegionCache {
    /// Cell index → alarm-set epoch; absent means epoch 0.
    epochs: RwLock<HashMap<u64, u64>>,
    /// Cell index → (pyramid height → stamped entry). The per-cell inner
    /// map is what makes epoch bumps O(cell), not O(cache).
    entries: RwLock<HashMap<u64, HashMap<u32, Entry>>>,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    evictions: Counter,
}

impl Default for RegionCache {
    fn default() -> RegionCache {
        RegionCache::with_registry(&Registry::new())
    }
}

impl RegionCache {
    /// An empty cache with every cell at epoch 0, counting into a
    /// private registry.
    pub fn new() -> RegionCache {
        RegionCache::default()
    }

    /// An empty cache whose counters are registered on `registry`.
    pub fn with_registry(registry: &Registry) -> RegionCache {
        RegionCache {
            epochs: RwLock::new(HashMap::new()),
            entries: RwLock::new(HashMap::new()),
            hits: registry.counter("sa_cache_hits_total"),
            misses: registry.counter("sa_cache_misses_total"),
            invalidations: registry.counter("sa_cache_invalidations_total"),
            evictions: registry.counter("sa_cache_evictions_total"),
        }
    }

    /// The current alarm-set epoch of `cell`.
    pub fn epoch(&self, cell: u64) -> u64 {
        self.epochs.read().get(&cell).copied().unwrap_or(0)
    }

    /// Bumps `cell`'s epoch (an alarm intersecting it was installed or
    /// removed) and drops the cell's now-stale entries. Touches only the
    /// bumped cell's slot — entries of every other cell are left alone.
    pub fn bump_epoch(&self, cell: u64) {
        *self.epochs.write().entry(cell).or_insert(0) += 1;
        if let Some(dropped) = self.entries.write().remove(&cell) {
            if !dropped.is_empty() {
                self.invalidations.add(dropped.len() as u64);
            }
        }
    }

    /// The cached public bitmap for `(cell, height)` if it is stamped with
    /// the cell's current epoch, decoded from its wire bits.
    pub fn lookup(&self, cell: u64, height: u32) -> Option<BitmapSafeRegion> {
        self.hit(cell, height, |entry| {
            BitmapSafeRegion::from_wire_bits(entry.cell, entry.config, entry.bits.clone())
                .expect("cached bits were encoded from a region of this cell and config")
        })
    }

    /// The wire bits of the cached public bitmap for `(cell, height)` if
    /// it is stamped with the cell's current epoch — the PBSR refresh's
    /// payload without re-encoding the region.
    pub fn lookup_wire(&self, cell: u64, height: u32) -> Option<BitVec> {
        self.hit(cell, height, |entry| entry.bits.clone())
    }

    /// `read` of the `(cell, height)` entry stamped with the cell's
    /// current epoch, counted as a hit; `None`, counted as a miss, when
    /// there is none.
    fn hit<R>(&self, cell: u64, height: u32, read: impl FnOnce(&Entry) -> R) -> Option<R> {
        let current = self.epoch(cell);
        let entries = self.entries.read();
        match entries.get(&cell).and_then(|heights| heights.get(&height)) {
            Some(entry) if entry.epoch == current => {
                self.hits.inc();
                Some(read(entry))
            }
            _ => {
                self.misses.inc();
                None
            }
        }
    }

    /// Stores a bitmap computed while the cell was at `epoch`, encoded to
    /// its wire bits once, here.
    ///
    /// An insert stamped with an epoch the cell has already moved past
    /// is dead on arrival (it could never hit) and is rejected rather
    /// than stored, counted as an eviction; likewise a store that
    /// replaces a stale leftover counts the reclamation. Either way a
    /// racing install keeps correctness without any compute-side
    /// locking, and repeated races leave the cache size bounded by the
    /// number of *live* `(cell, height)` pairs.
    pub fn insert(&self, cell: u64, height: u32, epoch: u64, region: BitmapSafeRegion) {
        let current = self.epoch(cell);
        if epoch != current {
            // The epoch moved while the bitmap was being computed: the
            // entry is already unservable, reclaim it immediately.
            self.evictions.inc();
            return;
        }
        let entry = Entry {
            epoch,
            bits: region.to_wire_bits(),
            cell: region.cell(),
            config: region.config(),
        };
        let mut entries = self.entries.write();
        let slot = entries.entry(cell).or_default();
        if let Some(prev) = slot.insert(height, entry) {
            if prev.epoch != epoch {
                self.evictions.inc();
            }
        }
    }

    /// Number of live entries across all cells.
    pub fn len(&self) -> usize {
        self.entries.read().values().map(HashMap::len).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.read().values().all(HashMap::is_empty)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            invalidations: self.invalidations.get(),
            evictions: self.evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_core::{PyramidComputer, PyramidConfig};
    use sa_geometry::Rect;

    fn region(height: u32) -> BitmapSafeRegion {
        let cell = Rect::new(0.0, 0.0, 9.0, 9.0).unwrap();
        let alarm = Rect::new(1.0, 1.0, 2.0, 2.0).unwrap();
        PyramidComputer::new(PyramidConfig::three_by_three(height)).compute(cell, &[alarm])
    }

    #[test]
    fn lookup_hits_only_at_matching_epoch() {
        let cache = RegionCache::new();
        assert!(cache.lookup(3, 2).is_none());
        cache.insert(3, 2, cache.epoch(3), region(2));
        assert!(cache.lookup(3, 2).is_some());
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 1, invalidations: 0, evictions: 0 }
        );
    }

    #[test]
    fn both_lookups_return_the_inserted_regions_bits() {
        let cache = RegionCache::new();
        for height in [1, 3, 5] {
            let inserted = region(height);
            cache.insert(0, height, 0, inserted.clone());
            assert_eq!(cache.lookup_wire(0, height), Some(inserted.to_wire_bits()));
            let decoded = cache.lookup(0, height).expect("a current entry hits");
            assert_eq!(decoded.to_wire_bits(), inserted.to_wire_bits());
            assert_eq!((decoded.cell(), decoded.config()), (inserted.cell(), inserted.config()));
        }
        assert_eq!(cache.lookup_wire(0, 2), None);
        assert_eq!(cache.stats().hits, 6);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn bump_invalidates_exactly_that_cell() {
        let cache = RegionCache::new();
        cache.insert(1, 2, 0, region(2));
        cache.insert(1, 3, 0, region(3));
        cache.insert(2, 2, 0, region(2));
        cache.bump_epoch(1);
        assert!(cache.lookup(1, 2).is_none(), "cell 1 height 2 must be invalidated");
        assert!(cache.lookup(1, 3).is_none(), "cell 1 height 3 must be invalidated");
        assert!(cache.lookup(2, 2).is_some(), "cell 2 must survive");
        assert_eq!(cache.stats().invalidations, 2);
        assert_eq!(cache.epoch(1), 1);
        assert_eq!(cache.epoch(2), 0);
    }

    #[test]
    fn bump_leaves_other_cells_entries_untouched() {
        // Regression for the O(total entries) retain: a bump of one cell
        // must neither drop nor invalidate any other cell's entries.
        let cache = RegionCache::new();
        for cell in 0..64u64 {
            cache.insert(cell, 2, 0, region(2));
            cache.insert(cell, 4, 0, region(4));
        }
        assert_eq!(cache.len(), 128);
        cache.bump_epoch(17);
        assert_eq!(cache.len(), 126, "only cell 17's two entries may drop");
        assert_eq!(cache.stats().invalidations, 2);
        for cell in (0..64u64).filter(|&c| c != 17) {
            assert!(cache.lookup(cell, 2).is_some(), "cell {cell} height 2 must survive");
            assert!(cache.lookup(cell, 4).is_some(), "cell {cell} height 4 must survive");
        }
        assert!(cache.lookup(17, 2).is_none());
        assert!(cache.lookup(17, 4).is_none());
    }

    #[test]
    fn registry_backed_cache_publishes_the_same_counters() {
        let registry = Registry::new();
        let cache = RegionCache::with_registry(&registry);
        cache.lookup(4, 2); // miss
        cache.insert(4, 2, cache.epoch(4), region(2));
        cache.lookup(4, 2); // hit
        cache.bump_epoch(4); // invalidates the entry
        cache.insert(4, 2, 0, region(2)); // stale insert → eviction
        let stats = cache.stats();
        assert_eq!(
            stats,
            CacheStats { hits: 1, misses: 1, invalidations: 1, evictions: 1 }
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sa_cache_hits_total", &[]), Some(stats.hits));
        assert_eq!(snap.counter("sa_cache_misses_total", &[]), Some(stats.misses));
        assert_eq!(snap.counter("sa_cache_invalidations_total", &[]), Some(stats.invalidations));
        assert_eq!(snap.counter("sa_cache_evictions_total", &[]), Some(stats.evictions));
    }

    #[test]
    fn stale_insert_is_rejected_not_stored() {
        let cache = RegionCache::new();
        let epoch_at_compute_start = cache.epoch(5);
        // An install lands while the bitmap is being computed…
        cache.bump_epoch(5);
        // …so the stamped insert is already stale: rejected, reclaimed.
        cache.insert(5, 2, epoch_at_compute_start, region(2));
        assert!(cache.lookup(5, 2).is_none());
        assert!(cache.is_empty(), "a stale insert must not be stored");
        assert_eq!(cache.stats().evictions, 1);
        // Re-computing at the current epoch hits again.
        cache.insert(5, 2, cache.epoch(5), region(2));
        assert!(cache.lookup(5, 2).is_some());
        assert!(!cache.is_empty());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_installs_leave_len_bounded() {
        // A (compute → install lands → stale insert) race repeated many
        // times must not grow the cache: stale inserts are rejected, and
        // the one live entry per (cell, height) is the only survivor.
        let cache = RegionCache::new();
        for _ in 0..100 {
            let epoch = cache.epoch(9);
            cache.bump_epoch(9); // racing install
            cache.insert(9, 5, epoch, region(5)); // stale: rejected
            cache.insert(9, 5, cache.epoch(9), region(5)); // fresh
        }
        assert_eq!(cache.len(), 1, "repeated races must not leak entries");
        assert_eq!(cache.stats().evictions, 100);
        assert!(cache.lookup(9, 5).is_some());
    }
}
