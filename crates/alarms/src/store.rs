//! The live server's alarm state: a grid-keyed copy-on-write store.
//!
//! Every read the server makes per location update is scoped to the
//! reporting subscriber's grid cell (paper §3–4): the trigger probe is a
//! point in the cell, the MWPSR/PBSR obstacle gather and the OPT push are
//! the cell itself. So the grid is the index. An [`AlarmStore`] holds, per
//! immutable [`StoreGeneration`]:
//!
//! - one bucket per cell of every live alarm whose closed region meets
//!   the cell, with the alarm's rect inline beside a reference to the
//!   alarm in an immutable page (the initial set is one page, each
//!   install a page of its own);
//! - one bucket per cell of the public alarms alone, rect and id — the
//!   safe-period nearest search is a ring search over these;
//! - the subscribers' personal (private and shared) alarms, in stripes
//!   sorted by subscriber — the rest of the nearest search.
//!
//! Each of the three sits in fixed-size `Arc`'d chunks of `Arc`'d
//! buckets under a spine of chunk pointers, so a write copies only the
//! buckets its alarm touches, their chunks and the spines — never a
//! structure sized by the alarm count, whatever the alarm's scope.
//!
//! Writers serialize on a mutex, build the next generation from the
//! current one and publish it with an `Arc` swap plus an epoch bump.
//! Readers pin a generation through a per-thread [`GenerationCache`]: the
//! steady state is one atomic epoch load and a pointer dereference — no
//! lock, no allocation. There is no delta, no dead set and no fold: a
//! generation holds exactly the live alarms.
//!
//! Bucket assignment uses [`Grid::cell_of`]'s arithmetic: an alarm sits in
//! every cell between the cells of its two corners, widened by a column
//! or row where its region still meets the neighbouring cells' closed
//! extent ([`cells_covering`]). The first rule puts a position on a cell
//! edge in a bucket holding every alarm that contains it (`cell_of` is
//! monotone); the second, with the visitors' exact filters, makes a cell
//! read equal the R-tree's closed-intersection set, to the alarm.
//!
//! A reader may observe a generation one publish stale; see
//! [`crate::snapshot`] for why that is sound.

use crate::index::{personal_subscribers, NonDenseIdError};
use crate::{AlarmId, SpatialAlarm, SubscriberId};
use parking_lot::{Mutex, RwLock};
use sa_geometry::{CellId, Grid, Point, Rect};
use sa_index::QueryStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buckets per spine chunk: a write copies the chunk pointer array and
/// each chunk it touches, never every bucket's pointer.
const CHUNK: usize = 32;

/// Stripes of the personal lists: subscriber `u`'s alarms sit in stripe
/// `u % STRIPES`.
const STRIPES: usize = 64;

/// Process-wide counter handing each [`AlarmStore`] a distinct identity,
/// so a [`GenerationCache`] carried across stores (a thread serving two
/// servers in tests) never returns another store's generation.
static STORE_IDS: AtomicU64 = AtomicU64::new(1);

/// Per-thread cache of the last generation loaded from an
/// [`AlarmStore`]. Construct once with [`GenerationCache::new`] — e.g. in
/// a `thread_local!` — and pass to [`AlarmStore::load_cached`].
#[derive(Debug, Default)]
pub struct GenerationCache {
    store: u64,
    epoch: u64,
    generation: Option<Arc<StoreGeneration>>,
}

impl GenerationCache {
    /// An empty cache; the first `load_cached` through it always refreshes.
    pub const fn new() -> GenerationCache {
        GenerationCache { store: 0, epoch: 0, generation: None }
    }
}

/// A live alarm: its place in an immutable page of alarms that every
/// bucket holding it shares — the initial set is one page, each install
/// a page of its own — so copying a bucket never copies an alarm. (A
/// removed alarm of the initial set keeps its slot until the page goes.)
#[derive(Clone)]
struct AlarmRef {
    page: Arc<Vec<SpatialAlarm>>,
    at: usize,
}

impl std::ops::Deref for AlarmRef {
    type Target = SpatialAlarm;

    fn deref(&self) -> &SpatialAlarm {
        &self.page[self.at]
    }
}

impl std::fmt::Debug for AlarmRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        SpatialAlarm::fmt(self, f)
    }
}

/// One alarm of a cell bucket: its region inline, so a probe tests the
/// rect without dereferencing the alarm.
#[derive(Debug, Clone)]
struct Entry {
    rect: Rect,
    alarm: AlarmRef,
}

/// One alarm as the nearest search reads it; `user` is the subscriber
/// whose personal list it is in (unused in a public bucket).
#[derive(Debug, Clone, Copy)]
struct Located {
    user: SubscriberId,
    id: AlarmId,
    rect: Rect,
}

/// Up to [`CHUNK`] consecutive buckets.
type Chunk<T> = Arc<[Arc<[T]>]>;

/// Numbered buckets of `T` under a spine of `Arc`'d chunks: cloning
/// copies the spine, editing a bucket copies it and its chunk.
#[derive(Debug, Clone)]
struct Buckets<T> {
    chunks: Box<[Chunk<T>]>,
}

impl<T: Clone> Buckets<T> {
    /// `count` buckets, bucket `i` holding `make` of each item keyed `i`,
    /// in order; `items` is sorted by key. Each bucket is one exactly
    /// sized allocation.
    fn grouped<K>(count: usize, items: &[(u32, K)], make: impl Fn(&K) -> T) -> Buckets<T> {
        let mut rest = items;
        let mut buckets = (0..count).map(|i| {
            let (bucket, tail) = rest.split_at(rest.partition_point(|(key, _)| *key as usize == i));
            rest = tail;
            bucket.iter().map(|(_, item)| make(item)).collect::<Arc<[T]>>()
        });
        let chunks = count.div_ceil(CHUNK);
        Buckets { chunks: (0..chunks).map(|_| buckets.by_ref().take(CHUNK).collect()).collect() }
    }

    fn get(&self, i: usize) -> &[T] {
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Replaces bucket `i` with `edit` of it for each `i` of `indexes`
    /// (ascending), copying each chunk it touches once.
    fn edit(&mut self, indexes: impl Iterator<Item = usize>, edit: impl Fn(&[T]) -> Arc<[T]>) {
        let mut open: Option<(usize, Vec<Arc<[T]>>)> = None;
        for i in indexes {
            let (chunk, slot) = (i / CHUNK, i % CHUNK);
            if open.as_ref().is_none_or(|&(at, _)| at != chunk) {
                if let Some((at, buckets)) = open.take() {
                    self.chunks[at] = buckets.into();
                }
                open = Some((chunk, self.chunks[chunk].to_vec()));
            }
            let (_, buckets) = open.as_mut().expect("a chunk is open");
            buckets[slot] = edit(&buckets[slot]);
        }
        if let Some((at, buckets)) = open {
            self.chunks[at] = buckets.into();
        }
    }
}

/// `items` with `item` inserted at `at`, in one exactly sized allocation.
fn inserted<T: Clone>(items: &[T], at: usize, item: T) -> Arc<[T]> {
    let (head, tail) = items.split_at(at);
    head.iter().cloned().chain([item]).chain(tail.iter().cloned()).collect()
}

/// `items` without the first item `hit` matches, in one exactly sized
/// allocation.
fn without<T: Clone>(items: &[T], hit: impl Fn(&T) -> bool) -> Arc<[T]> {
    let at = items.iter().position(hit).unwrap_or(items.len());
    let (head, tail) = (&items[..at], items.get(at + 1..).unwrap_or(&[]));
    head.iter().cloned().chain(tail.iter().cloned()).collect()
}

/// One immutable generation of an [`AlarmStore`]: the buckets and
/// personal stripes of the live alarms and the next dense id. Buckets
/// and stripes hold alarms in ascending id order.
#[derive(Debug, Clone)]
pub struct StoreGeneration {
    grid: Grid,
    /// Every live alarm, by cell index.
    cells: Buckets<Entry>,
    /// The live public alarms, by cell index.
    public: Arc<Buckets<Located>>,
    /// The live private and shared alarms of each subscriber, by stripe,
    /// sorted by subscriber.
    personal: Arc<Buckets<Located>>,
    /// The id the next install must carry.
    next: u64,
}

impl StoreGeneration {
    /// The next dense id: the number of alarms ever installed, removed
    /// ones included.
    pub fn len(&self) -> usize {
        self.next as usize
    }

    /// True when no alarm was ever installed.
    pub fn is_empty(&self) -> bool {
        self.next == 0
    }

    fn bucket(&self, cell: CellId) -> &[Entry] {
        self.cells.get(self.grid.cell_index(cell) as usize)
    }

    /// Visits each live alarm relevant to `user` whose region contains
    /// `pos` (closed), from the bucket of `pos`'s cell — the trigger
    /// probe the server runs per location update. The stats count the
    /// bucket's entries as tested; no tree node is visited.
    pub fn relevant_at_visit<'a>(
        &'a self,
        user: SubscriberId,
        pos: Point,
        mut f: impl FnMut(&'a SpatialAlarm),
    ) -> QueryStats {
        let bucket = self.bucket(self.grid.cell_of(pos));
        let mut matches = 0;
        for e in bucket {
            if e.rect.contains_point(pos) && e.alarm.is_relevant_to(user) {
                matches += 1;
                f(&e.alarm);
            }
        }
        QueryStats { nodes_visited: 0, entries_tested: bucket.len(), matches }
    }

    /// Visits every live alarm, whatever its scope, whose region meets
    /// `cell`'s closed rect, in ascending id order — the read behind the
    /// MWPSR/PBSR obstacle gather and the OPT push.
    pub fn cell_visit<'a>(
        &'a self,
        cell: CellId,
        mut f: impl FnMut(&'a SpatialAlarm),
    ) -> QueryStats {
        let bucket = self.bucket(cell);
        let area = self.grid.cell_rect(cell);
        let mut matches = 0;
        for e in bucket {
            if e.rect.intersects(&area) {
                matches += 1;
                f(&e.alarm);
            }
        }
        QueryStats { nodes_visited: 0, entries_tested: bucket.len(), matches }
    }

    /// Distance from `pos` to the nearest live alarm relevant to `user`
    /// that passes `keep` — the safe-period grant's query: a ring search
    /// over the public buckets, outward from `pos`'s cell, that stops once
    /// no cell beyond the rings read can hold a nearer public alarm, then
    /// a scan of the subscriber's personal list. The answer is the minimum
    /// [`Rect::distance_to_point`] over every such alarm, to the bit.
    /// Touches no heap.
    pub fn nearest_relevant_distance(
        &self,
        user: SubscriberId,
        pos: Point,
        keep: impl Fn(AlarmId) -> bool,
    ) -> Option<f64> {
        let mut best = Nearest { dist: f64::INFINITY, bound_sq: f64::INFINITY };
        let stripe = self.personal.get(user.0 as usize % STRIPES);
        let first = stripe.partition_point(|p| p.user < user);
        let mine = stripe[first..].iter().take_while(|p| p.user == user);
        best.offer(mine, pos, &keep);
        let grid = &self.grid;
        let (u, side) = (grid.universe(), grid.cell_size());
        let (cols, rows) = (i64::from(grid.cols()), i64::from(grid.rows()));
        let home = grid.cell_of(pos);
        let (hc, hr) = (i64::from(home.col), i64::from(home.row));
        // Covers the rounding of `cell_of` and of the cell edges below by
        // orders of magnitude: a ring more is read, never one less.
        let extent = u.min_x().abs().max(u.max_x().abs()) + u.min_y().abs().max(u.max_y().abs());
        let slack = 1e-9 * (extent + side);
        for r in 0i64.. {
            // Ring `r`: the cells `r` columns or rows from home, inside
            // the grid — whole edge rows, two cells of every other row.
            for row in (hr - r).max(0)..=(hr + r).min(rows - 1) {
                let step = if row == hr - r || row == hr + r { 1 } else { 2 * r };
                for col in
                    (hc - r..=hc + r).step_by(step as usize).filter(|c| (0..cols).contains(c))
                {
                    let cell = CellId { col: col as u32, row: row as u32 };
                    best.offer(self.public.get(grid.cell_index(cell) as usize), pos, &keep);
                }
            }
            // A cell outside the rings read lies past a side of their
            // block that still has cells beyond it; so does the nearest
            // point of any alarm not in their buckets (or, for one past
            // the universe, that point's projection onto it).
            let sides = [
                (hc - r > 0).then(|| pos.x - (u.min_x() + (hc - r) as f64 * side)),
                (hc + r + 1 < cols).then(|| u.min_x() + (hc + r + 1) as f64 * side - pos.x),
                (hr - r > 0).then(|| pos.y - (u.min_y() + (hr - r) as f64 * side)),
                (hr + r + 1 < rows).then(|| u.min_y() + (hr + r + 1) as f64 * side - pos.y),
            ];
            match sides.into_iter().flatten().reduce(f64::min) {
                Some(reach) if best.dist > reach - slack => {}
                _ => break,
            }
        }
        (best.dist < f64::INFINITY).then_some(best.dist)
    }
}

/// The running minimum of a nearest search.
struct Nearest {
    dist: f64,
    /// No entry with a larger squared distance can have a `hypot` below
    /// `dist` — the bound `RStarTree::nearest_distance_matching` prunes on.
    bound_sq: f64,
}

impl Nearest {
    fn offer<'a>(
        &mut self,
        entries: impl IntoIterator<Item = &'a Located>,
        pos: Point,
        keep: impl Fn(AlarmId) -> bool,
    ) {
        for e in entries {
            if e.rect.distance_squared_to_point(pos) > self.bound_sq {
                continue;
            }
            let d = e.rect.distance_to_point(pos);
            if d < self.dist && keep(e.id) {
                // 16 ε covers `hypot`'s ulp and the three roundings of a
                // squared distance many times over; the floor keeps it
                // sound below the normal range.
                self.dist = d;
                self.bound_sq = (d * d * (1.0 + 16.0 * f64::EPSILON)).max(f64::MIN_POSITIVE);
            }
        }
    }
}

/// The cells whose [`AlarmStore`] buckets hold an alarm over `region` —
/// every cell whose read a write of that alarm can change — in ascending
/// index order: every cell between `cell_of` of its two corners, widened
/// by the next column or row on each side whose closed extent the region
/// still meets (an edge on a cell edge, across any rounding of the cell
/// arithmetic). That covers every cell whose closed rect meets the region.
pub fn cells_covering(grid: &Grid, region: Rect) -> impl Iterator<Item = CellId> + '_ {
    let (lo, hi) = (grid.cell_of(region.min_corner()), grid.cell_of(region.max_corner()));
    let x_meets = |col| {
        let r = grid.cell_rect(CellId { col, row: 0 });
        r.min_x() <= region.max_x() && region.min_x() <= r.max_x()
    };
    let y_meets = |row| {
        let r = grid.cell_rect(CellId { col: 0, row });
        r.min_y() <= region.max_y() && region.min_y() <= r.max_y()
    };
    let c0 = if lo.col > 0 && x_meets(lo.col - 1) { lo.col - 1 } else { lo.col };
    let c1 = if hi.col + 1 < grid.cols() && x_meets(hi.col + 1) { hi.col + 1 } else { hi.col };
    let r0 = if lo.row > 0 && y_meets(lo.row - 1) { lo.row - 1 } else { lo.row };
    let r1 = if hi.row + 1 < grid.rows() && y_meets(hi.row + 1) { hi.row + 1 } else { hi.row };
    (r0..=r1).flat_map(move |row| (c0..=c1).map(move |col| CellId { col, row }))
}

/// The live server's alarm state: an epoch-versioned sequence of
/// immutable [`StoreGeneration`]s over one [`Grid`]. Readers pin a
/// generation ([`AlarmStore::snapshot`] or, on hot paths,
/// [`AlarmStore::load_cached`]) and read it lock-free; writers
/// ([`AlarmStore::try_install`], [`AlarmStore::remove`]) serialize on an
/// internal mutex, copy what their alarm touches and publish.
pub struct AlarmStore {
    /// This store's identity in a [`GenerationCache`], from `STORE_IDS`.
    id: u64,
    /// The publish count: a cached generation is current while it matches.
    epoch: AtomicU64,
    /// The current generation. The write lock is held only for the
    /// pointer swap.
    slot: RwLock<Arc<StoreGeneration>>,
    /// Every alarm ever installed, by id; `None` once removed. The
    /// writers' own table, so a remove finds its alarm's cells without
    /// a read of the generation.
    writer: Mutex<Vec<Option<AlarmRef>>>,
}

impl std::fmt::Debug for AlarmStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never blocks: mid-publish the alarm count reads as absent.
        let alarms = self.slot.try_read().map(|g| g.len());
        f.debug_struct("AlarmStore")
            .field("epoch", &self.epoch.load(Ordering::Acquire))
            .field("alarms", &alarms)
            .finish_non_exhaustive()
    }
}

impl AlarmStore {
    /// Builds the first generation of `alarms` over `grid`.
    ///
    /// # Errors
    ///
    /// [`NonDenseIdError`] when ids are not exactly `0..alarms.len()`.
    pub fn new(grid: Grid, alarms: Vec<SpatialAlarm>) -> Result<AlarmStore, NonDenseIdError> {
        if let Some((i, a)) = alarms.iter().enumerate().find(|(i, a)| a.id().0 != *i as u64) {
            return Err(NonDenseIdError { expected: i as u64, got: a.id().0 });
        }
        let page = Arc::new(alarms);
        let table: Vec<_> =
            (0..page.len()).map(|at| Some(AlarmRef { page: Arc::clone(&page), at })).collect();
        // Every (cell, alarm) and (stripe, (subscriber, alarm)) pair, in
        // id order; the stable sorts keep each bucket and each subscriber
        // in id order.
        let grid_ref = &grid;
        // Positions are u32 here only to keep these lists small.
        let mut cells: Vec<(u32, u32)> = (0..page.len() as u32)
            .flat_map(|at| {
                let cells = cells_covering(grid_ref, page[at as usize].region());
                cells.map(move |c| (grid_ref.cell_index(c) as u32, at))
            })
            .collect();
        cells.sort_by_key(|&(cell, _)| cell);
        let public: Vec<(u32, u32)> =
            cells.iter().copied().filter(|&(_, at)| page[at as usize].is_public()).collect();
        let mut personal: Vec<(u32, (SubscriberId, u32))> = (0..page.len() as u32)
            .flat_map(|at| {
                let users = personal_subscribers(page[at as usize].scope()).iter();
                users.map(move |&user| ((user.0 as usize % STRIPES) as u32, (user, at)))
            })
            .collect();
        personal.sort_by_key(|&(stripe, (user, _))| (stripe, user));
        let located = |user, at: u32| {
            let alarm = &page[at as usize];
            Located { user, id: alarm.id(), rect: alarm.region() }
        };
        let cell_count = grid.cell_count() as usize;
        let first = StoreGeneration {
            cells: Buckets::grouped(cell_count, &cells, |&at| Entry {
                rect: page[at as usize].region(),
                alarm: AlarmRef { page: Arc::clone(&page), at: at as usize },
            }),
            public: Arc::new(Buckets::grouped(cell_count, &public, |&at| {
                located(SubscriberId(0), at)
            })),
            personal: Arc::new(Buckets::grouped(STRIPES, &personal, |&(user, at)| {
                located(user, at)
            })),
            next: table.len() as u64,
            grid,
        };
        Ok(AlarmStore {
            id: STORE_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(1),
            slot: RwLock::new(Arc::new(first)),
            writer: Mutex::new(table),
        })
    }

    /// Pins and returns the current generation (for as long as the `Arc`
    /// is held, whatever is published later).
    pub fn snapshot(&self) -> Arc<StoreGeneration> {
        Arc::clone(&self.slot.read())
    }

    /// The hot-path read: the cached generation while the epoch is
    /// unchanged (one atomic load, no lock, no allocation), refreshing the
    /// cache from the slot otherwise.
    pub fn load_cached<'a>(&self, cache: &'a mut GenerationCache) -> &'a StoreGeneration {
        let epoch = self.epoch.load(Ordering::Acquire);
        if cache.store != self.id || cache.epoch != epoch || cache.generation.is_none() {
            cache.generation = Some(self.snapshot());
            cache.store = self.id;
            cache.epoch = epoch;
        }
        cache.generation.as_deref().expect("cache was just refilled")
    }

    /// Publishes `next` as the current generation and bumps the epoch.
    /// The replaced generation is released after the swap, outside the
    /// slot's lock.
    fn publish(&self, next: StoreGeneration) {
        let replaced = std::mem::replace(&mut *self.slot.write(), Arc::new(next));
        self.epoch.fetch_add(1, Ordering::Release);
        drop(replaced);
    }

    /// The next generation with `edit` applied to every bucket and stripe
    /// that holds `alarm`: the cells it covers and, for a public alarm,
    /// their public buckets, else its subscribers' stripes.
    fn edited(
        &self,
        alarm: &SpatialAlarm,
        cell: impl Fn(&[Entry]) -> Arc<[Entry]>,
        located: impl Fn(&[Located], SubscriberId) -> Arc<[Located]>,
    ) -> StoreGeneration {
        let mut next = StoreGeneration::clone(&self.snapshot());
        let grid = &next.grid;
        let indexes = || cells_covering(grid, alarm.region()).map(|c| grid.cell_index(c) as usize);
        next.cells.edit(indexes(), cell);
        if alarm.is_public() {
            Arc::make_mut(&mut next.public).edit(indexes(), |b| located(b, SubscriberId(0)));
        }
        for &user in personal_subscribers(alarm.scope()) {
            let stripe = std::iter::once(user.0 as usize % STRIPES);
            Arc::make_mut(&mut next.personal).edit(stripe, |s| located(s, user));
        }
        next
    }

    /// Installs `alarm` into the next generation and publishes it,
    /// copying the buckets its region covers (and, if public, their
    /// public buckets, else its subscribers' stripes), their chunks and
    /// the spines. Readers holding the previous generation are unaffected.
    ///
    /// # Errors
    ///
    /// [`NonDenseIdError`] when the alarm's id does not continue the
    /// dense id space — the wire-reachable malformed-install case.
    pub fn try_install(&self, alarm: SpatialAlarm) -> Result<(), NonDenseIdError> {
        let mut table = self.writer.lock();
        let expected = table.len() as u64;
        if alarm.id().0 != expected {
            return Err(NonDenseIdError { expected, got: alarm.id().0 });
        }
        let (id, rect) = (alarm.id(), alarm.region());
        let alarm = AlarmRef { page: Arc::new(vec![alarm]), at: 0 };
        let mut next = self.edited(
            &alarm,
            |bucket| inserted(bucket, bucket.len(), Entry { rect, alarm: alarm.clone() }),
            // Ids ascend, so the alarm is the last of its subscriber's.
            |located, user| {
                inserted(
                    located,
                    located.partition_point(|p| p.user <= user),
                    Located { user, id, rect },
                )
            },
        );
        next.next += 1;
        table.push(Some(alarm));
        self.publish(next);
        Ok(())
    }

    /// Removes alarm `id` from the next generation and publishes it,
    /// copying what its install copied. Returns the removed alarm (its
    /// region and scope say which cached views it was part of), or
    /// `None` when `id` is unknown or already removed — a repeat remove
    /// is a no-op.
    pub fn remove(&self, id: AlarmId) -> Option<SpatialAlarm> {
        let mut table = self.writer.lock();
        let alarm = table.get_mut(usize::try_from(id.0).ok()?)?.take()?;
        let next = self.edited(
            &alarm,
            |bucket| without(bucket, |e| e.alarm.id() == id),
            |located, user| without(located, |p| p.id == id && p.user == user),
        );
        self.publish(next);
        Some(SpatialAlarm::clone(&alarm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlarmScope;

    fn grid() -> Grid {
        Grid::new(Rect::new(0.0, 0.0, 1_000.0, 1_000.0).unwrap(), 100.0).unwrap()
    }

    fn public(id: u64, rect: Rect) -> SpatialAlarm {
        let scope = AlarmScope::Public { owner: SubscriberId(0) };
        SpatialAlarm::new(AlarmId(id), rect, crate::AlarmTarget::Static(rect.center()), scope)
    }

    #[test]
    fn install_rejects_gapped_ids_with_a_typed_error() {
        let store = AlarmStore::new(grid(), Vec::new()).unwrap();
        let rect = Rect::new(1.0, 1.0, 2.0, 2.0).unwrap();
        let before = store.snapshot();
        assert_eq!(
            store.try_install(public(3, rect)).unwrap_err(),
            NonDenseIdError { expected: 0, got: 3 }
        );
        assert!(Arc::ptr_eq(&before, &store.snapshot()), "a rejected install publishes nothing");
        store.try_install(public(0, rect)).unwrap();
        assert_eq!(store.snapshot().len(), 1);
    }

    #[test]
    fn cached_loads_refresh_only_on_publish_and_never_across_stores() {
        let rect = Rect::new(1.0, 1.0, 2.0, 2.0).unwrap();
        let a = AlarmStore::new(grid(), vec![public(0, rect)]).unwrap();
        let b = AlarmStore::new(grid(), Vec::new()).unwrap();
        let mut cache = GenerationCache::new();
        let first: *const StoreGeneration = a.load_cached(&mut cache);
        assert!(std::ptr::eq(a.load_cached(&mut cache), first), "unchanged epoch: same generation");
        // Both stores sit at epoch 1 — their ids must disambiguate.
        assert_eq!(b.load_cached(&mut cache).len(), 0);
        assert_eq!(a.load_cached(&mut cache).len(), 1);
        a.try_install(public(1, rect)).unwrap();
        assert_eq!(a.load_cached(&mut cache).len(), 2, "a publish invalidates the cache");
    }

    #[test]
    fn readers_pin_generations_across_concurrent_writes() {
        let store = Arc::new(AlarmStore::new(grid(), Vec::new()).unwrap());
        let square = |i: u64| {
            let x = (i % 90) as f64 * 10.0;
            Rect::new(x, 450.0, x + 60.0, 560.0).unwrap()
        };
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    store.try_install(public(i, square(i))).unwrap();
                    if i % 3 == 0 {
                        store.remove(AlarmId(i / 2));
                    }
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut cache = GenerationCache::new();
                    for k in 0..2_000u64 {
                        let g = store.load_cached(&mut cache);
                        let p = Point::new((k % 100) as f64 * 10.0, 500.0);
                        g.relevant_at_visit(SubscriberId(1), p, |a| assert!(a.contains(p)));
                        let cell = g.grid.cell_of(p);
                        let area = g.grid.cell_rect(cell);
                        g.cell_visit(cell, |a| assert!(a.region().intersects(&area)));
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.snapshot().len(), 500);
    }
}
