use crate::node::{ChildEntry, LeafEntry, Node};
use crate::RStarParams;
use sa_geometry::{Point, Rect};

/// Counters describing the work performed by a single query — used by the
/// simulation's server-load model (every index probe is an "alarm
/// processing" operation in Figure 4(b)/6(d)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Number of tree nodes visited.
    pub nodes_visited: usize,
    /// Number of entry rectangles tested against the query.
    pub entries_tested: usize,
    /// Number of matching leaf entries reported.
    pub matches: usize,
}

/// An immutable, STR-packed R-tree mapping rectangles to payloads of type
/// `T`. [`RStarTree::bulk_load`] is its only constructor.
///
/// See the [crate docs](crate) for the algorithmic details and an example.
#[derive(Debug)]
pub struct RStarTree<T> {
    root: Node<T>,
    /// Level of the root (leaves are level 0), i.e. tree height − 1.
    root_level: usize,
    size: usize,
    params: RStarParams,
}

impl<T> RStarTree<T> {
    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True when the tree stores no entries.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Tree height in levels (a single leaf root has height 1).
    pub fn height(&self) -> usize {
        self.root_level + 1
    }

    /// The structural parameters of this tree.
    pub fn params(&self) -> &RStarParams {
        &self.params
    }

    /// The bounding rectangle of all entries, or `None` when empty.
    pub fn bounding_box(&self) -> Option<Rect> {
        self.root.mbr()
    }

    /// Bulk loads a tree from `entries` with default parameters (fan-out
    /// 32, 40% min fill) — see [`RStarTree::bulk_load_with_params`]. An
    /// empty `entries` gives the empty tree.
    pub fn bulk_load(entries: Vec<(Rect, T)>) -> RStarTree<T> {
        RStarTree::bulk_load_with_params(RStarParams::default(), entries)
    }

    /// Builds a tree over `entries` in one pass with Sort-Tile-Recursive
    /// (STR) packing: entries are sorted by center x, tiled into vertical
    /// slabs, each slab sorted by center y and cut into full nodes, then
    /// the node MBRs are packed the same way level by level until a
    /// single root remains.
    ///
    /// The result satisfies every invariant [`RStarTree::check_invariants`]
    /// enforces — in particular the tail node of each level borrows
    /// entries from its predecessor rather than underflowing `min_entries`
    /// — and its height is the minimum possible for the fan-out,
    /// `ceil(log_M(n))` levels. Loading n entries costs O(n log n).
    ///
    /// # Panics
    ///
    /// Panics when the parameters are inconsistent (see [`RStarParams`]).
    pub fn bulk_load_with_params(params: RStarParams, entries: Vec<(Rect, T)>) -> RStarTree<T> {
        params.validate();
        let size = entries.len();
        let leaves: Vec<LeafEntry<T>> =
            entries.into_iter().map(|(rect, item)| LeafEntry { rect, item }).collect();
        let mut nodes: Vec<Node<T>> =
            str_tile(leaves, |e| e.rect, &params).into_iter().map(Node::Leaf).collect();
        let mut root_level = 0usize;
        while nodes.len() > 1 {
            let children: Vec<ChildEntry<T>> = nodes
                .into_iter()
                .map(|child| {
                    let rect = child.mbr().expect("packed nodes are non-empty");
                    ChildEntry { rect, child: Box::new(child) }
                })
                .collect();
            nodes = str_tile(children, |e| e.rect, &params)
                .into_iter()
                .map(Node::Internal)
                .collect();
            root_level += 1;
        }
        let root = nodes.pop().expect("packing always leaves a root");
        RStarTree { root, root_level, size, params }
    }

    /// Every item whose rectangle contains `p`, with the traversal
    /// statistics: [`RStarTree::visit_point`] collected into a vector.
    pub fn search_point_with_stats(&self, p: Point) -> (Vec<&T>, QueryStats) {
        let mut out = Vec::new();
        let stats = self.visit_point(p, |item| out.push(item));
        (out, stats)
    }

    /// Visits every item whose rectangle intersects `query` (closed
    /// boundaries) without allocating, and returns the walk's statistics:
    /// the one range search, for hot paths and the server-load model alike.
    pub fn visit_intersecting<'a>(
        &'a self,
        query: Rect,
        mut emit: impl FnMut(Rect, &'a T),
    ) -> QueryStats {
        let mut stats = QueryStats::default();
        search_rec(&self.root, query, &mut emit, &mut stats);
        stats
    }

    /// Visits every item whose rectangle contains `p` without allocating,
    /// and returns the traversal statistics of the walk.
    pub fn visit_point<'a>(&'a self, p: Point, mut emit: impl FnMut(&'a T)) -> QueryStats {
        self.visit_intersecting(Rect::point(p), |_, item| emit(item))
    }

    /// Best-first nearest-neighbor search restricted to items satisfying
    /// `pred` — e.g. "relevant to this subscriber and not yet fired", the
    /// safe-period baseline's distance query. Returns the entry with its
    /// distance (or `None` when nothing matches), and the traversal
    /// statistics — reported in **both** cases, so a fruitless probe
    /// still charges its tree walk to the server-load model.
    ///
    /// Entries failing `pred` are skipped but still counted in
    /// [`QueryStats::entries_tested`]; when the predicate is sparse the
    /// search degrades gracefully toward a distance-ordered scan.
    pub fn nearest_matching<F: Fn(&T) -> bool>(
        &self,
        p: Point,
        pred: F,
    ) -> (Option<(Rect, &T, f64)>, QueryStats) {
        use std::collections::BinaryHeap;

        enum Item<'a, T> {
            Node(&'a Node<T>),
            Entry(Rect, &'a T),
        }

        // Min-heap keyed by distance; ties broken by insertion order so
        // the payload never participates in the ordering.
        struct HeapEntry<'a, T> {
            dist: f64,
            seq: u64,
            item: Item<'a, T>,
        }
        impl<T> PartialEq for HeapEntry<'_, T> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist && self.seq == other.seq
            }
        }
        impl<T> Eq for HeapEntry<'_, T> {}
        impl<T> PartialOrd for HeapEntry<'_, T> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<T> Ord for HeapEntry<'_, T> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reversed: smallest distance pops first.
                other
                    .dist
                    .partial_cmp(&self.dist)
                    .expect("distances are finite")
                    .then(other.seq.cmp(&self.seq))
            }
        }

        let mut stats = QueryStats::default();
        if self.is_empty() {
            return (None, stats);
        }
        let mut counter = 0u64;
        let mut heap: BinaryHeap<HeapEntry<'_, T>> = BinaryHeap::new();
        heap.push(HeapEntry { dist: 0.0, seq: counter, item: Item::Node(&self.root) });
        while let Some(HeapEntry { dist, item, .. }) = heap.pop() {
            match item {
                Item::Entry(rect, value) => {
                    stats.matches += 1;
                    return (Some((rect, value, dist)), stats);
                }
                Item::Node(node) => {
                    stats.nodes_visited += 1;
                    match node {
                        Node::Leaf(es) => {
                            for e in es {
                                stats.entries_tested += 1;
                                if pred(&e.item) {
                                    counter += 1;
                                    heap.push(HeapEntry {
                                        dist: e.rect.distance_to_point(p),
                                        seq: counter,
                                        item: Item::Entry(e.rect, &e.item),
                                    });
                                }
                            }
                        }
                        Node::Internal(es) => {
                            for e in es {
                                stats.entries_tested += 1;
                                counter += 1;
                                heap.push(HeapEntry {
                                    dist: e.rect.distance_to_point(p),
                                    seq: counter,
                                    item: Item::Node(&e.child),
                                });
                            }
                        }
                    }
                }
            }
        }
        (None, stats)
    }

    /// Distance from `p` to the nearest item satisfying `pred` — the
    /// distance [`RStarTree::nearest_matching`] reports, bit for bit,
    /// found by a depth-first branch-and-bound walk that never touches
    /// the heap (no priority queue, no [`QueryStats`]). For hot paths
    /// that need only the distance, e.g. the server's safe-period grant.
    ///
    /// The walk prunes on [`Rect::distance_squared_to_point`], computed
    /// once per child, and calls `hypot` ([`Rect::distance_to_point`])
    /// only for the few entries inside the current bound. The bound is
    /// the best `hypot` squared plus a margin wider than both
    /// functions' rounding, so no entry whose `hypot` would win is ever
    /// pruned, and the answer is the minimum `hypot` over the matching
    /// entries.
    pub fn nearest_distance_matching<F: Fn(&T) -> bool>(&self, p: Point, pred: F) -> Option<f64> {
        /// Children whose squared distances one stack buffer holds; a
        /// wider node is walked in chunks of this many.
        const CHUNK: usize = 64;
        struct Best {
            dist: f64,
            /// No entry with a larger squared distance can have a
            /// `hypot` below `dist`.
            bound_sq: f64,
        }
        fn walk<T, F: Fn(&T) -> bool>(node: &Node<T>, p: Point, pred: &F, best: &mut Best) {
            match node {
                Node::Leaf(es) => {
                    for e in es {
                        if e.rect.distance_squared_to_point(p) > best.bound_sq {
                            continue;
                        }
                        let d = e.rect.distance_to_point(p);
                        if d < best.dist && pred(&e.item) {
                            // 16 ε covers `hypot`'s ulp and the three
                            // roundings of a squared distance many times
                            // over; the floor keeps it sound below the
                            // normal range.
                            let bound_sq = d * d * (1.0 + 16.0 * f64::EPSILON);
                            *best = Best { dist: d, bound_sq: bound_sq.max(f64::MIN_POSITIVE) };
                        }
                    }
                }
                Node::Internal(es) => {
                    for chunk in es.chunks(CHUNK) {
                        let mut keys = [0.0f64; CHUNK];
                        for (key, e) in keys.iter_mut().zip(chunk) {
                            *key = e.rect.distance_squared_to_point(p);
                        }
                        let keys = &keys[..chunk.len()];
                        // Closest child first: the bound it leaves prunes
                        // most of its siblings.
                        let first = (0..keys.len()).min_by(|&a, &b| keys[a].total_cmp(&keys[b]));
                        let rest = (0..keys.len()).filter(|&i| Some(i) != first);
                        for i in first.into_iter().chain(rest) {
                            if keys[i] <= best.bound_sq {
                                walk(&chunk[i].child, p, pred, best);
                            }
                        }
                    }
                }
            }
        }
        let mut best = Best { dist: f64::INFINITY, bound_sq: f64::INFINITY };
        walk(&self.root, p, &pred, &mut best);
        (best.dist < f64::INFINITY).then_some(best.dist)
    }

    /// Visits every stored `(rect, item)` pair in unspecified order.
    pub fn for_each(&self, mut f: impl FnMut(Rect, &T)) {
        fn walk<T>(node: &Node<T>, f: &mut impl FnMut(Rect, &T)) {
            match node {
                Node::Leaf(es) => {
                    for e in es {
                        f(e.rect, &e.item);
                    }
                }
                Node::Internal(es) => {
                    for e in es {
                        walk(&e.child, f);
                    }
                }
            }
        }
        walk(&self.root, &mut f);
    }

    /// Verifies the structural invariants of the tree (used by tests):
    /// every internal entry's rectangle equals its child's MBR, fill factors
    /// are respected below the root, and all leaves sit at level 0.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn check<T>(
            node: &Node<T>,
            level: usize,
            is_root: bool,
            params: &RStarParams,
        ) -> Result<usize, String> {
            let len = node.len();
            if len > params.max_entries {
                return Err(format!("node at level {level} overflows: {len}"));
            }
            if !is_root && len < params.min_entries {
                return Err(format!("node at level {level} underflows: {len}"));
            }
            match node {
                Node::Leaf(_) => {
                    if level != 0 {
                        return Err(format!("leaf found at level {level}"));
                    }
                    Ok(len)
                }
                Node::Internal(es) => {
                    if level == 0 {
                        return Err("internal node at leaf level".into());
                    }
                    let mut total = 0;
                    for e in es {
                        let child_mbr = e.child.mbr().ok_or("empty child node")?;
                        if child_mbr != e.rect {
                            return Err(format!(
                                "stale MBR at level {level}: stored {} vs actual {}",
                                e.rect, child_mbr
                            ));
                        }
                        total += check(&e.child, level - 1, false, params)?;
                    }
                    Ok(total)
                }
            }
        }
        let total = check(&self.root, self.root_level, true, &self.params)?;
        if total != self.size {
            return Err(format!("size mismatch: counted {total}, recorded {}", self.size));
        }
        Ok(())
    }
}

/// Splits `n` entries into node-sized chunks, every chunk within
/// `[min, max]`: full `max`-sized chunks, with the tail borrowing from its
/// predecessor when the remainder alone would underflow. (Borrowing is
/// always legal: the donor keeps `max - (min - remainder) ≥ max - min ≥
/// min` entries because `min ≤ max / 2`.) For `n ≤ max` the single chunk
/// becomes the root, which is exempt from the minimum.
fn packed_sizes(n: usize, max: usize, min: usize) -> Vec<usize> {
    if n <= max {
        return vec![n];
    }
    let full = n / max;
    let remainder = n % max;
    let mut sizes = vec![max; full];
    if remainder >= min {
        sizes.push(remainder);
    } else if remainder > 0 {
        let borrow = min - remainder;
        *sizes.last_mut().expect("n > max implies a full chunk") -= borrow;
        sizes.push(min);
    }
    sizes
}

/// One STR tiling pass: groups `items` into node-sized chunks whose sizes
/// come from [`packed_sizes`], tiled by center x into vertical slabs and by
/// center y within each slab.
fn str_tile<E>(
    mut items: Vec<E>,
    rect_of: impl Fn(&E) -> Rect,
    params: &RStarParams,
) -> Vec<Vec<E>> {
    let n = items.len();
    let node_sizes = packed_sizes(n, params.max_entries, params.min_entries);
    let node_count = node_sizes.len();
    if node_count == 1 {
        return vec![items];
    }
    items.sort_by(|a, b| {
        let (ca, cb) = (rect_of(a).center(), rect_of(b).center());
        ca.x.partial_cmp(&cb.x).expect("rect coordinates are finite")
    });
    // ceil(sqrt(P)) slabs of whole nodes, so every node keeps its packed
    // size and no slab ends in an underfull fragment.
    let slab_count = (node_count as f64).sqrt().ceil() as usize;
    let nodes_per_slab = node_count.div_ceil(slab_count);
    let mut groups: Vec<Vec<E>> = Vec::with_capacity(node_count);
    let mut items = items.into_iter();
    let mut next_node = 0usize;
    while next_node < node_count {
        let slab_nodes = &node_sizes[next_node..(next_node + nodes_per_slab).min(node_count)];
        let slab_len: usize = slab_nodes.iter().sum();
        let mut slab: Vec<E> = items.by_ref().take(slab_len).collect();
        slab.sort_by(|a, b| {
            let (ca, cb) = (rect_of(a).center(), rect_of(b).center());
            ca.y.partial_cmp(&cb.y).expect("rect coordinates are finite")
        });
        let mut slab = slab.into_iter();
        for &size in slab_nodes {
            groups.push(slab.by_ref().take(size).collect());
        }
        next_node += slab_nodes.len();
    }
    groups
}

fn search_rec<'a, T>(
    node: &'a Node<T>,
    query: Rect,
    emit: &mut impl FnMut(Rect, &'a T),
    stats: &mut QueryStats,
) {
    stats.nodes_visited += 1;
    stats.entries_tested += node.len();
    match node {
        Node::Leaf(es) => {
            for e in es {
                if e.rect.intersects(&query) {
                    stats.matches += 1;
                    emit(e.rect, &e.item);
                }
            }
        }
        Node::Internal(es) => {
            for e in es {
                if e.rect.intersects(&query) {
                    search_rec(&e.child, query, emit, stats);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    fn grid_tree(n: usize) -> RStarTree<usize> {
        let cols = (n as f64).sqrt().ceil() as usize;
        let entries = (0..n)
            .map(|i| {
                let x = (i % cols) as f64 * 10.0;
                let y = (i / cols) as f64 * 10.0;
                (r(x, y, x + 5.0, y + 5.0), i)
            })
            .collect();
        RStarTree::bulk_load_with_params(RStarParams::with_max_entries(8), entries)
    }

    fn range_hits(tree: &RStarTree<usize>, query: Rect) -> Vec<usize> {
        let mut hits = Vec::new();
        tree.visit_intersecting(query, |_, &i| hits.push(i));
        hits.sort_unstable();
        hits
    }

    #[test]
    fn empty_tree_basics() {
        let tree: RStarTree<usize> = RStarTree::bulk_load(Vec::new());
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.height(), 1);
        assert!(tree.bounding_box().is_none());
        assert!(range_hits(&tree, r(0.0, 0.0, 1.0, 1.0)).is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn point_query_hits_and_misses() {
        let tree = grid_tree(100);
        assert_eq!(tree.len(), 100);
        tree.check_invariants().unwrap();
        // Point inside entry 0's rect.
        let (hits, _) = tree.search_point_with_stats(Point::new(2.0, 2.0));
        assert_eq!(hits, vec![&0]);
        // Point in a gap between rects.
        let mut misses = 0;
        tree.visit_point(Point::new(7.0, 7.0), |_| misses += 1);
        assert_eq!(misses, 0);
    }

    #[test]
    fn range_query_matches_brute_force() {
        let tree = grid_tree(200);
        let query = r(12.0, 12.0, 47.0, 33.0);
        let mut expected = Vec::new();
        tree.for_each(|rect, item| {
            if rect.intersects(&query) {
                expected.push(*item);
            }
        });
        expected.sort_unstable();
        let got = range_hits(&tree, query);
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn tree_grows_in_height() {
        let tree = grid_tree(500);
        assert!(tree.height() >= 3, "500 entries at fan-out 8 must stack levels");
        tree.check_invariants().unwrap();
    }

    #[test]
    fn query_stats_reflect_pruning() {
        let tree = grid_tree(400);
        let broad = tree.visit_intersecting(tree.bounding_box().unwrap(), |_, _| {});
        let narrow = tree.visit_intersecting(r(0.0, 0.0, 4.0, 4.0), |_, _| {});
        assert!(narrow.nodes_visited < broad.nodes_visited);
        assert_eq!(broad.matches, 400);
        assert_eq!(narrow.matches, 1);
    }

    #[test]
    fn duplicate_rects_are_all_reported() {
        let rect = r(1.0, 1.0, 2.0, 2.0);
        let tree = RStarTree::bulk_load(vec![(rect, 7), (rect, 8)]);
        assert_eq!(range_hits(&tree, rect), vec![7, 8]);
    }

    #[test]
    fn for_each_visits_every_entry_once() {
        let tree = grid_tree(300);
        let mut seen = std::collections::HashSet::new();
        tree.for_each(|_, item| {
            assert!(seen.insert(*item));
        });
        assert_eq!(seen.len(), 300);
    }

    #[test]
    fn boundary_touching_query_hits() {
        let tree = RStarTree::bulk_load(vec![(r(0.0, 0.0, 1.0, 1.0), 1)]);
        // Query sharing only the corner point (1,1).
        assert_eq!(range_hits(&tree, r(1.0, 1.0, 2.0, 2.0)), vec![1]);
    }
}

#[cfg(test)]
mod nearest_tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    fn scattered(n: usize) -> RStarTree<usize> {
        let entries = (0..n)
            .map(|i| {
                // Deterministic pseudo-random spread.
                let x = ((i * 7919) % 1000) as f64;
                let y = ((i * 104729) % 1000) as f64;
                (r(x, y, x + 10.0, y + 10.0), i)
            })
            .collect();
        RStarTree::bulk_load_with_params(RStarParams::with_max_entries(8), entries)
    }

    #[test]
    fn nearest_matches_brute_force() {
        let tree = scattered(300);
        for k in 0..25 {
            let p = Point::new((k * 41 % 1000) as f64, (k * 83 % 1000) as f64);
            let (_, _, got_d) = tree.nearest_matching(p, |_| true).0.unwrap();
            let mut best = f64::INFINITY;
            tree.for_each(|rect, _| best = best.min(rect.distance_to_point(p)));
            // Multiple entries can tie; verify the returned distance only.
            assert!((got_d - best).abs() < 1e-9, "distance mismatch at probe {k}");
        }
    }

    #[test]
    fn nearest_inside_a_rect_has_distance_zero() {
        let tree = scattered(100);
        // Probe the center of entry 0's rectangle.
        let mut target = None;
        tree.for_each(|rect, &i| {
            if i == 0 {
                target = Some(rect.center());
            }
        });
        let (_, _, d) = tree.nearest_matching(target.unwrap(), |_| true).0.unwrap();
        assert_eq!(d, 0.0);
    }

    #[test]
    fn nearest_on_empty_tree_is_none() {
        let tree: RStarTree<u8> = RStarTree::bulk_load(Vec::new());
        assert!(tree.nearest_matching(Point::new(0.0, 0.0), |_| true).0.is_none());
    }

    #[test]
    fn filtered_nearest_skips_non_matching() {
        let tree = scattered(300);
        let p = Point::new(500.0, 500.0);
        let (hit, stats) = tree.nearest_matching(p, |&i| i % 7 == 3);
        let (_, &item, d) = hit.unwrap();
        assert_eq!(item % 7, 3);
        // Verify against brute force over the filtered subset.
        let mut best = f64::INFINITY;
        tree.for_each(|rect, &i| {
            if i % 7 == 3 {
                best = best.min(rect.distance_to_point(p));
            }
        });
        assert!((d - best).abs() < 1e-9);
        assert!(stats.nodes_visited >= 1);
    }

    #[test]
    fn filtered_nearest_with_impossible_predicate_is_none() {
        let tree = scattered(64);
        let (hit, stats) = tree.nearest_matching(Point::new(1.0, 1.0), |_| false);
        assert!(hit.is_none());
        // The fruitless probe still reports the work it did: every entry
        // was tested against the predicate before the search gave up.
        assert!(stats.entries_tested >= 64, "tested {}", stats.entries_tested);
        assert!(stats.nodes_visited >= 1);
        assert_eq!(stats.matches, 0);
    }

    #[test]
    fn heap_free_nearest_distance_equals_the_best_first_search() {
        let tree = scattered(500);
        let empty: RStarTree<u8> = RStarTree::bulk_load(Vec::new());
        assert_eq!(empty.nearest_distance_matching(Point::new(0.0, 0.0), |_| true), None);
        assert_eq!(tree.nearest_distance_matching(Point::new(1.0, 1.0), |_| false), None);
        for i in 0..200usize {
            let p = Point::new(((i * 613) % 1100) as f64 - 50.0, ((i * 389) % 1100) as f64 - 50.0);
            // Dense, sparse and (nearly) empty predicates.
            for modulus in [1, 3, 97] {
                let pred = |v: &usize| v.is_multiple_of(modulus);
                let want = tree.nearest_matching(p, pred).0.map(|(_, _, d)| d);
                assert_eq!(tree.nearest_distance_matching(p, pred), want, "{p:?} mod {modulus}");
            }
        }
    }

    #[test]
    fn nearest_visits_fewer_nodes_than_full_scan() {
        let tree = scattered(1000);
        let (_, stats) = tree.nearest_matching(Point::new(250.0, 250.0), |_| true);
        // Best-first search should prune most of the tree: a 1000-entry
        // tree at fanout 8 has > 125 nodes, the search should touch far
        // fewer.
        assert!(stats.nodes_visited < 60, "visited {}", stats.nodes_visited);
    }
}

#[cfg(test)]
mod bulk_tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    fn scattered_entries(n: usize) -> Vec<(Rect, usize)> {
        (0..n)
            .map(|i| {
                let x = ((i * 7919) % 1000) as f64;
                let y = ((i * 104729) % 1000) as f64;
                (r(x, y, x + 10.0, y + 10.0), i)
            })
            .collect()
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let empty: RStarTree<u8> = RStarTree::bulk_load(Vec::new());
        assert!(empty.is_empty());
        empty.check_invariants().unwrap();
        let one = RStarTree::bulk_load(vec![(r(0.0, 0.0, 1.0, 1.0), 9u8)]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.height(), 1);
        one.check_invariants().unwrap();
        assert_eq!(one.search_point_with_stats(Point::new(0.5, 0.5)).0, vec![&9]);
    }

    #[test]
    fn bulk_load_height_is_minimal() {
        for n in [50usize, 64, 65, 512, 513, 4096] {
            let params = RStarParams::with_max_entries(8);
            let tree = RStarTree::bulk_load_with_params(params, scattered_entries(n));
            // Minimum height: enough levels that M^height >= n.
            let mut min_height = 1usize;
            let mut capacity = params.max_entries;
            while capacity < n {
                capacity *= params.max_entries;
                min_height += 1;
            }
            assert_eq!(tree.height(), min_height, "n={n}");
            tree.check_invariants().unwrap();
        }
    }

    #[test]
    fn packed_sizes_respect_fill_bounds() {
        for n in 1..600usize {
            for (max, min) in [(8usize, 3usize), (32, 13), (4, 2)] {
                let sizes = packed_sizes(n, max, min);
                assert_eq!(sizes.iter().sum::<usize>(), n);
                if sizes.len() > 1 {
                    for &s in &sizes {
                        assert!(s >= min && s <= max, "n={n} max={max} min={min} size={s}");
                    }
                }
            }
        }
    }
}

