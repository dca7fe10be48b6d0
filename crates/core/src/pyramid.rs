//! Bitmap-encoded safe regions: the pyramid computer (§4) and the region
//! it produces.
//!
//! # Layout
//!
//! A [`BitmapSafeRegion`] is one `u64` allocation, so a client installs
//! a bitmap with a single allocation and a containment descent reads one
//! contiguous block:
//!
//! ```text
//! header (8 words)        cell rect, split factors, height, flags, bit counts
//! level table (5 / level) first bit, zeros before it, first split flag,
//!                         zeros before that, phantom zeros
//! bit pairs               (word, ones before the word) for every level's
//!                         bits back to back, plus a sentinel pair
//! split pairs             the same for the split flags (computed regions)
//! ```
//!
//! Pairing each word with its rank directory entry puts a bit and its
//! rank in one cache line. A region decoded from the wire
//! ([`BitmapSafeRegion::from_wire_bits`]) takes over the decoded
//! [`BitVec`]'s words in place — its bits are the wire bits, root bit
//! first — and stores no split flags: on the wire every zero above the
//! deepest level splits.
//!
//! [`BitmapSafeRegion::grant`] also names the pyramid cell that granted
//! a point, as a [`FreeBlock`], so a client can test later samples
//! against that box and descend only when one leaves it.

use crate::{BitVec, SafeRegion};
use sa_geometry::{Point, Rect, RectilinearRegion};

/// Words of a region's header.
const HEADER: usize = 8;
/// Header word: split factors, `split_u | split_v << 32`.
const H_SPLITS: usize = 4;
/// Header word: `height | root_free << 32 | implicit_splits << 33`.
const H_SHAPE: usize = 5;
/// Header word: bits stored across all levels.
const H_BITS: usize = 6;
/// Header word: split flags stored across all levels.
const H_SPLIT_BITS: usize = 7;
/// Level-table words per level.
const LEVEL_WORDS: usize = 5;
/// Inward ulp steps [`BitmapSafeRegion::grant`] tries per block corner.
const CORNER_NUDGES: usize = 4;

/// Parameters of the bitmap-encoded safe-region pyramid (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PyramidConfig {
    /// Horizontal split factor `U` (paper figures use 3).
    pub split_u: u32,
    /// Vertical split factor `V` (paper figures use 3).
    pub split_v: u32,
    /// Pyramid height `h`: number of recursive splits. `h = 1` is the
    /// Grid Bitmap-encoded Safe Region (GBSR); `h ≥ 2` is the Pyramid
    /// Bitmap-encoded Safe Region (PBSR).
    pub height: u32,
}

impl PyramidConfig {
    /// A 3×3 pyramid of the given height — the configuration of the
    /// paper's figures (GBSR at `h = 1`, Figure 3(d) at `h = 2`,
    /// Figure 6 uses `h = 5`).
    ///
    /// # Panics
    ///
    /// Panics when `height` is zero.
    pub fn three_by_three(height: u32) -> PyramidConfig {
        assert!(height >= 1, "pyramid height must be at least 1");
        PyramidConfig { split_u: 3, split_v: 3, height }
    }

    /// The single-level GBSR configuration with a `u × v` grid (Figure 3(b)
    /// uses 3×3; Figure 3(c) uses 9×9).
    pub fn gbsr(u: u32, v: u32) -> PyramidConfig {
        assert!(u >= 2 && v >= 2, "grid split factors must be at least 2");
        PyramidConfig { split_u: u, split_v: v, height: 1 }
    }

    fn validate(&self) {
        assert!(self.split_u >= 2 && self.split_v >= 2, "split factors must be at least 2");
        assert!(self.height >= 1, "pyramid height must be at least 1");
    }

    /// Children per split.
    fn fanout(&self) -> usize {
        (self.split_u * self.split_v) as usize
    }
}

/// A rectangle as `[min_x, min_y, max_x, max_y]`, for the descent's
/// arithmetic without [`Rect`]'s validation.
type Bounds = [f64; 4];

/// The bounds of child (`col`, `row_from_top`) of `parent` under a
/// `u × v` split with child sides `w × h`. Shared edges between siblings
/// are computed with identical expressions so the children tile the
/// parent exactly despite floating-point rounding.
fn child_bounds(
    parent: Bounds,
    (w, h): (f64, f64),
    (u, v): (usize, usize),
    col: usize,
    row_from_top: usize,
) -> Bounds {
    let x_edge = |c: usize| if c == u { parent[2] } else { parent[0] + c as f64 * w };
    let y_edge = |r: usize| if r == v { parent[1] } else { parent[3] - r as f64 * h };
    [x_edge(col), y_edge(row_from_top + 1), x_edge(col + 1), y_edge(row_from_top)]
}

fn bounds_of(r: Rect) -> Bounds {
    [r.min_x(), r.min_y(), r.max_x(), r.max_y()]
}

fn rect_of(b: Bounds) -> Rect {
    Rect::new(b[0], b[1], b[2], b[3]).expect("pyramid cell bounds are valid")
}

/// Bit `i` of the `(word, ones before)` pair array at `base`.
#[inline]
fn pair_bit(data: &[u64], base: usize, i: usize) -> bool {
    (data[base + 2 * (i / 64)] >> (i % 64)) & 1 == 1
}

/// Clear bits strictly before `i` in the pair array at `base`, in O(1)
/// (`i` may equal the bit count: the sentinel pair answers it).
#[inline]
fn pair_zeros_before(data: &[u64], base: usize, i: usize) -> usize {
    let pair = base + 2 * (i / 64);
    let below = data[pair] & ((1u64 << (i % 64)) - 1);
    i - (data[pair + 1] as usize + below.count_ones() as usize)
}

/// Up to 64 bits starting at bit `start` of the pair array at `base`,
/// LSB first.
fn pair_word(data: &[u64], base: usize, start: usize, nbits: usize) -> u64 {
    let word = start / 64;
    let off = start % 64;
    let mut w = data[base + 2 * word] >> off;
    if off != 0 {
        // The next pair exists: the sentinel follows the last word.
        w |= data[base + 2 * (word + 1)] << (64 - off);
    }
    if nbits < 64 {
        w &= (1u64 << nbits) - 1;
    }
    w
}

/// Writes the `(word, ones before)` pairs of `words` plus the sentinel
/// pair into `out` (`2 · (words.len() + 1)` words).
fn write_pairs(out: &mut [u64], words: &[u64]) {
    let mut ones = 0u64;
    for (pair, &word) in out.chunks_exact_mut(2).zip(words) {
        pair[0] = word;
        pair[1] = ones;
        ones += u64::from(word.count_ones());
    }
    let sentinel = 2 * words.len();
    out[sentinel] = 0;
    out[sentinel + 1] = ones;
}

/// Computes bitmap-encoded safe regions (GBSR for height 1, PBSR for
/// height ≥ 2) for a subscriber's grid cell.
///
/// A cell's bit is `1` when no relevant alarm region intersects its
/// interior ("the entire cell belongs to the safe region", Proposition 2);
/// otherwise the bit is `0` and — below the configured height — the cell is
/// split into `U × V` children encoded at the next level. Bits are laid out
/// level by level; within a level, blocked parents contribute their child
/// blocks in parent-bit order, each block in raster order (top row first,
/// matching Figure 3).
///
/// The stored representation is sparse: a blocked cell that lies entirely
/// inside a single alarm region is *solid* — all of its descendants are
/// zeros, so they are accounted (they exist in the paper's wire encoding
/// and count toward [`BitmapSafeRegion::bitmap_size`]) but never
/// materialized or tested. This keeps both computation and memory
/// proportional to the alarm *boundaries* rather than their areas, which
/// is what makes tall pyramids (h = 7) tractable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PyramidComputer {
    config: PyramidConfig,
}

impl PyramidComputer {
    /// A computer with the given pyramid configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (split factors < 2, height 0).
    pub fn new(config: PyramidConfig) -> PyramidComputer {
        config.validate();
        PyramidComputer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> PyramidConfig {
        self.config
    }

    /// Encodes the safe region of `cell` given the relevant alarm regions
    /// intersecting it. Only alarm-region *interiors* block: an alarm that
    /// merely shares an edge with a sub-cell leaves it safe.
    pub fn compute(&self, cell: Rect, alarm_regions: &[Rect]) -> BitmapSafeRegion {
        self.compute_with_cost(cell, alarm_regions).0
    }

    /// Like [`PyramidComputer::compute`], also reporting the number of
    /// rectangle tests performed — the server-side cost the evaluation
    /// charges to safe-region computation.
    pub fn compute_with_cost(&self, cell: Rect, alarm_regions: &[Rect]) -> (BitmapSafeRegion, u64) {
        // Obstacles clipped to the cell, interiors only.
        let obstacles: Vec<Rect> = alarm_regions
            .iter()
            .filter_map(|r| r.intersection(cell))
            .filter(|c| c.area() > 0.0)
            .collect();
        let mut ops = alarm_regions.len() as u64 + 1;

        if !obstacles.iter().any(|o| cell.intersects_interior(o)) {
            let region = BitmapSafeRegion::assemble(cell, self.config, true, BitVec::new(), None);
            return (region, ops);
        }
        let fanout = self.config.fanout();
        // Every level's bits and split flags, back to back, and where
        // each level starts in them.
        let mut bits = BitVec::new();
        let mut split = BitVec::new();
        let mut starts: Vec<(usize, usize, u64)> = Vec::with_capacity(self.config.height as usize);
        // Frontier of split (blocked, non-solid) cells with the indices
        // of the obstacles that intersect them.
        let all: Vec<u32> = (0..obstacles.len() as u32).collect();
        let mut frontier: Vec<(Rect, Vec<u32>)> = vec![(cell, all)];
        // Solid-or-phantom zero count at the previous level.
        let mut dark_parents: u64 = 0;
        for depth in 0..self.config.height {
            let is_last = depth + 1 == self.config.height;
            starts.push((bits.len(), split.len(), dark_parents * fanout as u64));
            let mut next: Vec<(Rect, Vec<u32>)> = Vec::new();
            let mut dark_here: u64 = dark_parents * fanout as u64;
            for (parent, relevant) in &frontier {
                for idx in 0..fanout {
                    let child = self.child_rect(*parent, idx);
                    let mut blocked = false;
                    let mut solid = false;
                    let mut child_obs: Vec<u32> = Vec::new();
                    for &oi in relevant {
                        ops += 1;
                        let o = &obstacles[oi as usize];
                        if child.intersects_interior(o) {
                            blocked = true;
                            if o.contains_rect(&child) {
                                solid = true;
                                break;
                            }
                            child_obs.push(oi);
                        }
                    }
                    bits.push(!blocked);
                    if blocked {
                        if solid || is_last {
                            split.push(false);
                            if !is_last {
                                dark_here += 1;
                            }
                        } else {
                            split.push(true);
                            next.push((child, child_obs));
                        }
                    }
                }
            }
            // Dark parents for the next level: solid zeros here plus all
            // phantom zeros here.
            dark_parents = dark_here;
            frontier = next;
        }
        let mut region = BitmapSafeRegion::assemble(cell, self.config, false, bits, Some(&split));
        for (depth, &(bit_start, split_start, phantom_zeros)) in starts.iter().enumerate() {
            region.set_level(depth, bit_start, split_start, phantom_zeros);
        }
        (region, ops)
    }

    /// The rect of child `index` (raster order, top row first) of
    /// `parent`.
    fn child_rect(&self, parent: Rect, index: usize) -> Rect {
        let (u, v) = (self.config.split_u as usize, self.config.split_v as usize);
        let side = (parent.width() / u as f64, parent.height() / v as f64);
        rect_of(child_bounds(bounds_of(parent), side, (u, v), index % u, index / u))
    }
}

/// A pyramid cell that granted a point ([`BitmapSafeRegion::grant`]):
/// a closed box every point of which the region grants at the same
/// descent depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeBlock {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl FreeBlock {
    /// The block that contains no point.
    pub const NONE: FreeBlock = FreeBlock {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Whether `p` lies in the block (boundary included).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// The block's lower-left corner.
    pub fn min_corner(&self) -> Point {
        Point::new(self.min_x, self.min_y)
    }

    /// The block's upper-right corner.
    pub fn max_corner(&self) -> Point {
        Point::new(self.max_x, self.max_y)
    }
}

/// One level's entry in the level table.
#[derive(Debug, Clone, Copy)]
struct Level {
    /// First bit of the level in the bit pairs.
    bit_start: usize,
    /// Bits the level stores.
    bit_len: usize,
    /// Zeros in the bit pairs before `bit_start`.
    zeros_before: usize,
    /// First split flag of the level in the split pairs.
    split_start: usize,
    /// Virtual (all-zero) bits this level contributes to the nominal wire
    /// encoding from solid ancestors.
    phantom_zeros: u64,
    /// Whether this is the deepest level.
    last: bool,
}

/// A bitmap-encoded safe region (Definition 1): the wire object the server
/// ships to the client, supporting bounded-cost containment checks. Its
/// storage is one allocation (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct BitmapSafeRegion {
    data: Box<[u64]>,
}

impl BitmapSafeRegion {
    /// A region of `cell` whose level bits are `bits` (words taken over,
    /// not copied) and whose split flags are `split` (`None`: implicit, as
    /// on the wire). The level table is left for [`Self::set_level`].
    fn assemble(
        cell: Rect,
        config: PyramidConfig,
        root_free: bool,
        bits: BitVec,
        split: Option<&BitVec>,
    ) -> BitmapSafeRegion {
        let levels = if root_free { 0 } else { config.height as usize };
        let bits_len = bits.len();
        let base = HEADER + LEVEL_WORDS * levels;
        let bit_pairs = 2 * (bits_len.div_ceil(64) + 1);
        let split_pairs = split.map_or(0, |s| 2 * (s.len().div_ceil(64) + 1));
        let total = base + bit_pairs + split_pairs;
        let mut data = bits.into_words();
        let nwords = data.len();
        data.reserve_exact(total - nwords);
        data.resize(total, 0);
        // Spread the words into pairs back to front: word `i` moves to
        // `base + 2i > i`, past every word still waiting to move.
        for i in (0..nwords).rev() {
            data[base + 2 * i] = data[i];
        }
        let mut ones = 0u64;
        for i in 0..nwords {
            data[base + 2 * i + 1] = ones;
            ones += u64::from(data[base + 2 * i].count_ones());
        }
        data[base + 2 * nwords] = 0;
        data[base + 2 * nwords + 1] = ones;
        if let Some(split) = split {
            write_pairs(&mut data[base + bit_pairs..], split.words());
        }
        data[..base].fill(0);
        data[..4].copy_from_slice(&bounds_of(cell).map(f64::to_bits));
        data[H_SPLITS] = u64::from(config.split_u) | u64::from(config.split_v) << 32;
        data[H_SHAPE] = u64::from(config.height)
            | u64::from(root_free) << 32
            | u64::from(split.is_none()) << 33;
        data[H_BITS] = bits_len as u64;
        data[H_SPLIT_BITS] = split.map_or(0, |s| s.len() as u64);
        BitmapSafeRegion { data: data.into_boxed_slice() }
    }

    /// Fills level `depth`'s table entry.
    fn set_level(
        &mut self,
        depth: usize,
        bit_start: usize,
        split_start: usize,
        phantom_zeros: u64,
    ) {
        let zeros_before = pair_zeros_before(&self.data, self.bits_base(), bit_start);
        let split_zeros_before = if self.implicit_splits() {
            0
        } else {
            pair_zeros_before(&self.data, self.split_base(), split_start)
        };
        let entry = HEADER + LEVEL_WORDS * depth;
        self.data[entry..entry + LEVEL_WORDS].copy_from_slice(&[
            bit_start as u64,
            zeros_before as u64,
            split_start as u64,
            split_zeros_before as u64,
            phantom_zeros,
        ]);
    }

    fn cell_bounds(&self) -> Bounds {
        [0, 1, 2, 3].map(|i| f64::from_bits(self.data[i]))
    }

    fn implicit_splits(&self) -> bool {
        self.data[H_SHAPE] >> 33 & 1 == 1
    }

    fn bits_len(&self) -> usize {
        self.data[H_BITS] as usize
    }

    fn bits_base(&self) -> usize {
        HEADER + LEVEL_WORDS * self.level_count()
    }

    fn split_base(&self) -> usize {
        self.bits_base() + 2 * (self.bits_len().div_ceil(64) + 1)
    }

    fn level(&self, depth: usize) -> Level {
        let entry = HEADER + LEVEL_WORDS * depth;
        let word = |i: usize| self.data[entry + i];
        let last = depth + 1 == self.level_count();
        let end = if last { self.bits_len() } else { self.data[entry + LEVEL_WORDS] as usize };
        Level {
            bit_start: word(0) as usize,
            bit_len: end - word(0) as usize,
            zeros_before: word(1) as usize,
            split_start: word(2) as usize,
            phantom_zeros: word(4),
            last,
        }
    }

    /// Bit `i` of `level`.
    fn bit(&self, level: &Level, i: usize) -> bool {
        pair_bit(&self.data, self.bits_base(), level.bit_start + i)
    }

    /// Zeros of `level` before its bit `i`.
    fn rank_zeros(&self, level: &Level, i: usize) -> usize {
        pair_zeros_before(&self.data, self.bits_base(), level.bit_start + i) - level.zeros_before
    }

    /// Whether zero `z` of `level` splits into a child block at the next
    /// level (0: solid, or the deepest level).
    fn splits(&self, level: &Level, z: usize) -> bool {
        if self.implicit_splits() {
            return !level.last;
        }
        pair_bit(&self.data, self.split_base(), level.split_start + z)
    }

    /// The base grid cell this region refines.
    pub fn cell(&self) -> Rect {
        rect_of(self.cell_bounds())
    }

    /// The pyramid configuration used to encode the region.
    pub fn config(&self) -> PyramidConfig {
        PyramidConfig {
            split_u: self.data[H_SPLITS] as u32,
            split_v: (self.data[H_SPLITS] >> 32) as u32,
            height: self.data[H_SHAPE] as u32,
        }
    }

    /// True when the whole cell is safe (no intersecting alarms).
    pub fn is_whole_cell_free(&self) -> bool {
        self.data[H_SHAPE] >> 32 & 1 == 1
    }

    /// Number of encoded pyramid levels (0 when the whole cell is free).
    pub fn level_count(&self) -> usize {
        if self.is_whole_cell_free() {
            0
        } else {
            self.data[H_SHAPE] as u32 as usize
        }
    }

    /// Nominal bit count per level of the paper's wire encoding (including
    /// the all-zero blocks under solid cells).
    pub fn nominal_level_bits(&self) -> Vec<u64> {
        (0..self.level_count())
            .map(|d| self.level(d))
            .map(|l| l.bit_len as u64 + l.phantom_zeros)
            .collect()
    }

    /// Nominal zero count per level (materialized and phantom).
    pub fn nominal_level_zeros(&self) -> Vec<u64> {
        (0..self.level_count())
            .map(|d| self.level(d))
            .map(|l| self.rank_zeros(&l, l.bit_len) as u64 + l.phantom_zeros)
            .collect()
    }

    /// Number of bits actually materialized in memory (the sparse
    /// representation's footprint).
    pub fn materialized_bits(&self) -> usize {
        (0..self.level_count()).map(|d| self.level(d).bit_len).sum()
    }

    /// Coverage η(Ψs): ratio of safe-region area to grid-cell area
    /// (paper §4.2). Computed exactly from the bit structure.
    pub fn coverage(&self) -> f64 {
        if self.is_whole_cell_free() {
            return 1.0;
        }
        let fanout = self.config().fanout() as f64;
        let mut covered = 0.0;
        let mut level_cell_fraction = 1.0;
        for depth in 0..self.level_count() {
            let level = self.level(depth);
            let ones = level.bit_len - self.rank_zeros(&level, level.bit_len);
            level_cell_fraction /= fanout;
            covered += ones as f64 * level_cell_fraction;
        }
        covered
    }

    /// Decodes the bitmap back into the geometric safe region — the
    /// "pyramid bitmap decoding to obtain a geometrical shape" step the
    /// client runs once on receipt.
    pub fn decode(&self) -> RectilinearRegion {
        let config = self.config();
        let computer = PyramidComputer::new(config);
        let mut rects = Vec::new();
        if self.is_whole_cell_free() {
            rects.push(self.cell());
            return RectilinearRegion::from_rects(rects);
        }
        // Walk the materialized (split) tree; solid subtrees decode to
        // nothing (they are blocked).
        let mut frontier: Vec<Rect> = vec![self.cell()];
        for depth in 0..self.level_count() {
            let level = self.level(depth);
            let mut next = Vec::new();
            let mut bit = 0usize;
            for parent in &frontier {
                for idx in 0..config.fanout() {
                    let rect = computer.child_rect(*parent, idx);
                    if self.bit(&level, bit) {
                        rects.push(rect);
                    } else if self.splits(&level, self.rank_zeros(&level, bit)) {
                        next.push(rect);
                    }
                    bit += 1;
                }
            }
            frontier = next;
        }
        RectilinearRegion::from_rects(rects)
    }

    /// Total bits in the paper's wire encoding: 1 root bit plus every level
    /// block (including all-zero blocks under solid cells) — the "bitmap
    /// size |B|" of Proposition 3 and the payload the bandwidth model
    /// charges.
    pub fn bitmap_size(&self) -> usize {
        1 + self.nominal_level_bits().iter().sum::<u64>() as usize
    }

    /// The full bitmap as a `0`/`1` string in the paper's layout (root bit,
    /// then level blocks), e.g. `"0 000011010 111001001..."` without the
    /// spaces. Reconstructs phantom zero blocks, so this is intended for
    /// examples and tests on small regions.
    pub fn to_bitstring(&self) -> String {
        let mut s = String::with_capacity(self.bitmap_size());
        s.push(if self.is_whole_cell_free() { '1' } else { '0' });
        // Per nominal zero of the level above: whether it splits
        // (materialized children) or is dark (phantom children).
        #[derive(Clone, Copy)]
        enum ParentKind {
            Split,
            Dark,
        }
        let fanout = self.config().fanout();
        let mut parents =
            if self.is_whole_cell_free() { vec![] } else { vec![ParentKind::Split] };
        for depth in 0..self.level_count() {
            let level = self.level(depth);
            let mut next_parents = Vec::new();
            let mut bit = 0usize;
            for parent in &parents {
                match parent {
                    ParentKind::Split => {
                        for _ in 0..fanout {
                            let free = self.bit(&level, bit);
                            s.push(if free { '1' } else { '0' });
                            if !free {
                                let splits = self.splits(&level, self.rank_zeros(&level, bit));
                                next_parents
                                    .push(if splits { ParentKind::Split } else { ParentKind::Dark });
                            }
                            bit += 1;
                        }
                    }
                    ParentKind::Dark => {
                        for _ in 0..fanout {
                            s.push('0');
                            next_parents.push(ParentKind::Dark);
                        }
                    }
                }
            }
            parents = next_parents;
        }
        s
    }

    /// The full bitmap in the paper's nominal wire layout (root bit, then
    /// level blocks, phantom zero blocks under solid cells reconstructed) as
    /// a [`BitVec`] of exactly [`BitmapSafeRegion::bitmap_size`] bits — the
    /// payload a live server ships over a real transport.
    ///
    /// Word-parallel: materialized child blocks are appended 64 bits at a
    /// time, phantom zero blocks under solid cells via
    /// [`BitVec::push_zeros`], and parents are tracked as `(is_split,
    /// count)` runs so the walk's memory stays proportional to the
    /// materialized boundary, not the nominal encoding.
    /// [`BitmapSafeRegion::to_bitstring`] keeps the bit-by-bit walk and the
    /// tests pin the two paths equal.
    pub fn to_wire_bits(&self) -> BitVec {
        let mut bits = BitVec::with_capacity(self.bitmap_size());
        bits.push(self.is_whole_cell_free());
        let fanout = self.config().fanout();
        let base = self.bits_base();
        fn push_run(runs: &mut Vec<(bool, u64)>, is_split: bool, count: u64) {
            if count == 0 {
                return;
            }
            match runs.last_mut() {
                Some((kind, n)) if *kind == is_split => *n += count,
                _ => runs.push((is_split, count)),
            }
        }
        // Parents at the current level in nominal order, run-length
        // encoded; consecutive split parents own contiguous materialized
        // child blocks, so a whole run is appended in one bulk copy.
        let mut parents: Vec<(bool, u64)> =
            if self.is_whole_cell_free() { Vec::new() } else { vec![(true, 1)] };
        for depth in 0..self.level_count() {
            let level = self.level(depth);
            let mut next_parents: Vec<(bool, u64)> = Vec::new();
            let mut bit = 0usize;
            for &(is_split, run) in &parents {
                if !is_split {
                    let zeros = run * fanout as u64;
                    bits.push_zeros(zeros as usize);
                    push_run(&mut next_parents, false, zeros);
                    continue;
                }
                let block = run as usize * fanout;
                let mut copied = 0;
                while copied < block {
                    let take = (block - copied).min(64);
                    let start = level.bit_start + bit + copied;
                    bits.push_word(pair_word(&self.data, base, start, take), take);
                    copied += take;
                }
                for i in bit..bit + block {
                    if !self.bit(&level, i) {
                        let splits = self.splits(&level, self.rank_zeros(&level, i));
                        push_run(&mut next_parents, splits, 1);
                    }
                }
                bit += block;
            }
            parents = next_parents;
        }
        bits
    }

    /// Reconstructs a region from the nominal wire bits produced by
    /// [`BitmapSafeRegion::to_wire_bits`] for the given cell and
    /// configuration, taking over `bits`' words: the region is the one
    /// allocation that grows them by the header and rank directory.
    ///
    /// The wire layout does not distinguish solid (all-descendants-dark)
    /// cells from blocked cells whose children were all individually
    /// blocked, so the reconstruction materializes every zero's child block
    /// down to the deepest level. The result is observationally identical
    /// to the encoder's region — same containment verdicts, same
    /// [`BitmapSafeRegion::bitmap_size`], same decoded geometry, same
    /// bitstring — but may hold a denser in-memory representation than the
    /// sparse original.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation when `bits` is not a
    /// well-formed encoding for `config` (wrong length for the pyramid
    /// structure it describes).
    pub fn from_wire_bits(
        cell: Rect,
        config: PyramidConfig,
        bits: BitVec,
    ) -> Result<BitmapSafeRegion, String> {
        config.validate();
        let len = bits.len();
        let root_free = bits.get(0).ok_or_else(|| "empty bitmap".to_string())?;
        if root_free && len != 1 {
            return Err(format!("free-cell bitmap must be 1 bit, got {len}"));
        }
        let mut region = BitmapSafeRegion::assemble(cell, config, root_free, bits, None);
        let fanout = config.fanout();
        let base = region.bits_base();
        // Level `depth` holds one child block per zero of the level above
        // (the root bit counts as level 0).
        let mut pos = 1usize;
        let mut prev_zeros = 1usize;
        for depth in 0..region.level_count() {
            let expect = prev_zeros * fanout;
            if pos + expect > len {
                return Err(format!("bitmap truncated at bit {len}"));
            }
            region.set_level(depth, pos, 0, 0);
            prev_zeros = pair_zeros_before(&region.data, base, pos + expect)
                - pair_zeros_before(&region.data, base, pos);
            pos += expect;
        }
        if pos != len {
            return Err(format!("bitmap has {} trailing bits", len - pos));
        }
        Ok(region)
    }

    /// Containment check with pyramid descent: at most `height` levels are
    /// examined (the client's "predefined worst-case number of
    /// computations"). Returns the number of levels descended alongside the
    /// verdict.
    pub fn contains_with_cost(&self, p: Point) -> (bool, usize) {
        let (inside, levels, _, _) = self.descend(p);
        (inside, levels)
    }

    /// [`BitmapSafeRegion::contains_with_cost`], plus the pyramid cell
    /// that granted `p` as a [`FreeBlock`] (or [`FreeBlock::NONE`] when
    /// `p` is outside): every point of the block gets the same answer —
    /// inside, at the same number of levels — so
    /// a client tests later samples against the block alone and descends
    /// again only when one leaves it.
    ///
    /// The block is the granting cell's rect, shrunk until its two corners
    /// descend to that same cell. Each level of a descent picks a column
    /// from `x` and a row from `y`, each monotone in its coordinate, so the
    /// points that descend to one cell form a box, and a box whose
    /// corners descend there lies in it whole. When a corner cannot be
    /// confirmed within a few ulps the block is [`FreeBlock::NONE`]:
    /// later samples then descend, exactly as without a block.
    pub fn grant(&self, p: Point) -> (bool, usize, FreeBlock) {
        let (inside, levels, bit, cell) = self.descend(p);
        if !inside {
            return (false, levels, FreeBlock::NONE);
        }
        let same = |q: Point| {
            let (inside, at, at_bit, _) = self.descend(q);
            inside && at == levels && at_bit == bit
        };
        let settle = |mut corner: Point, step: fn(f64) -> f64| {
            for _ in 0..CORNER_NUDGES {
                if same(corner) {
                    return Some(corner);
                }
                corner = Point::new(step(corner.x), step(corner.y));
            }
            None
        };
        // A pyramid cell's top and right edges belong to its neighbours
        // unless it is the last of its row or column: start one ulp in.
        let hi = if bit == usize::MAX {
            Point::new(cell[2], cell[3])
        } else {
            Point::new(cell[2].next_down(), cell[3].next_down())
        };
        let block = settle(Point::new(cell[0], cell[1]), f64::next_up)
            .zip(settle(hi, f64::next_down))
            .filter(|(lo, hi)| lo.x <= hi.x && lo.y <= hi.y)
            .map_or(FreeBlock::NONE, |(lo, hi)| FreeBlock {
                min_x: lo.x,
                min_y: lo.y,
                max_x: hi.x,
                max_y: hi.y,
            });
        (true, levels, block)
    }

    /// One containment descent: the verdict, the levels examined, the bit
    /// that decided it (`usize::MAX` when the base cell did) and the
    /// bounds of the pyramid cell that bit stands for.
    fn descend(&self, p: Point) -> (bool, usize, usize, Bounds) {
        let cell = self.cell_bounds();
        if !(p.x >= cell[0] && p.x <= cell[2] && p.y >= cell[1] && p.y <= cell[3]) {
            return (false, 1, usize::MAX, cell);
        }
        if self.is_whole_cell_free() {
            return (true, 1, usize::MAX, cell);
        }
        let config = self.config();
        let (u, v) = (config.split_u as usize, config.split_v as usize);
        let levels = self.level_count();
        let implicit = self.implicit_splits();
        let (bits, splits) = (self.bits_base(), self.split_base());
        let data = &self.data[..];
        let mut parent = cell;
        // Bit offset of the current parent's child block within its level.
        let mut block_start = 0usize;
        for depth in 0..levels {
            let entry = HEADER + LEVEL_WORDS * depth;
            let side = ((parent[2] - parent[0]) / u as f64, (parent[3] - parent[1]) / v as f64);
            let col = (((p.x - parent[0]) / side.0) as usize).min(u - 1);
            let row_from_bottom = (((p.y - parent[1]) / side.1) as usize).min(v - 1);
            let row_from_top = v - 1 - row_from_bottom;
            let child = child_bounds(parent, side, (u, v), col, row_from_top);
            let bit = data[entry] as usize + block_start + row_from_top * u + col;
            if pair_bit(data, bits, bit) {
                return (true, depth + 1, bit, child);
            }
            let zrank = pair_zeros_before(data, bits, bit) - data[entry + 1] as usize;
            // Solid blocked cell or deepest level: conservatively outside
            // the safe region. Otherwise the child block at the next level
            // comes after the blocks of all earlier *split* zeros.
            let splits_before = if implicit {
                if depth + 1 == levels {
                    return (false, depth + 1, bit, child);
                }
                zrank
            } else {
                let flag = data[entry + 2] as usize + zrank;
                if !pair_bit(data, splits, flag) {
                    return (false, depth + 1, bit, child);
                }
                zrank - (pair_zeros_before(data, splits, flag) - data[entry + 3] as usize)
            };
            block_start = splits_before * u * v;
            parent = child;
        }
        (false, levels.max(1), usize::MAX, parent)
    }
}

impl SafeRegion for BitmapSafeRegion {
    fn contains(&self, p: Point) -> bool {
        self.contains_with_cost(p).0
    }

    fn encoded_bits(&self) -> usize {
        self.bitmap_size()
    }

    fn worst_case_check_ops(&self) -> usize {
        // Cell bounds check (4 comparisons) plus one indexed bit probe per
        // pyramid level.
        4 + self.config().height as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    /// The Figure 3 worked example: a cell whose 3×3 split yields the
    /// bitmap pattern
    /// ```text
    /// 0 0 0
    /// 0 1 1
    /// 0 1 0
    /// ```
    /// (top row first), i.e. six blocked level-1 cells.
    fn figure3_scenario() -> (Rect, Vec<Rect>) {
        let cell = r(0.0, 0.0, 9.0, 9.0);
        let alarms = vec![
            r(0.0, 6.5, 9.0, 9.0),  // blocks the whole top row
            r(0.5, 3.5, 1.5, 5.0),  // blocks middle-left
            r(0.5, 1.0, 1.5, 2.0),  // blocks bottom-left
            r(7.0, 1.0, 8.0, 2.0),  // blocks bottom-right
        ];
        (cell, alarms)
    }

    #[test]
    fn whole_free_cell_is_one_bit() {
        let c = PyramidComputer::new(PyramidConfig::three_by_three(3));
        let region = c.compute(r(0.0, 0.0, 9.0, 9.0), &[]);
        assert!(region.is_whole_cell_free());
        assert_eq!(region.bitmap_size(), 1);
        assert_eq!(region.to_bitstring(), "1");
        assert_eq!(region.coverage(), 1.0);
        assert!(region.contains(Point::new(4.0, 4.0)));
    }

    #[test]
    fn figure3b_gbsr_bitmap_matches_paper() {
        let (cell, alarms) = figure3_scenario();
        let c = PyramidComputer::new(PyramidConfig::three_by_three(1));
        let region = c.compute(cell, &alarms);
        // Figure 3(b): bitmap 0 000011010.
        assert_eq!(region.to_bitstring(), "0000011010");
        assert_eq!(region.bitmap_size(), 10);
    }

    #[test]
    fn figure3c_9x9_gbsr_uses_82_bits() {
        let (cell, alarms) = figure3_scenario();
        let c = PyramidComputer::new(PyramidConfig::gbsr(9, 9));
        let region = c.compute(cell, &alarms);
        // "the GBSR approach requires 82 bits, 1 bit for the entire cell
        // and 81 bits for the 9×9 grid"
        assert_eq!(region.bitmap_size(), 82);
    }

    #[test]
    fn figure3d_pbsr_h2_uses_64_bits() {
        let (cell, alarms) = figure3_scenario();
        let c = PyramidComputer::new(PyramidConfig::three_by_three(2));
        let region = c.compute(cell, &alarms);
        // "the PBSR approach requires only 64 bits, 1 bit for the entire
        // cell, 9 bits for the cells at level 1 and 54 bits for the cells
        // at level 2"
        assert_eq!(region.nominal_level_bits(), vec![9, 54]);
        assert_eq!(region.bitmap_size(), 64);
    }

    #[test]
    fn pbsr_coverage_never_decreases_with_height() {
        let (cell, alarms) = figure3_scenario();
        let mut prev = 0.0;
        for h in 1..=6 {
            let c = PyramidComputer::new(PyramidConfig::three_by_three(h));
            let cov = c.compute(cell, &alarms).coverage();
            assert!(cov >= prev - 1e-12, "h={h}: coverage {cov} < {prev}");
            assert!((0.0..=1.0).contains(&cov));
            prev = cov;
        }
        // With a fine pyramid, coverage approaches the true free fraction.
        assert!(prev > 0.5);
    }

    #[test]
    fn containment_agrees_with_decoded_region() {
        let (cell, alarms) = figure3_scenario();
        let c = PyramidComputer::new(PyramidConfig::three_by_three(3));
        let region = c.compute(cell, &alarms);
        let decoded = region.decode();
        for i in 0..40 {
            for j in 0..40 {
                let p = Point::new(0.1 + i as f64 * 0.22, 0.1 + j as f64 * 0.22);
                assert_eq!(
                    region.contains(p),
                    decoded.contains_point(p),
                    "disagreement at {p}"
                );
            }
        }
    }

    #[test]
    fn safe_cells_never_touch_alarm_interiors() {
        let (cell, alarms) = figure3_scenario();
        for h in 1..=4 {
            let c = PyramidComputer::new(PyramidConfig::three_by_three(h));
            let decoded = c.compute(cell, &alarms).decode();
            for alarm in &alarms {
                assert!(
                    !decoded.intersects_interior(alarm),
                    "h={h}: safe region overlaps alarm {alarm}"
                );
            }
        }
    }

    #[test]
    fn decoded_area_matches_coverage() {
        let (cell, alarms) = figure3_scenario();
        let c = PyramidComputer::new(PyramidConfig::three_by_three(3));
        let region = c.compute(cell, &alarms);
        let decoded = region.decode();
        assert!((decoded.area() / cell.area() - region.coverage()).abs() < 1e-12);
    }

    #[test]
    fn check_cost_is_bounded_by_height() {
        let (cell, alarms) = figure3_scenario();
        let c = PyramidComputer::new(PyramidConfig::three_by_three(4));
        let region = c.compute(cell, &alarms);
        for i in 0..20 {
            let p = Point::new(i as f64 * 0.45, 9.0 - i as f64 * 0.45);
            let (_, cost) = region.contains_with_cost(p);
            assert!(cost <= 4, "descent cost {cost} exceeds height");
        }
        assert!(region.worst_case_check_ops() >= 4 + 4);
    }

    #[test]
    fn point_outside_cell_is_never_contained() {
        let (cell, alarms) = figure3_scenario();
        let c = PyramidComputer::new(PyramidConfig::three_by_three(2));
        let region = c.compute(cell, &alarms);
        assert!(!region.contains(Point::new(-1.0, 4.0)));
        assert!(!region.contains(Point::new(4.0, 10.0)));
    }

    #[test]
    fn fully_blocked_cell_has_zero_coverage_and_stays_sparse() {
        let cell = r(0.0, 0.0, 9.0, 9.0);
        let c = PyramidComputer::new(PyramidConfig::three_by_three(5));
        let (region, ops) = c.compute_with_cost(cell, &[r(-1.0, -1.0, 10.0, 10.0)]);
        assert_eq!(region.coverage(), 0.0);
        assert!(!region.contains(Point::new(4.5, 4.5)));
        assert!(region.decode().is_empty());
        // The nominal encoding includes every phantom level…
        assert_eq!(region.bitmap_size(), 1 + 9 + 81 + 729 + 6561 + 59049);
        // …but only the first level is materialized and the computation
        // tested a handful of rectangles.
        assert_eq!(region.materialized_bits(), 9);
        assert!(ops < 30, "ops {ops}");
    }

    #[test]
    fn gbsr_is_pbsr_height_one() {
        let (cell, alarms) = figure3_scenario();
        let a = PyramidComputer::new(PyramidConfig::three_by_three(1)).compute(cell, &alarms);
        let b = PyramidComputer::new(PyramidConfig { split_u: 3, split_v: 3, height: 1 })
            .compute(cell, &alarms);
        assert_eq!(a, b);
    }

    #[test]
    fn nominal_bitmap_structure_matches_proposition_2() {
        let (cell, alarms) = figure3_scenario();
        for h in 2..=5 {
            let region =
                PyramidComputer::new(PyramidConfig::three_by_three(h)).compute(cell, &alarms);
            // Each level holds 9 bits per nominal zero of the level above
            // (the root counts as the single level-0 zero).
            let bits = region.nominal_level_bits();
            let zeros = region.nominal_level_zeros();
            let mut blocked = 1u64;
            for (level_bits, level_zeros) in bits.iter().zip(zeros.iter()) {
                assert_eq!(*level_bits, blocked * 9);
                blocked = *level_zeros;
            }
            let expected: u64 = 1 + bits.iter().sum::<u64>();
            assert_eq!(region.bitmap_size() as u64, expected);
        }
    }

    #[test]
    fn bitstring_length_matches_bitmap_size() {
        let (cell, alarms) = figure3_scenario();
        for h in 1..=4 {
            let region =
                PyramidComputer::new(PyramidConfig::three_by_three(h)).compute(cell, &alarms);
            assert_eq!(region.to_bitstring().len(), region.bitmap_size(), "h={h}");
        }
    }

    #[test]
    fn solid_fast_path_does_not_change_semantics() {
        // A cell with one alarm fully covering a sub-region: the solid fast
        // path must produce the same containment answers as brute force.
        let cell = r(0.0, 0.0, 9.0, 9.0);
        let alarms = vec![r(0.0, 0.0, 6.0, 6.0), r(7.0, 7.0, 8.5, 8.8)];
        let region = PyramidComputer::new(PyramidConfig::three_by_three(3)).compute(cell, &alarms);
        for i in 0..30 {
            for j in 0..30 {
                let p = Point::new(0.15 + i as f64 * 0.3, 0.15 + j as f64 * 0.3);
                let truly_safe = !alarms.iter().any(|a| a.contains_point_strict(p));
                if region.contains(p) {
                    assert!(truly_safe, "unsafe point {p} reported safe");
                }
            }
        }
        // Points well inside the fully-solid quadrant are blocked.
        assert!(!region.contains(Point::new(3.0, 3.0)));
        // Points in the free corner are safe.
        assert!(region.contains(Point::new(6.5, 2.0)));
    }

    #[test]
    fn edge_touching_alarm_leaves_cell_safe() {
        let cell = r(0.0, 0.0, 9.0, 9.0);
        // Alarm exactly covering the left third shares an edge with the
        // middle third: the middle column must stay safe.
        let alarm = r(0.0, 0.0, 3.0, 9.0);
        let region = PyramidComputer::new(PyramidConfig::three_by_three(1)).compute(cell, &[alarm]);
        assert!(region.contains(Point::new(4.5, 4.5)));
        assert!(!region.contains(Point::new(1.5, 4.5)));
        assert!((region.coverage() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn deep_pyramid_over_dense_alarms_stays_fast() {
        // The pathological case that motivates the sparse representation:
        // large alarms covering much of the cell at height 7.
        let cell = r(0.0, 0.0, 1_581.0, 1_581.0);
        let alarms: Vec<Rect> = (0..12)
            .map(|i| {
                let x = (i % 4) as f64 * 380.0 + 30.0;
                let y = (i / 4) as f64 * 500.0 + 40.0;
                r(x, y, x + 320.0, y + 300.0)
            })
            .collect();
        let start = std::time::Instant::now();
        let (region, ops) = PyramidComputer::new(PyramidConfig::three_by_three(7))
            .compute_with_cost(cell, &alarms);
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(800),
            "h=7 computation took {elapsed:?}"
        );
        // Materialized bits stay boundary-proportional while the nominal
        // encoding is orders of magnitude larger.
        assert!(region.materialized_bits() < 2_000_000);
        assert!(ops > 0);
        assert!(region.coverage() > 0.2 && region.coverage() < 0.9);
    }

    #[test]
    #[should_panic(expected = "height must be at least 1")]
    fn rejects_zero_height() {
        PyramidComputer::new(PyramidConfig { split_u: 3, split_v: 3, height: 0 });
    }

    #[test]
    fn wire_bits_match_bitstring_and_round_trip() {
        let (cell, alarms) = figure3_scenario();
        for h in 1..=4 {
            let config = PyramidConfig::three_by_three(h);
            let region = PyramidComputer::new(config).compute(cell, &alarms);
            let wire = region.to_wire_bits();
            assert_eq!(wire.len(), region.bitmap_size(), "h={h}");
            assert_eq!(wire.to_bitstring(), region.to_bitstring(), "h={h}");
            let back = BitmapSafeRegion::from_wire_bits(cell, config, wire.clone()).unwrap();
            assert_eq!(back.bitmap_size(), region.bitmap_size());
            assert_eq!(back.to_bitstring(), region.to_bitstring());
            for i in 0..30 {
                for j in 0..30 {
                    let p = Point::new(0.12 + i as f64 * 0.3, 0.14 + j as f64 * 0.3);
                    assert_eq!(region.contains(p), back.contains(p), "h={h} at {p}");
                }
            }
        }
    }

    #[test]
    fn wire_round_trip_preserves_solid_subtrees_observably() {
        // The solid fast path makes the encoder sparse; the decoder
        // materializes those subtrees but must not change any verdict.
        let cell = r(0.0, 0.0, 9.0, 9.0);
        let alarms = vec![r(-1.0, -1.0, 6.0, 6.0), r(7.0, 7.0, 8.5, 8.8)];
        let config = PyramidConfig::three_by_three(3);
        let region = PyramidComputer::new(config).compute(cell, &alarms);
        let back = BitmapSafeRegion::from_wire_bits(cell, config, region.to_wire_bits()).unwrap();
        assert!((back.coverage() - region.coverage()).abs() < 1e-12);
        assert_eq!(back.decode().area(), region.decode().area());
        assert!(back.materialized_bits() >= region.materialized_bits());
    }

    #[test]
    fn malformed_wire_bits_are_rejected() {
        let cell = r(0.0, 0.0, 9.0, 9.0);
        let config = PyramidConfig::three_by_three(2);
        assert!(BitmapSafeRegion::from_wire_bits(cell, config, BitVec::new()).is_err());
        // A free root with trailing bits is malformed.
        let mut bits = BitVec::new();
        bits.push(true);
        bits.push(false);
        assert!(BitmapSafeRegion::from_wire_bits(cell, config, bits).is_err());
        // A blocked root with too few level bits is truncated.
        let mut bits = BitVec::new();
        bits.push(false);
        for _ in 0..5 {
            bits.push(true);
        }
        assert!(BitmapSafeRegion::from_wire_bits(cell, config, bits).is_err());
    }
}
