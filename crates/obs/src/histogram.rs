//! Log-bucketed concurrent histograms (HDR-style).
//!
//! Values up to `2^SUB_BITS − 1` get their own bucket (lossless); beyond
//! that each power-of-two octave is split into `2^SUB_BITS` linear
//! sub-buckets, bounding the relative quantization error at
//! `2^-SUB_BITS` (12.5% with the default 3 sub-bucket bits). The layout
//! is the classic high-dynamic-range one: bucket widths double once per
//! octave, so 496 buckets cover the whole `u64` range in 4 KB of
//! atomics.
//!
//! Recording is a single `fetch_add` per bucket plus three bookkeeping
//! RMWs (count, sum, max) — no locks, no allocation — so concurrent
//! recorders interleave freely and never lose counts. Snapshots read the
//! bucket array with relaxed loads; a snapshot taken while recorders are
//! active is some valid interleaving, and quantiles are computed against
//! the bucket total observed *in that snapshot* so they are internally
//! consistent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: the `SUBS` lossless small-value buckets plus
/// `SUBS` per octave for octaves `SUB_BITS..=63`.
const BUCKETS: usize = SUBS * (64 - SUB_BITS as usize + 1);

/// Index of the bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) as usize & (SUBS - 1);
    SUBS + ((msb - SUB_BITS) as usize) * SUBS + sub
}

/// Smallest value landing in bucket `i`.
fn bucket_low(i: usize) -> u64 {
    if i < SUBS {
        return i as u64;
    }
    let k = i - SUBS;
    let octave = (k / SUBS) as u32;
    let sub = (k % SUBS) as u64;
    (1u64 << (octave + SUB_BITS)) + (sub << octave)
}

/// Largest value landing in bucket `i`.
fn bucket_high(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        return u64::MAX;
    }
    bucket_low(i + 1) - 1
}

/// The width of bucket `i` (number of distinct values it merges).
pub fn bucket_width(i: usize) -> u64 {
    bucket_high(i).wrapping_sub(bucket_low(i)).wrapping_add(1)
}

/// The width of the bucket that would hold `v` — the quantization bound
/// a reported quantile carries.
pub fn width_at(v: u64) -> u64 {
    bucket_width(bucket_of(v))
}

/// Index of the bucket holding `v` — the public face of the bucket
/// layout, shared with the exemplar store so "the bucket a value landed
/// in" means the same thing in both.
pub fn bucket_index(v: u64) -> usize {
    bucket_of(v)
}

/// Total number of buckets in the layout.
pub fn bucket_count() -> usize {
    BUCKETS
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A shared handle to one histogram. Cloning is cheap and all clones
/// record into the same buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, unregistered histogram (registries hand out registered
    /// ones; this is for standalone use and tests).
    pub fn new() -> Histogram {
        Histogram { core: Arc::new(HistogramCore::new()) }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.core.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
        self.core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in whole nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Adds every value a [`HistogramSnapshot`] recorded into `self`,
    /// bucket-wise. Snapshots carry their sparse bucket counts precisely
    /// so that a histogram captured in one process, member or bench run
    /// can be folded, exactly, into a live registry elsewhere: summing
    /// bucket by bucket gives the histogram a single recorder would have
    /// produced (the layout is identical everywhere), so the quantiles
    /// of the sum carry the same one-bucket-width error bound as local
    /// ones. The federated scrape rolls member histograms up this way,
    /// the scaling bench its per-run snapshots.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        for &(i, n) in &snap.buckets {
            if let Some(bucket) = self.core.buckets.get(i as usize) {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.core.count.fetch_add(snap.count, Ordering::Relaxed);
        self.core.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.core.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// A consistent snapshot with precomputed quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> =
            self.core.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Rank of the q-quantile element, 1-based, clamped into range.
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // Midpoint of the bucket: at most half a bucket width
                    // from every value the bucket merged.
                    let low = bucket_low(i);
                    return low + (bucket_high(i) - low) / 2;
                }
            }
            bucket_high(BUCKETS - 1)
        };
        HistogramSnapshot {
            count: total,
            sum: self.core.sum.load(Ordering::Relaxed),
            max: self.core.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            buckets: buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Values recorded (as summed over the bucket array at snapshot time).
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed).
    pub max: u64,
    /// Median estimate (bucket midpoint).
    pub p50: u64,
    /// 90th-percentile estimate (bucket midpoint).
    pub p90: u64,
    /// 99th-percentile estimate (bucket midpoint).
    pub p99: u64,
    /// Sparse non-zero bucket counts, `(bucket index, count)` in index
    /// order — enough to reconstruct the full distribution exactly (see
    /// [`Histogram::absorb`]). The quantile fields above are derived
    /// from these same counts.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The exact quantile of a value multiset under the same rank rule the
/// bucketed estimate uses — the reference the property tests (and any
/// future accuracy audit) compare against.
pub fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty set");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every bucket's low is the previous bucket's high + 1, and
        // bucket_of inverts bucket_low/high at both edges.
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_low(i + 1), bucket_high(i) + 1, "gap after bucket {i}");
            assert_eq!(bucket_of(bucket_low(i)), i);
            assert_eq!(bucket_of(bucket_high(i)), i);
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_lossless() {
        for v in 0..SUBS as u64 {
            assert_eq!(bucket_width(bucket_of(v)), 1, "value {v} must have its own bucket");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[9u64, 100, 1_000, 123_456, 1 << 40, u64::MAX / 3] {
            let w = width_at(v);
            assert!(
                (w as f64) <= (v as f64) * 0.126,
                "bucket width {w} too coarse for {v}"
            );
        }
    }

    #[test]
    fn snapshot_quantiles_track_exact_ones() {
        let h = Histogram::new();
        let mut values: Vec<u64> = (1..=10_000u64).map(|i| i * 37 % 90_001 + 1).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, 10_000);
        for (q, est) in [(0.50, snap.p50), (0.90, snap.p90), (0.99, snap.p99)] {
            let exact = exact_quantile(&values, q);
            let tolerance = width_at(exact);
            assert!(
                est.abs_diff(exact) <= tolerance,
                "q={q}: estimate {est} vs exact {exact}, tolerance {tolerance}"
            );
        }
        assert_eq!(snap.max, *values.last().unwrap());
    }

    #[test]
    fn merged_quantiles_match_pooled_exact_within_one_bucket_width() {
        // Property over seeded pseudo-random member splits: absorbing N
        // member snapshots bucket-wise must estimate the *pooled*
        // quantiles within one bucket width, exactly as if one process
        // had recorded everything.
        let mut rng = 0x5EED_CAFEu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _case in 0..50 {
            let members: Vec<Histogram> = (0..3).map(|_| Histogram::new()).collect();
            let mut pooled: Vec<u64> = Vec::new();
            let values = 200 + (next() % 800) as usize;
            for _ in 0..values {
                let v = next() % 5_000_000 + 1;
                members[(next() % 3) as usize].record(v);
                pooled.push(v);
            }
            pooled.sort_unstable();
            let merged = Histogram::new();
            for m in &members {
                merged.absorb(&m.snapshot());
            }
            let snap = merged.snapshot();
            assert_eq!(snap.count, pooled.len() as u64);
            assert_eq!(snap.sum, pooled.iter().sum::<u64>());
            assert_eq!(snap.max, *pooled.last().unwrap());
            for (q, est) in [(0.50, snap.p50), (0.90, snap.p90), (0.99, snap.p99)] {
                let exact = exact_quantile(&pooled, q);
                let tolerance = width_at(exact);
                assert!(
                    est.abs_diff(exact) <= tolerance,
                    "q={q}: merged {est} vs pooled exact {exact}, tolerance {tolerance}"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap, HistogramSnapshot::default());
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn duration_recording_uses_nanoseconds() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(5));
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        // 5000 ns lands in a bucket no wider than 12.5% of the value.
        assert!(snap.p50.abs_diff(5_000) <= width_at(5_000));
    }
}
