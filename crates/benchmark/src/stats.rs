//! Exact estimators over raw samples.
//!
//! Every timing the benchmark reports comes from the sorted raw sample
//! vector, never from the 12.5%-wide buckets of the `sa-obs` histogram:
//! a bucketed p50 prints the same midpoint run after run and hides any
//! change smaller than a bucket.

/// The exact `q`-quantile (nearest-rank: the smallest sample with at
/// least `q·n` samples at or below it) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile rank must be in [0, 1]");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail quantile steadied against one-off stalls: `samples` (in
/// arrival order) is cut into `windows` consecutive equal parts, the
/// exact `q`-quantile of each part is taken, and the median of those is
/// returned. One scheduler hiccup lands in one window and moves one of
/// the five values, not the reported one.
///
/// Trailing samples that do not fill a window are dropped. With fewer
/// samples than windows the plain quantile is returned.
pub fn windowed_quantile(samples: &[u64], q: f64, windows: usize) -> u64 {
    let per = samples.len() / windows.max(1);
    if per == 0 {
        return quantile(&sorted(samples), q);
    }
    let tails: Vec<f64> = samples
        .chunks_exact(per)
        .take(windows)
        .map(|w| quantile(&sorted(w), q) as f64)
        .collect();
    median(&tails) as u64
}

/// The ladder [`highest_supported_quantile`] climbs.
pub const TAIL_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The highest rung of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it — a percentile with fewer is one or two outliers,
/// not an estimate. Returns `(q, value, samples beyond)`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn highest_supported_quantile(sorted: &[u64]) -> (f64, u64, usize) {
    let n = sorted.len();
    let beyond = |q: f64| n - ((q * n as f64).ceil() as usize).clamp(1, n);
    let q = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| beyond(q) >= 10)
        .unwrap_or(TAIL_LADDER[0]);
    (q, quantile(sorted, q), beyond(q))
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the rule the acceptance driver applies to ten runs.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    cuts
}

/// The distance between the first and third quartile of `values`; 0 for
/// fewer than two.
pub fn quartile_distance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    q3 - q1
}
