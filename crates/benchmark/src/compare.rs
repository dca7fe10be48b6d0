//! `sa-benchmark compare A B`: two sets of runs, judged by the bounds
//! `BENCHMARK.json` fixes.
//!
//! A *set* is an `--out` directory several runs appended to, one run
//! per seed; the two sets must hold the same seeds. Runs are paired by
//! seed, so what differs between the seeds' inputs cancels and what is
//! left is the change and the host's noise. Each end-to-end metric of
//! each workload gets one row and one verdict:
//!
//! * `regressed` — the median pair is worse in B by more than the bound
//!   (and by more than the metric's absolute floor);
//! * `improved` — better by more than the bound;
//! * `unchanged` — within the bound, the pairs agreeing with each other;
//! * `unresolved` — the pairs' changes are scattered by more than the
//!   bound, so the sets cannot tell a change that size from noise. It is
//!   never reported as `unchanged`; it becomes `improved` or `regressed`
//!   only when every pair reads better (or worse).
//!
//! The exact metrics ([`EXACT`]) and the failure count are pure
//! functions of the seed and the code: their bound is 0, pair by pair.

use crate::json::Json;
use crate::report::{Bench, MetricSpec};
use crate::stats::{median, quartile_distance};
use std::path::Path;

/// Metrics that repeat bit for bit under one seed. `BENCHMARK.json`
/// gives them the bound the acceptance driver needs for runs of
/// *different* seeds; between paired runs any difference is a change.
pub const EXACT: [&str; 2] = ["uplinks_per_ksample", "downlink_bytes_per_sample"];

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, the pairs steady.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Too noisy to say.
    Unresolved,
}

/// Differences smaller than this are never a regression, whatever share
/// of a tiny median they are: 20 ms of set-up, 5 µs of latency.
fn absolute_floor(metric: &MetricSpec) -> f64 {
    match (metric.name.as_str(), metric.unit.as_str()) {
        ("setup_s", _) => 0.020,
        (_, "us") => 5.0,
        _ => 0.0,
    }
}

/// One metric's seed-paired values, judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judged {
    /// The verdict.
    pub verdict: Verdict,
    /// The median pair's change as a share of its A value; positive is
    /// worse.
    pub worse_by: f64,
    /// Quartile distance of the pairs' changes (already a share).
    pub scatter: f64,
    /// Pairs in which B read better.
    pub wins: usize,
    /// Pairs in which B read worse.
    pub losses: usize,
}

/// Judges one metric from its values in the two sets, `a[i]` and `b[i]`
/// being the runs of one seed.
///
/// # Panics
///
/// Panics when the slices are empty or of different lengths.
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Judged {
    assert!(!a.is_empty() && a.len() == b.len(), "runs come in pairs");
    let exact = EXACT.contains(&metric.name.as_str());
    let bound = if exact {
        0.0
    } else {
        metric.bound.unwrap_or(0.0)
    };
    let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
    // Positive = B is worse, as a share of A.
    let changes: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            if x == 0.0 {
                0.0
            } else {
                sign * (y - x) / x.abs()
            }
        })
        .collect();
    let wins = changes.iter().filter(|&&c| c < 0.0).count();
    let losses = changes.iter().filter(|&&c| c > 0.0).count();
    let worse_by = median(&changes);
    let scatter = quartile_distance(&changes);
    let floor = if exact { 0.0 } else { absolute_floor(metric) };
    let beyond_floor = worse_by.abs() * median(a).abs() > floor;
    let verdict = if exact {
        match (losses, wins) {
            (0, 0) => Verdict::Unchanged,
            (0, _) => Verdict::Improved,
            _ => Verdict::Regressed,
        }
    } else if scatter > bound && scatter * median(a).abs() > floor {
        if wins == changes.len() {
            Verdict::Improved
        } else if losses == changes.len() && beyond_floor {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound && beyond_floor {
        Verdict::Regressed
    } else if -worse_by > bound && beyond_floor {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Judged {
        verdict,
        worse_by,
        scatter,
        wins,
        losses,
    }
}

/// One untraced run of a set.
struct Run {
    seed: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// The untraced runs of `dir/<workload>.json`, by seed.
fn load_set(dir: &Path, workload: &str) -> Result<Vec<Run>, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        if run.get("traced").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let number = |key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let metrics = run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        runs.push(Run {
            seed: number("seed"),
            failed: number("failed"),
            metrics: metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    runs.sort_by_key(|r| r.seed);
    Ok(runs)
}

/// Compares set `b` against set `a`, printing one row per workload and
/// end-to-end metric. Returns whether anything regressed.
///
/// # Errors
///
/// Fails when a result file is missing or unreadable, or when the two
/// sets do not hold the same seeds.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bench = Bench::load();
    let mut regressed = false;
    println!(
        "{:<13} {:<26} {:>13} {:>13} {:>8} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "scatter", "B wins", "bound"
    );
    for workload in &bench.workloads {
        let (set_a, set_b) = (load_set(a, workload)?, load_set(b, workload)?);
        let seeds = |set: &[Run]| set.iter().map(|r| r.seed).collect::<Vec<u64>>();
        if set_a.is_empty() || seeds(&set_a) != seeds(&set_b) {
            return Err(format!(
                "{workload}: the sets must hold untraced runs of the same seeds, found {:?} and {:?}",
                seeds(&set_a),
                seeds(&set_b)
            ));
        }
        for metric in &bench.end_to_end {
            let values = |set: &[Run]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|run| {
                        let found = run.metrics.iter().find(|(n, _)| *n == metric.name);
                        found.map(|(_, v)| *v).ok_or_else(|| {
                            format!("{workload}: seed {} reports no {}", run.seed, metric.name)
                        })
                    })
                    .collect()
            };
            let (va, vb) = (values(&set_a)?, values(&set_b)?);
            let judged = judge(metric, &va, &vb);
            regressed |= judged.verdict == Verdict::Regressed;
            let exact = EXACT.contains(&metric.name.as_str());
            println!(
                "{:<13} {:<26} {:>13.4} {:>13.4} {:>+7.2}% {:>7.2}% {:>6}/{:<2} {:>5.0}%  {}",
                workload,
                metric.name,
                median(&va),
                median(&vb),
                100.0 * judged.worse_by,
                100.0 * judged.scatter,
                judged.wins,
                va.len(),
                if exact {
                    0.0
                } else {
                    100.0 * metric.bound.unwrap_or(0.0)
                },
                match judged.verdict {
                    Verdict::Unchanged if exact => "identical",
                    Verdict::Unchanged => "unchanged",
                    Verdict::Improved => "improved",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // `failed_share`: bound 0. More failed operations than the
        // parent is a regression of its own, whatever the timings say.
        let failed = |set: &[Run]| set.iter().map(|r| r.failed).sum::<u64>();
        let (failed_a, failed_b) = (failed(&set_a), failed(&set_b));
        regressed |= failed_b > failed_a;
        println!(
            "{workload:<13} {:<26} {failed_a:>13} {failed_b:>13} {:>43}",
            "failed",
            if failed_b > failed_a {
                "REGRESSED"
            } else {
                "unchanged"
            }
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, unit: &str, higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.to_string(),
            unit: unit.to_string(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    fn verdict(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
        judge(metric, a, b).verdict
    }

    #[test]
    fn steady_pairs_are_judged_by_the_bound_in_the_metrics_direction() {
        let rate = spec("updates_per_s", "1/s", true, 0.10);
        // The seeds differ by far more than the bound; the pairs do not.
        let a = [1000.0, 1500.0, 700.0, 1200.0];
        let scaled = |k: f64| a.map(|x| x * k);
        assert_eq!(verdict(&rate, &a, &scaled(1.05)), Verdict::Unchanged);
        assert_eq!(verdict(&rate, &a, &scaled(0.85)), Verdict::Regressed);
        assert_eq!(verdict(&rate, &a, &scaled(1.2)), Verdict::Improved);
        let latency = spec("server_cpu_us_per_update", "us", false, 0.10);
        assert_eq!(verdict(&latency, &a, &scaled(1.2)), Verdict::Regressed);
        assert_eq!(judge(&latency, &a, &scaled(1.2)).losses, 4);
    }

    #[test]
    fn scattered_pairs_are_unresolved_unless_every_pair_agrees() {
        let latency = spec("server_cpu_us_per_update", "us", false, 0.10);
        let a = [1000.0, 1000.0, 1000.0, 1000.0, 1000.0];
        assert_eq!(
            verdict(&latency, &a, &[1300.0, 800.0, 1150.0, 950.0, 1020.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&latency, &a, &[700.0, 400.0, 650.0, 900.0, 690.0]),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&latency, &a, &[2000.0, 1200.0, 2100.0, 1500.0, 2900.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_metrics_have_bound_zero_pair_by_pair() {
        // BENCHMARK.json's bound is for runs of different seeds; paired
        // runs must agree to the bit.
        let uplinks = spec("uplinks_per_ksample", "count", false, 0.09);
        let a = [38.96, 36.73, 40.01];
        assert_eq!(verdict(&uplinks, &a, &a), Verdict::Unchanged);
        assert_eq!(
            verdict(&uplinks, &a, &[38.96, 36.74, 40.01]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&uplinks, &a, &[38.96, 36.72, 40.01]),
            Verdict::Improved
        );
    }

    #[test]
    fn differences_under_the_absolute_floor_never_regress() {
        let setup = spec("setup_s", "s", false, 0.10);
        // Scattered by 40% of 5 ms is 2 ms: still under the floor, so
        // still resolvable.
        assert_eq!(
            verdict(
                &setup,
                &[0.004, 0.005, 0.006, 0.007],
                &[0.005, 0.006, 0.004, 0.007]
            ),
            Verdict::Unchanged
        );
        // +50% of 8 ms is 4 ms: under the 20 ms floor.
        assert_eq!(
            verdict(&setup, &[0.008, 0.008], &[0.012, 0.012]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&setup, &[0.400, 0.400], &[0.600, 0.600]),
            Verdict::Regressed
        );
    }
}
