//! Turning passes into named metrics, and metrics into output.

use crate::drive::{Cut, Pass, World};
use crate::gen;
use crate::json::Json;
use crate::stats::{highest_supported_quantile, median, quantile, sorted, windowed_quantile};
use sa_sim::GroundTruth;
use std::path::Path;
use std::process::Command;

/// `BENCHMARK.json`, compiled in: the one place metric names, units,
/// directions and regression bounds are written down.
pub const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"));

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it.
    pub n: u64,
}

impl Metric {
    /// A metric over `n` samples.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n: n as u64,
        }
    }
}

/// One metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bench {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures.
    pub run_seconds: u32,
}

impl Bench {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics when the file is not the shape the contract fixes.
    pub fn load() -> Bench {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| MetricSpec {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .expect("metric name")
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .expect("metric unit")
                        .to_string(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Bench {
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("workload list")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("workload name")
                        .to_string()
                })
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds") as u32,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u32,
    /// Whether this was the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Every observed firing matched the ground truth, and nothing else
    /// fired.
    pub correct: bool,
    /// Updates attempted plus firings expected.
    pub attempted: u64,
    /// Failed updates plus missed and spurious firings.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

/// Checks the pass's firings against the ground truth; returns
/// `(expected, missed + spurious)`.
pub fn check_firings(world: &World, pass: &Pass) -> (u64, u64) {
    let expected = world.expected_firings();
    if GroundTruth::new(expected.clone())
        .verify(&pass.fired)
        .is_ok()
    {
        return (expected.len() as u64, 0);
    }
    let mut got = pass.fired.clone();
    got.sort_unstable();
    let missed = expected
        .iter()
        .filter(|e| got.binary_search(e).is_err())
        .count();
    let spurious = got
        .iter()
        .filter(|e| expected.binary_search(e).is_err())
        .count();
    (expected.len() as u64, (missed + spurious) as u64)
}

fn per(numerator: f64, denominator: u64) -> f64 {
    numerator / denominator.max(1) as f64
}

/// Segments every round of the run has.
fn segments(passes: &[Pass]) -> usize {
    passes
        .iter()
        .map(|p| p.cuts.len().saturating_sub(1))
        .min()
        .unwrap_or(0)
}

/// `cost` per unit of `work` over the whole workload, as a quiet host
/// would have run it: each segment is charged at the lowest cost per
/// unit any round paid for it, weighted by the segment's work. `cost`
/// and `work` take the cuts that close and open a segment. The rounds
/// do identical work, and a noisy neighbour only ever adds to a cost, so
/// the lowest reading is the one nearest the program's own.
pub fn quiet_cost(
    passes: &[Pass],
    cost: impl Fn(&Cut, &Cut) -> f64,
    work: impl Fn(&Cut, &Cut) -> f64,
) -> f64 {
    let (mut total_cost, mut total_work) = (0.0, 0.0);
    for k in 0..segments(passes) {
        let best = passes
            .iter()
            .map(|p| (&p.cuts[k + 1], &p.cuts[k]))
            .filter(|(a, b)| work(a, b) > 0.0)
            .map(|(a, b)| cost(a, b) / work(a, b))
            .fold(f64::INFINITY, f64::min);
        let weight = work(&passes[0].cuts[k + 1], &passes[0].cuts[k]);
        if best.is_finite() && weight > 0.0 {
            total_cost += best * weight;
            total_work += weight;
        }
    }
    if total_work == 0.0 {
        0.0
    } else {
        total_cost / total_work
    }
}

/// The `q`-quantile of a per-update timing, steadied the same way: the
/// exact quantile of each segment's samples in each round, the lowest
/// round per segment, and the median of the segments. One stall lands in
/// one segment of one round and moves neither.
pub fn quiet_quantile(passes: &[Pass], samples: impl Fn(&Pass) -> &[u64], q: f64) -> f64 {
    let per_segment: Vec<f64> = (0..segments(passes))
        .filter_map(|k| {
            passes
                .iter()
                .filter_map(|p| samples(p).get(p.cuts[k].rtt_len..p.cuts[k + 1].rtt_len))
                .filter(|s| !s.is_empty())
                .map(|s| quantile(&sorted(s), q))
                .min()
        })
        .map(|ns| ns as f64)
        .collect();
    if per_segment.is_empty() {
        0.0
    } else {
        median(&per_segment)
    }
}

fn window_ns(a: &Cut, b: &Cut) -> f64 {
    a.window_ns.saturating_sub(b.window_ns) as f64
}

fn updates(a: &Cut, b: &Cut) -> f64 {
    a.updates.saturating_sub(b.updates) as f64
}

fn server_cpu_ns(a: &Cut, b: &Cut) -> f64 {
    a.process_cpu_ns
        .saturating_sub(b.process_cpu_ns)
        .saturating_sub(a.other_cpu_ns.saturating_sub(b.other_cpu_ns)) as f64
}

fn rtt(pass: &Pass) -> &[u64] {
    &pass.rtt_ns
}

fn total(passes: &[Pass], of: impl Fn(&Pass) -> u64) -> usize {
    passes.iter().map(of).sum::<u64>() as usize
}

/// Updates absorbed per second of window, by [`quiet_cost`].
fn quiet_updates_per_s(passes: &[Pass]) -> f64 {
    let ns_per_update = quiet_cost(passes, window_ns, updates);
    if ns_per_update == 0.0 {
        0.0
    } else {
        1e9 / ns_per_update
    }
}

/// The end-to-end metrics of a run's untraced rounds.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let first = &passes[0];
    let n_updates = total(passes, |p| p.updates);
    let n_samples = total(passes, |p| p.samples);
    let samples = |a: &Cut, b: &Cut| a.samples.saturating_sub(b.samples) as f64;
    let ns_per_sample = quiet_cost(passes, window_ns, samples);
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    vec![
        // The fastest set-up: host noise only ever adds to one, and the
        // median flips between two modes 40% apart (see the README).
        Metric::new(
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
            setups.len(),
        ),
        Metric::new(
            "updates_per_s",
            quiet_updates_per_s(passes),
            "1/s",
            n_updates,
        ),
        Metric::new(
            "samples_per_s",
            if ns_per_sample == 0.0 {
                0.0
            } else {
                1e9 / ns_per_sample
            },
            "1/s",
            n_samples,
        ),
        Metric::new(
            "server_cpu_us_per_update",
            quiet_cost(passes, server_cpu_ns, updates) / 1e3,
            "us",
            n_updates,
        ),
        // The rounds do identical work: the exact ratios are any one
        // round's.
        Metric::new(
            "uplinks_per_ksample",
            per(first.updates as f64 * 1e3, first.samples),
            "count",
            first.samples as usize,
        ),
        Metric::new(
            "downlink_bytes_per_sample",
            per(first.bytes_down as f64, first.samples),
            "B",
            first.samples as usize,
        ),
        Metric::new("peak_rss_mb", gen::peak_rss_mb(), "MB", 1),
    ]
}

/// The open loop's send lag at p99, by the estimator `reactor.rtt_p50_us` uses
/// (0 on a closed loop, which has no schedule to be late for).
fn send_lag_p99_ns(passes: &[Pass]) -> f64 {
    quiet_quantile(passes, |p| &p.send_lag_ns, 0.99)
}

/// The generator's own CPU as a share of the window, all rounds.
fn gen_cpu_share(passes: &[Pass]) -> f64 {
    let window_s: f64 = passes.iter().map(|p| p.window_s).sum();
    passes.iter().map(|p| p.gen_cpu_ns).sum::<u64>() as f64 / 1e9 / window_s
}

/// Judges the generator by its own numbers: `Err` with the reason when
/// they disqualify the run — it took more than half a core, or one send
/// in a hundred left later than the median round trip it reports (RTT
/// is charged from the scheduled send, so lateness is inside every RTT)
/// — and otherwise `Ok` with the same numbers, for the record.
pub fn generator_verdict(passes: &[Pass]) -> Result<String, String> {
    let cpu_share = gen_cpu_share(passes);
    let (lag_p99, rtt_p50) = (send_lag_p99_ns(passes), quiet_quantile(passes, rtt, 0.5));
    let numbers = format!(
        "gen.cpu_share {cpu_share:.3} (limit 0.5), gen.send_lag_us_p99 {:.0} us (limit: reactor.rtt_p50_us, {:.0} us)",
        lag_p99 / 1e3,
        rtt_p50 / 1e3
    );
    if cpu_share > 0.5 || lag_p99 > rtt_p50 {
        Err(numbers)
    } else {
        Ok(numbers)
    }
}

/// The per-layer metrics of a traced round; `untraced` is the run's
/// untraced rounds (same workload and seed), for the generator's own
/// numbers and `trace.overhead_share`.
pub fn per_layer(world: &World, untraced: &[Pass], traced: &Pass) -> Vec<Metric> {
    let mut out = Vec::new();
    let updates = traced.updates;
    let polled = traced.samples;

    // gen: validity of the measurement itself.
    out.push(Metric::new("gen.harness_build_s", world.build_s, "s", 1));
    out.push(Metric::new(
        "gen.trace_s",
        traced.trace_s,
        "s",
        world.spec.total_steps() as usize,
    ));
    out.push(Metric::new(
        "gen.send_lag_us_p99",
        send_lag_p99_ns(untraced) / 1e3,
        "us",
        total(untraced, |p| p.send_lag_ns.len() as u64),
    ));
    out.push(Metric::new(
        "gen.cpu_share",
        gen_cpu_share(untraced),
        "ratio",
        untraced.len(),
    ));

    // client: the monitoring the subscribers do instead of talking.
    out.push(Metric::new(
        "client.silent_ns_per_sample",
        per(traced.poll_ns as f64, traced.silent),
        "ns",
        traced.silent as usize,
    ));
    out.push(Metric::new(
        "client.silent_share",
        per(traced.silent as f64, polled),
        "ratio",
        polled as usize,
    ));
    out.push(Metric::new(
        "client.absorb_ns_per_update",
        per(traced.absorb_ns as f64, updates),
        "ns",
        updates as usize,
    ));

    // reactor: the tail the run itself saw.
    let traced_rtt = sorted(&traced.rtt_ns);
    if traced_rtt.is_empty() {
        out.push(Metric::new("reactor.rtt_p50_us", 0.0, "us", 0));
        out.push(Metric::new("reactor.rtt_p90_us", 0.0, "us", 0));
        out.push(Metric::new("reactor.rtt_p99_us", 0.0, "us", 0));
        out.push(Metric::new("reactor.rtt_p999_us", 0.0, "us", 0));
    } else {
        let n_rtt = total(untraced, |p| p.rtt_ns.len() as u64);
        for (name, q) in [("reactor.rtt_p50_us", 0.5), ("reactor.rtt_p90_us", 0.9)] {
            let value = quiet_quantile(untraced, rtt, q) / 1e3;
            out.push(Metric::new(name, value, "us", n_rtt));
        }
        // Every round counts here, stalls included: the median round's
        // five-window p99 (the issue's `rtt_p99_us`, demoted).
        let p99s: Vec<f64> = untraced
            .iter()
            .map(|p| windowed_quantile(&p.rtt_ns, 0.99, 5) as f64)
            .collect();
        out.push(Metric::new(
            "reactor.rtt_p99_us",
            median(&p99s) / 1e3,
            "us",
            n_rtt,
        ));
        // The highest percentile with at least ten samples beyond it —
        // p99.9 at these sizes, a lower rung on a miniature run.
        let (_, value, _) = highest_supported_quantile(&traced_rtt);
        out.push(Metric::new(
            "reactor.rtt_p999_us",
            value as f64 / 1e3,
            "us",
            traced_rtt.len(),
        ));
    }

    // wire: bytes per update, both ways.
    out.push(Metric::new(
        "wire.up_bytes_per_update",
        per(traced.bytes_up as f64, updates),
        "B",
        updates as usize,
    ));
    out.push(Metric::new(
        "wire.down_bytes_per_update",
        per(traced.bytes_down as f64, updates),
        "B",
        updates as usize,
    ));

    out.extend(traced.probed.iter().cloned());

    // trace: what recording cost.
    out.push(Metric::new(
        "trace.overhead_share",
        1.0 - quiet_updates_per_s(std::slice::from_ref(traced)) / quiet_updates_per_s(untraced),
        "ratio",
        1,
    ));
    out.push(Metric::new(
        "trace.spans",
        traced.spans.spans().len() as f64,
        "count",
        1,
    ));
    out
}

/// Prints `workload metric value unit n=<samples>` per metric.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
}

/// Prints the span log's per-layer table: total and self time per span
/// name, self time as a share of all self time.
pub fn print_layer_table(workload: &str, pass: &Pass) {
    let rows = pass.spans.summary();
    let all_self: u64 = rows
        .iter()
        .filter(|r| r.name != "gen.step")
        .map(|r| r.self_ns)
        .sum();
    println!("{workload} layer table (self = span minus its children)");
    println!(
        "  {:<24} {:>9} {:>10} {:>12} {:>12} {:>7}",
        "span", "spans", "items", "total_ms", "self_ms", "share"
    );
    for r in &rows {
        println!(
            "  {:<24} {:>9} {:>10} {:>12.3} {:>12.3} {:>6.1}%",
            r.name,
            r.spans,
            r.items,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / all_self.max(1) as f64,
        );
    }
}

impl RunResult {
    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_line(&self) -> String {
        Json::Obj(self.verdict_and_metrics(false)).to_line()
    }

    /// The run as a result file records it: the result line's fields
    /// plus what was run and each metric's sample count.
    fn to_json(&self) -> Json {
        let mut pairs = Json::obj(vec![
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(f64::from(self.seconds))),
            ("traced", Json::Bool(self.traced)),
        ]);
        if let Json::Obj(pairs) = &mut pairs {
            pairs.extend(self.verdict_and_metrics(true));
        }
        pairs
    }

    fn verdict_and_metrics(&self, with_counts: bool) -> Vec<(String, Json)> {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut value = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ];
                if with_counts {
                    value.push(("n", Json::Num(m.n as f64)));
                }
                (m.name.clone(), Json::obj(value))
            })
            .collect();
        vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]
    }
}

/// Appends `result` to `dir/<workload>.json` (creating it with the
/// host's description on first use): a directory written to by several
/// runs is one *set* of runs, which is what `compare` takes two of.
///
/// # Errors
///
/// Propagates file-system errors; a file that no longer parses is
/// reported, not overwritten.
pub fn append_result(dir: &Path, result: &RunResult) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.json", result.workload));
    let mut runs = match std::fs::read_to_string(&path) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    runs.push(result.to_json());
    let (nproc, cpu) = gen::host();
    // The checkout the acceptance driver runs in is not a repository.
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |hash| hash.trim().to_string());
    let doc = Json::obj(vec![
        ("workload", Json::Str(result.workload.clone())),
        (
            "host",
            Json::obj(vec![
                ("nproc", Json::Num(nproc as f64)),
                ("cpu", Json::Str(cpu)),
                ("commit", Json::Str(commit)),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
