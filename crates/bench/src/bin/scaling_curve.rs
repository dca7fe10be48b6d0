//! The scaling-exponent bench: sweeps the batched replay across scale
//! points and worker counts, fits per-core throughput to a power law,
//! and writes `BENCH_scaling_curve.json` — plus a Prometheus text dump
//! of per-scale RTT histograms (`BENCH_scaling_curve.prom`).
//!
//! The question this answers is not "how fast is the server" (that is
//! `scale_replay`'s constant) but "how fast does it *get slower*": for
//! each worker count, `updates_per_sec / workers` is fitted against the
//! workload scale on log-log axes (see [`sa_bench::fit_power_law`]),
//! and the *worst* fitted exponent across worker counts is the number
//! CI gates on. An exponent of 0 is perfect scaling of per-core
//! throughput; the gate fails when the exponent regresses below
//! `--min-exponent`, independently of the constant, so a change that
//! keeps small-scale numbers flat while degrading the growth law still
//! fails the build.
//!
//! Scale points use [`SimulationConfig::paper_fraction`], so values
//! above `1.0` grow past the paper's §5.1 setup (10.0 = the
//! 100k-subscriber sweep, 100.0 = 1M) with the universe held fixed —
//! rising density, the regime the exponent probes.
//!
//! The report also carries a word-parallel vs bit-at-a-time
//! `BitVec::intersection_ones` micro-benchmark, pinning the measured
//! speedup of the u64-block hot path the region pipeline runs on.
//!
//! Sweep usage:
//! `scaling_curve [--scales F,F,..] [--workers N,N,..] [--steps N]
//!                [--out PATH] [--prom PATH]`
//!
//! Gate usage (reads a previously written report, exits non-zero on
//! regression):
//! `scaling_curve --check PATH --min-exponent F`

use sa_bench::{fit_power_law, render_table, PowerLawFit};
use sa_core::BitVec;
use sa_obs::{render_snapshot, Registry};
use sa_server::wire::StrategySpec;
use sa_server::TraceMode;
use sa_sim::{SimulationConfig, SimulationHarness};
use sa_verify::{replay_batched_in_proc, ReplayConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Opts {
    scales: Vec<f64>,
    workers: Vec<usize>,
    steps: u32,
    out: PathBuf,
    prom: PathBuf,
    check: Option<PathBuf>,
    min_exponent: f64,
}

fn parse_list<T: std::str::FromStr>(raw: &str, flag: &str) -> Vec<T> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad value {s:?} in {flag}")))
        .collect()
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        scales: vec![0.05, 0.1, 0.2, 0.4],
        workers: vec![1, 2, 4],
        steps: 60,
        out: PathBuf::from("BENCH_scaling_curve.json"),
        prom: PathBuf::from("BENCH_scaling_curve.prom"),
        check: None,
        min_exponent: f64::NEG_INFINITY,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--scales" => opts.scales = parse_list(&value(), "--scales"),
            "--workers" => opts.workers = parse_list(&value(), "--workers"),
            "--steps" => opts.steps = value().parse().expect("--steps expects an integer"),
            "--out" => opts.out = PathBuf::from(value()),
            "--prom" => opts.prom = PathBuf::from(value()),
            "--check" => opts.check = Some(PathBuf::from(value())),
            "--min-exponent" => {
                opts.min_exponent = value().parse().expect("--min-exponent expects a float");
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: scaling_curve [--scales F,F,..] [--workers N,N,..] [--steps N] \
                     [--out PATH] [--prom PATH] | --check PATH --min-exponent F"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    if opts.check.is_none() {
        assert!(
            opts.scales.len() >= 2,
            "need at least two scale points to fit an exponent"
        );
        assert!(
            opts.scales.iter().all(|s| s.is_finite() && *s > 0.0),
            "--scales must be positive and finite"
        );
        assert!(
            !opts.workers.is_empty() && opts.workers.iter().all(|w| *w > 0),
            "--workers must be positive"
        );
        assert!(opts.steps > 0, "--steps must be positive");
    }
    opts
}

/// One measured sweep point.
struct CurvePoint {
    scale: f64,
    workers: usize,
    vehicles: usize,
    alarms: usize,
    wall_seconds: f64,
    updates: u64,
    updates_per_sec: f64,
    rtt_p50: u64,
    rtt_p99: u64,
}

impl CurvePoint {
    fn per_core(&self) -> f64 {
        self.updates_per_sec / self.workers as f64
    }
}

/// Word-parallel vs bit-at-a-time `intersection_ones` over the same
/// pseudo-random pair, best-of-3 timing each way.
fn bitvec_microbench() -> (usize, u32, f64, f64) {
    const BITS: usize = 100_000;
    const REPS: u32 = 200;
    let mut seed = 0x5CA1_AB1E_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut a = BitVec::with_capacity(BITS);
    let mut b = BitVec::with_capacity(BITS);
    for _ in 0..BITS {
        a.push(next() % 3 == 0);
        b.push(next() % 2 == 0);
    }
    let time_best_of_3 = |f: &dyn Fn() -> usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let started = Instant::now();
            let mut checksum = 0usize;
            for _ in 0..REPS {
                checksum = checksum.wrapping_add(f());
            }
            let ns = started.elapsed().as_nanos() as f64 / f64::from(REPS);
            assert!(checksum > 0, "the benched intersection must be non-empty");
            best = best.min(ns);
        }
        best
    };
    let word_parallel_ns = time_best_of_3(&|| a.intersection_ones(&b));
    let scalar_ns = time_best_of_3(&|| {
        (0..BITS)
            .filter(|&i| a.get(i).unwrap_or(false) && b.get(i).unwrap_or(false))
            .count()
    });
    (BITS, REPS, word_parallel_ns, scalar_ns)
}

/// Pulls `"worst_exponent": <float>` out of a report this binary wrote.
fn read_worst_exponent(report: &str) -> Option<f64> {
    let tail = report.split("\"worst_exponent\":").nth(1)?;
    let raw: String = tail
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .collect();
    raw.parse().ok()
}

/// Gate mode: compare the stored worst exponent against the floor.
fn run_check(path: &PathBuf, min_exponent: f64) -> ! {
    assert!(
        min_exponent.is_finite(),
        "--check requires --min-exponent (the exponent floor to enforce)"
    );
    let report = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let worst = read_worst_exponent(&report)
        .unwrap_or_else(|| panic!("{} has no \"worst_exponent\" field", path.display()));
    if worst < min_exponent {
        eprintln!(
            "SCALING REGRESSION: fitted per-core throughput exponent {worst:.4} fell below \
             the floor {min_exponent:.4} (0 = perfect scaling; more negative = per-core \
             throughput decays faster with workload scale).\n\
             Inspect the \"points\" and \"fits\" sections of {} to see which worker count \
             and scale range degraded.",
            path.display()
        );
        std::process::exit(1);
    }
    println!(
        "scaling exponent ok: worst fitted exponent {worst:.4} >= floor {min_exponent:.4}"
    );
    std::process::exit(0);
}

fn main() {
    let opts = parse_args();
    if let Some(path) = &opts.check {
        run_check(path, opts.min_exponent);
    }

    let mut scales = opts.scales.clone();
    scales.sort_by(|a, b| a.partial_cmp(b).expect("scales are finite"));
    let registry = Registry::new();
    let mut points: Vec<CurvePoint> = Vec::new();

    for &scale in &scales {
        let sim = SimulationConfig::paper_fraction(scale);
        eprintln!(
            "scale {scale}: building harness ({} vehicles × {} alarms, {} steps)",
            sim.fleet.vehicles,
            sim.workload.alarms,
            opts.steps
        );
        let harness = SimulationHarness::build(&sim);
        for &workers in &opts.workers {
            let cfg = ReplayConfig {
                steps: Some(opts.steps),
                trace_mode: TraceMode::Off,
                strategies: vec![
                    StrategySpec::Mwpsr,
                    StrategySpec::Pbsr { height: 5 },
                    StrategySpec::Opt,
                    StrategySpec::SafePeriod,
                ],
            };
            let started = Instant::now();
            let outcome = replay_batched_in_proc(&harness, &cfg, workers)
                .expect("in-proc transport must hold");
            let wall = started.elapsed().as_secs_f64();
            outcome.assert_accurate();
            let rtt = outcome
                .metrics
                .histogram("sa_update_rtt_ns", &[])
                .expect("the replay must have recorded round-trip latencies");
            // Per-scale histogram roll-up: fold this run's RTT snapshot,
            // bucket-exactly, into a labeled histogram in the bench's
            // own registry (rendered to the .prom sidecar below).
            registry
                .histogram_with(
                    "sa_update_rtt_ns",
                    &[("scale", &format!("{scale}")), ("workers", &format!("{workers}"))],
                )
                .absorb(&rtt);
            let updates_per_sec = outcome.location_updates() as f64 / wall.max(1e-9);
            eprintln!(
                "  workers {workers}: {:.0} updates/s ({:.0}/core) in {wall:.2}s",
                updates_per_sec,
                updates_per_sec / workers as f64
            );
            points.push(CurvePoint {
                scale,
                workers,
                vehicles: outcome.clients.len(),
                alarms: sim.workload.alarms,
                wall_seconds: wall,
                updates: outcome.location_updates(),
                updates_per_sec,
                rtt_p50: rtt.p50,
                rtt_p99: rtt.p99,
            });
        }
    }

    // One fit per worker count: per-core throughput vs scale.
    let fits: Vec<(usize, PowerLawFit)> = opts
        .workers
        .iter()
        .filter_map(|&w| {
            let series: Vec<(f64, f64)> = points
                .iter()
                .filter(|p| p.workers == w)
                .map(|p| (p.scale, p.per_core()))
                .collect();
            fit_power_law(&series).map(|fit| (w, fit))
        })
        .collect();
    assert!(!fits.is_empty(), "no worker series produced a fittable curve");
    let worst = fits
        .iter()
        .map(|(_, f)| f.exponent)
        .fold(f64::INFINITY, f64::min);

    let (bits, reps, word_parallel_ns, scalar_ns) = bitvec_microbench();
    let bitvec_speedup = scalar_ns / word_parallel_ns.max(1e-9);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"steps\": {},", opts.steps);
    let _ = writeln!(
        json,
        "  \"scales\": [{}],",
        scales.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(
        json,
        "  \"workers\": [{}],",
        opts.workers.iter().map(|w| w.to_string()).collect::<Vec<_>>().join(", ")
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"scale\": {}, \"workers\": {}, \"vehicles\": {}, \"alarms\": {}, \
             \"wall_seconds\": {:.6}, \"location_updates\": {}, \"updates_per_sec\": {:.3}, \
             \"per_core_updates_per_sec\": {:.3}, \"rtt_p50_ns\": {}, \"rtt_p99_ns\": {}}}{comma}",
            p.scale,
            p.workers,
            p.vehicles,
            p.alarms,
            p.wall_seconds,
            p.updates,
            p.updates_per_sec,
            p.per_core(),
            p.rtt_p50,
            p.rtt_p99,
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"fits\": [\n");
    for (i, (w, fit)) in fits.iter().enumerate() {
        let comma = if i + 1 < fits.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workers\": {w}, \"exponent\": {:.6}, \"coefficient\": {:.3}, \
             \"r_squared\": {:.6}}}{comma}",
            fit.exponent, fit.coefficient, fit.r_squared
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"worst_exponent\": {worst:.6},");
    let _ = writeln!(json, "  \"bitvec_intersection\": {{");
    let _ = writeln!(json, "    \"bits\": {bits},");
    let _ = writeln!(json, "    \"reps\": {reps},");
    let _ = writeln!(json, "    \"word_parallel_ns\": {word_parallel_ns:.1},");
    let _ = writeln!(json, "    \"scalar_ns\": {scalar_ns:.1},");
    let _ = writeln!(json, "    \"speedup\": {bitvec_speedup:.2}");
    json.push_str("  }\n}\n");
    std::fs::write(&opts.out, &json).expect("writing the scaling report");
    std::fs::write(&opts.prom, render_snapshot(&registry.snapshot()))
        .expect("writing the per-scale histogram dump");

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.scale),
                format!("{}", p.workers),
                format!("{}", p.vehicles),
                format!("{:.0}", p.updates_per_sec),
                format!("{:.0}", p.per_core()),
                format!("{}", p.rtt_p99),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "scaling curve",
            &["scale", "workers", "vehicles", "upd/s", "upd/s/core", "rtt p99 ns"],
            &rows,
        )
    );
    for (w, fit) in &fits {
        println!(
            "fit workers={w}: per-core upd/s ≈ {:.0} · scale^{:.3} (r²={:.3})",
            fit.coefficient, fit.exponent, fit.r_squared
        );
    }
    println!(
        "worst exponent {worst:.4}; bitvec intersection word-parallel {word_parallel_ns:.0}ns \
         vs scalar {scalar_ns:.0}ns ({bitvec_speedup:.1}× speedup) → {}",
        opts.out.display()
    );
}
