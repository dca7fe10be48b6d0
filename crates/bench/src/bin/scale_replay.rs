//! Paper-scale replay through the live server's batched update path,
//! writing `BENCH_scale_replay.json`.
//!
//! This binary answers "can the runtime carry the paper's §5.1
//! workload?": a proportional fraction of the full hour (10,000 vehicles
//! × 10,000 alarms at `--scale 1.0`, the CI default `--scale 0.1` being
//! 1,000 × 1,000) driven through [`sa_server::replay_batched_in_proc`]
//! by N parallel workers, one `Request::Batch` frame per worker per
//! step. Every firing is still cross-checked against the simulator's
//! ground truth before anything is reported.
//!
//! To keep the batching honest, the same config is also replayed over a
//! truncated step prefix (`--baseline-steps`, default 300) through the
//! per-request driver, and the report carries the updates/sec ratio.
//! The baseline is truncated because at paper scale the per-request
//! path is exactly what this binary exists to prove too slow to gate on.
//!
//! The report also carries the driver-side `us_per_update` (the median
//! step's) of the first and of the last quarter of the steps and their
//! ratio. The traffic is statistically the same all hour while the
//! server's per-subscriber state (fired alarms above all) only grows,
//! so a ratio well above 1 means an update got dearer with elapsed
//! firings — `--max-late-early-ratio` turns that into a CI failure.
//!
//! Usage: `scale_replay [--scale F] [--steps N] [--workers N]
//!                      [--baseline-steps N] [--max-late-early-ratio F]
//!                      [--out PATH]`

use sa_server::wire::StrategySpec;
use sa_server::{
    quarter_us_per_update, replay_batched_in_proc, replay_in_proc, ReplayConfig, TraceMode,
};
use sa_sim::{SimulationConfig, SimulationHarness};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Opts {
    scale: f64,
    steps: Option<u32>,
    workers: usize,
    baseline_steps: u32,
    max_late_early_ratio: Option<f64>,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let default_workers =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut opts = Opts {
        scale: 0.1,
        steps: None,
        workers: default_workers,
        baseline_steps: 300,
        max_late_early_ratio: None,
        out: PathBuf::from("BENCH_scale_replay.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--scale" => opts.scale = value().parse().expect("--scale expects a float"),
            "--steps" => {
                opts.steps = Some(value().parse().expect("--steps expects an integer"));
            }
            "--workers" => {
                opts.workers = value().parse().expect("--workers expects an integer");
            }
            "--baseline-steps" => {
                opts.baseline_steps =
                    value().parse().expect("--baseline-steps expects an integer");
            }
            "--max-late-early-ratio" => {
                opts.max_late_early_ratio =
                    Some(value().parse().expect("--max-late-early-ratio expects a float"));
            }
            "--out" => opts.out = PathBuf::from(value()),
            "--help" | "-h" => {
                eprintln!(
                    "usage: scale_replay [--scale F] [--steps N] [--workers N] \
                     [--baseline-steps N] [--max-late-early-ratio F] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(
        opts.scale.is_finite() && opts.scale > 0.0,
        "--scale must be positive and finite (values above 1 grow past paper scale)"
    );
    assert!(opts.workers > 0, "--workers must be positive");
    opts
}

fn hit_ratio(hits: u64, misses: u64) -> f64 {
    let lookups = hits + misses;
    if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 }
}

fn main() {
    let opts = parse_args();
    let sim = SimulationConfig::paper_fraction(opts.scale);
    eprintln!(
        "building harness: {} vehicles × {} alarms, {} steps at scale {}",
        sim.fleet.vehicles,
        sim.workload.alarms,
        sim.steps(),
        opts.scale
    );
    let harness = SimulationHarness::build(&sim);
    let cfg = ReplayConfig {
        steps: opts.steps,
        trace_mode: TraceMode::Full,
        strategies: vec![
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: 5 },
            StrategySpec::Opt,
            StrategySpec::SafePeriod,
        ],
    };

    let started = Instant::now();
    let outcome = replay_batched_in_proc(&harness, &cfg, opts.workers)
        .expect("in-proc transport must hold");
    let wall_seconds = started.elapsed().as_secs_f64();
    outcome.assert_accurate();

    let rtt = outcome
        .metrics
        .histogram("sa_update_rtt_ns", &[])
        .expect("the replay must have recorded round-trip latencies");
    let steps_per_sec = outcome.steps as f64 / wall_seconds.max(1e-9);
    let updates_per_sec = outcome.location_updates() as f64 / wall_seconds.max(1e-9);
    let cache_ratio = hit_ratio(outcome.cache.hits, outcome.cache.misses);
    let [early_us, _, _, late_us] = quarter_us_per_update(&outcome.step_costs, outcome.steps);
    let late_early_ratio = if early_us > 0.0 { late_us / early_us } else { 0.0 };

    // Per-request baseline over a truncated prefix of the same trace.
    let (baseline_steps, baseline_updates_per_sec) = if opts.baseline_steps == 0 {
        (0, 0.0)
    } else {
        let base_cfg = ReplayConfig {
            steps: Some(opts.baseline_steps.min(outcome.steps)),
            ..cfg.clone()
        };
        let base_started = Instant::now();
        let base =
            replay_in_proc(&harness, &base_cfg).expect("in-proc transport must hold");
        let base_wall = base_started.elapsed().as_secs_f64();
        base.assert_accurate();
        (base.steps, base.location_updates() as f64 / base_wall.max(1e-9))
    };
    let speedup = if baseline_updates_per_sec > 0.0 {
        updates_per_sec / baseline_updates_per_sec
    } else {
        0.0
    };

    // Hand-rolled JSON: the vendored serde stub has no serializer, and
    // the shape here is flat enough not to need one.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": {},", opts.scale);
    let _ = writeln!(json, "  \"vehicles\": {},", outcome.clients.len());
    let _ = writeln!(json, "  \"alarms\": {},", sim.workload.alarms);
    let _ = writeln!(json, "  \"workers\": {},", opts.workers);
    let _ = writeln!(json, "  \"steps\": {},", outcome.steps);
    let _ = writeln!(json, "  \"wall_seconds\": {wall_seconds:.6},");
    let _ = writeln!(json, "  \"steps_per_sec\": {steps_per_sec:.3},");
    let _ = writeln!(json, "  \"location_updates\": {},", outcome.location_updates());
    let _ = writeln!(json, "  \"updates_per_sec\": {updates_per_sec:.3},");
    let triggers = outcome.metrics.counter("sa_server_triggers_total", &[]).unwrap_or(0);
    let _ = writeln!(json, "  \"triggers\": {triggers},");
    let _ = writeln!(json, "  \"us_per_update_first_quarter\": {early_us:.3},");
    let _ = writeln!(json, "  \"us_per_update_last_quarter\": {late_us:.3},");
    let _ = writeln!(json, "  \"late_early_ratio\": {late_early_ratio:.3},");
    let _ = writeln!(json, "  \"update_rtt_ns\": {{");
    let _ = writeln!(json, "    \"p50\": {},", rtt.p50);
    let _ = writeln!(json, "    \"p90\": {},", rtt.p90);
    let _ = writeln!(json, "    \"p99\": {},", rtt.p99);
    let _ = writeln!(json, "    \"max\": {},", rtt.max);
    let _ = writeln!(json, "    \"count\": {}", rtt.count);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cache_hit_ratio\": {cache_ratio:.6},");
    let _ = writeln!(json, "  \"cache_hits\": {},", outcome.cache.hits);
    let _ = writeln!(json, "  \"cache_misses\": {},", outcome.cache.misses);
    let _ = writeln!(json, "  \"baseline_steps\": {baseline_steps},");
    let _ = writeln!(
        json,
        "  \"baseline_updates_per_sec\": {baseline_updates_per_sec:.3},"
    );
    let _ = writeln!(json, "  \"batched_vs_per_request_speedup\": {speedup:.3}");
    json.push_str("}\n");

    std::fs::write(&opts.out, &json).expect("writing the benchmark report");
    println!(
        "batched replay: {} steps × {} vehicles in {:.2}s ({:.1} steps/s, \
         {:.0} updates/s, rtt p99={}ns, cache hit ratio {:.1}%, \
         {early_us:.1} → {late_us:.1} µs/update first → last quarter = {late_early_ratio:.2}×); \
         per-request baseline {:.0} updates/s over {} steps → {:.1}× speedup → {}",
        outcome.steps,
        outcome.clients.len(),
        wall_seconds,
        steps_per_sec,
        updates_per_sec,
        rtt.p99,
        100.0 * cache_ratio,
        baseline_updates_per_sec,
        baseline_steps,
        speedup,
        opts.out.display()
    );
    if let Some(max) = opts.max_late_early_ratio {
        if late_early_ratio > max {
            eprintln!(
                "FAIL: an update cost {late_early_ratio:.2}× as much in the last quarter of the \
                 replay as in the first (limit {max}) — per-update cost is growing with elapsed \
                 firings again"
            );
            std::process::exit(1);
        }
    }
}
