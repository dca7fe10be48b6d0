//! Prices the tracing instrumentation: the same smoke-test replay is
//! driven through the in-process live server with spans off, sampled
//! (1-in-16 traces) and fully on, and `BENCH_trace_overhead.json`
//! reports the wall times and relative overheads. The run **fails
//! (exit 1)** when full
//! tracing costs more than the budgeted fraction of the untraced run,
//! so a regression that puts allocation or locking on the update hot
//! path under `TraceMode::Full` turns CI red.
//!
//! Both runs still cross-check the fired-alarm sequence against the
//! simulator's ground truth: an instrumentation mode must never change
//! what fires.
//!
//! Usage: `trace_overhead [--steps N] [--rounds N] [--budget-pct P]
//!   [--out PATH]`

use sa_server::wire::StrategySpec;
use sa_server::{replay_in_proc, ReplayConfig, TraceMode};
use sa_sim::{SimulationConfig, SimulationHarness};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Opts {
    steps: u32,
    rounds: u32,
    budget_pct: f64,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        steps: 300,
        rounds: 3,
        budget_pct: 10.0,
        out: PathBuf::from("BENCH_trace_overhead.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--steps" => opts.steps = value().parse().expect("--steps expects an integer"),
            "--rounds" => opts.rounds = value().parse().expect("--rounds expects an integer"),
            "--budget-pct" => {
                opts.budget_pct = value().parse().expect("--budget-pct expects a percentage")
            }
            "--out" => opts.out = PathBuf::from(value()),
            "--help" | "-h" => {
                eprintln!(
                    "usage: trace_overhead [--steps N] [--rounds N] [--budget-pct P] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(opts.steps > 0, "--steps must be positive");
    assert!(opts.rounds > 0, "--rounds must be positive");
    opts
}

fn cfg_for(steps: u32, mode: TraceMode) -> ReplayConfig {
    ReplayConfig {
        steps: Some(steps),
        trace_mode: mode,
        strategies: vec![
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: 5 },
            StrategySpec::Opt,
            StrategySpec::SafePeriod,
        ],
    }
}

/// Best-of-`rounds` wall time for one mode. Minimum, not mean: the
/// floor is the instrumentation cost, everything above it is scheduler
/// noise — and noise inflates Off and Full alike.
fn best_wall_seconds(harness: &SimulationHarness, steps: u32, rounds: u32, mode: TraceMode) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let cfg = cfg_for(steps, mode);
        let started = Instant::now();
        let outcome = replay_in_proc(harness, &cfg).expect("in-proc transport must hold");
        let wall = started.elapsed().as_secs_f64();
        outcome.assert_accurate();
        best = best.min(wall);
    }
    best
}

fn main() {
    let opts = parse_args();
    let harness = SimulationHarness::build(&SimulationConfig::smoke_test());

    // Interleave-free ordering is fine here: best-of-N per mode already
    // absorbs warm-up asymmetry (the first Off round pays page-in).
    let off = best_wall_seconds(&harness, opts.steps, opts.rounds, TraceMode::Off);
    let sampled = best_wall_seconds(&harness, opts.steps, opts.rounds, TraceMode::Sampled(16));
    let full = best_wall_seconds(&harness, opts.steps, opts.rounds, TraceMode::Full);
    let overhead_pct = (full - off) / off.max(1e-9) * 100.0;
    let sampled_overhead_pct = (sampled - off) / off.max(1e-9) * 100.0;
    let within_budget = overhead_pct <= opts.budget_pct;

    // Hand-rolled JSON: the vendored serde stub has no serializer.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"steps\": {},", opts.steps);
    let _ = writeln!(json, "  \"rounds\": {},", opts.rounds);
    let _ = writeln!(json, "  \"off_wall_seconds\": {off:.6},");
    let _ = writeln!(json, "  \"sampled_16_wall_seconds\": {sampled:.6},");
    let _ = writeln!(json, "  \"full_wall_seconds\": {full:.6},");
    let _ = writeln!(json, "  \"sampled_16_overhead_pct\": {sampled_overhead_pct:.3},");
    let _ = writeln!(json, "  \"overhead_pct\": {overhead_pct:.3},");
    let _ = writeln!(json, "  \"budget_pct\": {:.3},", opts.budget_pct);
    let _ = writeln!(json, "  \"within_budget\": {within_budget}");
    json.push_str("}\n");
    std::fs::write(&opts.out, &json).expect("writing the benchmark report");

    println!(
        "trace_overhead: off {off:.3}s, sampled/16 {sampled:.3}s, full {full:.3}s → \
         {overhead_pct:+.2}% (budget {:.1}%) over {} steps × best-of-{} → {}",
        opts.budget_pct,
        opts.steps,
        opts.rounds,
        opts.out.display()
    );
    if !within_budget {
        eprintln!(
            "full tracing exceeds its overhead budget: {overhead_pct:.2}% > {:.2}%",
            opts.budget_pct
        );
        std::process::exit(1);
    }
}
