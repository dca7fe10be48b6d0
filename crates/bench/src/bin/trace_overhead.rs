//! Prices the tracing instrumentation: the same smoke-test replay is
//! driven through the in-process live server with spans off, sampled
//! (1-in-16 traces) and fully on, and `BENCH_trace_overhead.json`
//! reports the wall times and relative overheads. The run **fails
//! (exit 1)** when full tracing costs more than the budgeted fraction of
//! the untraced run, so a regression that puts allocation or locking on
//! the update hot path under `TraceMode::Full` turns CI red.
//!
//! The verdict is a median, not a best case. A round replays the three
//! modes in turn, one replay each per pass (the order rotating pass by
//! pass), until every mode has run for [`MIN_ROUND_MS`]; a drift or a
//! slow spell of the box lands on all three alike. Each of `--rounds`
//! rounds yields one overhead ratio (full over off, on the round's
//! totals), and the gate judges their median, which one noisy round
//! cannot move.
//!
//! Every replay still cross-checks the fired-alarm sequence against the
//! simulator's ground truth: an instrumentation mode must never change
//! what fires.
//!
//! Usage: `trace_overhead [--steps N] [--rounds N] [--budget-pct P]
//!   [--out PATH]`

use sa_server::wire::StrategySpec;
use sa_server::TraceMode;
use sa_sim::{SimulationConfig, SimulationHarness};
use sa_verify::{replay_in_proc, ReplayConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// How long each mode runs in one round: long enough that a timer tick
/// or a context switch is a small part of it.
const MIN_ROUND_MS: u64 = 100;

struct Opts {
    steps: u32,
    rounds: u32,
    budget_pct: f64,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        steps: 300,
        rounds: 11,
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

/// Wall seconds of one replay in `mode`, checked against the ground
/// truth.
fn wall_seconds(harness: &SimulationHarness, steps: u32, mode: TraceMode) -> f64 {
    let started = Instant::now();
    let outcome =
        replay_in_proc(harness, &cfg_for(steps, mode)).expect("in-proc transport must hold");
    let wall = started.elapsed().as_secs_f64();
    outcome.assert_accurate();
    wall
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn main() {
    let opts = parse_args();
    let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
    // One unmeasured replay pays page-in.
    wall_seconds(&harness, opts.steps, TraceMode::Off);

    let modes = [TraceMode::Off, TraceMode::Sampled(16), TraceMode::Full];
    let min_round_s = MIN_ROUND_MS as f64 / 1e3;
    let mut rounds: Vec<[f64; 3]> = Vec::new();
    let mut replays = 0u32;
    for _ in 0..opts.rounds {
        let mut totals = [0.0f64; 3];
        while totals.iter().any(|&t| t < min_round_s) {
            for k in 0..modes.len() {
                let m = (replays as usize + k) % modes.len();
                totals[m] += wall_seconds(&harness, opts.steps, modes[m]);
            }
            replays += 1;
        }
        rounds.push(totals);
    }
    let overhead_pct =
        |m: usize| median(rounds.iter().map(|t| (t[m] - t[0]) / t[0].max(1e-9) * 100.0).collect());
    let (overhead_pct, sampled_overhead_pct) = (overhead_pct(2), overhead_pct(1));
    let per_replay = |m: usize| rounds.iter().map(|t| t[m]).sum::<f64>() / f64::from(replays);
    let (off, sampled, full) = (per_replay(0), per_replay(1), per_replay(2));
    let within_budget = overhead_pct <= opts.budget_pct;

    // Hand-rolled JSON: the vendored serde stub has no serializer.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"steps\": {},", opts.steps);
    let _ = writeln!(json, "  \"rounds\": {},", opts.rounds);
    let _ = writeln!(json, "  \"min_round_ms\": {MIN_ROUND_MS},");
    let _ = writeln!(json, "  \"replays_per_mode\": {replays},");
    let _ = writeln!(json, "  \"off_replay_seconds\": {off:.6},");
    let _ = writeln!(json, "  \"sampled_16_replay_seconds\": {sampled:.6},");
    let _ = writeln!(json, "  \"full_replay_seconds\": {full:.6},");
    let _ = writeln!(json, "  \"sampled_16_overhead_pct\": {sampled_overhead_pct:.3},");
    let _ = writeln!(json, "  \"overhead_pct\": {overhead_pct:.3},");
    let _ = writeln!(json, "  \"budget_pct\": {:.3},", opts.budget_pct);
    let _ = writeln!(json, "  \"within_budget\": {within_budget}");
    json.push_str("}\n");
    std::fs::write(&opts.out, &json).expect("writing the benchmark report");

    println!(
        "trace_overhead: replay off {:.2}ms, sampled/16 {:.2}ms, full {:.2}ms → \
         {overhead_pct:+.2}% (budget {:.1}%), median of {} rounds of ≥ {} ms per mode \
         ({replays} replays each) → {}",
        off * 1e3,
        sampled * 1e3,
        full * 1e3,
        opts.budget_pct,
        opts.rounds,
        MIN_ROUND_MS,
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
