//! The socket tier's CI gate (`BENCH_live_tcp.json`): one round of
//! `sa-benchmark`'s open-loop `tcp_fleet` generator, re-sized from the
//! command line, with a ground-truth and tail-latency verdict.
//!
//! The generator is `sa_benchmark::drive` — the one open-loop load
//! generator in the workspace (PERFORMANCE.md §5): a seeded Poisson
//! schedule over one loopback socket per vehicle, every sample sent at
//! its scheduled instant whether or not earlier responses have arrived,
//! RTT charged from the *scheduled* instant, against the server as
//! shipped. This binary adds only the sizing flags and the gate; unlike
//! `sa-benchmark run` it does not reject a run whose generator fell
//! behind (hosted runners refuse `chrt --fifo`), it reports
//! `send_lag_ns` and leaves that judgement to the reader.
//!
//! Every trace sample is sent, every trigger delivery is recorded, and
//! the observed firings must match `sa_sim::GroundTruth` exactly — load
//! testing never excuses a wrong answer.

use sa_benchmark::drive::{run_pass, World};
use sa_benchmark::gen::poisson_schedule;
use sa_benchmark::spec::{Drive, Spec};
use sa_benchmark::stats::{quantile, sorted};
use sa_sim::{GroundTruth, SimulationConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

const USAGE: &str = "usage: live_tcp [--scale F] [--steps N] [--rate R] [--seed S] [--out PATH] \
                     [--check] [--max-p99-ms MS]";

fn main() {
    let (mut scale, mut steps, mut rate, mut seed) = (0.02, 20u32, 4_000.0, 0x011F_E7C9u64);
    let mut out = PathBuf::from("BENCH_live_tcp.json");
    let (mut check, mut max_p99_ms) = (false, 250.0);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--scale" => scale = value().parse().expect("--scale expects a float"),
            "--steps" => steps = value().parse().expect("--steps expects an integer"),
            "--rate" => rate = value().parse().expect("--rate expects a float"),
            "--seed" => seed = value().parse().expect("--seed expects an integer"),
            "--out" => out = PathBuf::from(value()),
            "--check" => check = true,
            "--max-p99-ms" => max_p99_ms = value().parse().expect("--max-p99-ms expects a float"),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => panic!("unknown flag {other}\n{USAGE}"),
        }
    }
    assert!(steps > 0, "--steps must be positive");
    assert!(rate > 0.0, "--rate must be positive");

    // `tcp_fleet` re-sized: the paper's world at `--scale`, the trips
    // drawn from the seed the way the benchmark draws them, and no
    // warm-up — the gate is over every sample sent, the first included.
    let mut spec = Spec::nominal("tcp_fleet", seed).expect("tcp_fleet is a workload");
    let fleet_seed = spec.config.fleet.seed;
    spec.config = SimulationConfig::scaled(scale);
    spec.config.fleet.seed = fleet_seed;
    spec.config.duration_s = f64::from(steps) * spec.config.sample_period_s;
    spec.steps = steps;
    spec.drive = Drive::OpenLoopTcp { rate_per_s: rate, warmup_steps: 0 };
    let vehicles = spec.vehicles();
    let offered_duration_s = poisson_schedule(seed, vehicles, steps, rate)
        .last()
        .map_or(0.0, |last| last.at_ns as f64 / 1e9);

    let world = World::build(spec);
    let pass = run_pass(&world, false);

    let expected = world.expected_firings();
    let verification = GroundTruth::new(expected.clone()).verify(&pass.fired);
    let protocol_errors = pass.failures.errors + pass.failures.transport;
    let (rtt, lag) = (sorted(&pass.rtt_ns), sorted(&pass.send_lag_ns));
    let [p50, p90, p99, max] = [0.5, 0.9, 0.99, 1.0].map(|q| quantile(&rtt, q));
    let p99_ms = p99 as f64 / 1e6;
    let events = rtt.len();
    let achieved_rate = events as f64 / pass.window_s.max(1e-9);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"connections\": {vehicles},");
    let _ = writeln!(json, "  \"steps\": {steps},");
    let _ = writeln!(json, "  \"events\": {events},");
    let _ = writeln!(json, "  \"offered_rate_per_sec\": {rate:.3},");
    let _ = writeln!(json, "  \"offered_duration_seconds\": {offered_duration_s:.6},");
    let _ = writeln!(json, "  \"achieved_rate_per_sec\": {achieved_rate:.3},");
    let _ = writeln!(json, "  \"wall_seconds\": {:.6},", pass.window_s);
    let _ = writeln!(json, "  \"rtt_ns\": {{");
    for (key, value) in [("p50", p50), ("p90", p90), ("p99", p99), ("max", max)] {
        let _ = writeln!(json, "    \"{key}\": {value},");
    }
    let _ = writeln!(json, "    \"count\": {events}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"send_lag_ns\": {{");
    let _ = writeln!(json, "    \"p50\": {},", quantile(&lag, 0.5));
    let _ = writeln!(json, "    \"p99\": {},", quantile(&lag, 0.99));
    let _ = writeln!(json, "    \"max\": {}", quantile(&lag, 1.0));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"expected_firings\": {},", expected.len());
    let _ = writeln!(json, "  \"observed_firings\": {},", pass.fired.len());
    let _ = writeln!(json, "  \"ground_truth_divergent\": {},", verification.is_err());
    let _ = writeln!(json, "  \"overloads\": {},", pass.failures.overloaded);
    let _ = writeln!(json, "  \"protocol_errors\": {protocol_errors}");
    json.push_str("}\n");
    std::fs::write(&out, &json).expect("writing the benchmark report");

    println!(
        "live_tcp: {vehicles} conns × {steps} steps = {events} events at {rate:.0}/s offered \
         ({achieved_rate:.0}/s achieved) in {:.2}s: rtt p50={p50}ns p99={p99}ns ({p99_ms:.2}ms), \
         {}/{} firings, {} overloads → {}",
        pass.window_s,
        pass.fired.len(),
        expected.len(),
        pass.failures.overloaded,
        out.display()
    );

    if let Err(divergence) = &verification {
        eprintln!("GROUND TRUTH DIVERGENCE:\n{divergence}");
    }
    if check {
        let mut failed = false;
        if p99_ms > max_p99_ms {
            eprintln!("CHECK FAILED: rtt p99 {p99_ms:.2}ms > {max_p99_ms:.2}ms");
            failed = true;
        }
        if verification.is_err() {
            eprintln!("CHECK FAILED: observed firings diverge from ground truth");
            failed = true;
        }
        if protocol_errors > 0 {
            eprintln!("CHECK FAILED: {protocol_errors} protocol errors");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed: p99 {p99_ms:.2}ms <= {max_p99_ms:.2}ms, zero divergence");
    }
}
