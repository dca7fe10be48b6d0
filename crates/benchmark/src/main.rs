//! `sa-benchmark run` and `sa-benchmark compare` — see the crate README.

use sa_benchmark::compare::compare;
use sa_benchmark::drive::{run_pass, run_rounds, World};
use sa_benchmark::gen::{hold_awake, Awake, HOLD_AWAKE};
use sa_benchmark::report::{
    append_result, check_firings, end_to_end, generator_verdict, per_layer, print_layer_table,
    print_metrics, Bench, RunResult,
};
use sa_benchmark::spec::{Spec, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  sa-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
  sa-benchmark compare DIR_A DIR_B

run      runs one workload (or, without --workload, each of the four in its own
         child process), prints every metric as `workload metric value unit n=<samples>`
         and a final JSON result line, and exits non-zero when any alarm firing
         diverges from the ground truth. --trace reports the per-layer metrics of a
         traced round instead of the end-to-end metrics; --out DIR appends the result to
         DIR/<workload>.json (and writes DIR/trace-<workload>.json when traced).
         --seconds N sets how many identical rounds run (three or six at BENCHMARK.json's
         run_seconds, the default), never the size of a round.
compare  pairs the runs of two --out directories by seed and applies BENCHMARK.json's
         bounds (0 for the exact ratios and failures); exits 1 on a regression.";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: Bench::load().run_seconds,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            // Bare `--trace` and the driver's `--trace 0|1` both work.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(parsed)
}

/// Runs every workload, each in a child process of its own so that
/// `peak_rss_mb` is the workload's and not the suite's.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find the benchmark's own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", workload])
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => worst = worst.max(status.code().unwrap_or(2).clamp(1, 255) as u8),
            Err(e) => {
                eprintln!("{workload}: cannot start the child run: {e}");
                worst = worst.max(2);
            }
        }
    }
    ExitCode::from(worst)
}

fn run_one(workload: &str, args: &RunArgs) -> ExitCode {
    let Some(mut spec) = Spec::nominal(workload, args.seed) else {
        eprintln!("unknown workload {workload}; the workloads are {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    // `--seconds` buys rounds, never a longer or shorter round: results
    // of runs of different lengths stay comparable.
    spec.rounds = (spec.rounds * args.seconds)
        .div_ceil(Bench::load().run_seconds)
        .max(1);
    let world = World::build(spec);

    let awake = Awake::hold();
    let untraced = run_rounds(&world);
    match generator_verdict(&untraced) {
        Ok(numbers) => eprintln!("{workload}: load generator valid: {numbers}"),
        Err(numbers) => {
            // The generator measured itself: print no numbers at all.
            eprintln!("{workload}: run rejected, the load generator was not valid: {numbers}");
            return ExitCode::from(3);
        }
    }
    let (mut diverged, mut failed, mut attempted) = (0, 0, 0);
    let mut tally = |pass: &sa_benchmark::drive::Pass| {
        let (expected, pass_diverged) = check_firings(&world, pass);
        diverged += pass_diverged;
        failed += pass.failures.total();
        attempted += pass.updates + pass.failures.total() + expected;
    };
    untraced.iter().for_each(&mut tally);
    // Read before the traced round grows the process.
    let mut metrics = end_to_end(&untraced);

    if args.trace {
        let traced = run_pass(&world, true);
        tally(&traced);
        drop(awake);
        metrics = per_layer(&world, &untraced, &traced);
        print_layer_table(workload, &traced);
        if let Some(dir) = &args.out {
            if let Err(e) = write_trace(dir, workload, &traced) {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }

    let result = RunResult {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        correct: diverged == 0,
        attempted,
        failed: failed + diverged,
        metrics,
    };
    print_metrics(workload, &result.metrics);
    println!(
        "{workload} failed_share {} ratio n={}",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.attempted
    );
    if let Some(dir) = &args.out {
        if let Err(e) = append_result(dir, &result) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", result.to_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{workload}: {diverged} firings diverge from the ground truth");
        ExitCode::from(1)
    }
}

fn write_trace(
    dir: &Path,
    workload: &str,
    traced: &sa_benchmark::drive::Pass,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, traced.spans.to_json().to_line())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(HOLD_AWAKE) => hold_awake(),
        Some("run") => match parse_run(&args[1..]) {
            Ok(parsed) => match &parsed.workload {
                Some(workload) => run_one(workload, &parsed),
                None => run_all(&args[1..]),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => {
            match compare(Path::new(&args[1]), Path::new(&args[2])) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
