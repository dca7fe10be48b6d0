//! CI driver for the sa-verify fuzzing sweeps.
//!
//! Runs the cheap differential oracle over a wide seed range, then
//! drives a slice of end-to-end schedule seeds through the full
//! deterministic harness (virtual clock, chaos plans, batching,
//! federations of one to three members with mid-run repartitions, the
//! transcript oracle), then the named federation cases (partition
//! handoff during a disconnect window, repartition during a batch
//! cadence, three partitions under the lossy plan with a mid-run
//! repartition — each run twice for digest determinism, each required
//! to fire). Each federation case's merged trace is written next to the
//! report as `TRACE_<case>.json`, and a failing case's flight bundle as
//! `FLIGHT_<case>.txt`. Any schedule violation is minimized and rendered
//! as a `#[test]` reproducer next to the report; any violation turns the
//! exit code nonzero so the CI job fails loudly.
//!
//! Usage: `verify_fuzz [--seeds N] [--schedule-seeds N] [--start S]
//! [--budget-s SECS] [--out PATH]`
//!
//! `--budget-s` bounds the *schedule* sweep by wall clock: seeds past
//! the budget are skipped (and counted in the report) rather than
//! failing the run, so a slow CI runner degrades coverage, not health.

use sa_obs::chrome_trace_json;
use sa_verify::{
    differential_seed, federation_cases, fuzz_schedule, pinned_failure, run_case, CaseOutcome,
    FuzzCase,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Opts {
    seeds: u64,
    schedule_seeds: u64,
    start: u64,
    budget_s: f64,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        seeds: 1_000,
        schedule_seeds: 32,
        start: 0,
        budget_s: 600.0,
        out: PathBuf::from("BENCH_verify_fuzz.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--seeds" => opts.seeds = value().parse().expect("--seeds expects an integer"),
            "--schedule-seeds" => {
                opts.schedule_seeds =
                    value().parse().expect("--schedule-seeds expects an integer");
            }
            "--start" => opts.start = value().parse().expect("--start expects an integer"),
            "--budget-s" => {
                opts.budget_s = value().parse().expect("--budget-s expects seconds");
            }
            "--out" => opts.out = PathBuf::from(value()),
            "--help" | "-h" => {
                eprintln!(
                    "usage: verify_fuzz [--seeds N] [--schedule-seeds N] [--start S] \
                     [--budget-s SECS] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    opts
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn main() {
    let opts = parse_args();
    let started = Instant::now();

    // Phase 1: wide differential sweep. Cheap enough that the budget is
    // not consulted; a violation here is a first-class failure.
    let mut differential_failures: Vec<String> = Vec::new();
    for seed in opts.start..opts.start.saturating_add(opts.seeds) {
        if let Err(v) = differential_seed(seed) {
            eprintln!("DIFFERENTIAL VIOLATION: {v}");
            differential_failures.push(v);
        }
    }
    let differential_seconds = started.elapsed().as_secs_f64();

    // Phase 2: end-to-end schedule seeds, minimized on failure, bounded
    // by the wall-clock budget.
    let schedule_started = Instant::now();
    let mut report = sa_verify::FuzzReport::default();
    let mut skipped = 0u64;
    let mut federated = 0u64;
    for seed in opts.start..opts.start.saturating_add(opts.schedule_seeds) {
        if schedule_started.elapsed().as_secs_f64() > opts.budget_s {
            skipped = opts.start + opts.schedule_seeds - seed;
            break;
        }
        federated += u64::from(FuzzCase::from_seed(seed).partitions > 1);
        let one = fuzz_schedule([seed], true);
        report.seeds_run += one.seeds_run;
        report.failures.extend(one.failures);
    }
    let schedule_seconds = schedule_started.elapsed().as_secs_f64();

    // Phase 3: the named federation cases, each run twice and gated by
    // `pinned_failure` (exactness + oracle + digest determinism +
    // scenario coverage); small enough that the budget is not consulted.
    let fed_started = Instant::now();
    let mut fed_failures: Vec<String> = Vec::new();
    let mut fed_rows: Vec<String> = Vec::new();
    for (name, case) in federation_cases() {
        let runs = run_case(&case).and_then(|first| Ok((run_case(&case)?, first)));
        let failure = match &runs {
            Ok((second, first)) => pinned_failure(&case, first, second),
            Err(e) => Some(format!("transport error escaped the harness: {e}")),
        };
        if let Some(failure) = &failure {
            // A divergence failure carries the rendered flight bundle
            // (span trees, registry snapshots) — persist it whole rather
            // than losing it to a truncated log line.
            let path = opts.out.with_file_name(format!("FLIGHT_{name}.txt"));
            std::fs::write(&path, failure).expect("writing the flight bundle");
            let v = format!("federation case '{name}': {failure}");
            eprintln!("FEDERATION VIOLATION: {v}");
            eprintln!("flight bundle: {}", path.display());
            fed_failures.push(v);
        }
        let (first, deterministic) = match &runs {
            Ok((second, first)) => {
                // Keep each case's causal trace as a CI artifact, pass or
                // fail.
                let path = opts.out.with_file_name(format!("TRACE_{name}.json"));
                std::fs::write(&path, chrome_trace_json(&first.spans))
                    .expect("writing the trace artifact");
                (Some(first), first.digest == second.digest)
            }
            Err(_) => (None, false),
        };
        let field = |f: fn(&CaseOutcome) -> u64| first.map_or(0, f);
        fed_rows.push(format!(
            "{{ \"name\": \"{name}\", \"passed\": {}, \"digest\": \"{:#018x}\", \
             \"deterministic\": {deterministic}, \"handoffs\": {}, \"redirects\": {}, \
             \"batch_bounces\": {}, \"repartitioned\": {}, \"injected\": {} }}",
            failure.is_none(),
            field(|o| o.digest),
            field(|o| o.handoffs),
            field(|o| o.redirects),
            field(|o| o.batch_bounces),
            first.is_some_and(|o| o.repartitioned),
            field(|o| o.injected_total),
        ));
    }
    let fed_seconds = fed_started.elapsed().as_secs_f64();

    // Emit each minimized reproducer next to the report.
    for f in &report.failures {
        let path = opts.out.with_file_name(format!("repro_seed_{}.rs", f.seed));
        std::fs::write(&path, &f.reproducer).expect("writing the reproducer artifact");
        eprintln!("SCHEDULE VIOLATION (seed {}): {}\nreproducer: {}", f.seed, f.violation, path.display());
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"differential_seeds\": {},", opts.seeds);
    let _ = writeln!(json, "  \"differential_failures\": {},", differential_failures.len());
    let _ = writeln!(json, "  \"differential_seconds\": {differential_seconds:.3},");
    let _ = writeln!(json, "  \"schedule_seeds_requested\": {},", opts.schedule_seeds);
    let _ = writeln!(json, "  \"schedule_seeds_run\": {},", report.seeds_run);
    let _ = writeln!(json, "  \"schedule_seeds_skipped_budget\": {skipped},");
    let _ = writeln!(json, "  \"schedule_seconds\": {schedule_seconds:.3},");
    let _ = writeln!(json, "  \"schedule_federated\": {federated},");
    let _ = writeln!(json, "  \"start\": {},", opts.start);
    let _ = writeln!(json, "  \"federation_seconds\": {fed_seconds:.3},");
    let _ = writeln!(json, "  \"federation_cases\": [");
    let _ = writeln!(json, "    {}", fed_rows.join(",\n    "));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"failures\": [");
    let all: Vec<String> = differential_failures
        .iter()
        .cloned()
        .chain(report.failures.iter().map(|f| f.violation.clone()))
        .chain(fed_failures.iter().cloned())
        .collect();
    for (i, v) in all.iter().enumerate() {
        let comma = if i + 1 == all.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{}\"{comma}", json_escape(v));
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write(&opts.out, &json).expect("writing the fuzz report");

    let clean = all.is_empty();
    println!(
        "verify_fuzz: {} differential seeds in {:.1}s, {} schedule seeds in {:.1}s \
         ({} federated, {} skipped by budget), {} federation cases in {:.1}s, {} violations → {}",
        opts.seeds,
        differential_seconds,
        report.seeds_run,
        schedule_seconds,
        federated,
        skipped,
        fed_rows.len(),
        fed_seconds,
        all.len(),
        opts.out.display()
    );
    if !clean {
        std::process::exit(1);
    }
}
