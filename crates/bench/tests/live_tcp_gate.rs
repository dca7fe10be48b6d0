//! The `live_tcp` gate's verdict, end to end: the binary CI runs must
//! exit 0 and write every documented `BENCH_live_tcp.json` key when the
//! run is inside its bounds, and exit 1 when it is not. A tiny world
//! (50 sockets, 5 steps) keeps it to a fraction of a second.

use std::path::PathBuf;
use std::process::Command;

/// Runs the gate at the tiny size with a p99 ceiling of `max_p99_ms`;
/// returns its exit code and the report it wrote.
fn gate(name: &str, max_p99_ms: &str) -> (Option<i32>, String) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let run = Command::new(env!("CARGO_BIN_EXE_live_tcp"))
        .args(["--scale", "0.005", "--steps", "5", "--rate", "2000", "--check"])
        .args(["--max-p99-ms", max_p99_ms])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run live_tcp");
    let report = std::fs::read_to_string(&out).expect("the report is written before the verdict");
    (run.status.code(), report)
}

#[test]
fn a_run_inside_its_bounds_exits_zero_and_writes_every_documented_key() {
    let (code, report) = gate("live_tcp_pass.json", "250");
    assert_eq!(code, Some(0), "{report}");
    for key in [
        "connections",
        "steps",
        "events",
        "offered_rate_per_sec",
        "offered_duration_seconds",
        "achieved_rate_per_sec",
        "wall_seconds",
        "rtt_ns",
        "p50",
        "p90",
        "p99",
        "max",
        "count",
        "send_lag_ns",
        "expected_firings",
        "observed_firings",
        "overloads",
        "protocol_errors",
    ] {
        assert!(report.contains(&format!("\"{key}\": ")), "missing {key} in:\n{report}");
    }
    assert!(report.contains("\"connections\": 50,") && report.contains("\"events\": 250,"));
    assert!(report.contains("\"ground_truth_divergent\": false,"), "{report}");
    assert!(report.contains("\"protocol_errors\": 0\n"), "{report}");
}

#[test]
fn a_p99_over_the_ceiling_exits_one() {
    // One nanosecond: no round trip over a socket can pass it.
    let (code, report) = gate("live_tcp_fail.json", "0.000001");
    assert_eq!(code, Some(1), "{report}");
    assert!(report.contains("\"ground_truth_divergent\": false,"), "only the ceiling failed");
}
