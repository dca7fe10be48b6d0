//! The alarm-index churn bench: how much does live install/deactivate
//! traffic cost concurrent readers? Writes `BENCH_index_churn.json`.
//!
//! A [`VersionedAlarmIndex`] serves the server's real read mix through
//! an epoch-cached snapshot: one grid-cell `relevant_intersecting` (the
//! read every MWPSR/PBSR/OPT safe-region computation issues) followed by
//! a point `relevant_at_visit` trigger probe, each timed. The p50/p99
//! per-read latency is measured twice — index quiescent, then with a
//! paced writer thread pushing install/deactivate ops at `--churn-rate`
//! per second. Readers never take a lock on the steady path (one atomic
//! epoch load per query), so the p99 ratio between the two runs is the
//! whole cost of snapshot churn: delta scans, cache refreshes after each
//! publish, and the memory traffic of generation merges.
//!
//! Sweep usage:
//! `index_churn [--base N] [--churn-rate N] [--seconds F] [--out PATH]`
//!
//! Gate usage (fails the run in place, for CI):
//! `index_churn ... --max-churn-ratio F`

use sa_alarms::{
    AlarmId, AlarmScope, SnapshotCache, SpatialAlarm, SubscriberId, VersionedAlarmIndex,
};
use sa_geometry::{Point, Rect};
use sa_obs::Registry;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Universe edge in metres (100 km, matching the paper's road-network
/// extent order of magnitude).
const UNIVERSE_M: f64 = 100_000.0;

struct Opts {
    /// Alarm count the churn phase starts from.
    base: usize,
    /// Target write ops per second for the churn-on run.
    churn_rate: u64,
    /// Wall seconds of query traffic per churn mode.
    seconds: f64,
    out: PathBuf,
    max_churn_ratio: f64,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        base: 20_000,
        churn_rate: 10_000,
        seconds: 3.0,
        out: PathBuf::from("BENCH_index_churn.json"),
        max_churn_ratio: f64::INFINITY,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--base" => opts.base = value().parse().expect("--base expects an integer"),
            "--churn-rate" => {
                opts.churn_rate = value().parse().expect("--churn-rate expects an integer");
            }
            "--seconds" => opts.seconds = value().parse().expect("--seconds expects a float"),
            "--out" => opts.out = PathBuf::from(value()),
            "--max-churn-ratio" => {
                opts.max_churn_ratio =
                    value().parse().expect("--max-churn-ratio expects a float");
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: index_churn [--base N] [--churn-rate N] [--seconds F] \
                     [--out PATH] [--max-churn-ratio F]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(opts.base > 0, "--base must be positive");
    assert!(opts.churn_rate > 0, "--churn-rate must be positive");
    assert!(opts.seconds > 0.0, "--seconds must be positive");
    opts
}

/// Deterministic xorshift stream, so both churn runs see identical
/// geometry.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in [lo, hi).
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn alarm_rect(rng: &mut Rng) -> Rect {
    let half = rng.range(20.0, 250.0);
    let cx = rng.range(half, UNIVERSE_M - half);
    let cy = rng.range(half, UNIVERSE_M - half);
    Rect::new(cx - half, cy - half, cx + half, cy + half).expect("generated rect is valid")
}

fn alarm(id: u64, rng: &mut Rng) -> SpatialAlarm {
    let region = alarm_rect(rng);
    let owner = SubscriberId((rng.next() % 8) as u32);
    // Mostly public so reader probes do real tree work; a private tail
    // keeps the per-subscriber path warm too.
    let scope = if rng.next().is_multiple_of(4) {
        AlarmScope::Private { owner }
    } else {
        AlarmScope::Public { owner }
    };
    SpatialAlarm::around_static_target(AlarmId(id), region.center(), region.width() / 2.0, scope)
        .expect("generated alarm is valid")
}

/// One churn-phase measurement: per-read-kind latency quantiles over
/// `seconds` of probes, with an optional paced writer alongside. The
/// region read (one grid cell of `relevant_intersecting`) is the
/// gated number — it is what every safe-region computation pays; the
/// point trigger probe is reported alongside.
struct ChurnRun {
    queries: u64,
    region_p50_ns: u64,
    region_p99_ns: u64,
    probe_p50_ns: u64,
    probe_p99_ns: u64,
    write_ops: u64,
    achieved_rate: f64,
}

fn churn_run(
    index: &VersionedAlarmIndex,
    next_id: &AtomicU64,
    seconds: f64,
    churn_rate: Option<u64>,
) -> ChurnRun {
    let registry = Registry::new();
    let region_hist = registry.histogram("index_churn_region_read_ns");
    let probe_hist = registry.histogram("index_churn_trigger_probe_ns");
    let stop = AtomicBool::new(false);
    let write_ops = AtomicU64::new(0);
    let deadline = Duration::from_secs_f64(seconds);

    let mut queries = 0u64;
    let mut achieved_rate = 0.0;
    std::thread::scope(|scope| {
        if let Some(rate) = churn_rate {
            let achieved = &mut achieved_rate;
            let (stop, write_ops) = (&stop, &write_ops);
            scope.spawn(move || {
                // Paced writer: batches of ops against a wall-clock
                // schedule, alternating installs with deactivates of a
                // pseudo-random live id.
                let mut rng = Rng(0xC0FF_EE00_DEAD_0003);
                let batch = 64u64.min(rate);
                let started = Instant::now();
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for k in 0..batch {
                        if k % 2 == 0 {
                            let id = next_id.fetch_add(1, Ordering::Relaxed);
                            index
                                .try_install(alarm(id, &mut rng))
                                .expect("writer ids are dense by construction");
                        } else {
                            let live = next_id.load(Ordering::Relaxed);
                            index.deactivate(AlarmId(rng.next() % live));
                        }
                    }
                    done += batch;
                    write_ops.store(done, Ordering::Relaxed);
                    // Sleep off any lead over the schedule.
                    let due = Duration::from_secs_f64(done as f64 / rate as f64);
                    let elapsed = started.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                }
                *achieved = done as f64 / started.elapsed().as_secs_f64();
            });
        }

        let mut cache = SnapshotCache::new();
        let mut rng = Rng(0xFACE_0FF0_0000_0002);
        let mut sink = 0usize;
        const CELL_M: f64 = 1_000.0;
        let cells = (UNIVERSE_M / CELL_M) as u64;
        // Unrecorded warmup: fault in the index pages and warm the
        // allocator so the measured tail is churn, not cold-start.
        let warmup = Instant::now();
        while warmup.elapsed() < deadline.mul_f64(0.15) {
            let p = Point::new(rng.range(0.0, UNIVERSE_M), rng.range(0.0, UNIVERSE_M));
            let snap = index.load_cached(&mut cache);
            snap.relevant_at_visit(SubscriberId(0), p, |_| sink += 1);
        }
        let started = Instant::now();
        while started.elapsed() < deadline {
            let user = SubscriberId((rng.next() % 8) as u32);
            // One safe-region cell read plus one trigger probe inside
            // it — the per-update alarm-index traffic of a live server.
            let (cx, cy) = (rng.next() % cells, rng.next() % cells);
            let cell = Rect::new(
                cx as f64 * CELL_M,
                cy as f64 * CELL_M,
                (cx + 1) as f64 * CELL_M,
                (cy + 1) as f64 * CELL_M,
            )
            .expect("grid cells are valid rects");
            let p = Point::new(
                rng.range(cell.min_x(), cell.max_x()),
                rng.range(cell.min_y(), cell.max_y()),
            );
            let q = Instant::now();
            let snap = index.load_cached(&mut cache);
            sink += snap.relevant_intersecting(user, cell).len();
            region_hist.record_duration(q.elapsed());
            let q = Instant::now();
            let snap = index.load_cached(&mut cache);
            snap.relevant_at_visit(user, p, |_| sink += 1);
            probe_hist.record_duration(q.elapsed());
            queries += 2;
        }
        stop.store(true, Ordering::Relaxed);
        // Keep the probe loop from being optimized away.
        assert!(sink < usize::MAX);
    });

    let region = region_hist.snapshot();
    let probe = probe_hist.snapshot();
    ChurnRun {
        queries,
        region_p50_ns: region.p50,
        region_p99_ns: region.p99,
        probe_p50_ns: probe.p50,
        probe_p99_ns: probe.p99,
        write_ops: write_ops.load(Ordering::Relaxed),
        achieved_rate,
    }
}

fn main() {
    let opts = parse_args();

    eprintln!("churn phase: {} base alarms, {:.1}s per mode", opts.base, opts.seconds);
    let mut rng = Rng(0x5EED_0000_0000_0004);
    let base: Vec<SpatialAlarm> = (0..opts.base).map(|i| alarm(i as u64, &mut rng)).collect();
    let index = VersionedAlarmIndex::new(base).expect("base ids are dense by construction");
    let next_id = AtomicU64::new(opts.base as u64);

    let quiet = churn_run(&index, &next_id, opts.seconds, None);
    eprintln!(
        "  churn off: {} reads, region p50 {}ns p99 {}ns, probe p50 {}ns p99 {}ns",
        quiet.queries,
        quiet.region_p50_ns,
        quiet.region_p99_ns,
        quiet.probe_p50_ns,
        quiet.probe_p99_ns
    );
    let churned = churn_run(&index, &next_id, opts.seconds, Some(opts.churn_rate));
    eprintln!(
        "  churn on:  {} reads, region p50 {}ns p99 {}ns, probe p50 {}ns p99 {}ns \
         ({} write ops, {:.0}/s achieved)",
        churned.queries,
        churned.region_p50_ns,
        churned.region_p99_ns,
        churned.probe_p50_ns,
        churned.probe_p99_ns,
        churned.write_ops,
        churned.achieved_rate
    );
    let ratio = churned.region_p99_ns as f64 / (quiet.region_p99_ns as f64).max(1.0);
    let probe_ratio = churned.probe_p99_ns as f64 / (quiet.probe_p99_ns as f64).max(1.0);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"churn\": {{");
    let _ = writeln!(json, "    \"base_alarms\": {},", opts.base);
    let _ = writeln!(json, "    \"seconds_per_mode\": {},", opts.seconds);
    let _ = writeln!(json, "    \"target_write_ops_per_sec\": {},", opts.churn_rate);
    let _ = writeln!(json, "    \"achieved_write_ops_per_sec\": {:.0},", churned.achieved_rate);
    let _ = writeln!(json, "    \"write_ops\": {},", churned.write_ops);
    let _ = writeln!(json, "    \"reads_off\": {},", quiet.queries);
    let _ = writeln!(json, "    \"reads_on\": {},", churned.queries);
    let _ = writeln!(json, "    \"region_p50_off_ns\": {},", quiet.region_p50_ns);
    let _ = writeln!(json, "    \"region_p99_off_ns\": {},", quiet.region_p99_ns);
    let _ = writeln!(json, "    \"region_p50_on_ns\": {},", churned.region_p50_ns);
    let _ = writeln!(json, "    \"region_p99_on_ns\": {},", churned.region_p99_ns);
    let _ = writeln!(json, "    \"probe_p50_off_ns\": {},", quiet.probe_p50_ns);
    let _ = writeln!(json, "    \"probe_p99_off_ns\": {},", quiet.probe_p99_ns);
    let _ = writeln!(json, "    \"probe_p50_on_ns\": {},", churned.probe_p50_ns);
    let _ = writeln!(json, "    \"probe_p99_on_ns\": {},", churned.probe_p99_ns);
    let _ = writeln!(json, "    \"probe_p99_ratio\": {probe_ratio:.3},");
    let _ = writeln!(json, "    \"p99_ratio\": {ratio:.3}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(&opts.out, &json).expect("writing the churn report");
    println!(
        "churn-on region-read p99 {}ns = {ratio:.2}× \
         churn-off {}ns → {}",
        churned.region_p99_ns,
        quiet.region_p99_ns,
        opts.out.display()
    );

    if ratio > opts.max_churn_ratio {
        eprintln!(
            "CHURN REGRESSION: churn-on region-read p99 is {ratio:.2}× the quiescent p99, \
             above the ceiling {:.2}× — snapshot publishes are bleeding into the read path",
            opts.max_churn_ratio
        );
        std::process::exit(1);
    }
}
