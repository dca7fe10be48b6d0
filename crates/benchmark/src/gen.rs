//! The load generator's own parts: seed derivation, the open-loop
//! Poisson schedule, the churn rectangles, and the `/proc` readers that
//! separate the generator's CPU from the server's.
//!
//! Everything random here is a pure function of `--seed`; the server
//! only ever sees the requests these produce.

use sa_geometry::Rect;
use std::io::{Read, Seek, SeekFrom};

/// SplitMix64 — small, seedable, and owned by the benchmark so a change
/// to the workspace's vendored `rand` cannot silently change a workload.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The independent random streams one `--seed` fans out into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Vehicle trips (`FleetConfig::seed`).
    Fleet,
    /// Open-loop arrival times and per-step send order.
    Schedule,
    /// Rectangles of the alarms `alarm_churn` installs.
    Churn,
}

/// The seed of `stream` under the run's `--seed`.
pub fn derive_seed(seed: u64, stream: Stream) -> u64 {
    let salt = match stream {
        Stream::Fleet => 0xF1EE_7000_0000_0001,
        Stream::Schedule => 0x5C4E_D000_0000_0003,
        Stream::Churn => 0xC4C4_0000_0000_0004,
    };
    SplitMix64::new(seed ^ salt).next_u64()
}

/// One scheduled open-loop send: vehicle `conn` transmits its
/// step-`step` sample `at_ns` after the schedule's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Scheduled send instant, nanoseconds from the schedule origin.
    pub at_ns: u64,
    /// Connection (= vehicle) index.
    pub conn: u32,
    /// Trace step whose sample is sent.
    pub step: u32,
}

/// A Poisson arrival schedule at `rate_per_s`: exponential
/// inter-arrival gaps, vehicles visited in a freshly shuffled order
/// every step, so each vehicle sends each of its samples exactly once
/// and in step order.
pub fn poisson_schedule(seed: u64, vehicles: u32, steps: u32, rate_per_s: f64) -> Vec<Arrival> {
    assert!(rate_per_s > 0.0, "the offered rate must be positive");
    let mut rng = SplitMix64::new(derive_seed(seed, Stream::Schedule));
    let mut order: Vec<u32> = (0..vehicles).collect();
    let mut schedule = Vec::with_capacity(vehicles as usize * steps as usize);
    let mut at_ns = 0u64;
    for step in 0..steps {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &conn in &order {
            at_ns += (-rng.unit().ln() / rate_per_s * 1e9) as u64;
            schedule.push(Arrival { at_ns, conn, step });
        }
    }
    schedule
}

/// The rectangles of the alarms `alarm_churn` installs:
/// `side_m × side_m` squares placed uniformly inside `universe`.
pub fn churn_rects(seed: u64, universe: Rect, side_m: f64, count: usize) -> Vec<Rect> {
    let mut rng = SplitMix64::new(derive_seed(seed, Stream::Churn));
    (0..count)
        .map(|_| {
            let x = universe.min_x() + rng.unit() * (universe.width() - side_m);
            let y = universe.min_y() + rng.unit() * (universe.height() - side_m);
            Rect::new(x, y, x + side_m, y + side_m).expect("churn rectangles are non-degenerate")
        })
        .collect()
}

/// Drops the process's main thread's timer slack from the kernel's
/// default 50 µs to 1 ns, so that the open-loop generator, which runs on
/// that thread and sleeps to each scheduled send, is woken when it asked
/// to be. Best effort: where `/proc` refuses, the slack stays and the
/// send-lag guard decides.
pub fn sharpen_sleeps() {
    let _ = std::fs::write("/proc/self/timerslack_ns", "1");
}

/// Runs `chrt` (util-linux), the one outside tool the benchmark uses to
/// place its own threads and children in the kernel's scheduling classes;
/// std has no call for it and the workspace forbids `unsafe`. Returns
/// whether it succeeded.
fn chrt(args: &[&str]) -> bool {
    std::process::Command::new("chrt")
        .args(args)
        .stdout(std::process::Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// Puts the calling thread — the open-loop generator — in the real-time
/// class (`SCHED_FIFO`, priority 1) until dropped, so that a send that is
/// due goes out when it is due instead of queueing behind the server's
/// threads for a CPU. The generator stands for a thousand subscribers'
/// own devices; on a 2-vCPU box shared with a reactor that scans on both,
/// a generator of equal standing waits ~0.35 ms one time in a hundred,
/// which is the median round trip it is there to measure. It sleeps
/// between sends (`gen.cpu_share` ≈ 0.2), so it cannot starve anything.
/// Best effort: without the privilege the generator keeps its standing and
/// the send-lag guard decides whether the run counts.
#[derive(Debug)]
pub struct Realtime {
    thread: Option<String>,
}

impl Realtime {
    /// Raises the calling thread.
    pub fn enter() -> Realtime {
        let thread = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|path| Some(path.file_name()?.to_str()?.to_string()))
            .filter(|tid| chrt(&["--fifo", "--pid", "1", tid]));
        Realtime { thread }
    }
}

impl Drop for Realtime {
    fn drop(&mut self) {
        if let Some(tid) = &self.thread {
            chrt(&["--other", "--pid", "0", tid]);
        }
    }
}

/// CPU time the calling thread has run, read from
/// `/proc/thread-self/schedstat` (nanosecond resolution; std exposes no
/// thread CPU clock). The file handle stays open, so a reading is one
/// `pread`-sized syscall pair.
#[derive(Debug)]
pub struct ThreadCpu {
    file: Option<std::fs::File>,
}

impl ThreadCpu {
    /// Opens the calling thread's schedstat. Must be read from the same
    /// thread that opened it.
    pub fn open() -> ThreadCpu {
        ThreadCpu {
            file: std::fs::File::open("/proc/thread-self/schedstat").ok(),
        }
    }

    /// Nanoseconds on CPU so far; 0 where `/proc` is unavailable.
    pub fn now_ns(&mut self) -> u64 {
        let Some(file) = self.file.as_mut() else {
            return 0;
        };
        let mut buf = [0u8; 96];
        if file.seek(SeekFrom::Start(0)).is_err() {
            return 0;
        }
        let n = file.read(&mut buf).unwrap_or(0);
        std::str::from_utf8(&buf[..n])
            .ok()
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }
}

/// CPU time of every live thread of the process, in nanoseconds: the
/// sum of `/proc/self/task/*/schedstat` (`/proc/self/stat` ticks at
/// 100 Hz, too coarse for a segment of a few dozen milliseconds). A
/// thread that has exited no longer counts, so two readings compare
/// only while the server's threads live; 0 where `/proc` is unavailable.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(nproc, CPU model)` of the box the numbers were taken on.
pub fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, model)
}

/// Holds every vCPU of the box awake for as long as it lives: one
/// child process per CPU that spins in the kernel's idle class
/// (`chrt --idle`), which runs only when nothing else wants the CPU and is
/// preempted the instant something does, so it costs the server nothing.
///
/// The reference box is a shared 2-vCPU VM. When a vCPU has nothing to
/// run it halts, the host gives the core to a neighbour, and the next
/// wake-up — a shard thread handed a job, a client whose reply arrived —
/// pays for the host to bring the vCPU back, which takes a few
/// microseconds or a few hundred depending on the neighbours, for minutes
/// at a time. Three of the four workloads sleep and wake thousands of
/// times a second, and their timings moved by a factor of two with it
/// (`monitor_hour`: 40 k to 75 k updates/s under one seed) while a
/// workload whose threads never sleep (`tcp_fleet`'s CPU cost) stayed
/// within 6%. A vCPU that never halts is never taken away: with the
/// spinners the same runs repeat within a few percent. It is the
/// benchmark's version of disabling deep idle states before measuring on
/// bare metal; the program under test is untouched.
#[derive(Debug)]
pub struct Awake {
    spinners: Vec<std::process::Child>,
}

/// The argument that turns the benchmark's executable into a spinner.
pub const HOLD_AWAKE: &str = "hold-awake";

impl Awake {
    /// Starts one spinner per CPU. Best effort: without `chrt` the box
    /// idles as usual and the run is only noisier.
    pub fn hold() -> Awake {
        let mut spinners = Vec::new();
        if let Ok(exe) = std::env::current_exe() {
            for _ in 0..host().0 {
                let spawned = std::process::Command::new("chrt")
                    .args(["--idle", "0"])
                    .arg(&exe)
                    .arg(HOLD_AWAKE)
                    .stdin(std::process::Stdio::piped())
                    .stdout(std::process::Stdio::null())
                    .spawn();
                match spawned {
                    Ok(child) => spinners.push(child),
                    Err(e) => eprintln!("cannot hold the box awake, timings will be noisier: {e}"),
                }
            }
        }
        Awake { spinners }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        for spinner in &mut self.spinners {
            // Errors here mean the spinner is already gone.
            let _ = spinner.kill();
            let _ = spinner.wait();
        }
    }
}

/// The spinner: burns its (lowest-priority) share of one CPU until its
/// standard input closes — which it does when the benchmark exits, however
/// it exits, so a spinner never outlives the run that started it.
pub fn hold_awake() -> ! {
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    loop {
        std::hint::spin_loop();
    }
}
