//! Black-box pins for the hazards of an edge-triggered front end, over
//! real loopback sockets and the reactor's own `sa_net_*` series: a
//! read suspended by the write watermark must resume on the writable
//! edge, a listener at `max_conns` must neither spin nor strand its
//! backlog, parked connections — a thousand, or (ignored, run alone)
//! ten thousand — must cost no wake-ups beyond the deadline sweep's,
//! and accepted sockets must be dealt evenly.
//! (The hazards that need the worker stepped by hand — a FIN on the
//! same edge as the last bytes, a stale report for a reused slot, a
//! failed registration — are pinned in `reactor.rs`'s own test module.)

use sa_alarms::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
use sa_geometry::{Grid, Rect};
use sa_server::wire::{frame, quantize_m, read_frame, Request, Response, StrategySpec};
use sa_server::{Reactor, ReactorConfig, Server, ServerConfig};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A server whose cell (0, 0) holds `alarms` small public alarms, so an
/// OPT subscriber standing in it is pushed all of them on every resync.
fn server_with(alarms: u64) -> Arc<Server> {
    let universe = Rect::new(0.0, 0.0, 3_000.0, 3_000.0).unwrap();
    let alarms = (0..alarms)
        .map(|id| {
            let (x, y) = (100.0 + (id % 20) as f64 * 40.0, 100.0 + (id / 20) as f64 * 40.0);
            let region = Rect::new(x, y, x + 10.0, y + 10.0).unwrap();
            SpatialAlarm::new(
                AlarmId(id),
                region,
                AlarmTarget::Static(region.center()),
                AlarmScope::Public { owner: SubscriberId(99) },
            )
        })
        .collect();
    Server::start(Grid::new(universe, 1_000.0).unwrap(), alarms, 30.0, ServerConfig::default())
}

fn counter(server: &Server, name: &str) -> u64 {
    server.registry().snapshot().counter(name, &[]).unwrap_or(0)
}

fn closes(server: &Server) -> u64 {
    let snap = server.registry().snapshot();
    ["eof", "io", "protocol", "idle", "slow_loris", "shutdown"]
        .iter()
        .filter_map(|r| snap.counter("sa_net_closed_total", &[("reason", r)]))
        .sum()
}

fn worker_connections(server: &Server, worker: usize) -> i64 {
    server
        .registry()
        .snapshot()
        .gauge("sa_net_worker_connections", &[("worker", &worker.to_string())])
        .unwrap_or(0)
}

/// The reactor's sweep period: a quarter of its shorter deadline.
fn sweep_interval(cfg: &ReactorConfig) -> Duration {
    cfg.idle_timeout.min(cfg.frame_deadline) / 4
}

/// The most wake-ups `cfg.workers` idle workers may make in `window`:
/// their sweeps, plus two apiece for edges still settling.
fn idle_wakeup_budget(cfg: &ReactorConfig, window: Duration) -> u64 {
    let sweeps = window.as_nanos() / sweep_interval(cfg).as_nanos();
    cfg.workers as u64 * (sweeps as u64 + 2)
}

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let until = Instant::now() + deadline;
    while !done() {
        assert!(Instant::now() < until, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// CPU time of every live thread of this process, in nanoseconds (the
/// sum of `/proc/self/task/*/schedstat`); 0 where `/proc` is missing. A
/// thread that exits takes its time with it, so a later reading can be
/// smaller.
fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Dials, says `Hello` as `user`, and waits for the `Ack`.
fn dial(addr: SocketAddr, user: u32, strategy: StrategySpec) -> TcpStream {
    let mut sock = TcpStream::connect(addr).expect("dial the reactor");
    sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    sock.set_write_timeout(Some(Duration::from_secs(30))).unwrap();
    sock.write_all(&frame(&Request::Hello { seq: 0, user, strategy }.encode())).unwrap();
    let body = read_frame(&mut sock).expect("read the hello ack").expect("ack before eof");
    assert_eq!(Response::decode(&body).unwrap(), Response::Ack { seq: 0 });
    sock
}

#[test]
fn a_read_suspended_by_the_write_watermark_resumes_on_the_writable_edge() {
    // 400 alarms in the cell: every resync is answered with ~8 KB
    // against a 1 KiB watermark.
    let server = server_with(400);
    let cfg = ReactorConfig { write_high_watermark: 1024, ..ReactorConfig::default() };
    let mut reactor = Reactor::bind(Arc::clone(&server), cfg).unwrap();
    let mut sock = dial(reactor.addr(), 7, StrategySpec::Opt);
    let resync = |seq: u32| {
        let at = quantize_m(50.0);
        frame(&Request::Resync { seq, x_fx: at, y_fx: at, motion: 0, acked: 0 }.encode())
    };

    // Pipeline without reading until the server stops taking requests:
    // its responses have filled both kernel buffers, its write queue is
    // over the watermark, and reads are suspended.
    let mut sent = 0u32;
    let stalled_at = loop {
        assert!(sent < 100_000, "the server never throttled");
        for _ in 0..50 {
            sent += 1;
            sock.write_all(&resync(sent)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let taken = counter(&server, "sa_net_rx_frames_total");
        if taken < u64::from(sent) + 1 {
            std::thread::sleep(Duration::from_millis(150));
            if counter(&server, "sa_net_rx_frames_total") == taken {
                break sent;
            }
        }
    };
    // Twice as many again behind the stall, so that draining it
    // suspends and resumes the reads several more times.
    for _ in 0..2 * stalled_at {
        sent += 1;
        sock.write_all(&resync(sent)).unwrap();
    }

    for seq in 1..=sent {
        let body = read_frame(&mut sock)
            .unwrap_or_else(|e| panic!("response {seq} of {sent} never came: {e}"))
            .unwrap_or_else(|| panic!("connection closed before response {seq} of {sent}"));
        match Response::decode(&body).unwrap() {
            Response::AlarmPush { seq: got, alarms, .. } => {
                assert_eq!(got, seq, "responses out of order");
                assert_eq!(alarms.len(), 400);
            }
            other => panic!("response {seq} is not the alarm push: {other:?}"),
        }
    }
    assert_eq!(closes(&server), 0, "the throttled connection must not be reaped");
    assert_eq!(reactor.open_connections(), 1);
    reactor.shutdown();
}

#[test]
fn a_dial_beyond_max_conns_waits_without_spinning_and_is_served_on_the_first_close() {
    let server = server_with(1);
    // Deadlines long enough that no sweep falls inside the test: what
    // serves the second dial is the close, not a periodic retry.
    let cfg = ReactorConfig {
        max_conns: 1,
        idle_timeout: Duration::from_secs(120),
        frame_deadline: Duration::from_secs(120),
        ..ReactorConfig::default()
    };
    let mut reactor = Reactor::bind(Arc::clone(&server), cfg.clone()).unwrap();
    let first = dial(reactor.addr(), 1, StrategySpec::Mwpsr);

    // The kernel completes the second handshake into the backlog; the
    // reactor may not accept it.
    let mut second = TcpStream::connect(reactor.addr()).unwrap();
    let hello = Request::Hello { seq: 0, user: 2, strategy: StrategySpec::Mwpsr };
    second.write_all(&frame(&hello.encode())).unwrap();
    let window = Duration::from_millis(300);
    second.set_read_timeout(Some(window)).unwrap();
    let before = counter(&server, "sa_net_poll_wakeups_total");
    let started = Instant::now();
    assert!(read_frame(&mut second).is_err(), "served beyond max_conns");
    assert!(started.elapsed() >= window);
    let spun = counter(&server, "sa_net_poll_wakeups_total") - before;
    assert!(
        spun <= idle_wakeup_budget(&cfg, window),
        "a readable listener the reactor may not accept from cost {spun} wake-ups in {window:?}"
    );
    assert_eq!(reactor.open_connections(), 1);

    drop(first);
    second.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let body = read_frame(&mut second).expect("served once the first closed").unwrap();
    assert_eq!(Response::decode(&body).unwrap(), Response::Ack { seq: 0 });
    reactor.shutdown();
}

/// Connections dialled and held open by a child process — this test
/// binary re-run on [`park_connections_for_the_parent`]. Each connection
/// costs both of its ends a descriptor; in one process, 10,000 would
/// need the whole 20,000-descriptor limit before the server opened any
/// of its own.
struct Parked {
    child: Child,
    _stdout: BufReader<ChildStdout>,
}

impl Parked {
    /// Parks `count` connections on `reactor`, each past its `Hello`.
    fn dial(reactor: &Reactor, count: usize) -> Parked {
        let exe = std::env::current_exe().expect("the test binary's path");
        let mut child = Command::new(exe)
            .args(["--ignored", "--exact", "--nocapture", "park_connections_for_the_parent"])
            .arg(format!("park={count}@{}", reactor.addr()))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the parking process");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        while line.trim_end() != "parked" {
            line.clear();
            let read = stdout.read_line(&mut line).expect("read the parking process");
            assert!(read > 0, "the parking process exited before parking");
        }
        Parked { child, _stdout: stdout }
    }
}

impl Drop for Parked {
    /// Closes the child's stdin — its cue to drop every connection and
    /// exit — and reaps it.
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

/// The dialling half of [`Parked::dial`], run in its child process.
/// Given a `park=COUNT@ADDR` argument (an extra test-name filter, which
/// matches no test), dials COUNT connections to ADDR, says `Hello` on
/// each, prints `parked`, and holds them until its stdin closes.
/// Without one it does nothing.
#[test]
#[ignore = "the child process of the parked-connection tests"]
fn park_connections_for_the_parent() {
    let Some(spec) = std::env::args().find_map(|a| a.strip_prefix("park=").map(str::to_owned))
    else {
        return;
    };
    let (count, addr) = spec.split_once('@').expect("park=COUNT@ADDR");
    let addr: SocketAddr = addr.parse().expect("a socket address");
    let count: u32 = count.parse().expect("a connection count");
    let parked: Vec<TcpStream> =
        (0..count).map(|user| dial(addr, user, StrategySpec::Mwpsr)).collect();
    println!("parked");
    std::io::stdout().flush().unwrap();
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    drop(parked);
}

/// Parks `count` connections, then asserts that half a second in which
/// none of them sends a byte costs the reactor no wake-ups beyond its
/// deadline sweeps. Prints the wake-ups and this process's CPU over the
/// window — the idle cost, when the test runs alone (threads of tests
/// running alongside start, spin and exit inside the window).
fn parked_connections_cost_no_wakeups_beyond_the_sweeps(count: usize) {
    let server = server_with(1);
    // A sweep every 100 ms, so several fall inside the window, and room
    // for every connection.
    let cfg = ReactorConfig {
        frame_deadline: Duration::from_millis(400),
        max_conns: count.max(ReactorConfig::default().max_conns),
        ..ReactorConfig::default()
    };
    let mut reactor = Reactor::bind(Arc::clone(&server), cfg.clone()).unwrap();
    let parked = Parked::dial(&reactor, count);
    assert_eq!(reactor.open_connections(), count);
    std::thread::sleep(Duration::from_millis(100));

    let before = (counter(&server, "sa_net_poll_wakeups_total"), process_cpu_ns(), Instant::now());
    std::thread::sleep(Duration::from_millis(500));
    let woke = counter(&server, "sa_net_poll_wakeups_total") - before.0;
    let window = before.2.elapsed();
    let cpu_ns = process_cpu_ns().saturating_sub(before.1);
    let cpu_ms_per_s = cpu_ns as f64 / 1e6 / window.as_secs_f64();
    let budget = idle_wakeup_budget(&cfg, window);
    println!(
        "{count} parked connections: {woke} wake-ups in {window:?} (budget {budget}), \
         idle CPU {cpu_ms_per_s:.2} ms/s"
    );
    assert!(woke <= budget, "{woke} wake-ups with every connection parked (budget {budget})");
    // Setting up was event-driven too: each connection was reported.
    let events = counter(&server, "sa_net_poll_events_total");
    assert!(events >= count as u64, "{events} events");
    assert_eq!(closes(&server), 0);
    drop(parked);
    reactor.shutdown();
}

#[test]
fn a_thousand_parked_connections_cost_no_wakeups_beyond_the_sweeps() {
    parked_connections_cost_no_wakeups_beyond_the_sweeps(1_000);
}

#[test]
#[ignore = "10,000 connections; run alone, with --nocapture to read the idle cost"]
fn ten_thousand_parked_connections_cost_no_wakeups_beyond_the_sweeps() {
    parked_connections_cost_no_wakeups_beyond_the_sweeps(10_000);
}

#[test]
fn accepted_sockets_are_dealt_round_robin() {
    let server = server_with(1);
    let cfg = ReactorConfig::default();
    let mut reactor = Reactor::bind(Arc::clone(&server), cfg.clone()).unwrap();
    let held: Vec<TcpStream> =
        (0..201).map(|user| dial(reactor.addr(), user, StrategySpec::Mwpsr)).collect();
    let shares: Vec<i64> = (0..cfg.workers).map(|w| worker_connections(&server, w)).collect();
    assert_eq!(shares.iter().sum::<i64>(), held.len() as i64, "{shares:?}");
    let (least, most) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
    assert!(most - least <= 1, "201 sequential dials split {shares:?}");

    drop(held);
    wait_until("every connection closed", Duration::from_secs(10), || {
        reactor.open_connections() == 0
    });
    assert!((0..cfg.workers).all(|w| worker_connections(&server, w) == 0));
    reactor.shutdown();
}
