//! The three driver loops (the two in-proc workloads share one).
//!
//! The benchmark owns these loops — it calls none of the repository's
//! `replay_*` drivers — so a later change is free to rewrite those
//! without changing what is measured here. Each driver runs on **one
//! thread**, the generator; every other thread of the process is the
//! server's own.

use crate::gen::{poisson_schedule, process_cpu_ns, sharpen_sleeps, Arrival, Realtime, ThreadCpu};
use crate::probe::Prober;
use crate::spec::{Drive, Spec, MAX_BATCH_ENTRIES};
use crate::trace::{Span, SpanLog, NO_PARENT};
use sa_alarms::{AlarmId, SubscriberId};
use sa_roadnet::Fleet;
use sa_server::netfront::{FrameReader, WriteQueue};
use sa_server::transport::{InProcTransport, TcpTransport, Transport, TransportError};
use sa_server::wire::{
    frame, pack_motion, quantize_m, read_frame, write_frame, BatchedUpdate, Request, Response,
    SEQ_MASK,
};
use sa_server::{quantize_rect, Client, Reactor, ReactorConfig, Server, ServerConfig};
use sa_sim::{FiredEvent, SimulationHarness};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Read as _;
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longer than any run: a subscriber inside its safe region is
/// legitimately silent for the whole of it, and must not be reaped.
const IDLE_TIMEOUT: Duration = Duration::from_secs(900);

/// Pause before each set-up round.
const SETUP_GAP: Duration = Duration::from_millis(10);

/// How long the open-loop generator sleeps between looks at the
/// connections that have a request in flight.
const POLL_NS: u64 = 100_000;

/// Marks an open-loop update whose terminal response has not arrived.
const UNANSWERED: u64 = u64::MAX;

/// Cap on captured frame bytes per direction in a traced run.
const CAPTURE_BYTES: usize = 8 << 20;

/// Overload retry rounds per step before the batch driver gives up.
const MAX_BATCH_ROUNDS: u32 = 10_000;

/// Probe checkpoints on the closed-loop workloads: the captured updates
/// are replayed against the live server four times an hour, so handle
/// times see the fired set at a quarter, half, three quarters and all
/// of its final size rather than only at its largest.
const PROBE_CHECKPOINTS: u32 = 4;

/// A workload's world: the simulated road network, alarms, traces and
/// ground truth, all generated from `--seed` before anything is timed.
pub struct World {
    /// The sized workload.
    pub spec: Spec,
    /// The simulator harness the world and its ground truth come from.
    pub harness: SimulationHarness,
    /// Wall time `SimulationHarness::build` took (`gen.harness_build_s`).
    pub build_s: f64,
}

impl World {
    /// Generates the world for `spec`.
    pub fn build(spec: Spec) -> World {
        let started = Instant::now();
        let harness = SimulationHarness::build(&spec.config);
        World {
            build_s: started.elapsed().as_secs_f64(),
            spec,
            harness,
        }
    }

    /// The ground-truth firings of the driven steps, sorted.
    pub fn expected_firings(&self) -> Vec<FiredEvent> {
        let steps = self.spec.total_steps();
        self.harness
            .ground_truth()
            .events()
            .iter()
            .filter(|e| e.step < steps)
            .copied()
            .collect()
    }
}

/// The program under test, as shipped: default server sizing, default
/// reactor sizing except the two knobs a run this shape must set.
pub struct Live {
    /// The server.
    pub server: Arc<Server>,
    /// The TCP front end, on the two TCP workloads.
    pub reactor: Option<Reactor>,
}

impl Live {
    fn start(world: &World) -> Live {
        let harness = &world.harness;
        let server = Server::start(
            harness.grid().clone(),
            harness.index().alarms().to_vec(),
            harness.v_max(),
            ServerConfig::default(),
        );
        let reactor = match world.spec.drive {
            Drive::BatchedInProc { .. } => None,
            _ => Some(
                Reactor::bind(
                    Arc::clone(&server),
                    ReactorConfig {
                        max_conns: world.spec.vehicles() as usize + 16,
                        idle_timeout: IDLE_TIMEOUT,
                        ..ReactorConfig::default()
                    },
                )
                .expect("bind the reactor on loopback"),
            ),
        };
        Live { server, reactor }
    }

    /// The reactor's address.
    ///
    /// # Panics
    ///
    /// Panics on an in-proc workload, which has no reactor.
    pub fn addr(&self) -> SocketAddr {
        self.reactor.as_ref().expect("a TCP workload").addr()
    }

    fn shutdown(mut self) {
        if let Some(reactor) = self.reactor.as_mut() {
            reactor.shutdown();
        }
        self.server.shutdown();
    }
}

/// Operations that did not succeed, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// `Overloaded` answers (each one also forced a retry).
    pub overloaded: u64,
    /// `Error` answers.
    pub errors: u64,
    /// Transport and protocol errors, reaped connections, mismatched
    /// sequence numbers.
    pub transport: u64,
}

impl Failures {
    /// All of them.
    pub fn total(&self) -> u64 {
        self.overloaded + self.errors + self.transport
    }
}

/// One location update as it crossed the wire — the input the probes
/// re-execute each layer on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Captured {
    /// Subscriber.
    pub user: u32,
    /// Wire sequence number.
    pub seq: u32,
    /// Trace step the sample belongs to.
    pub step: u32,
    /// X, Q16.16 meters.
    pub x_fx: u32,
    /// Y, Q16.16 meters.
    pub y_fx: u32,
    /// Packed heading and speed.
    pub motion: u32,
}

/// What a traced run keeps for the probes.
#[derive(Debug, Default)]
pub struct Capture {
    /// Every location update, in send order.
    pub updates: Vec<Captured>,
    /// Framed client→server bytes, up to [`CAPTURE_BYTES`].
    pub up: Vec<u8>,
    /// Framed server→client bytes, up to [`CAPTURE_BYTES`].
    pub down: Vec<u8>,
    step: u32,
}

impl Capture {
    fn frame_up(&mut self, framed: &[u8]) {
        push_capped(&mut self.up, framed);
    }

    fn frame_down(&mut self, framed: &[u8]) {
        push_capped(&mut self.down, framed);
    }
}

/// Appends `framed` unless that would take `buf` past [`CAPTURE_BYTES`].
fn push_capped(buf: &mut Vec<u8>, framed: &[u8]) {
    if buf.len() + framed.len() <= CAPTURE_BYTES {
        buf.extend_from_slice(framed);
    }
}

/// Segments a round's window is cut into (fewer when the round has
/// fewer steps). The reference box is a shared VM whose neighbours slow
/// it for tens of milliseconds to seconds at a time. A run therefore
/// repeats its workload in several identical rounds, and every timing is
/// taken segment by segment from the round in which that segment ran
/// fastest (`report::quiet_cost`, `report::quiet_quantile`): a burst
/// spoils the segments it lands on in one round, not the reported value.
pub const SEGMENTS: u32 = 60;

/// Cumulative readings at a segment boundary (the first cut opens the
/// window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// Window time so far: wall time less `Fleet::step_into` and probe
    /// checkpoints.
    pub window_ns: u64,
    /// Process CPU reading.
    pub process_cpu_ns: u64,
    /// CPU so far that is not the server's: the generator's own work,
    /// the simulator and the probes.
    pub other_cpu_ns: u64,
    /// Updates absorbed so far.
    pub updates: u64,
    /// Samples absorbed so far.
    pub samples: u64,
    /// Length of the pass's RTT vector so far: the segment's RTT samples
    /// are the ones between two cuts.
    pub rtt_len: usize,
}

/// Whether a cut falls after `done` of `total` equal units of work.
fn cut_after(done: u32, total: u32) -> bool {
    let segment = |n: u32| u64::from(n) * u64::from(SEGMENTS) / u64::from(total.max(1));
    done == total || segment(done) != segment(done - 1)
}

/// Everything one pass over a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Wall time of each full set-up (`Server::start` through the last
    /// `Hello` ack).
    pub setup_s: Vec<f64>,
    /// Cumulative readings at the segment boundaries.
    pub cuts: Vec<Cut>,
    /// The timed window, excluding time inside `Fleet::step_into` and
    /// inside probe checkpoints.
    pub window_s: f64,
    /// Wall time inside `Fleet::step_into` (`gen.trace_s`).
    pub trace_s: f64,
    /// Location updates whose terminal response was absorbed.
    pub updates: u64,
    /// Position samples absorbed (sent, or proven silent by the client).
    pub samples: u64,
    /// Per-update round-trip times in send order (timed window only).
    pub rtt_ns: Vec<u64>,
    /// How late each open-loop send left (empty on closed loops).
    pub send_lag_ns: Vec<u64>,
    /// Response body bytes received.
    pub bytes_down: u64,
    /// Request body bytes sent.
    pub bytes_up: u64,
    /// Generator-thread CPU over the window spent on the generator's own
    /// work: not inside calls into the server, not in `excluded_ns`.
    pub gen_cpu_ns: u64,
    /// Wall time inside `Fleet::step_into` and probe checkpoints. The
    /// generator is CPU-bound there, so this is also CPU that belongs
    /// neither to the server nor to the window.
    pub excluded_ns: u64,
    /// Every firing observed.
    pub fired: Vec<FiredEvent>,
    /// What failed.
    pub failures: Failures,
    /// Time the client state machines spent on samples that needed no
    /// exchange.
    pub poll_ns: u64,
    /// Samples that needed no exchange.
    pub silent: u64,
    /// Client-side time absorbing responses.
    pub absorb_ns: u64,
    /// Alarm installs and removals issued through the server.
    pub writes: u64,
    /// The span log (empty when untraced).
    pub spans: SpanLog,
    /// Probe-derived per-layer metrics (empty when untraced).
    pub probed: Vec<crate::report::Metric>,
}

impl Pass {
    fn new(spans: SpanLog) -> Pass {
        Pass {
            spans,
            ..Pass::default()
        }
    }
}

/// Runs the workload `world.spec.rounds` times untraced, each round on
/// a freshly set-up server with identical inputs.
pub fn run_rounds(world: &World) -> Vec<Pass> {
    (0..world.spec.rounds.max(1))
        .map(|_| run_pass(world, false))
        .collect()
}

/// Runs one round of `world`'s workload. `traced` turns on span
/// recording, input capture and the probes; end-to-end numbers are only
/// ever reported from untraced rounds.
pub fn run_pass(world: &World, traced: bool) -> Pass {
    match world.spec.drive {
        Drive::OpenLoopTcp {
            rate_per_s,
            warmup_steps,
        } => drive_open_loop(world, traced, rate_per_s, warmup_steps),
        Drive::ClosedLoopTcp => drive_closed_loop(world, traced),
        Drive::BatchedInProc {
            writes_per_step,
            lifetime_steps,
        } => drive_batched(world, traced, writes_per_step, lifetime_steps),
    }
}

/// Sets the program up `spec.setups` times per round — `Server::start`,
/// the reactor bind, one `connect` per vehicle — keeping the last one,
/// and records how long each took (`setup_s` is the fastest of the run).
fn set_up<S>(
    world: &World,
    pass: &mut Pass,
    traced: bool,
    mut connect: impl FnMut(&Live, u32) -> Result<S, TransportError>,
) -> (Live, Vec<S>) {
    // A traced round follows untraced ones that already measured
    // set-up; it needs the program up once.
    let rounds = if traced { 1 } else { world.spec.setups.max(1) };
    let mut kept = None;
    for round in 0..rounds {
        // Spread the rounds out: on the reference box a set-up runs in
        // one of two speed modes 40% apart that last tens of
        // milliseconds each, and the fastest round should meet the fast
        // one.
        std::thread::sleep(SETUP_GAP);
        let started = Instant::now();
        let live = Live::start(world);
        let sessions: Vec<S> = (0..world.spec.vehicles())
            .map(|v| connect(&live, v).expect("session set-up on loopback"))
            .collect();
        pass.setup_s.push(started.elapsed().as_secs_f64());
        if round + 1 == rounds {
            kept = Some((live, sessions));
        } else {
            drop(sessions);
            live.shutdown();
        }
    }
    kept.expect("at least one set-up round")
}

/// Span-log capacity for a pass: per-step spans plus, when the workload
/// records one per exchange, those, plus room for the probes.
fn span_capacity(world: &World, per_exchange: usize) -> usize {
    world.spec.total_steps() as usize * 8 + per_exchange + 400_000
}

// ---------------------------------------------------------------------
// tcp_fleet: open loop over one socket per vehicle
// ---------------------------------------------------------------------

/// One generator-side connection of the open-loop workload.
struct FleetConn {
    stream: TcpStream,
    reader: FrameReader,
    writer: WriteQueue,
    /// Schedule indexes of the requests awaiting their terminal
    /// response; responses arrive in request order.
    in_flight: VecDeque<u32>,
    /// Body bytes of deliveries received ahead of their terminal.
    pending_bytes: u64,
    /// Listed in the generator's active set.
    active: bool,
    /// The server closed the connection.
    dead: bool,
}

fn dial_fleet_conn(live: &Live, v: u32, spec: &Spec) -> Result<FleetConn, TransportError> {
    let mut stream = TcpStream::connect(live.addr())?;
    stream.set_nodelay(true)?;
    let hello = Request::Hello {
        seq: 0,
        user: v,
        strategy: spec.strategy_of(v),
    };
    write_frame(&mut stream, &hello.encode())?;
    let body = read_frame(&mut stream)?.ok_or(TransportError::Closed)?;
    if !matches!(Response::decode(&body)?, Response::Ack { seq: 0 }) {
        return Err(TransportError::Protocol("hello was not acknowledged"));
    }
    stream.set_nonblocking(true)?;
    Ok(FleetConn {
        stream,
        reader: FrameReader::new(),
        writer: WriteQueue::new(1 << 20),
        in_flight: VecDeque::new(),
        pending_bytes: 0,
        active: false,
        dead: false,
    })
}

fn drive_open_loop(world: &World, traced: bool, rate_per_s: f64, warmup_steps: u32) -> Pass {
    let spec = &world.spec;
    let vehicles = spec.vehicles();
    let total_steps = spec.total_steps();
    let dt = spec.config.sample_period_s;
    let mut pass = Pass::new(SpanLog::new(
        traced,
        span_capacity(world, vehicles as usize * total_steps as usize),
    ));
    let mut capture = Capture::default();
    let mut prober = traced.then(|| Prober::new(world));

    // The whole trace is rolled out before anything is sent: an open
    // loop must never wait on the generator's own simulator.
    let rolled = Instant::now();
    let mut fleet = Fleet::new(world.harness.network(), &spec.config.fleet);
    let mut samples = Vec::new();
    let mut positions = vec![(0u32, 0u32, 0u32); vehicles as usize * total_steps as usize];
    for step in 0..total_steps {
        fleet.step_into(dt, &mut samples);
        for s in &samples {
            positions[(step * vehicles + s.vehicle.0) as usize] = (
                quantize_m(s.pos.x),
                quantize_m(s.pos.y),
                pack_motion(s.heading, s.speed),
            );
        }
    }
    pass.trace_s = rolled.elapsed().as_secs_f64();

    let schedule: Vec<Arrival> = poisson_schedule(spec.seed, vehicles, total_steps, rate_per_s);
    let longest_silence_ns = schedule.last().map_or(0, |a| a.at_ns);
    assert!(
        IDLE_TIMEOUT.as_nanos() as u64 > 2 * longest_silence_ns,
        "the reactor's idle timeout must outlast the whole schedule"
    );
    // The schedule is step-major, so the timed window starts at a fixed
    // index.
    let first_timed = (warmup_steps * vehicles) as usize;

    let (live, mut conns) = set_up(world, &mut pass, traced, |live, v| {
        dial_fleet_conn(live, v, spec)
    });

    sharpen_sleeps();
    let realtime = Realtime::enter();
    let mut cpu = ThreadCpu::open();
    let mut buf = vec![0u8; 64 * 1024];
    let mut active: Vec<u32> = Vec::new();
    let mut rtt_ns = vec![UNANSWERED; schedule.len() - first_timed];
    pass.send_lag_ns = vec![0u64; schedule.len() - first_timed];
    let mut next = 0usize;
    let mut window_cpu_ns = 0u64;
    let mut window_opened_ns = 0u64;
    let base_ns = pass.spans.now_ns();
    let give_up_ns = longest_silence_ns + 60_000_000_000;

    loop {
        let now_ns = pass.spans.now_ns() - base_ns;

        // Send every due update; never wait for a response first.
        while next < schedule.len() && schedule[next].at_ns <= now_ns {
            let ev = schedule[next];
            if next == first_timed {
                window_cpu_ns = cpu.now_ns();
                window_opened_ns = now_ns;
            }
            if next >= first_timed && ((next - first_timed) as u32).is_multiple_of(vehicles) {
                let steps_sent = (next - first_timed) as u32 / vehicles;
                if steps_sent == 0 || cut_after(steps_sent, spec.steps) {
                    pass.cuts.push(Cut {
                        window_ns: now_ns - window_opened_ns,
                        process_cpu_ns: process_cpu_ns(),
                        other_cpu_ns: cpu.now_ns(),
                        updates: pass.updates,
                        samples: (next - first_timed) as u64,
                        rtt_len: next - first_timed,
                    });
                }
            }
            let (x_fx, y_fx, motion) = positions[(ev.step * vehicles + ev.conn) as usize];
            let seq = ev.step + 1;
            let body = Request::LocationUpdate {
                seq,
                x_fx,
                y_fx,
                motion,
            }
            .encode();
            let conn = &mut conns[ev.conn as usize];
            if conn.dead {
                pass.failures.transport += 1;
                next += 1;
                continue;
            }
            if next >= first_timed {
                pass.bytes_up += body.len() as u64;
                pass.send_lag_ns[next - first_timed] = now_ns - ev.at_ns;
            }
            let framed = frame(&body).to_vec();
            if traced {
                capture.frame_up(&framed);
                capture.updates.push(Captured {
                    user: ev.conn,
                    seq,
                    step: ev.step,
                    x_fx,
                    y_fx,
                    motion,
                });
            }
            conn.writer.push_frame(framed);
            if conn.writer.write_some(&mut conn.stream).is_err() {
                conn.dead = true;
            }
            conn.in_flight.push_back(next as u32);
            if !conn.active {
                conn.active = true;
                active.push(ev.conn);
            }
            next += 1;
        }

        // Look only at connections that owe a response: the generator's
        // cost follows traffic, not the connection count.
        for &id in &active {
            let conn = &mut conns[id as usize];
            if !conn.writer.is_empty() && conn.writer.write_some(&mut conn.stream).is_err() {
                conn.dead = true;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.reader.push(&buf[..n], now_ns);
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            let done_ns = pass.spans.now_ns() - base_ns;
            while let Ok(Some(body)) = conn.reader.next_frame(done_ns) {
                if traced {
                    capture.frame_down(&crate::probe::framed(&body));
                }
                let Ok(resp) = Response::decode(&body) else {
                    pass.failures.transport += 1;
                    continue;
                };
                if let Response::TriggerDelivery { seq, alarm } = resp {
                    conn.pending_bytes += body.len() as u64;
                    pass.fired.push(FiredEvent {
                        subscriber: SubscriberId(id),
                        alarm: AlarmId(u64::from(alarm)),
                        step: seq - 1,
                    });
                    continue;
                }
                let Some(index) = conn.in_flight.pop_front() else {
                    pass.failures.transport += 1;
                    continue;
                };
                let ev = schedule[index as usize];
                match resp {
                    Response::Overloaded { .. } => pass.failures.overloaded += 1,
                    Response::Error { .. } => pass.failures.errors += 1,
                    Response::Ack { seq } | Response::BitmapInstall { seq, .. }
                        if seq == ev.step + 1 => {}
                    _ => pass.failures.transport += 1,
                }
                let delivered = std::mem::take(&mut conn.pending_bytes) + body.len() as u64;
                if index as usize >= first_timed {
                    pass.updates += 1;
                    pass.bytes_down += delivered;
                    rtt_ns[index as usize - first_timed] = done_ns - ev.at_ns;
                }
                pass.spans.record(Span {
                    name: "socket.exchange",
                    start_ns: base_ns + ev.at_ns,
                    end_ns: base_ns + done_ns,
                    parent: NO_PARENT,
                    user: id,
                    seq: ev.step + 1,
                    count: 1,
                });
            }
            if conn.dead {
                // Whatever was still owed on a closed connection is lost.
                pass.failures.transport += conn.in_flight.len() as u64;
                conn.in_flight.clear();
            }
            conn.active = !conn.in_flight.is_empty();
        }
        active.retain(|&id| conns[id as usize].active);

        if next >= schedule.len() && active.is_empty() {
            break;
        }
        let now_ns = pass.spans.now_ns() - base_ns;
        if now_ns > give_up_ns {
            pass.failures.transport += active.len() as u64;
            break;
        }
        let until_next = schedule
            .get(next)
            .map_or(u64::MAX, |a| a.at_ns.saturating_sub(now_ns));
        let wait_ns = if active.is_empty() {
            until_next
        } else {
            until_next.min(POLL_NS)
        };
        // Sleep, never spin: on a box this small a generator that burns
        // its share loses the scheduler's favour and wakes later still.
        if wait_ns > 20_000 {
            std::thread::sleep(Duration::from_nanos(wait_ns));
        } else {
            std::thread::yield_now();
        }
    }

    let end_ns = pass.spans.now_ns() - base_ns;
    drop(realtime);
    let window_start_ns = schedule[first_timed].at_ns;
    pass.window_s = (end_ns - window_start_ns) as f64 / 1e9;
    pass.gen_cpu_ns = cpu.now_ns() - window_cpu_ns;
    pass.samples = u64::from(vehicles) * u64::from(spec.steps);
    pass.cuts.push(Cut {
        window_ns: end_ns - window_opened_ns,
        process_cpu_ns: process_cpu_ns(),
        other_cpu_ns: cpu.now_ns(),
        updates: pass.updates,
        samples: pass.samples,
        rtt_len: rtt_ns.len(),
    });
    // An update that never got its terminal response waited until the
    // run gave up on it.
    for (rtt, ev) in rtt_ns.iter_mut().zip(&schedule[first_timed..]) {
        if *rtt == UNANSWERED {
            *rtt = end_ns.saturating_sub(ev.at_ns);
        }
    }
    pass.rtt_ns = rtt_ns;

    // A connection the reactor reaped shows as one fewer open.
    let open = live.reactor.as_ref().map_or(0, Reactor::open_connections);
    pass.failures.transport += u64::from(vehicles).saturating_sub(open as u64);

    if let Some(mut prober) = prober.take() {
        prober.replay(&live, &capture.updates, total_steps, &mut pass.spans);
        pass.probed = prober.finish(&live, &capture, &mut pass.spans);
    }
    drop(conns);
    live.shutdown();
    pass
}

// ---------------------------------------------------------------------
// tcp_refresh: real clients, one blocking exchange at a time
// ---------------------------------------------------------------------

/// A transport decorator that times every exchange and, in a traced
/// run, captures it. It is how the closed-loop driver tells what part of
/// `Client::observe` was the server's and what part the client's.
pub struct TimedTransport<T> {
    inner: T,
    user: u32,
    /// Nanoseconds spent inside `request` since last taken.
    pub request_ns: u64,
    /// Exchanges made.
    pub exchanges: u64,
    capture: Option<Rc<RefCell<Capture>>>,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        if let Some(capture) = &self.capture {
            let mut capture = capture.borrow_mut();
            capture.frame_up(&frame(&req.encode()));
            if let Request::LocationUpdate {
                seq,
                x_fx,
                y_fx,
                motion,
            } = req
            {
                let step = capture.step;
                capture.updates.push(Captured {
                    user: self.user,
                    seq,
                    step,
                    x_fx,
                    y_fx,
                    motion,
                });
            }
        }
        let started = Instant::now();
        let result = self.inner.request(req);
        self.request_ns += started.elapsed().as_nanos() as u64;
        self.exchanges += 1;
        if let (Some(capture), Ok(resps)) = (&self.capture, &result) {
            let mut capture = capture.borrow_mut();
            for resp in resps {
                capture.frame_down(&frame(&resp.encode()));
            }
        }
        result
    }
}

fn drive_closed_loop(world: &World, traced: bool) -> Pass {
    let spec = &world.spec;
    let vehicles = spec.vehicles();
    let steps = spec.steps;
    let dt = spec.config.sample_period_s;
    let grid = world.harness.grid();
    let mut pass = Pass::new(SpanLog::new(traced, span_capacity(world, 200_000)));
    let capture = traced.then(|| Rc::new(RefCell::new(Capture::default())));
    let mut prober = traced.then(|| Prober::new(world));

    let (live, mut clients) = set_up(world, &mut pass, traced, |live, v| {
        let transport = TimedTransport {
            inner: TcpTransport::connect(live.addr())?,
            user: v,
            request_ns: 0,
            exchanges: 0,
            capture: capture.clone(),
        };
        Client::connect(
            transport,
            SubscriberId(v),
            spec.strategy_of(v),
            grid.clone(),
            dt,
        )
    });

    let mut cpu = ThreadCpu::open();
    let mut fleet = Fleet::new(world.harness.network(), &spec.config.fleet);
    let mut samples = Vec::new();
    let mut rolling_ns = 0u64;
    let mut probed_upto = 0usize;
    let started = Instant::now();
    let cpu_start = (process_cpu_ns(), cpu.now_ns());
    let mut sampled = 0u64;
    pass.cuts.push(Cut {
        window_ns: 0,
        process_cpu_ns: cpu_start.0,
        other_cpu_ns: cpu_start.1,
        updates: 0,
        samples: 0,
        rtt_len: 0,
    });

    for step in 0..steps {
        let step_start_ns = pass.spans.now_ns();
        let rolled = Instant::now();
        fleet.step_into(dt, &mut samples);
        let rolled_ns = rolled.elapsed().as_nanos() as u64;
        rolling_ns += rolled_ns;
        if let Some(capture) = &capture {
            capture.borrow_mut().step = step;
        }
        let step_span = pass.spans.record(Span {
            name: "gen.step",
            start_ns: step_start_ns,
            end_ns: step_start_ns,
            parent: NO_PARENT,
            user: 0,
            seq: step,
            count: samples.len() as u32,
        });

        let mut step_poll_ns = 0u64;
        let mut step_silent = 0u32;
        for s in &samples {
            let client = &mut clients[s.vehicle.0 as usize];
            let uplinks_before = client.stats().uplinks;
            let exchanges_before = client.transport_mut().exchanges;
            let observed = Instant::now();
            let result = client.observe(step, s.pos, s.heading, s.speed);
            let took_ns = observed.elapsed().as_nanos() as u64;
            if result.is_err() {
                pass.failures.transport += 1;
                continue;
            }
            let transport = client.transport_mut();
            let request_ns = std::mem::take(&mut transport.request_ns);
            let exchanged = transport.exchanges != exchanges_before;
            if client.stats().uplinks > uplinks_before {
                pass.rtt_ns.push(took_ns);
                pass.absorb_ns += took_ns.saturating_sub(request_ns);
                let start_ns = pass.spans.ns_at(observed);
                pass.spans.record(Span {
                    name: "socket.exchange",
                    start_ns,
                    end_ns: start_ns + took_ns,
                    parent: step_span,
                    user: s.vehicle.0,
                    seq: step,
                    count: 1,
                });
            } else if !exchanged {
                step_poll_ns += took_ns;
                step_silent += 1;
            }
        }
        pass.poll_ns += step_poll_ns;
        pass.silent += u64::from(step_silent);
        // The silent observes of a step are interleaved with its
        // exchanges; they are logged as one span of their summed length.
        pass.spans.record(Span {
            name: "client.poll",
            start_ns: step_start_ns + rolled_ns,
            end_ns: step_start_ns + rolled_ns + step_poll_ns,
            parent: step_span,
            user: 0,
            seq: step,
            count: step_silent,
        });
        close_step_span(&mut pass.spans, step_span);
        sampled += samples.len() as u64;
        if cut_after(step + 1, steps) {
            pass.cuts.push(Cut {
                window_ns: started.elapsed().as_nanos() as u64 - rolling_ns - pass.excluded_ns,
                process_cpu_ns: process_cpu_ns(),
                other_cpu_ns: cpu.now_ns(),
                updates: pass.rtt_ns.len() as u64,
                samples: sampled,
                rtt_len: pass.rtt_ns.len(),
            });
        }

        if let (Some(prober), Some(capture)) = (prober.as_mut(), &capture) {
            if is_checkpoint(step, steps) {
                let paused = Instant::now();
                let capture = capture.borrow();
                prober.replay(
                    &live,
                    &capture.updates[probed_upto..],
                    step + 1,
                    &mut pass.spans,
                );
                probed_upto = capture.updates.len();
                pass.excluded_ns += paused.elapsed().as_nanos() as u64;
            }
        }
    }

    pass.excluded_ns += rolling_ns;
    pass.window_s = (started.elapsed().as_nanos() as u64 - pass.excluded_ns) as f64 / 1e9;
    pass.trace_s = rolling_ns as f64 / 1e9;
    // Everything this thread ran outside the simulator and the probes
    // is the generator's: the client state machines and its end of
    // the sockets.
    pass.gen_cpu_ns = (cpu.now_ns() - cpu_start.1).saturating_sub(pass.excluded_ns);
    pass.samples = u64::from(vehicles) * u64::from(steps);
    collect_clients(&mut pass, &mut clients);

    let open = live.reactor.as_ref().map_or(0, Reactor::open_connections);
    pass.failures.transport += u64::from(vehicles).saturating_sub(open as u64);

    if let (Some(prober), Some(capture)) = (prober.take(), &capture) {
        pass.probed = prober.finish(&live, &capture.borrow(), &mut pass.spans);
    }
    drop(clients);
    live.shutdown();
    pass
}

/// Whether the probes pause the run after `step` (traced runs only).
fn is_checkpoint(step: u32, steps: u32) -> bool {
    let every = (steps / PROBE_CHECKPOINTS).max(1);
    (step + 1).is_multiple_of(every) || step + 1 == steps
}

fn close_step_span(spans: &mut SpanLog, index: u32) {
    if index != NO_PARENT {
        let now = spans.now_ns();
        spans.close(index, now);
    }
}

/// Folds the clients' counters and firings into the pass.
fn collect_clients<T: Transport>(pass: &mut Pass, clients: &mut [Client<T>]) {
    for client in clients {
        let stats = client.stats();
        pass.updates += stats.uplinks;
        pass.bytes_up += stats.bytes_up;
        pass.bytes_down += stats.bytes_down;
        pass.failures.overloaded += stats.overload_retries;
        pass.fired.extend(client.take_fired());
    }
}

// ---------------------------------------------------------------------
// monitor_hour / alarm_churn: real clients, one batch frame per step
// ---------------------------------------------------------------------

fn drive_batched(world: &World, traced: bool, writes_per_step: u32, lifetime_steps: u32) -> Pass {
    let spec = &world.spec;
    let vehicles = spec.vehicles();
    let steps = spec.steps;
    let dt = spec.config.sample_period_s;
    let grid = world.harness.grid();
    let mut pass = Pass::new(SpanLog::new(traced, span_capacity(world, 0)));
    let mut capture = Capture::default();
    let mut prober = traced.then(|| Prober::new(world));

    let (live, connected) = set_up(world, &mut pass, traced, |live, v| {
        let transport = InProcTransport::connect(Arc::clone(&live.server));
        let session = transport.session();
        Client::connect(
            transport,
            SubscriberId(v),
            spec.strategy_of(v),
            grid.clone(),
            dt,
        )
        .map(|client| (client, session))
    });
    let (mut clients, sessions): (Vec<_>, Vec<u32>) = connected.into_iter().unzip();
    let mut driver = InProcTransport::connect(Arc::clone(&live.server));
    let mut control = InProcTransport::connect(Arc::clone(&live.server));
    let hello = Request::Hello {
        seq: 0,
        user: spec.phantom_owner(),
        strategy: spec.strategy_of(0),
    };
    assert!(
        matches!(
            control.request(hello).as_deref(),
            Ok([Response::Ack { .. }])
        ),
        "the control session must open"
    );

    // Churned alarms: dense ids from the base count, private to a
    // subscriber no vehicle has.
    let base_alarms = world.harness.index().len() as u32;
    let rects = spec.churn_rects(0, (writes_per_step * steps) as usize);
    let mut installed = 0u32;
    let mut removed = 0u32;
    let mut control_seq = 0u32;

    let mut fleet = Fleet::new(world.harness.network(), &spec.config.fleet);
    let mut samples = Vec::new();
    let mut entries: Vec<BatchedUpdate> = Vec::new();
    let mut owners: Vec<u32> = Vec::new();
    let mut batch_seq = 0u32;
    let mut rolling_ns = 0u64;
    let mut probed_upto = 0usize;
    pass.rtt_ns.reserve(vehicles as usize * steps as usize / 16);
    let started = Instant::now();
    let process_start = process_cpu_ns();
    let mut sampled = 0u64;
    pass.cuts.push(Cut {
        window_ns: 0,
        process_cpu_ns: process_start,
        other_cpu_ns: 0,
        updates: 0,
        samples: 0,
        rtt_len: 0,
    });

    for step in 0..steps {
        let step_start_ns = pass.spans.now_ns();
        let rolled = Instant::now();
        fleet.step_into(dt, &mut samples);
        rolling_ns += rolled.elapsed().as_nanos() as u64;
        let step_span = pass.spans.record(Span {
            name: "gen.step",
            start_ns: step_start_ns,
            end_ns: step_start_ns,
            parent: NO_PARENT,
            user: 0,
            seq: step,
            count: samples.len() as u32,
        });

        // Client monitoring: every sample is polled; most are silent.
        let poll_start_ns = pass.spans.now_ns();
        entries.clear();
        owners.clear();
        for s in &samples {
            let v = s.vehicle.0;
            match clients[v as usize].poll_update(
                sessions[v as usize],
                step,
                s.pos,
                s.heading,
                s.speed,
            ) {
                Ok(Some(entry)) => {
                    entries.push(entry);
                    owners.push(v);
                }
                Ok(None) => {}
                Err(_) => pass.failures.transport += 1,
            }
        }
        let poll_end_ns = pass.spans.now_ns();
        pass.poll_ns += poll_end_ns - poll_start_ns;
        pass.silent += (samples.len() - entries.len()) as u64;
        pass.spans.record(Span {
            name: "client.poll",
            start_ns: poll_start_ns,
            end_ns: poll_end_ns,
            parent: step_span,
            user: 0,
            seq: step,
            count: samples.len() as u32,
        });
        if traced {
            for (entry, &v) in entries.iter().zip(&owners) {
                capture.updates.push(Captured {
                    user: v,
                    seq: entry.seq,
                    step,
                    x_fx: entry.x_fx,
                    y_fx: entry.y_fx,
                    motion: entry.motion,
                });
            }
        }

        // Exchange, re-sending overloaded entries, until every client
        // has completed this step.
        let mut rounds = 0u32;
        while !entries.is_empty() {
            rounds += 1;
            if rounds > MAX_BATCH_ROUNDS {
                pass.failures.transport += entries.len() as u64;
                break;
            }
            let mut retry_entries = Vec::new();
            let mut retry_owners = Vec::new();
            for (chunk, chunk_owners) in entries
                .chunks(MAX_BATCH_ENTRIES)
                .zip(owners.chunks(MAX_BATCH_ENTRIES))
            {
                batch_seq = (batch_seq + 1) & SEQ_MASK;
                let request = Request::Batch {
                    seq: batch_seq,
                    updates: chunk.to_vec(),
                };
                if traced {
                    capture.frame_up(&frame(&request.encode()));
                }
                let exchange_start_ns = pass.spans.now_ns();
                let answered = driver.request(request);
                let exchange_ns = pass.spans.now_ns() - exchange_start_ns;
                pass.spans.record(Span {
                    name: "server.batch",
                    start_ns: exchange_start_ns,
                    end_ns: exchange_start_ns + exchange_ns,
                    parent: step_span,
                    user: 0,
                    seq: batch_seq,
                    count: chunk.len() as u32,
                });
                let replies = match answered.map(|mut resps| resps.pop()) {
                    Ok(Some(Response::Batch { seq, replies }))
                        if seq == batch_seq && replies.len() == chunk.len() =>
                    {
                        replies
                    }
                    _ => {
                        pass.failures.transport += chunk.len() as u64;
                        continue;
                    }
                };
                if traced {
                    let echo = Response::Batch {
                        seq: batch_seq,
                        replies: replies.clone(),
                    };
                    capture.frame_down(&frame(&echo.encode()));
                }
                let absorb_start_ns = pass.spans.now_ns();
                for ((reply, &owner), &entry) in replies.into_iter().zip(chunk_owners).zip(chunk) {
                    if reply.session != entry.session {
                        pass.failures.transport += 1;
                        continue;
                    }
                    match clients[owner as usize].complete_update(reply.responses) {
                        Ok(true) => pass.rtt_ns.push(exchange_ns),
                        Ok(false) => {
                            retry_entries.push(entry);
                            retry_owners.push(owner);
                        }
                        Err(_) => pass.failures.errors += 1,
                    }
                }
                let absorb_end_ns = pass.spans.now_ns();
                pass.absorb_ns += absorb_end_ns - absorb_start_ns;
                pass.spans.record(Span {
                    name: "client.absorb",
                    start_ns: absorb_start_ns,
                    end_ns: absorb_end_ns,
                    parent: step_span,
                    user: 0,
                    seq: batch_seq,
                    count: chunk.len() as u32,
                });
            }
            if !retry_entries.is_empty() {
                std::thread::yield_now();
            }
            entries = retry_entries;
            owners = retry_owners;
        }

        // Index writes beside the reads.
        let (first_installed, first_removed) = (installed, removed);
        if writes_per_step > 0 {
            let write_start_ns = pass.spans.now_ns();
            for _ in 0..writes_per_step {
                control_seq = (control_seq + 1) & SEQ_MASK;
                let install = Request::InstallAlarm {
                    seq: control_seq,
                    alarm: base_alarms + installed,
                    flags: spec.phantom_owner() << 1,
                    rect: quantize_rect(rects[installed as usize]),
                };
                if !matches!(
                    control.request(install).as_deref(),
                    Ok([Response::Ack { .. }])
                ) {
                    pass.failures.errors += 1;
                }
                installed += 1;
            }
            if step >= lifetime_steps {
                for _ in 0..writes_per_step {
                    control_seq = (control_seq + 1) & SEQ_MASK;
                    let remove = Request::RemoveAlarm {
                        seq: control_seq,
                        alarm: base_alarms + removed,
                    };
                    if !matches!(
                        control.request(remove).as_deref(),
                        Ok([Response::Ack { .. }])
                    ) {
                        pass.failures.errors += 1;
                    }
                    removed += 1;
                }
            }
            let write_end_ns = pass.spans.now_ns();
            let issued = (installed - first_installed) + (removed - first_removed);
            pass.writes += u64::from(issued);
            pass.spans.record(Span {
                name: "alarms.write",
                start_ns: write_start_ns,
                end_ns: write_end_ns,
                parent: step_span,
                user: 0,
                seq: step,
                count: issued,
            });
        }
        close_step_span(&mut pass.spans, step_span);
        // The probes' own index follows, outside the step and the window.
        if let Some(prober) = prober.as_mut() {
            let mirrored = Instant::now();
            for i in first_installed..installed {
                let id = u64::from(base_alarms + i);
                prober.mirror_install(spec.phantom_alarm(id, rects[i as usize]));
            }
            for i in first_removed..removed {
                prober.mirror_remove(AlarmId(u64::from(base_alarms + i)));
            }
            pass.excluded_ns += mirrored.elapsed().as_nanos() as u64;
        }
        sampled += samples.len() as u64;
        if cut_after(step + 1, steps) {
            let excluded_ns = rolling_ns + pass.excluded_ns;
            pass.cuts.push(Cut {
                window_ns: started.elapsed().as_nanos() as u64 - excluded_ns,
                process_cpu_ns: process_cpu_ns(),
                other_cpu_ns: pass.poll_ns + pass.absorb_ns + excluded_ns,
                updates: pass.rtt_ns.len() as u64,
                samples: sampled,
                rtt_len: pass.rtt_ns.len(),
            });
        }

        if let Some(prober) = prober.as_mut() {
            if is_checkpoint(step, steps) {
                let paused = Instant::now();
                prober.replay(
                    &live,
                    &capture.updates[probed_upto..],
                    step + 1,
                    &mut pass.spans,
                );
                probed_upto = capture.updates.len();
                pass.excluded_ns += paused.elapsed().as_nanos() as u64;
            }
        }
    }

    pass.excluded_ns += rolling_ns;
    pass.window_s = (started.elapsed().as_nanos() as u64 - pass.excluded_ns) as f64 / 1e9;
    pass.trace_s = rolling_ns as f64 / 1e9;
    // In-proc, the generator thread also runs the server's codec and
    // router (inside `driver.request`), so its CPU clock cannot split
    // the two. Polling and absorbing never block: their wall time is
    // their CPU time, and the rest of the process is the server's.
    pass.gen_cpu_ns = pass.poll_ns + pass.absorb_ns;
    pass.samples = u64::from(vehicles) * u64::from(steps);
    collect_clients(&mut pass, &mut clients);

    if let Some(prober) = prober.take() {
        pass.probed = prober.finish(&live, &capture, &mut pass.spans);
    }
    drop(clients);
    live.shutdown();
    pass
}
