//! An event-driven, non-blocking TCP front end.
//!
//! The one TCP server of the runtime — every [`crate::transport`] TCP
//! client dials it. A thread per connection caps out at a few hundred
//! clients, so this module multiplexes thousands of connections onto a
//! small fixed pool of worker threads. Each worker owns one epoll
//! instance (`poller.rs`, a hand-written binding: the repo vendors
//! its dependencies, so no tokio or mio; Linux only), registers every
//! connection it is dealt once, edge-triggered, sleeps in `epoll_wait`
//! and serves exactly the connections the kernel reports — a parked
//! connection costs no syscall. Worker 0 also owns the listener and
//! deals accepted sockets round-robin; a hand-off, a slot freed at
//! `max_conns` and `shutdown` reach a worker through its poller's wake.
//!
//! Per connection the reactor keeps the two small state machines from
//! [`crate::netfront`]: a [`FrameReader`] reassembling length-prefixed
//! frames from arbitrarily split reads, and a [`WriteQueue`] with
//! partial-write resumption whose high watermark throttles *reading*
//! from that connection (responses are never dropped — TCP pushes the
//! backpressure to the client). That and admission control are the
//! server's whole overload response. Overload never refuses a session:
//! a `Hello` that arrives while more than
//! [`AdmissionConfig::soft_session_cap`] connections are open is admitted
//! degraded to coarser safe regions instead, counted by
//! `sa_net_degraded_admissions_total` (see `DESIGN.md` S18 for the
//! soundness argument). Idle connections and slow-loris half-frames
//! are reaped by a sweep every quarter of `min(idle_timeout,
//! frame_deadline)`: the only time a worker wakes unasked, and the only
//! visit to a connection the kernel did not report.
//!
//! All front-end metrics land in the server's own registry, so a
//! `Stats` scrape over any connection sees them:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `sa_net_open_connections` | gauge | currently open connections |
//! | `sa_net_worker_connections{worker}` | gauge | connections each worker serves |
//! | `sa_net_accepted_total` | counter | connections accepted |
//! | `sa_net_closed_total{reason}` | counter | closes by cause |
//! | `sa_net_rx_frames_total` | counter | request frames decoded |
//! | `sa_net_tx_frames_total` | counter | response frames queued |
//! | `sa_net_degraded_admissions_total` | counter | sessions admitted coarse |
//! | `sa_net_poll_wakeups_total` | counter | returns from `epoll_wait`, sweeps included |
//! | `sa_net_poll_events_total` | counter | readiness reports served (÷ wake-ups: connections per wake-up) |

use crate::netfront::{AdmissionConfig, FrameError, FrameReader, WriteQueue};
use crate::poller::{Event, Poller};
use crate::server::Server;
use crate::wire::{frame, Request, Response};
use parking_lot::Mutex;
use sa_obs::{Counter, Gauge};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sizing and policy knobs of a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Worker threads sharing the connections (the first also accepts).
    pub workers: usize,
    /// Hard cap on simultaneously open connections; beyond it the
    /// listener backlog absorbs new dials until something closes.
    pub max_conns: usize,
    /// When new sessions are degraded instead of refused.
    pub admission: AdmissionConfig,
    /// Connections with no activity (no complete frame and no write
    /// progress) for this long are reaped.
    pub idle_timeout: Duration,
    /// A partial frame pending longer than this (measured from its
    /// *first* byte) is a slow loris; the connection is reaped.
    pub frame_deadline: Duration,
    /// Per-connection outbound backlog above which the reactor stops
    /// reading from that connection until the queue drains.
    pub write_high_watermark: usize,
    /// Bytes per `read()` call.
    pub read_chunk: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            workers: 2,
            max_conns: 4096,
            admission: AdmissionConfig::default(),
            idle_timeout: Duration::from_secs(30),
            frame_deadline: Duration::from_secs(5),
            write_high_watermark: 256 * 1024,
            read_chunk: 16 * 1024,
        }
    }
}

/// Why a connection was closed — the `reason` label on
/// `sa_net_closed_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// The peer shut down the stream and every queued response was
    /// flushed.
    Eof,
    /// A socket error (reset, broken pipe).
    Io,
    /// The byte stream violated the protocol (oversized frame, a body
    /// that does not decode).
    Protocol,
    /// No activity (complete frame or write progress) for longer than
    /// the idle timeout.
    Idle,
    /// A half-frame outlived the frame deadline.
    SlowLoris,
    /// The reactor is shutting down.
    Shutdown,
}

impl CloseReason {
    /// Indexed by `reason as usize`.
    const LABELS: [&'static str; 6] =
        ["eof", "io", "protocol", "idle", "slow_loris", "shutdown"];
}

/// Pre-resolved front-end metric handles on the server's registry.
struct NetMeter {
    open: Gauge,
    accepted: Counter,
    closed: Vec<Counter>,
    rx_frames: Counter,
    tx_frames: Counter,
    degraded_admissions: Counter,
    poll_wakeups: Counter,
    poll_events: Counter,
}

impl NetMeter {
    fn new(server: &Server) -> NetMeter {
        let registry = server.registry();
        NetMeter {
            open: registry.gauge("sa_net_open_connections"),
            accepted: registry.counter("sa_net_accepted_total"),
            closed: CloseReason::LABELS
                .iter()
                .map(|label| registry.counter_with("sa_net_closed_total", &[("reason", label)]))
                .collect(),
            rx_frames: registry.counter("sa_net_rx_frames_total"),
            tx_frames: registry.counter("sa_net_tx_frames_total"),
            degraded_admissions: registry.counter("sa_net_degraded_admissions_total"),
            poll_wakeups: registry.counter("sa_net_poll_wakeups_total"),
            poll_events: registry.counter("sa_net_poll_events_total"),
        }
    }
}

/// What other threads touch of a worker: its poller (to wake it) and
/// the connections dealt to it that it has yet to adopt.
struct WorkerPort {
    poller: Poller,
    inbox: Mutex<Vec<Conn>>,
    /// `sa_net_worker_connections{worker}`.
    serving: Gauge,
}

/// State shared by every worker thread.
struct Shared {
    server: Arc<Server>,
    listener: TcpListener,
    cfg: ReactorConfig,
    stop: AtomicBool,
    open: AtomicUsize,
    meter: NetMeter,
    /// One per worker; worker 0 is the acceptor.
    ports: Vec<WorkerPort>,
}

/// The listener's token on worker 0's poller; connections' are slots.
const LISTENER: u64 = Poller::WAKE - 1;

impl Shared {
    fn bind(server: Arc<Server>, cfg: ReactorConfig, addr: SocketAddr) -> io::Result<Shared> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let worker_port = |id: usize| {
            let labels = [("worker", &*id.to_string())];
            let serving = server.registry().gauge_with("sa_net_worker_connections", &labels);
            Ok(WorkerPort { poller: Poller::new()?, inbox: Mutex::new(Vec::new()), serving })
        };
        let ports = (0..cfg.workers.max(1)).map(worker_port).collect::<io::Result<Vec<_>>>()?;
        // Edge-triggered too: a backlog the acceptor may not drain
        // (`max_conns`) must not keep waking it.
        ports[0].poller.register(listener.as_fd(), LISTENER)?;
        Ok(Shared {
            meter: NetMeter::new(&server),
            server,
            listener,
            cfg,
            stop: AtomicBool::new(false),
            open: AtomicUsize::new(0),
            ports,
        })
    }

    /// How often a worker sweeps its connections for passed deadlines:
    /// a dead one outlives its deadline by at most a quarter.
    fn sweep_ns(&self) -> u64 {
        let every = self.cfg.idle_timeout.min(self.cfg.frame_deadline) / 4;
        every.max(Duration::from_millis(1)).as_nanos() as u64
    }

    fn open_conn(&self, stream: TcpStream, now_ns: u64) -> Conn {
        self.open.fetch_add(1, Ordering::SeqCst);
        self.meter.open.inc();
        self.meter.accepted.inc();
        Conn {
            stream,
            session: self.server.open_session(),
            reader: FrameReader::new(),
            writer: WriteQueue::new(self.cfg.write_high_watermark),
            last_activity_ns: now_ns,
            eof: false,
            responses: Vec::new(),
        }
    }

    fn close_conn(&self, conn: Conn, reason: CloseReason) {
        // A session the client already tore down with `Bye` (or that
        // never said Hello) is simply absent — close is idempotent.
        self.server.close_session(conn.session);
        self.meter.open.dec();
        self.meter.closed[reason as usize].inc();
        // Dials left in the backlog at the cap make no new edge:
        // whoever frees the first slot tells the acceptor.
        if self.open.fetch_sub(1, Ordering::SeqCst) == self.cfg.max_conns {
            self.ports[0].poller.wake();
        }
    }
}

/// One multiplexed connection: socket, half-frame reassembly, bounded
/// write backlog, and its server session.
struct Conn {
    stream: TcpStream,
    session: u32,
    reader: FrameReader,
    writer: WriteQueue,
    /// Last time the connection made protocol progress: a complete
    /// frame arrived, a write drained bytes, or the connection opened.
    /// Write progress counts because a read-throttled connection (over
    /// its write watermark) cannot produce frames while it slowly
    /// drains its backlog — reaping it as idle would drop the queued
    /// responses the protocol promises never to drop.
    last_activity_ns: u64,
    /// The peer half-closed; the connection dies once the writer drains.
    eof: bool,
    /// Reused response buffer for `handle_into`.
    responses: Vec<Response>,
}

impl Conn {
    /// Serves one readiness report: flush what the socket accepts,
    /// drain what it holds, process every complete frame. Errs with the
    /// reason the connection must close.
    fn pump(&mut self, shared: &Shared, now_ns: u64, buf: &mut [u8]) -> Result<(), CloseReason> {
        self.flush(now_ns)?;

        // Backpressure: a connection over its write watermark is not
        // read from — its requests sit in the kernel buffer and, once
        // that fills, in the client's send path — until the writable
        // edge owed to the `WouldBlock` that left the queue this long.
        if !self.eof && !self.writer.over_watermark() {
            // To `WouldBlock` or EOF, never just to a short read: a FIN
            // right behind the last bytes makes no edge of its own.
            loop {
                match self.stream.read(buf) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => self.reader.push(&buf[..n], now_ns),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return Err(CloseReason::Io),
                }
            }
        }

        let oversized = |FrameError::Oversized { .. }| CloseReason::Protocol;
        while let Some(body) = self.reader.next_frame(now_ns).map_err(oversized)? {
            self.last_activity_ns = now_ns;
            self.process_frame(shared, &body)?;
        }

        self.flush(now_ns)?;
        if self.eof && self.writer.is_empty() {
            return Err(CloseReason::Eof);
        }
        Ok(())
    }

    /// Writes queued responses until the socket stops taking them.
    fn flush(&mut self, now_ns: u64) -> Result<(), CloseReason> {
        if !self.writer.is_empty()
            && self.writer.write_some(&mut self.stream).map_err(|_| CloseReason::Io)? > 0
        {
            self.last_activity_ns = now_ns;
        }
        Ok(())
    }

    /// Decodes one request frame, routes it through the server, and
    /// queues its response frames.
    fn process_frame(&mut self, shared: &Shared, body: &[u8]) -> Result<(), CloseReason> {
        let (clock, metrics) = (shared.server.clock(), shared.server.metrics());
        let decode_started_ns = clock.now_ns();
        let decoded = Request::decode(body);
        metrics.wire_decode.record_duration(clock.elapsed_since(decode_started_ns));
        let Ok(req) = decoded else { return Err(CloseReason::Protocol) };
        shared.meter.rx_frames.inc();

        // Admission control happens at Hello: decide *before* routing
        // (the open-connection count is the signal), apply the cap right
        // after the session exists. Same thread, so no request on this
        // session can interleave.
        let admission = &shared.cfg.admission;
        let degrade = matches!(req, Request::Hello { .. })
            && shared.open.load(Ordering::Relaxed) > admission.soft_session_cap;

        self.responses.clear();
        shared.server.handle_into(self.session, req, &mut self.responses);

        if degrade && shared.server.degrade_session(self.session, admission.degraded_pbsr_height) {
            shared.meter.degraded_admissions.inc();
        }

        for resp in self.responses.drain(..) {
            let encode_started_ns = clock.now_ns();
            let bytes = frame(&resp.encode()).to_vec();
            metrics.wire_encode.record_duration(clock.elapsed_since(encode_started_ns));
            shared.meter.tx_frames.inc();
            self.writer.push_frame(bytes);
        }
        Ok(())
    }
}

/// A running front end: worker threads owning nonblocking connections,
/// all multiplexed onto one [`Server`].
///
/// Dropping the reactor shuts it down (stops accepting, closes every
/// connection, joins the workers). The [`Server`] itself is left
/// running — it may serve other transports.
pub struct Reactor {
    shared: Arc<Shared>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
}

impl Reactor {
    /// Binds `127.0.0.1:0` and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates listener bind/configuration failures.
    pub fn bind(server: Arc<Server>, cfg: ReactorConfig) -> io::Result<Reactor> {
        Reactor::bind_addr(server, cfg, SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// Binds an explicit address — the restart path: a replacement
    /// reactor can take over the exact port a dead one served (std
    /// listeners set `SO_REUSEADDR` on unix, so lingering `TIME_WAIT`
    /// pairs from the previous incarnation do not block the bind).
    ///
    /// # Errors
    ///
    /// Propagates listener bind/configuration failures.
    pub fn bind_addr(
        server: Arc<Server>,
        cfg: ReactorConfig,
        addr: SocketAddr,
    ) -> io::Result<Reactor> {
        let shared = Arc::new(Shared::bind(server, cfg, addr)?);
        let addr = shared.listener.local_addr()?;
        let workers = (0..shared.ports.len())
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sa-reactor-{id}"))
                    .spawn(move || Worker::new(&shared, id).run())
                    .expect("spawn reactor worker")
            })
            .collect();
        Ok(Reactor { shared, addr, workers })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open across all workers.
    pub fn open_connections(&self) -> usize {
        self.shared.open.load(Ordering::Relaxed)
    }

    /// Sessions admitted at degraded (coarser-region) quality so far.
    pub fn degraded_admissions(&self) -> u64 {
        self.shared.meter.degraded_admissions.get()
    }

    /// Stops accepting, closes every connection (their sessions are
    /// removed from the server), and joins the workers. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.ports.iter().for_each(|port| port.poller.wake());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Dealt to a worker that stopped before adopting them.
        for port in &self.shared.ports {
            for conn in std::mem::take(&mut *port.inbox.lock()) {
                self.shared.close_conn(conn, CloseReason::Shutdown);
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker thread's connections, by the poller token (slot) they
/// are registered under. A report can outlive its connection (closed,
/// the slot re-let, earlier in the batch), so it carries no verdict: it
/// only pumps what the slot holds now — a no-op with nothing to read.
struct Worker<'a> {
    shared: &'a Shared,
    id: usize,
    port: &'a WorkerPort,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    buf: Vec<u8>,
    /// The acceptor's round-robin cursor over the workers.
    deal_to: usize,
    now_ns: u64,
    sweep_due_ns: u64,
}

impl<'a> Worker<'a> {
    fn new(shared: &'a Shared, id: usize) -> Worker<'a> {
        let now_ns = shared.server.clock().now_ns();
        Worker {
            shared,
            id,
            port: &shared.ports[id],
            conns: Vec::new(),
            free: Vec::new(),
            buf: vec![0u8; shared.cfg.read_chunk.max(64)],
            deal_to: 0,
            now_ns,
            sweep_due_ns: now_ns + shared.sweep_ns(),
        }
    }

    /// The event loop, until `shutdown`.
    fn run(mut self) {
        let mut events = vec![Event::default(); 256];
        while !self.shared.stop.load(Ordering::SeqCst) {
            self.turn(&mut events);
        }
        for slot in 0..self.conns.len() {
            self.close(slot, CloseReason::Shutdown);
        }
    }

    /// One pass: sleep until the kernel has something to report or the
    /// sweep is due, serve exactly what it reported, sweep if due.
    fn turn(&mut self, events: &mut [Event]) {
        let shared = self.shared;
        let until_sweep = Duration::from_nanos(self.sweep_due_ns.saturating_sub(self.now_ns));
        let ready = self.port.poller.wait(events, until_sweep);
        shared.meter.poll_wakeups.inc();
        shared.meter.poll_events.add(ready.len() as u64);
        self.now_ns = shared.server.clock().now_ns();
        for event in ready {
            self.dispatch(event.token());
        }
        if self.now_ns >= self.sweep_due_ns {
            self.sweep_due_ns = self.now_ns + shared.sweep_ns();
            self.sweep();
        }
    }

    fn dispatch(&mut self, token: u64) {
        match token {
            Poller::WAKE => {
                for conn in std::mem::take(&mut *self.port.inbox.lock()) {
                    self.adopt(conn);
                }
                // To the acceptor a wake also says a slot came free.
                self.accept_burst();
            }
            LISTENER => self.accept_burst(),
            slot => {
                let slot = slot as usize;
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
                if let Err(reason) = conn.pump(self.shared, self.now_ns, &mut self.buf) {
                    self.close(slot, reason);
                }
            }
        }
    }

    /// Drains the listener's backlog up to `max_conns`, dealing the
    /// sockets round-robin to the workers. The acceptor's job only.
    fn accept_burst(&mut self) {
        let shared = self.shared;
        while self.id == 0 && shared.open.load(Ordering::SeqCst) < shared.cfg.max_conns {
            let stream = match shared.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Drained — or out of descriptors: the sweep retries.
                Err(_) => break,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let conn = shared.open_conn(stream, self.now_ns);
            let target = self.deal_to;
            self.deal_to = (target + 1) % shared.ports.len();
            if target == self.id {
                self.adopt(conn);
                continue;
            }
            shared.ports[target].inbox.lock().push(conn);
            shared.ports[target].poller.wake();
        }
    }

    /// Gives a connection its slot and its one registration; the kernel
    /// reports it at once (writable), which pumps whatever beat that.
    fn adopt(&mut self, conn: Conn) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let registered = self.port.poller.register(conn.stream.as_fd(), slot as u64);
        self.conns[slot] = Some(conn);
        self.port.serving.inc();
        if registered.is_err() {
            self.close(slot, CloseReason::Io);
        }
    }

    /// Closes what `slot` holds; dropping the socket deregisters it.
    fn close(&mut self, slot: usize, reason: CloseReason) {
        if let Some(conn) = self.conns[slot].take() {
            self.free.push(slot);
            self.port.serving.dec();
            self.shared.close_conn(conn, reason);
        }
    }

    /// Reaps connections whose idle or half-frame deadline has passed.
    fn sweep(&mut self) {
        let cfg = &self.shared.cfg;
        let idle_ns = cfg.idle_timeout.as_nanos() as u64;
        for slot in 0..self.conns.len() {
            let Some(conn) = &self.conns[slot] else { continue };
            if conn.reader.stalled(self.now_ns, cfg.frame_deadline) {
                self.close(slot, CloseReason::SlowLoris);
            } else if self.now_ns.saturating_sub(conn.last_activity_ns) > idle_ns {
                self.close(slot, CloseReason::Idle);
            }
        }
        // Dials behind an accept that failed make no new edge either.
        self.accept_burst();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::server::ServerConfig;
    use crate::transport::TcpTransport;
    use crate::wire::{quantize_m, read_frame, StrategySpec};
    use sa_alarms::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
    use sa_geometry::{Grid, Point, Rect};
    use std::io::Write as _;
    use std::net::{Shutdown, TcpStream};

    fn tiny_server() -> Arc<Server> {
        let universe = Rect::new(0.0, 0.0, 3_000.0, 3_000.0).unwrap();
        let grid = Grid::new(universe, 1_000.0).unwrap();
        let alarm = SpatialAlarm::new(
            AlarmId(0),
            Rect::new(100.0, 100.0, 200.0, 200.0).unwrap(),
            AlarmTarget::Static(Point::new(150.0, 150.0)),
            AlarmScope::Private { owner: SubscriberId(7) },
        );
        Server::start(grid, vec![alarm], 30.0, ServerConfig::default())
    }

    fn reactor_cfg() -> ReactorConfig {
        ReactorConfig { workers: 2, ..ReactorConfig::default() }
    }

    /// Polls until `sa_net_closed_total{reason}` becomes nonzero (or the
    /// deadline passes) and returns its final value.
    fn wait_for_close(server: &Server, reason: &str, deadline: Duration) -> Option<u64> {
        let until = std::time::Instant::now() + deadline;
        loop {
            let count =
                server.registry().snapshot().counter("sa_net_closed_total", &[("reason", reason)]);
            if count.is_some_and(|c| c > 0) || std::time::Instant::now() >= until {
                return count;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A bound but threadless reactor with one worker, stepped by hand.
    fn bound(server: &Arc<Server>, cfg: ReactorConfig) -> Shared {
        let cfg = ReactorConfig { workers: 1, ..cfg };
        Shared::bind(Arc::clone(server), cfg, SocketAddr::from(([127, 0, 0, 1], 0))).unwrap()
    }

    fn dial(shared: &Shared) -> TcpStream {
        let stream = TcpStream::connect(shared.listener.local_addr().unwrap()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
    }

    fn closed(server: &Server, reason: &str) -> u64 {
        let snap = server.registry().snapshot();
        snap.counter("sa_net_closed_total", &[("reason", reason)]).unwrap_or(0)
    }

    fn hello_frame() -> Vec<u8> {
        let hello = Request::Hello { seq: 0, user: 7, strategy: StrategySpec::Pbsr { height: 3 } };
        frame(&hello.encode()).to_vec()
    }

    fn next_response(stream: &mut TcpStream) -> Option<Response> {
        read_frame(stream).unwrap().map(|body| Response::decode(&body).unwrap())
    }

    #[test]
    fn a_fin_on_the_same_edge_as_the_last_request_still_closes_as_eof() {
        let server = tiny_server();
        // Sweeps every 100 ms so a turn cannot block for long; nothing
        // here is ever due for reaping (idle stays at 30 s).
        let shared = bound(
            &server,
            ReactorConfig { frame_deadline: Duration::from_millis(400), ..reactor_cfg() },
        );
        let mut worker = Worker::new(&shared, 0);
        let mut events = [Event::default(); 16];

        // Hello, one update and the FIN are all in the socket before
        // the worker registers it: they reach it as ONE report, and an
        // edge-triggered poller never mentions that FIN again.
        let mut client = dial(&shared);
        let mut bytes = hello_frame();
        let at = quantize_m(10.0);
        let update = Request::LocationUpdate { seq: 1, x_fx: at, y_fx: at, motion: 0 };
        bytes.extend_from_slice(&frame(&update.encode()));
        client.write_all(&bytes).unwrap();
        client.shutdown(Shutdown::Write).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while closed(&server, "eof") == 0 && std::time::Instant::now() < deadline {
            worker.turn(&mut events);
        }
        assert_eq!(closed(&server, "eof"), 1, "the half-close was never seen");
        assert_eq!(next_response(&mut client), Some(Response::Ack { seq: 0 }));
        let answer = next_response(&mut client).expect("the update's response");
        assert!(matches!(answer, Response::BitmapInstall { seq: 1, .. }), "{answer:?}");
        assert_eq!(next_response(&mut client), None, "then the server closes its half");
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn a_stale_report_for_a_reused_slot_only_pumps_its_new_tenant() {
        let server = tiny_server();
        let shared = bound(&server, reactor_cfg());
        let mut worker = Worker::new(&shared, 0);

        // A takes slot 0 and hangs up; its own report closes it.
        let a = dial(&shared);
        worker.accept_burst();
        assert!(worker.conns[0].is_some());
        drop(a);
        worker.dispatch(0);
        assert_eq!(closed(&server, "eof"), 1);

        // B is adopted into the freed slot...
        let mut b = dial(&shared);
        worker.accept_burst();
        assert!(worker.conns.len() == 1 && worker.conns[0].is_some(), "slot 0 must be reused");

        // ...and a report meant for A arrives late. B has sent
        // nothing: nothing is read, closed or answered.
        worker.dispatch(0);
        assert_eq!(shared.open.load(Ordering::SeqCst), 1);
        assert_eq!(closed(&server, "eof") + closed(&server, "io"), 1, "B must survive A's report");
        b.set_nonblocking(true).unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(b.read(&mut byte).unwrap_err().kind(), io::ErrorKind::WouldBlock);

        // B is served as itself afterwards.
        b.set_nonblocking(false).unwrap();
        b.write_all(&hello_frame()).unwrap();
        worker.dispatch(0);
        assert_eq!(next_response(&mut b), Some(Response::Ack { seq: 0 }));
        assert_eq!(server.session_count(), 1);

        // A report for a slot that holds nothing is dropped.
        worker.close(0, CloseReason::Shutdown);
        worker.dispatch(0);
        worker.dispatch(17);
        assert_eq!(shared.open.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_failed_registration_closes_the_connection_as_io() {
        let server = tiny_server();
        let shared = bound(&server, reactor_cfg());
        let mut worker = Worker::new(&shared, 0);

        let mut client = dial(&shared);
        let stream = loop {
            match shared.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => panic!("accept: {e}"),
            }
        };
        // Registered behind the worker's back: its own attempt fails
        // with EEXIST.
        shared.ports[0].poller.register(stream.as_fd(), 99).unwrap();
        let conn = shared.open_conn(stream, 0);
        let hello = Request::Hello { seq: 0, user: 7, strategy: StrategySpec::Mwpsr };
        assert_eq!(server.handle(conn.session, hello), vec![Response::Ack { seq: 0 }]);
        assert_eq!((server.session_count(), shared.open.load(Ordering::SeqCst)), (1, 1));
        worker.adopt(conn);

        assert_eq!(closed(&server, "io"), 1);
        assert_eq!((server.session_count(), shared.open.load(Ordering::SeqCst)), (0, 0));
        assert_eq!(shared.ports[0].serving.get(), 0);
        assert!(worker.conns[0].is_none() && worker.free == [0]);
        assert_eq!(next_response(&mut client), None, "the peer sees the close");
    }

    #[test]
    fn serves_the_blocking_transport_end_to_end() {
        let server = tiny_server();
        let mut reactor = Reactor::bind(Arc::clone(&server), reactor_cfg()).unwrap();
        let grid = server.grid().clone();

        let transport = TcpTransport::connect(reactor.addr()).unwrap();
        let mut client =
            Client::connect(transport, SubscriberId(7), StrategySpec::Pbsr { height: 3 }, grid, 1.0)
                .unwrap();
        // Walk into the alarm: the delivery must arrive over the reactor.
        let mut fired = 0;
        for (step, x) in (0..30u32).map(|s| (s, 10.0 + s as f64 * 10.0)) {
            client.observe(step, Point::new(x, 150.0), 0.0, 10.0).unwrap();
            fired = client.take_fired().len().max(fired);
        }
        client.finish().unwrap();
        assert!(fired > 0 || !client.take_fired().is_empty(), "alarm must fire over TCP");
        // One connection against the default cap of 1,024: admitted whole.
        assert_eq!(reactor.degraded_admissions(), 0);

        // Session cleanup: the client's Bye removed the session.
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.session_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.session_count(), 0, "session must be gone after Bye+close");
        reactor.shutdown();
        assert_eq!(reactor.open_connections(), 0);
    }

    #[test]
    fn overload_admissions_degrade_but_stay_protocol_transparent() {
        let server = tiny_server();
        let cfg = ReactorConfig {
            admission: AdmissionConfig {
                soft_session_cap: 0, // every admission is over cap
                ..AdmissionConfig::default()
            },
            ..reactor_cfg()
        };
        let mut reactor = Reactor::bind(Arc::clone(&server), cfg).unwrap();
        let grid = server.grid().clone();

        // A PBSR client asking for height 5 still works verbatim: the
        // server computes at the degraded cap and pads the encoding back
        // to height 5, so the client decodes with its own config.
        let transport = TcpTransport::connect(reactor.addr()).unwrap();
        let mut client =
            Client::connect(transport, SubscriberId(7), StrategySpec::Pbsr { height: 5 }, grid, 1.0)
                .unwrap();
        for (step, x) in (0..30u32).map(|s| (s, 10.0 + s as f64 * 10.0)) {
            client.observe(step, Point::new(x, 150.0), 0.0, 10.0).unwrap();
        }
        let fired = client.take_fired();
        client.finish().unwrap();
        assert_eq!(fired.len(), 1, "degraded session must still fire exactly once");
        assert!(reactor.degraded_admissions() >= 1, "admission must be counted as degraded");
        reactor.shutdown();
    }

    #[test]
    fn slow_loris_half_frame_is_reaped() {
        let server = tiny_server();
        let cfg = ReactorConfig {
            frame_deadline: Duration::from_millis(50),
            ..reactor_cfg()
        };
        let reactor = Reactor::bind(Arc::clone(&server), cfg).unwrap();

        let mut stream = TcpStream::connect(reactor.addr()).unwrap();
        // A length prefix claiming 100 bytes, then silence.
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.flush().unwrap();
        assert_eq!(
            wait_for_close(&server, "slow_loris", Duration::from_secs(10)),
            Some(1),
            "close must be attributed to the slow-loris reaper"
        );
        assert_eq!(reactor.open_connections(), 0, "half-frame must be reaped");
    }

    #[test]
    fn idle_connection_is_reaped() {
        let server = tiny_server();
        let cfg = ReactorConfig {
            idle_timeout: Duration::from_millis(50),
            ..reactor_cfg()
        };
        let reactor = Reactor::bind(Arc::clone(&server), cfg).unwrap();
        let _stream = TcpStream::connect(reactor.addr()).unwrap();
        assert_eq!(
            wait_for_close(&server, "idle", Duration::from_secs(10)),
            Some(1),
            "idle connection must be reaped"
        );
        assert_eq!(reactor.open_connections(), 0);
    }

    #[test]
    fn oversized_frame_closes_the_connection_as_protocol() {
        let server = tiny_server();
        let reactor = Reactor::bind(Arc::clone(&server), reactor_cfg()).unwrap();
        let mut stream = TcpStream::connect(reactor.addr()).unwrap();
        stream.write_all(&(crate::wire::MAX_FRAME_LEN as u32 + 1).to_be_bytes()).unwrap();
        stream.flush().unwrap();
        assert_eq!(wait_for_close(&server, "protocol", Duration::from_secs(10)), Some(1));
    }
}
