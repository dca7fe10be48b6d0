//! Two transports behind one trait.
//!
//! [`InProcTransport`] calls the server directly but still round-trips
//! every message through the wire codec, so in-process tests exercise
//! exactly the bytes a socket would carry. [`TcpTransport`] speaks
//! length-prefixed frames over a [`std::net::TcpStream`] to the one TCP
//! front end, [`crate::reactor::Reactor`].
//!
//! A request's response sequence is zero or more
//! [`Response::TriggerDelivery`] frames followed by exactly one terminal
//! frame; [`Transport::request`] reads until the terminal and returns
//! the whole sequence.

use crate::server::Server;
use crate::wire::{frame, read_frame, Request, Response, WireError};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Failure while exchanging one request.
#[derive(Debug)]
pub enum TransportError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A frame decoded to garbage.
    Wire(WireError),
    /// The peer closed the connection mid-exchange.
    Closed,
    /// The exchange was sent but no acknowledgement arrived in time —
    /// either leg may have been lost, so the sender must assume the
    /// server *may* have processed the request (retry with
    /// [`crate::wire::Request::Resync`], not a blind resend).
    TimedOut,
    /// The peer answered with something the protocol does not allow
    /// here (e.g. an `Error` response to a well-formed update).
    Protocol(&'static str),
    /// A federation server bounced the request with
    /// [`Response::WrongOwner`]: the
    /// position's cell belongs to `owner` under map epoch `epoch`.
    /// Deliberately **not** transient — backing off and resending to the
    /// same server can never succeed. The cure is re-routing (refresh
    /// the topology, hand the session off, send to `owner`), which the
    /// federation router does before this error ever escapes; a plain
    /// client surfaces it instead of burning its retry budget.
    WrongOwner {
        /// The federation server id that owns the cell.
        owner: u32,
        /// The bouncing server's map epoch.
        epoch: u64,
    },
}

impl TransportError {
    /// True for failures a retry can plausibly cure (lost or timed-out
    /// exchanges, broken links). Wire garbage and protocol violations
    /// are deterministic: retrying reproduces them, so the client
    /// escalates instead of looping.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            TransportError::Io(_) | TransportError::Closed | TransportError::TimedOut
        )
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Wire(e) => write!(f, "wire error: {e}"),
            TransportError::Closed => write!(f, "connection closed mid-exchange"),
            TransportError::TimedOut => write!(f, "exchange timed out awaiting a response"),
            TransportError::Protocol(what) => write!(f, "protocol violation: {what}"),
            TransportError::WrongOwner { owner, epoch } => {
                write!(f, "wrong owner: cell belongs to server {owner} at epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> TransportError {
        TransportError::Io(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> TransportError {
        TransportError::Wire(e)
    }
}

/// A client's view of the server: send one request, receive its full
/// response sequence (trigger deliveries, then one terminal response).
pub trait Transport {
    /// Exchanges one request.
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError>;
}

/// In-process transport: direct calls, but every request and response
/// passes through encode→decode so the codec is always on the path.
pub struct InProcTransport {
    server: Arc<Server>,
    session: u32,
}

impl InProcTransport {
    /// Opens a fresh session on `server`.
    pub fn connect(server: Arc<Server>) -> InProcTransport {
        let session = server.open_session();
        InProcTransport { server, session }
    }

    /// The session this transport speaks on — batched drivers need it to
    /// address [`crate::wire::Request::Batch`] entries at this client.
    pub fn session(&self) -> u32 {
        self.session
    }
}

impl Transport for InProcTransport {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        // Round-trip the request through the codec before the server
        // sees it — the in-proc path must not skip quantization.
        let clock = Arc::clone(self.server.clock());
        let decode_started_ns = clock.now_ns();
        let req = Request::decode(&req.encode())?;
        self.server
            .metrics()
            .wire_decode
            .record_duration(clock.elapsed_since(decode_started_ns));
        let mut out = Vec::new();
        for resp in self.server.handle(self.session, req) {
            let encode_started_ns = clock.now_ns();
            let bytes = resp.encode();
            self.server
                .metrics()
                .wire_encode
                .record_duration(clock.elapsed_since(encode_started_ns));
            let resp = Response::decode(&bytes)?;
            let terminal = resp.is_terminal();
            out.push(resp);
            if terminal {
                return Ok(out);
            }
        }
        Err(TransportError::Closed)
    }
}

/// One blocking exchange on `stream`: writes the framed request, then
/// reads response frames up to and including the terminal one.
fn exchange(stream: &mut TcpStream, req: &Request) -> Result<Vec<Response>, TransportError> {
    stream.write_all(&frame(&req.encode()))?;
    stream.flush()?;
    let mut out = Vec::new();
    loop {
        let body = read_frame(stream)?.ok_or(TransportError::Closed)?;
        let resp = Response::decode(&body)?;
        let terminal = resp.is_terminal();
        out.push(resp);
        if terminal {
            return Ok(out);
        }
    }
}

/// Loopback TCP client endpoint.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connects to a listening front end's address
    /// ([`crate::reactor::Reactor::addr`]).
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }
}

impl Transport for TcpTransport {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        exchange(&mut self.stream, &req)
    }
}

/// A TCP endpoint that survives server restarts: on a transport error it
/// tears the socket down, and the next request transparently re-dials
/// and replays the cached `Hello` so the fresh connection's session is
/// registered before the request goes out.
///
/// Pairs with the client's [`crate::client::ResiliencePolicy`] machine:
/// the client backs off and re-issues the failed request, and this
/// transport turns that retry into dial → `Hello` → request. One
/// caveat is inherited from the per-connection session model: the new
/// session starts with an empty delivery log, so redeliveries recovered
/// by `Resync` can only cover losses *after* the reconnect (see
/// `DESIGN.md` S18).
pub struct ReconnectingTcpTransport {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    hello: Option<Request>,
    reconnects: Arc<AtomicU64>,
}

impl ReconnectingTcpTransport {
    /// Connects to `addr` now; later reconnects are lazy (on the next
    /// request after a failure).
    pub fn connect(addr: SocketAddr) -> std::io::Result<ReconnectingTcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ReconnectingTcpTransport {
            addr,
            stream: Some(stream),
            hello: None,
            reconnects: Arc::new(AtomicU64::new(0)),
        })
    }

    /// A shareable handle onto the reconnect counter (dials after the
    /// initial connect).
    pub fn reconnect_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.reconnects)
    }

    /// Returns a live socket, dialing and replaying the cached `Hello`
    /// when the previous one died. `dialing_for_hello` suppresses the
    /// replay when the request about to be sent is itself a `Hello`.
    fn ensure_connected(
        &mut self,
        dialing_for_hello: bool,
    ) -> Result<&mut TcpStream, TransportError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.reconnects.fetch_add(1, Ordering::Relaxed);
            if !dialing_for_hello {
                if let Some(hello) = self.hello.clone() {
                    let stream = self.stream.as_mut().expect("just connected");
                    match exchange(stream, &hello) {
                        // The replay must actually re-register the
                        // session: any other terminal than `Ack` means
                        // the fresh connection has no session, so the
                        // reconnect failed — surface that here
                        // rather than letting the next request die with
                        // a confusing NO_SESSION.
                        Ok(responses)
                            if matches!(responses.last(), Some(Response::Ack { .. })) => {}
                        Ok(_) => {
                            self.stream = None;
                            return Err(TransportError::Protocol(
                                "hello replay was not acknowledged",
                            ));
                        }
                        Err(e) => {
                            self.stream = None;
                            return Err(e);
                        }
                    }
                }
            }
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }
}

impl Transport for ReconnectingTcpTransport {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        let is_hello = matches!(req, Request::Hello { .. });
        if is_hello {
            self.hello = Some(req.clone());
        }
        let stream = self.ensure_connected(is_hello)?;
        match exchange(stream, &req) {
            Ok(out) => Ok(out),
            Err(e) => {
                // Any failed exchange leaves the stream position
                // unknown — a decode error mid-response-sequence
                // desynchronizes the framing just as surely as a broken
                // socket — so always drop it; `is_transient` only tells
                // the caller whether a retry is worth attempting.
                self.stream = None;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{Reactor, ReactorConfig};
    use crate::server::ServerConfig;
    use crate::wire::{write_frame, StrategySpec};
    use sa_geometry::{Grid, Rect};
    use std::net::TcpListener;

    fn tiny_server() -> Arc<Server> {
        let universe = Rect::new(0.0, 0.0, 3_000.0, 3_000.0).unwrap();
        let grid = Grid::new(universe, 1_000.0).unwrap();
        Server::start(grid, Vec::new(), 30.0, ServerConfig::default())
    }

    fn hello(seq: u32) -> Request {
        Request::Hello { seq, user: 7, strategy: StrategySpec::Mwpsr }
    }

    #[test]
    fn in_proc_round_trips_through_the_codec() {
        let server = tiny_server();
        let mut t = InProcTransport::connect(Arc::clone(&server));
        let resp = t.request(hello(1)).unwrap();
        assert_eq!(resp, vec![Response::Ack { seq: 1 }]);
        let resp = t.request(Request::Bye { seq: 2 }).unwrap();
        assert_eq!(resp, vec![Response::Ack { seq: 2 }]);
    }

    #[test]
    fn tcp_serves_frames_on_loopback() {
        let server = tiny_server();
        let mut reactor = Reactor::bind(Arc::clone(&server), ReactorConfig::default()).unwrap();
        let mut a = TcpTransport::connect(reactor.addr()).unwrap();
        let mut b = TcpTransport::connect(reactor.addr()).unwrap();
        assert_eq!(a.request(hello(1)).unwrap(), vec![Response::Ack { seq: 1 }]);
        assert_eq!(b.request(hello(9)).unwrap(), vec![Response::Ack { seq: 9 }]);
        // Sessions are per-connection: both clients said Hello for user 7
        // but on distinct sessions, so each Bye only tears down its own.
        assert_eq!(a.request(Request::Bye { seq: 2 }).unwrap(), vec![Response::Ack { seq: 2 }]);
        assert_eq!(b.request(Request::Bye { seq: 10 }).unwrap(), vec![Response::Ack { seq: 10 }]);
        reactor.shutdown();
    }

    #[test]
    fn wrong_owner_is_not_transient() {
        assert!(!TransportError::WrongOwner { owner: 1, epoch: 2 }.is_transient());
        assert!(TransportError::TimedOut.is_transient());
    }

    #[test]
    fn reconnecting_transport_drops_the_stream_on_decode_garbage() {
        // First connection answers the Hello with Ack, then answers the
        // next request with an undecodable frame; the second connection
        // (the redial) acks the replayed Hello and the retried request.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            let _ = read_frame(&mut first).unwrap();
            write_frame(&mut first, &Response::Ack { seq: 1 }.encode()).unwrap();
            let _ = read_frame(&mut first).unwrap();
            // A framing-valid 2-byte body: too short to even hold the
            // response head word, so decode fails with Truncated.
            first.write_all(&2u32.to_be_bytes()).unwrap();
            first.write_all(&[0xff, 0xff]).unwrap();
            // Keep `first` open: a desynchronized-but-live stream is the
            // case where caching the socket would read stale bytes.
            let (mut second, _) = listener.accept().unwrap();
            let _ = read_frame(&mut second).unwrap(); // replayed Hello
            write_frame(&mut second, &Response::Ack { seq: 1 }.encode()).unwrap();
            let _ = read_frame(&mut second).unwrap(); // retried Stats
            write_frame(&mut second, &Response::Ack { seq: 2 }.encode()).unwrap();
            drop(first);
        });

        let mut t = ReconnectingTcpTransport::connect(addr).unwrap();
        let reconnects = t.reconnect_counter();
        assert_eq!(t.request(hello(1)).unwrap(), vec![Response::Ack { seq: 1 }]);
        let err = t.request(Request::Stats { seq: 2 }).unwrap_err();
        assert!(matches!(err, TransportError::Wire(_)), "got {err}");
        // A Wire error is not transient, but the poisoned socket must
        // still be gone: the next request redials instead of reading
        // from the middle of the old stream.
        assert_eq!(t.request(Request::Stats { seq: 2 }).unwrap(), vec![Response::Ack { seq: 2 }]);
        assert_eq!(reconnects.load(Ordering::Relaxed), 1);
        peer.join().unwrap();
    }

    #[test]
    fn rejected_hello_replay_fails_the_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            // Connection 1: Hello → Ack, then close (forcing a redial).
            let (mut first, _) = listener.accept().unwrap();
            let _ = read_frame(&mut first).unwrap();
            write_frame(&mut first, &Response::Ack { seq: 1 }.encode()).unwrap();
            drop(first);
            // Connection 2: the replayed Hello is rejected.
            let (mut second, _) = listener.accept().unwrap();
            let _ = read_frame(&mut second).unwrap();
            write_frame(&mut second, &Response::Error { seq: 1, code: 99 }.encode()).unwrap();
            drop(second);
            // Connection 3: the replay succeeds, then the request does.
            let (mut third, _) = listener.accept().unwrap();
            let _ = read_frame(&mut third).unwrap();
            write_frame(&mut third, &Response::Ack { seq: 1 }.encode()).unwrap();
            let _ = read_frame(&mut third).unwrap();
            write_frame(&mut third, &Response::Ack { seq: 2 }.encode()).unwrap();
        });

        let mut t = ReconnectingTcpTransport::connect(addr).unwrap();
        assert_eq!(t.request(hello(1)).unwrap(), vec![Response::Ack { seq: 1 }]);
        // Connection 1 is gone: this request fails transiently.
        assert!(t.request(Request::Stats { seq: 2 }).unwrap_err().is_transient());
        // The retry dials connection 2, whose Hello replay is bounced —
        // that must surface as a failed reconnect, not as a later
        // NO_SESSION error on the request.
        let err = t.request(Request::Stats { seq: 2 }).unwrap_err();
        assert!(
            matches!(err, TransportError::Protocol("hello replay was not acknowledged")),
            "got {err}"
        );
        // And the bounced stream was dropped: the next retry redials.
        assert_eq!(t.request(Request::Stats { seq: 2 }).unwrap(), vec![Response::Ack { seq: 2 }]);
        peer.join().unwrap();
    }

    #[test]
    fn location_update_without_hello_is_an_error() {
        let server = tiny_server();
        let mut t = InProcTransport::connect(Arc::clone(&server));
        let resp = t
            .request(Request::LocationUpdate { seq: 3, x_fx: 0, y_fx: 0, motion: 0 })
            .unwrap();
        assert!(matches!(resp.as_slice(), [Response::Error { seq: 3, .. }]));
    }
}
