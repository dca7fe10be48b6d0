//! Two transports behind one trait.
//!
//! [`InProcTransport`] calls the server directly but still round-trips
//! every message through the wire codec, so in-process tests exercise
//! exactly the bytes a socket would carry. [`TcpTransport`] speaks
//! length-prefixed frames over a [`std::net::TcpStream`] to the one TCP
//! front end, [`crate::reactor::Reactor`], and re-dials after a failed
//! exchange.
//!
//! A request's response sequence is zero or more
//! [`Response::TriggerDelivery`] frames followed by exactly one terminal
//! frame; [`Transport::request`] reads until the terminal and returns
//! the whole sequence.

use crate::netfront::FrameReader;
use crate::server::Server;
use crate::wire::{frame, Request, Response, WireError};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
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

/// Bytes one `read` may take: a response group of the size a refresh
/// carries arrives in one call.
const READ_CHUNK: usize = 8 * 1024;

/// One blocking exchange on `stream`: writes the framed request, then
/// reads response frames up to and including the terminal one. Reads go
/// through a [`FrameReader`] — the reassembler the reactor uses — in
/// chunks, so a response group that arrived whole costs one `read`. A
/// request has exactly one answer: bytes after its terminal frame are a
/// protocol error.
fn exchange(
    stream: &mut (impl std::io::Read + Write),
    req: &Request,
) -> Result<Vec<Response>, TransportError> {
    stream.write_all(&frame(&req.encode()))?;
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        while let Some(body) = reader
            .next_frame(0)
            .map_err(|_| TransportError::Protocol("oversized response frame"))?
        {
            let resp = Response::decode(&body)?;
            let terminal = resp.is_terminal();
            out.push(resp);
            if terminal {
                if reader.has_partial() {
                    return Err(TransportError::Protocol("bytes after the terminal response"));
                }
                return Ok(out);
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(TransportError::Closed),
            Ok(n) => reader.push(&chunk[..n], 0),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Dials `addr` with Nagle off: every exchange is one small request
/// awaiting its answer.
fn dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Loopback TCP client endpoint that survives broken links and server
/// restarts: after any failed exchange it drops the stream, and the next
/// request re-dials and replays the cached `Hello`, so the fresh
/// connection's session is registered before the request goes out.
///
/// Every failure drops the stream, not only a transient one: a frame
/// that fails to decode mid-response-sequence leaves the stream position
/// unknown as surely as a broken socket does, and a kept stream would
/// answer the next request with a stale frame.
/// [`TransportError::is_transient`] only tells the caller whether a
/// retry is worth attempting.
///
/// Pairs with the client's [`crate::client::ResiliencePolicy`] machine:
/// the client backs off and re-issues the failed request, and this
/// transport turns that retry into dial → `Hello` → request. One caveat
/// is inherited from the per-connection session model: the new session
/// starts with an empty delivery log, so redeliveries recovered by
/// `Resync` can only cover losses *after* the reconnect (see
/// `DESIGN.md` S18).
pub struct TcpTransport {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// The last `Hello` sent, replayed on every re-dial.
    hello: Option<Request>,
    reconnects: u64,
}

impl TcpTransport {
    /// Connects to a listening front end's address
    /// ([`crate::reactor::Reactor::addr`]) now; later re-dials are lazy
    /// (on the next request after a failure).
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpTransport> {
        Ok(TcpTransport { addr, stream: Some(dial(addr)?), hello: None, reconnects: 0 })
    }

    /// Re-dials made after the initial connect.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The live stream, or a fresh dial that has replayed the cached
    /// `Hello` (unless `req` is itself a `Hello`).
    fn stream_for(&mut self, req: &Request) -> Result<&mut TcpStream, TransportError> {
        if self.stream.is_none() {
            let mut stream = dial(self.addr)?;
            self.reconnects += 1;
            if let Some(hello) = self.hello.as_ref().filter(|_| !is_hello(req)) {
                // The replay must re-register the session: any terminal
                // other than `Ack` means the fresh connection has none,
                // so the reconnect failed — say so here rather than let
                // the request die with a confusing NO_SESSION.
                let replayed = exchange(&mut stream, hello)?;
                if !matches!(replayed.last(), Some(Response::Ack { .. })) {
                    return Err(TransportError::Protocol("hello replay was not acknowledged"));
                }
            }
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }
}

fn is_hello(req: &Request) -> bool {
    matches!(req, Request::Hello { .. })
}

impl Transport for TcpTransport {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        if is_hello(&req) {
            self.hello = Some(req.clone());
        }
        let result = self.stream_for(&req).and_then(|stream| exchange(stream, &req));
        if result.is_err() {
            self.stream = None;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{Reactor, ReactorConfig};
    use crate::server::ServerConfig;
    use crate::wire::{read_frame, write_frame, StrategySpec};
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

    /// Reads one request frame off `stream` and decodes it.
    fn read_request(stream: &mut TcpStream) -> Request {
        Request::decode(&read_frame(stream).unwrap().expect("a request frame")).unwrap()
    }

    #[test]
    fn a_failed_exchange_never_reuses_its_stream() {
        // The first connection acks the Hello, then answers the next
        // request with an undecodable frame *followed by a valid Ack*;
        // the second connection (the re-dial) must see the replayed
        // Hello and then the next request, which gets its own answer.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            assert_eq!(read_request(&mut first), hello(1));
            write_frame(&mut first, &Response::Ack { seq: 1 }.encode()).unwrap();
            assert_eq!(read_request(&mut first), Request::Stats { seq: 2 });
            // A framing-valid 2-byte body: too short to even hold the
            // response head word, so decode fails with Truncated.
            first.write_all(&2u32.to_be_bytes()).unwrap();
            first.write_all(&[0xff, 0xff]).unwrap();
            // The stale frame a kept stream would hand the next request.
            write_frame(&mut first, &Response::Ack { seq: 2 }.encode()).unwrap();
            let (mut second, _) = listener.accept().unwrap();
            assert_eq!(read_request(&mut second), hello(1), "the re-dial replays Hello");
            write_frame(&mut second, &Response::Ack { seq: 1 }.encode()).unwrap();
            assert_eq!(read_request(&mut second), Request::Stats { seq: 3 });
            write_frame(&mut second, &Response::Ack { seq: 3 }.encode()).unwrap();
            drop(first);
        });

        let mut t = TcpTransport::connect(addr).unwrap();
        assert_eq!(t.request(hello(1)).unwrap(), vec![Response::Ack { seq: 1 }]);
        let err = t.request(Request::Stats { seq: 2 }).unwrap_err();
        assert!(matches!(err, TransportError::Wire(_)), "got {err}");
        // A Wire error is not transient, but the poisoned stream must
        // still be gone: the next request re-dials instead of reading
        // the stale Ack from the middle of the old stream.
        assert_eq!(t.request(Request::Stats { seq: 3 }).unwrap(), vec![Response::Ack { seq: 3 }]);
        assert_eq!(t.reconnects(), 1);
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

        let mut t = TcpTransport::connect(addr).unwrap();
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
        assert_eq!(t.reconnects(), 2);
        peer.join().unwrap();
    }

    /// A stream that answers every read from a script of chunks and
    /// counts the reads.
    struct Scripted {
        chunks: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl std::io::Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(chunk) = self.chunks.pop_front() else { return Ok(0) };
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Two deliveries and their terminal, framed back to back.
    fn response_group() -> (Vec<Response>, Vec<u8>) {
        let group = vec![
            Response::TriggerDelivery { seq: 4, alarm: 17 },
            Response::TriggerDelivery { seq: 4, alarm: 23 },
            Response::Ack { seq: 4 },
        ];
        let bytes = group.iter().flat_map(|r| frame(&r.encode()).to_vec()).collect();
        (group, bytes)
    }

    #[test]
    fn a_response_group_parses_from_any_split() {
        let (group, bytes) = response_group();
        let req = Request::Stats { seq: 4 };
        // Whole, in one read.
        let mut whole = Scripted { chunks: [bytes.clone()].into(), reads: 0 };
        assert_eq!(exchange(&mut whole, &req).unwrap(), group);
        assert_eq!(whole.reads, 1, "a group that arrived whole takes one read");
        // Split at every byte boundary.
        for cut in 1..bytes.len() {
            let chunks = [bytes[..cut].to_vec(), bytes[cut..].to_vec()].into();
            let mut split = Scripted { chunks, reads: 0 };
            assert_eq!(exchange(&mut split, &req).unwrap(), group, "cut at {cut}");
            assert_eq!(split.reads, 2, "cut at {cut}: one read per chunk");
        }
    }

    #[test]
    fn bytes_after_the_terminal_fail_the_exchange() {
        let (_, mut bytes) = response_group();
        bytes.push(0);
        let mut trailing = Scripted { chunks: [bytes].into(), reads: 0 };
        let err = exchange(&mut trailing, &Request::Stats { seq: 4 }).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "got {err}");
    }

    #[test]
    fn a_trailing_byte_drops_the_stream_and_the_next_request_redials() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            assert_eq!(read_request(&mut first), hello(1));
            write_frame(&mut first, &Response::Ack { seq: 1 }.encode()).unwrap();
            assert_eq!(read_request(&mut first), Request::Stats { seq: 2 });
            // The answer, then one byte no request asked for, in one write.
            let mut answer = frame(&Response::Ack { seq: 2 }.encode()).to_vec();
            answer.push(0);
            first.write_all(&answer).unwrap();
            let (mut second, _) = listener.accept().unwrap();
            assert_eq!(read_request(&mut second), hello(1), "the re-dial replays Hello");
            write_frame(&mut second, &Response::Ack { seq: 1 }.encode()).unwrap();
            assert_eq!(read_request(&mut second), Request::Stats { seq: 3 });
            write_frame(&mut second, &Response::Ack { seq: 3 }.encode()).unwrap();
            drop(first);
        });

        let mut t = TcpTransport::connect(addr).unwrap();
        assert_eq!(t.request(hello(1)).unwrap(), vec![Response::Ack { seq: 1 }]);
        let err = t.request(Request::Stats { seq: 2 }).unwrap_err();
        assert!(
            matches!(err, TransportError::Protocol("bytes after the terminal response")),
            "got {err}"
        );
        assert_eq!(t.request(Request::Stats { seq: 3 }).unwrap(), vec![Response::Ack { seq: 3 }]);
        assert_eq!(t.reconnects(), 1);
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
