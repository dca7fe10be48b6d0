//! Known-bad frame corpus for the wire protocol.
//!
//! Every rejection branch of `Request::decode` / `Response::decode` has
//! a named corpus case: a byte frame committed under `tests/corpus/`
//! plus the exact [`WireError`] it must produce. Frames that *decode*
//! but must be rejected by the server (e.g. an install with a gapped
//! alarm id) are corpus cases too, carrying the `Response::Error` code
//! the live server must answer with instead of panicking. Byte streams
//! that never reach a decoder — rejected by the reactor's framing layer
//! on a live socket — are the third tier: their corpus bytes are
//! written raw to a real reactor connection and the case names the
//! `sa_net_closed_total{reason}` label the close must be attributed to.
//! The table-driven test keeps the directory and the table in
//! lockstep — a frame on disk with no table entry (or vice versa) fails
//! the test, so a new rejection branch cannot land without a named
//! corpus case.
//!
//! `regenerate_corpus` (ignored by default) rewrites the directory from
//! the table: `cargo test -p sa-server --test wire_corpus -- --ignored`.

use sa_geometry::{Grid, Rect};
use sa_server::server::error_code;
use sa_server::wire::{Request, Response, StrategySpec, WireError};
use sa_server::{Reactor, ReactorConfig, Server, ServerConfig};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Which decoder the frame is aimed at. `Socket` cases bypass the
/// decoders: their bytes go straight onto a live reactor connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Request,
    Response,
    Socket,
}

/// What must happen to the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expected {
    /// The decoder itself rejects the bytes.
    Wire(WireError),
    /// The bytes decode into a valid request, but a live server must
    /// answer it with `Response::Error { code }` — never a panic.
    ServerError {
        /// The expected [`error_code`] value.
        code: u32,
    },
    /// The bytes, written raw to a live reactor socket, must get the
    /// connection closed with this `sa_net_closed_total{reason}` label
    /// (and the server must survive).
    ReactorClose {
        /// The close-reason label.
        reason: &'static str,
    },
}

struct Case {
    /// File name under `tests/corpus/` (also names the branch).
    name: &'static str,
    direction: Direction,
    bytes: Vec<u8>,
    expected: Expected,
}

/// A frame head word: type nibble + 28-bit sequence.
fn head(ty: u8, seq: u32) -> u32 {
    (u32::from(ty) << 28) | (seq & 0x0FFF_FFFF)
}

/// A frame body from big-endian u32 words plus raw tail bytes.
fn frame(words: &[u32], tail: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 4 + tail.len());
    for w in words {
        out.extend_from_slice(&w.to_be_bytes());
    }
    out.extend_from_slice(tail);
    out
}

/// The full corpus: one case per rejection branch in `wire.rs`, plus
/// decodable-but-server-rejected frames.
fn corpus() -> Vec<Case> {
    use Direction::{Request as Req, Response as Resp};
    use Expected::{ReactorClose, ServerError, Wire};
    // Request types: 0=resync 1=hello 2=location 3=notify 4=install
    // 5=remove 6=bye 7=stats 8=batch. Response types: 2=batch 7=stats
    // 8=ack 9=rect 10=bitmap 11=push 12=delivery 13=grant 14=overloaded
    // 15=error.
    vec![
        Case {
            name: "req_empty_truncated",
            direction: Req,
            bytes: vec![],
            expected: Wire(WireError::Truncated),
        },
        Case {
            name: "req_short_head_truncated",
            direction: Req,
            bytes: vec![1, 2],
            expected: Wire(WireError::Truncated),
        },
        Case {
            name: "req_unknown_type",
            direction: Req,
            // 14 and 15 are the last unallocated request-direction
            // nibbles (9–13 became the federation control messages).
            bytes: frame(&[head(14, 0)], &[]),
            expected: Wire(WireError::UnknownType(14)),
        },
        Case {
            name: "req_trailing_bytes",
            direction: Req,
            bytes: frame(&[head(6, 1)], &[0xAA]),
            expected: Wire(WireError::Malformed("trailing bytes")),
        },
        Case {
            name: "req_hello_unknown_strategy_tag",
            direction: Req,
            bytes: frame(&[head(1, 1), 7, 99, 0], &[]),
            expected: Wire(WireError::Malformed("unknown strategy tag")),
        },
        Case {
            name: "req_hello_pyramid_height_zero",
            direction: Req,
            bytes: frame(&[head(1, 1), 7, 1, 0], &[]),
            expected: Wire(WireError::Malformed("pyramid height out of range")),
        },
        Case {
            name: "req_hello_pyramid_height_huge",
            direction: Req,
            bytes: frame(&[head(1, 1), 7, 1, 17], &[]),
            expected: Wire(WireError::Malformed("pyramid height out of range")),
        },
        Case {
            name: "req_install_truncated_rect",
            direction: Req,
            bytes: frame(&[head(4, 3), 42, 0, 10, 20], &[]),
            expected: Wire(WireError::Truncated),
        },
        Case {
            name: "req_batch_count_mismatch",
            direction: Req,
            // Claims two 20-byte entries, carries one.
            bytes: frame(&[head(8, 1), 2, 5, 1, 10, 20, 0], &[]),
            expected: Wire(WireError::Malformed("batch length mismatch")),
        },
        Case {
            name: "req_batch_entry_seq_overflow",
            direction: Req,
            bytes: frame(&[head(8, 1), 1, 5, u32::MAX, 10, 20, 0], &[]),
            expected: Wire(WireError::Malformed("entry sequence overflows 28 bits")),
        },
        Case {
            name: "resp_short_head_truncated",
            direction: Resp,
            bytes: vec![0xFF, 0xFF, 0xFF],
            expected: Wire(WireError::Truncated),
        },
        Case {
            name: "resp_unknown_type",
            direction: Resp,
            bytes: frame(&[head(6, 0)], &[]),
            expected: Wire(WireError::UnknownType(6)),
        },
        Case {
            name: "resp_trailing_bytes",
            direction: Resp,
            bytes: frame(&[head(8, 1)], &[0xBB]),
            expected: Wire(WireError::Malformed("trailing bytes")),
        },
        Case {
            name: "resp_bitmap_byte_len_mismatch",
            direction: Resp,
            // Claims 64 bits (8 bytes), carries 4.
            bytes: frame(&[head(10, 2), 0, 64, 0xDEAD_BEEF], &[]),
            expected: Wire(WireError::Malformed("bitmap byte length mismatch")),
        },
        Case {
            name: "resp_push_len_mismatch",
            direction: Resp,
            // Claims three 20-byte pushed alarms, carries one.
            bytes: frame(&[head(11, 2), 0, 3, 1, 0, 0, 10, 10], &[]),
            expected: Wire(WireError::Malformed("alarm push length mismatch")),
        },
        Case {
            name: "resp_stats_byte_len_mismatch",
            direction: Resp,
            bytes: frame(&[head(7, 1), 5], b"ok"),
            expected: Wire(WireError::Malformed("stats byte length mismatch")),
        },
        Case {
            name: "resp_stats_not_utf8",
            direction: Resp,
            bytes: frame(&[head(7, 1), 2], &[0xFF, 0xFE]),
            expected: Wire(WireError::Malformed("stats text is not utf-8")),
        },
        Case {
            name: "resp_batch_nested_batch",
            direction: Resp,
            // One group whose single nested response is itself a
            // well-formed (empty) batch — rejected by the nesting check,
            // not by the nested decode.
            bytes: frame(&[head(2, 1), 1, 77, 1, 8, head(2, 0), 0], &[]),
            expected: Wire(WireError::Malformed("batches do not nest")),
        },
        Case {
            name: "resp_batch_inner_truncated",
            direction: Resp,
            // Nested length claims 64 bytes; none follow.
            bytes: frame(&[head(2, 1), 1, 77, 1, 64], &[]),
            expected: Wire(WireError::Truncated),
        },
        Case {
            name: "resp_batch_oversized_alloc",
            direction: Resp,
            // A hostile group count (u32::MAX) with a tiny body: the
            // decoder must cap its pre-allocation and fail on the bytes,
            // not abort on an oversized Vec reservation.
            bytes: frame(&[head(2, 1), u32::MAX], &[]),
            expected: Wire(WireError::Truncated),
        },
        Case {
            name: "req_install_gapped_alarm_id",
            direction: Req,
            // A perfectly well-formed install frame whose alarm id (7)
            // skips ahead of the dense id sequence (an empty server
            // expects 0). Used to panic the router thread via the index's
            // dense-id assertion; must answer `Error { UNKNOWN_ALARM }`.
            // Rect words are Q16.16 metres: a valid 100 m square.
            bytes: frame(
                &[head(4, 3), 7, 1, 100 << 16, 100 << 16, 200 << 16, 200 << 16],
                &[],
            ),
            expected: ServerError { code: error_code::UNKNOWN_ALARM },
        },
        Case {
            name: "req_trigger_notify_unknown_alarm",
            direction: Req,
            // A well-formed OPT trigger notification for an alarm id the
            // index never issued (the live server has none installed).
            // Used to be recorded and counted — a client looping over
            // ids grew the fired table without bound; must answer
            // `Error { UNKNOWN_ALARM }` and record nothing.
            bytes: frame(&[head(3, 2), 0xDEAD_BEEF], &[]),
            expected: ServerError { code: error_code::UNKNOWN_ALARM },
        },
        Case {
            name: "net_oversized_frame_live",
            direction: Direction::Socket,
            // A length prefix one past MAX_FRAME_LEN on an otherwise
            // clean connection: the framing layer must refuse before
            // buffering a single body byte.
            bytes: (sa_server::wire::MAX_FRAME_LEN as u32 + 1).to_be_bytes().to_vec(),
            expected: ReactorClose { reason: "protocol" },
        },
        Case {
            name: "net_garbage_preamble",
            direction: Direction::Socket,
            // Not a protocol stream at all (say, an HTTP client dialed
            // the wrong port). The first 4 bytes read as a ~1.2 GB
            // length prefix; same guard, zero bytes buffered.
            bytes: b"GET / HTTP/1.1\r\n\r\n".to_vec(),
            expected: ReactorClose { reason: "protocol" },
        },
        Case {
            name: "net_slow_loris_half_frame",
            direction: Direction::Socket,
            // A plausible 64-byte frame that never finishes: 4-byte
            // prefix plus three body bytes, then silence. The reaper
            // must attribute the close to the frame deadline, timed
            // from the frame's FIRST byte.
            bytes: {
                let mut b = 64u32.to_be_bytes().to_vec();
                b.extend_from_slice(&[1, 2, 3]);
                b
            },
            expected: ReactorClose { reason: "slow_loris" },
        },
    ]
}

/// A minimal live server with no alarms plus one Hello'd session, for
/// the `ServerError` corpus cases.
fn live_server() -> (std::sync::Arc<Server>, u32) {
    let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap();
    let grid = Grid::new(universe, 1_000.0).unwrap();
    let server = Server::start(grid, Vec::new(), 20.0, ServerConfig::default());
    let session = server.open_session();
    let hello =
        Request::Hello { seq: 1, user: 0, strategy: StrategySpec::Mwpsr };
    let responses = server.handle(session, hello);
    assert!(
        !responses.iter().any(|r| matches!(r, Response::Error { .. })),
        "hello must succeed: {responses:?}"
    );
    (server, session)
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus")
}

/// Writes one socket-tier corpus case to a live reactor and returns the
/// `sa_net_closed_total{reason}` counter once any close is recorded (or
/// the deadline passes). A fresh server+reactor per case keeps the
/// counters attributable.
fn reactor_close_reason_for(bytes: &[u8], reason: &str) -> Option<u64> {
    let (server, _) = live_server();
    let cfg = ReactorConfig {
        workers: 1,
        // Short deadline so the slow-loris case resolves quickly; the
        // oversized/garbage cases close on the first readiness pass.
        frame_deadline: Duration::from_millis(100),
        idle_timeout: Duration::from_secs(30),
        ..ReactorConfig::default()
    };
    let reactor = Reactor::bind(std::sync::Arc::clone(&server), cfg).expect("bind the reactor");
    let mut sock = std::net::TcpStream::connect(reactor.addr()).expect("dial the reactor");
    sock.write_all(bytes).expect("write the corpus bytes");
    sock.flush().expect("flush the corpus bytes");

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let count = loop {
        let snap = server.registry().snapshot();
        let total: u64 = ["eof", "io", "protocol", "idle", "slow_loris", "shutdown"]
            .iter()
            .filter_map(|r| snap.counter("sa_net_closed_total", &[("reason", r)]))
            .sum();
        if total > 0 || std::time::Instant::now() >= deadline {
            break snap.counter("sa_net_closed_total", &[("reason", reason)]);
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    drop(sock);
    drop(reactor);
    count
}

#[test]
fn every_corpus_frame_is_rejected_with_its_named_error() {
    for case in corpus() {
        match case.expected {
            Expected::Wire(ref want) => {
                let result = match case.direction {
                    Direction::Request => Request::decode(&case.bytes).map(|_| "request"),
                    Direction::Response => Response::decode(&case.bytes).map(|_| "response"),
                    Direction::Socket => panic!("socket cases expect ReactorClose"),
                };
                assert_eq!(
                    result,
                    Err(want.clone()),
                    "corpus case {} must be rejected with exactly its named error",
                    case.name
                );
            }
            Expected::ServerError { code } => {
                assert_eq!(case.direction, Direction::Request, "server cases are requests");
                let req = Request::decode(&case.bytes).unwrap_or_else(|e| {
                    panic!("corpus case {} must decode cleanly, got {e:?}", case.name)
                });
                let (server, session) = live_server();
                let responses = server.handle(session, req);
                let [Response::Error { code: got, .. }] = responses.as_slice() else {
                    panic!(
                        "corpus case {} must yield exactly one error response, got {responses:?}",
                        case.name
                    );
                };
                assert_eq!(
                    *got, code,
                    "corpus case {} answered the wrong error code",
                    case.name
                );
            }
            Expected::ReactorClose { reason } => {
                assert_eq!(case.direction, Direction::Socket, "reactor cases are socket-tier");
                assert_eq!(
                    reactor_close_reason_for(&case.bytes, reason),
                    Some(1),
                    "corpus case {} must close the connection as {reason:?}",
                    case.name
                );
            }
        }
    }
}

#[test]
fn corpus_directory_matches_the_table() {
    let dir = corpus_dir();
    let table = corpus();
    for case in &table {
        let path = dir.join(format!("{}.bin", case.name));
        let on_disk = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "corpus file {} missing ({e}); regenerate with \
                 `cargo test -p sa-server --test wire_corpus -- --ignored`",
                path.display()
            )
        });
        assert_eq!(
            on_disk, case.bytes,
            "corpus file {} drifted from the table; regenerate it",
            case.name
        );
    }
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus directory must exist")
        .map(|e| e.expect("readable entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".bin"))
        .collect();
    on_disk.sort();
    let mut named: Vec<String> = table.iter().map(|c| format!("{}.bin", c.name)).collect();
    named.sort();
    assert_eq!(on_disk, named, "every corpus file needs a table entry and vice versa");
}

/// Rewrites `tests/corpus/` from the table. Run explicitly with
/// `cargo test -p sa-server --test wire_corpus -- --ignored`.
#[test]
#[ignore = "regenerates the committed corpus directory"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("creating the corpus directory");
    for case in corpus() {
        std::fs::write(dir.join(format!("{}.bin", case.name)), &case.bytes)
            .expect("writing a corpus frame");
    }
}
