//! Per-connection protocol machinery for the readiness-driven TCP
//! front end ([`crate::reactor`]).
//!
//! A `read()` hands over whatever bytes the kernel has — half a length
//! prefix, three frames and a tail, anything. This module holds the
//! incremental state machines one connection needs, kept separate from
//! the event loop so they are unit- and property-testable without a
//! socket. The blocking client endpoint ([`crate::transport::TcpTransport`])
//! reassembles its responses through the same [`FrameReader`]:
//!
//! * [`FrameReader`] — reassembles length-prefixed frames from
//!   arbitrarily split byte chunks, enforcing
//!   [`crate::wire::MAX_FRAME_LEN`] *before* buffering a hostile body
//!   and timestamping half-frames so the reactor can reap slow-loris
//!   connections that trickle a prefix and then stall.
//! * [`WriteQueue`] — a bounded outbound frame queue with partial-write
//!   resumption. The bound is a high watermark, not a drop threshold:
//!   the protocol forbids dropping response frames mid-sequence, so the
//!   reactor instead stops *reading* from a connection whose queue is
//!   above watermark and lets TCP push the backpressure to the client.
//! * [`AdmissionConfig`] — when the reactor admits a new session at
//!   full quality and when it degrades it to coarser safe regions
//!   (lower PBSR pyramid height). Overload never refuses a Hello; it
//!   only cheapens the regions the session will be granted, counted by
//!   `sa_net_degraded_admissions_total`.

use crate::wire::MAX_FRAME_LEN;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::time::Duration;

/// A fatal framing violation on the byte stream: the connection must be
/// closed (there is no way to resynchronize a corrupt length-prefixed
/// stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix claims more than [`MAX_FRAME_LEN`] bytes —
    /// rejected before any body byte is buffered, so a hostile prefix
    /// cannot balloon server memory.
    Oversized {
        /// The declared body length.
        declared: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared } => {
                write!(f, "frame length {declared} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental reassembly of `u32-length-prefix + body` frames from a
/// nonblocking byte stream.
///
/// Mirrors [`crate::wire::read_frame`] exactly — same prefix, same
/// length cap — but consumes bytes as they arrive instead of blocking,
/// so it is driven from a readiness loop. The `wire_props` suite pins
/// the two against each other: any split of a valid frame stream across
/// `push` calls must reassemble to the same frames the blocking reader
/// yields.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// When the first byte of the currently pending (incomplete) frame
    /// arrived, for the reactor's slow-loris deadline. `None` when the
    /// buffer holds no partial frame.
    partial_since_ns: Option<u64>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends freshly read bytes. `now_ns` timestamps the start of a
    /// partial frame (used by [`FrameReader::stalled`]); trickled bytes
    /// do **not** refresh the deadline — a slow-loris client feeding
    /// one byte per tick still times out from the frame's first byte.
    pub fn push(&mut self, bytes: &[u8], now_ns: u64) {
        if bytes.is_empty() {
            return;
        }
        if self.buf.is_empty() {
            self.partial_since_ns = Some(now_ns);
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame body, if one is buffered.
    ///
    /// `now_ns` restarts the slow-loris deadline for whatever partial
    /// frame the drained bytes leave behind: extracting a whole frame is
    /// progress, so a pipelining client whose buffer never fully drains
    /// is not reaped as stalled (only trickled bytes *within* one frame
    /// leave the deadline untouched).
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the pending length prefix exceeds
    /// [`MAX_FRAME_LEN`]; the stream is unrecoverable from here.
    pub fn next_frame(&mut self, now_ns: u64) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
            as usize;
        if declared > MAX_FRAME_LEN {
            return Err(FrameError::Oversized { declared });
        }
        if self.buf.len() < 4 + declared {
            return Ok(None);
        }
        let body = self.buf[4..4 + declared].to_vec();
        self.buf.drain(..4 + declared);
        if self.buf.is_empty() {
            self.partial_since_ns = None;
        } else {
            // The leftover bytes start the next frame; its deadline
            // clock starts now (they just made progress).
            self.partial_since_ns = Some(now_ns);
        }
        Ok(body.into())
    }

    /// Whether a partial frame is pending (bytes buffered but no
    /// complete frame extractable).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Whether the pending partial frame has been incomplete for longer
    /// than `deadline` — the slow-loris reap condition.
    pub fn stalled(&self, now_ns: u64, deadline: Duration) -> bool {
        match self.partial_since_ns {
            Some(since) => now_ns.saturating_sub(since) > deadline.as_nanos() as u64,
            None => false,
        }
    }

    /// Bytes currently buffered (partial-frame backlog).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// A bounded outbound frame queue with partial-write resumption.
///
/// Frames are whole wire frames (prefix + body) and are never dropped
/// or reordered once pushed — the response-sequence protocol (zero or
/// more deliveries, one terminal) would be corrupted by a gap. The
/// bound is advisory: [`WriteQueue::over_watermark`] tells the reactor
/// to stop *reading* from this connection until the queue drains, which
/// bounds total buffering at watermark + one request's responses.
#[derive(Debug)]
pub struct WriteQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of `frames.front()` already written to the socket.
    head_written: usize,
    queued_bytes: usize,
    high_watermark: usize,
}

impl WriteQueue {
    /// An empty queue that reports [`WriteQueue::over_watermark`] above
    /// `high_watermark` queued bytes.
    pub fn new(high_watermark: usize) -> WriteQueue {
        WriteQueue {
            frames: VecDeque::new(),
            head_written: 0,
            queued_bytes: 0,
            high_watermark,
        }
    }

    /// Enqueues one whole wire frame (never dropped once accepted).
    pub fn push_frame(&mut self, frame: Vec<u8>) {
        self.queued_bytes += frame.len();
        self.frames.push_back(frame);
    }

    /// Writes as much queued data as the sink accepts right now.
    /// Returns the bytes written; `WouldBlock` is progress-zero, not an
    /// error.
    ///
    /// # Errors
    ///
    /// Propagates any sink error other than `WouldBlock` /
    /// `Interrupted` — the connection is dead.
    pub fn write_some(&mut self, sink: &mut impl Write) -> io::Result<usize> {
        let mut written = 0usize;
        while let Some(head) = self.frames.front() {
            match sink.write(&head[self.head_written..]) {
                Ok(0) => break,
                Ok(n) => {
                    written += n;
                    self.queued_bytes -= n;
                    self.head_written += n;
                    if self.head_written == head.len() {
                        self.frames.pop_front();
                        self.head_written = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// True when the backlog exceeds the high watermark — the reactor's
    /// read-throttle condition.
    pub fn over_watermark(&self) -> bool {
        self.queued_bytes > self.high_watermark
    }
}

/// Connection admission control: under overload, new sessions are
/// **degraded to coarser safe regions instead of dropped**. Coarser
/// regions are cheaper for the server to compute (fewer pyramid levels
/// of geometry probes) at the price of more uplinks from that client —
/// the load-shedding direction the paper's accuracy requirement
/// permits, since a coarser region is still sound (no unfired relevant
/// alarm intersects it). The signal is the open-connection count, read
/// when a `Hello` arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Sessions admitted while more than this many connections are open
    /// are degraded.
    pub soft_session_cap: usize,
    /// The PBSR pyramid-height cap applied to degraded sessions; their
    /// safe regions are computed at `min(requested, cap)` levels and
    /// re-encoded at the requested height (see `DESIGN.md` S18).
    pub degraded_pbsr_height: u32,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig { soft_session_cap: 1024, degraded_pbsr_height: 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{frame, Request};

    fn wire_frame(req: &Request) -> Vec<u8> {
        frame(&req.encode()).to_vec()
    }

    #[test]
    fn frames_split_anywhere_reassemble() {
        let a = Request::Bye { seq: 1 };
        let b = Request::Stats { seq: 2 };
        let mut stream = wire_frame(&a);
        stream.extend_from_slice(&wire_frame(&b));
        // Feed one byte at a time: the worst split.
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for (i, byte) in stream.iter().enumerate() {
            reader.push(std::slice::from_ref(byte), i as u64);
            while let Some(body) = reader.next_frame(i as u64).unwrap() {
                frames.push(body);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(Request::decode(&frames[0]).unwrap(), a);
        assert_eq!(Request::decode(&frames[1]).unwrap(), b);
        assert!(!reader.has_partial());
    }

    #[test]
    fn two_frames_in_one_push_both_extract() {
        let a = Request::Bye { seq: 1 };
        let b = Request::Bye { seq: 2 };
        let mut stream = wire_frame(&a);
        stream.extend_from_slice(&wire_frame(&b));
        let mut reader = FrameReader::new();
        reader.push(&stream, 0);
        assert_eq!(Request::decode(&reader.next_frame(0).unwrap().unwrap()).unwrap(), a);
        assert_eq!(Request::decode(&reader.next_frame(0).unwrap().unwrap()).unwrap(), b);
        assert!(reader.next_frame(0).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_buffering_a_body() {
        let mut reader = FrameReader::new();
        let declared = (MAX_FRAME_LEN + 1) as u32;
        reader.push(&declared.to_be_bytes(), 0);
        assert_eq!(
            reader.next_frame(0),
            Err(FrameError::Oversized { declared: MAX_FRAME_LEN + 1 })
        );
        // Only the 4 prefix bytes were ever held.
        assert_eq!(reader.buffered(), 4);
    }

    #[test]
    fn max_len_frame_is_accepted() {
        let mut stream = (MAX_FRAME_LEN as u32).to_be_bytes().to_vec();
        stream.extend(std::iter::repeat_n(0u8, MAX_FRAME_LEN));
        let mut reader = FrameReader::new();
        reader.push(&stream, 0);
        let body = reader.next_frame(0).unwrap().unwrap();
        assert_eq!(body.len(), MAX_FRAME_LEN);
    }

    #[test]
    fn slow_loris_half_frame_stalls_from_its_first_byte() {
        let deadline = Duration::from_millis(100);
        let mut reader = FrameReader::new();
        // Prefix claims 16 bytes; only 3 ever arrive, trickled.
        reader.push(&16u32.to_be_bytes(), 1_000);
        reader.push(&[1], 50_000_000);
        reader.push(&[2, 3], 90_000_000);
        assert!(reader.has_partial());
        assert!(!reader.stalled(90_000_000, deadline), "deadline not yet passed");
        // 150 ms after the FIRST byte: stalled, even though the last
        // trickle was recent — that is what defeats a slow loris.
        assert!(reader.stalled(150_000_000, deadline));
        // A completed frame clears the stall state.
        let mut ok = FrameReader::new();
        ok.push(&wire_frame(&Request::Bye { seq: 1 }), 1_000);
        assert!(ok.next_frame(2_000).unwrap().is_some());
        assert!(!ok.stalled(u64::MAX, deadline));
    }

    #[test]
    fn pipelined_frames_restart_the_deadline_on_each_extraction() {
        let deadline = Duration::from_millis(100);
        let frame_a = wire_frame(&Request::Bye { seq: 1 });
        let frame_b = wire_frame(&Request::Stats { seq: 2 });
        // Both frames plus the start of a third arrive in one read: the
        // buffer never fully drains, as under a fast pipelining client.
        let mut stream = frame_a;
        stream.extend_from_slice(&frame_b);
        stream.extend_from_slice(&3u32.to_be_bytes());
        let mut reader = FrameReader::new();
        reader.push(&stream, 1_000);
        // Extract frame A much later; the leftover's clock must restart
        // at the extraction time, not keep the original push timestamp —
        // otherwise a healthy pipelining connection is reaped as a slow
        // loris once the deadline passes its FIRST byte.
        let extracted_ns = 200_000_000;
        assert!(reader.next_frame(extracted_ns).unwrap().is_some());
        assert!(reader.has_partial());
        assert!(!reader.stalled(extracted_ns + 1, deadline), "clock restarted on progress");
        assert!(reader.next_frame(extracted_ns + 10).unwrap().is_some());
        assert!(!reader.stalled(extracted_ns + 20, deadline));
        // But the pending half-frame still times out from its restart.
        assert!(reader.stalled(extracted_ns + 10 + 100_000_001, deadline));
    }

    /// A sink that accepts at most `cap` bytes per write call.
    struct Dribble {
        cap: usize,
        accepted: Vec<u8>,
        calls_until_block: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls_until_block == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.calls_until_block -= 1;
            let n = buf.len().min(self.cap);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_resumes_partial_writes_across_calls() {
        let mut q = WriteQueue::new(1 << 20);
        let f1 = wire_frame(&Request::Stats { seq: 1 });
        let f2 = wire_frame(&Request::Bye { seq: 2 });
        q.push_frame(f1.clone());
        q.push_frame(f2.clone());
        let total = f1.len() + f2.len();
        assert_eq!(q.queued_bytes(), total);

        let mut sink = Dribble { cap: 3, accepted: Vec::new(), calls_until_block: 2 };
        let n = q.write_some(&mut sink).unwrap();
        assert_eq!(n, 6, "two dribble calls of 3 bytes");
        assert_eq!(q.queued_bytes(), total - 6);
        assert!(!q.is_empty());

        // Keep draining until empty; bytes must concatenate exactly.
        loop {
            sink.calls_until_block = usize::MAX;
            q.write_some(&mut sink).unwrap();
            if q.is_empty() {
                break;
            }
        }
        let mut want = f1;
        want.extend_from_slice(&f2);
        assert_eq!(sink.accepted, want);
        assert_eq!(q.queued_bytes(), 0);
    }

    #[test]
    fn write_queue_watermark_trips_and_clears() {
        let mut q = WriteQueue::new(8);
        assert!(!q.over_watermark());
        q.push_frame(vec![0u8; 9]);
        assert!(q.over_watermark());
        let mut sink = Dribble { cap: 64, accepted: Vec::new(), calls_until_block: usize::MAX };
        q.write_some(&mut sink).unwrap();
        assert!(!q.over_watermark());
        assert!(q.is_empty());
    }

    #[test]
    fn write_queue_propagates_hard_errors() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut q = WriteQueue::new(8);
        q.push_frame(vec![1, 2, 3]);
        assert_eq!(q.write_some(&mut Dead).unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn zero_length_frame_yields_an_empty_body() {
        // A zero-length frame is framing-valid; the decoder rejects the
        // empty body (Truncated), which closes the connection one layer
        // up — the framing layer itself must not wedge on it.
        let mut reader = FrameReader::new();
        reader.push(&0u32.to_be_bytes(), 0);
        assert_eq!(reader.next_frame(0).unwrap(), Some(Vec::new()));
        assert!(!reader.has_partial());
    }

    #[test]
    fn frame_error_displays_the_cap() {
        let msg = FrameError::Oversized { declared: 1 << 30 }.to_string();
        assert!(msg.contains("exceeds"), "{msg}");
    }
}
