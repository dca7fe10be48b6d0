//! Byte-level run transcripts.
//!
//! A [`RecordingTransport`] wraps any [`Transport`] and appends every
//! exchange — the encoded request body, and either the encoded response
//! bodies or the failure kind — to a shared [`Transcript`]. Because the
//! deterministic harness ([`crate::run_case`], the workspace's one
//! fault-injected replay, faulty links recorded like any other) drives
//! one virtual-clocked run from a single thread, the transcript is a
//! total order over every byte that crossed any link;
//! [`Transcript::digest`] folds it into one `u64`, and the determinism
//! gates assert that the same case always produces the same digest,
//! byte for byte.

use sa_server::{Request, Response, Transport, TransportError};
use std::sync::{Arc, Mutex};

/// One recorded exchange: who spoke, what was sent, what came back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// Connection tag: which link spoke. [`crate::run_case`] tags every
    /// link with a salt over (kind, client, member) — client, handoff
    /// mesh, coordinator or batch link — and its transcript oracle
    /// decodes the same layout.
    pub tag: u64,
    /// The encoded request body.
    pub request: Vec<u8>,
    /// The encoded response bodies in delivery order, or the failure
    /// kind when the exchange errored.
    pub outcome: Result<Vec<Vec<u8>>, &'static str>,
}

/// The ordered exchange log of one harness run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transcript {
    entries: Vec<TranscriptEntry>,
}

impl Transcript {
    /// An empty transcript.
    pub fn new() -> Transcript {
        Transcript::default()
    }

    /// The recorded exchanges, in wire order.
    pub fn entries(&self) -> &[TranscriptEntry] {
        &self.entries
    }

    /// Appends one exchange.
    pub fn push(&mut self, entry: TranscriptEntry) {
        self.entries.push(entry);
    }

    /// FNV-1a 64 over every byte of the transcript, with unambiguous
    /// separators between fields — two runs are byte-identical iff their
    /// digests (and entry counts) match, up to hash collisions the
    /// determinism tests additionally rule out by comparing the
    /// transcripts themselves.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for e in &self.entries {
            eat(&e.tag.to_be_bytes());
            eat(&(e.request.len() as u32).to_be_bytes());
            eat(&e.request);
            match &e.outcome {
                Ok(frames) => {
                    eat(&[1]);
                    eat(&(frames.len() as u32).to_be_bytes());
                    for f in frames {
                        eat(&(f.len() as u32).to_be_bytes());
                        eat(f);
                    }
                }
                Err(kind) => {
                    eat(&[0]);
                    eat(kind.as_bytes());
                }
            }
        }
        h
    }
}

/// A [`Transcript`] shared between the harness and its transports.
pub(crate) type SharedTranscript = Arc<Mutex<Transcript>>;

/// Maps a [`TransportError`] to the stable kind string recorded in the
/// transcript (the error payloads carry non-deterministic detail like OS
/// error text; the kind is what determinism is asserted over).
fn error_kind(e: &TransportError) -> &'static str {
    match e {
        TransportError::Io(_) => "io",
        TransportError::Wire(_) => "wire",
        TransportError::Closed => "closed",
        TransportError::TimedOut => "timed-out",
        TransportError::Protocol(_) => "protocol",
        // The owner/epoch payload is deterministic, but the kind string
        // keeps the digest stable if redirect bookkeeping ever changes.
        TransportError::WrongOwner { .. } => "wrong-owner",
    }
}

/// A [`Transport`] decorator that appends every exchange to a shared
/// [`Transcript`] and passes the result through untouched.
pub(crate) struct RecordingTransport<T: Transport> {
    inner: T,
    tag: u64,
    log: SharedTranscript,
}

impl<T: Transport> RecordingTransport<T> {
    /// Wraps `inner`, recording under `tag` into `log`.
    pub(crate) fn new(inner: T, tag: u64, log: SharedTranscript) -> RecordingTransport<T> {
        RecordingTransport { inner, tag, log }
    }
}

impl<T: Transport> Transport for RecordingTransport<T> {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        let request = req.encode().to_vec();
        let result = self.inner.request(req);
        let outcome = match &result {
            Ok(resps) => Ok(resps.iter().map(|r| r.encode().to_vec()).collect()),
            Err(e) => Err(error_kind(e)),
        };
        self.log
            .lock()
            .expect("transcript lock poisoned")
            .push(TranscriptEntry { tag: self.tag, request, outcome });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: u64, request: Vec<u8>, outcome: Result<Vec<Vec<u8>>, &'static str>) -> TranscriptEntry {
        TranscriptEntry { tag, request, outcome }
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let mut a = Transcript::new();
        a.push(entry(0, vec![1, 2, 3], Ok(vec![vec![4, 5]])));
        a.push(entry(1, vec![9], Err("timed-out")));
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.push(entry(2, vec![], Ok(vec![])));
        assert_ne!(a.digest(), b.digest());
        let mut c = Transcript::new();
        c.push(entry(0, vec![1, 2, 3], Ok(vec![vec![4], vec![5]])));
        c.push(entry(1, vec![9], Err("timed-out")));
        assert_ne!(a.digest(), c.digest(), "frame boundaries must be digested");
    }

    #[test]
    fn empty_and_error_outcomes_are_distinguished() {
        let mut ok = Transcript::new();
        ok.push(entry(0, vec![], Ok(vec![])));
        let mut err = Transcript::new();
        err.push(entry(0, vec![], Err("closed")));
        assert_ne!(ok.digest(), err.digest());
    }
}
