//! sa-verify: deterministic differential verification of the spatial
//! alarm runtime.
//!
//! The crates below this one implement the safe-region algorithms of
//! Bamba et al., "Distributed Processing of Spatial Alarms: A Safe
//! Region-Based Approach" (ICDCS 2009), and a server runtime that
//! installs those regions over a wire protocol under injected faults.
//! This crate closes the loop with simulation testing in the
//! FoundationDB style:
//!
//! * **Determinism** — the server, transports and chaos machinery are
//!   driven off a [`sa_server::VirtualClock`] from a single thread, so
//!   an entire run (fleet, faults, batching, retries) is a pure
//!   function of one `u64` seed. [`Transcript`] records every byte
//!   that crossed the wire; equal seeds must produce byte-identical
//!   transcripts.
//! * **Brute-force oracles** — [`check_transcript`] replays a recorded
//!   run against exhaustive checkers: every installed safe region (all
//!   three algorithms) must avoid every unfired relevant alarm region,
//!   every alarm push must be complete, every safe period must be
//!   reachable-distance sound.
//! * **Fuzzing + minimization** — [`fuzz_schedule`] derives random
//!   fleet slices, fault plans, batch mixes and visit orders from a
//!   seed; on violation, [`shrink_case`] greedily reduces the case and
//!   [`reproducer`] renders it as a paste-ready `#[test]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fuzz;
mod harness;
mod minimize;
mod oracle;

pub use fuzz::{differential_seed, fuzz_differential, fuzz_schedule, FuzzFailure, FuzzReport};
pub use harness::{run_case, CaseOutcome, FuzzCase};
pub use minimize::{reproducer, shrink_case, shrink_elements, test_artifact};
pub use oracle::{check_transcript, strictly_inside, GEOMETRY_TOL_M};
pub use sa_server::transcript::{
    error_kind, RecordingTransport, SharedTranscript, Transcript, TranscriptEntry, DRIVER_TAG,
};
