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
//! * **Ground-truth replays** — [`replay`], [`replay_tcp`] and
//!   [`replay_batched_in_proc`] stream the simulator's trace through a
//!   live server and diff every firing against the ground truth. They
//!   and [`run_case`] share one step loop and one batched exchange, of
//!   which a standalone server is the one-member case.
//! * **Determinism** — [`run_case`], the workspace's one
//!   fault-injected replay, drives a federation of one or more servers
//!   (`sa-fed`; one member behaves as a standalone server), their
//!   transports and the chaos machinery off a
//!   [`sa_server::VirtualClock`] from a single thread, so an entire run
//!   (fleet, faults, batching, retries, handoffs, repartitions) is a
//!   pure function of one `u64` seed. [`Transcript`] records every byte
//!   that crossed any link; equal seeds must produce byte-identical
//!   transcripts.
//! * **Brute-force oracles** — [`check_transcript`] replays a recorded
//!   run against exhaustive checkers: every installed safe region (all
//!   three algorithms) must avoid every unfired relevant alarm region,
//!   every alarm push must be complete, every safe period must be
//!   reachable-distance sound — on every member of a federation.
//! * **Fuzzing + minimization** — [`fuzz_schedule`] derives random
//!   fleet slices, fault plans, batch mixes, federation sizes,
//!   repartition steps and visit orders from a seed; on violation,
//!   [`shrink_case`] greedily reduces the case and [`reproducer`]
//!   renders it as a paste-ready `#[test]`. [`federation_cases`] pins
//!   three federated cases that [`pinned_failure`] gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fuzz;
mod harness;
mod minimize;
mod oracle;
mod replay;
mod transcript;

pub use fuzz::{
    differential_seed, federation_cases, fuzz_differential, fuzz_schedule, pinned_failure,
    FuzzFailure, FuzzReport,
};
pub use harness::{run_case, CaseOutcome, FuzzCase};
pub use minimize::{reproducer, shrink_case, shrink_elements, test_artifact};
pub use oracle::{check_transcript, strictly_inside, GEOMETRY_TOL_M};
pub use replay::{
    quarter_us_per_update, replay, replay_batched_in_proc, replay_in_proc, replay_tcp,
    ReplayConfig, ReplayOutcome, StepCost,
};
pub use transcript::{Transcript, TranscriptEntry};
