//! `sa-benchmark` — the repository's benchmark.
//!
//! Four workloads drive the live alarm server as shipped; seven bounded
//! end-to-end metrics say what a user of the system would see, and a
//! per-layer ledger, taken entirely from outside the program, says
//! where the time goes. `BENCHMARK.json` at the repository root is the
//! contract; `README.md` beside this crate explains every number.
//!
//! The crate depends only on the narrow, long-lived public surface of
//! the workspace (listed in the README) and on none of its replay
//! drivers, so later changes can rewrite those without changing what
//! is measured.

#![warn(missing_docs)]

pub mod compare;
pub mod drive;
pub mod gen;
pub mod json;
pub mod probe;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
