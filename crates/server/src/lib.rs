//! sa-server: a concurrent safe-region service runtime.
//!
//! Where `sa-sim` *models* the client–server message exchange of
//! Bamba et al.'s safe-region strategies with abstract bit accounting,
//! this crate *runs* it: a real binary wire protocol ([`wire`]), a
//! server that answers each location update — alone or inside a batch
//! frame — on the thread that decoded it, reading one epoch-versioned
//! alarm index ([`server`]), an epoch-versioned cache of public
//! safe-region bitmaps ([`cache`]), two interchangeable transports —
//! in-process and TCP ([`transport`]) — one event-driven TCP front
//! end ([`reactor`], [`netfront`]), and client-side strategy mirrors
//! ([`client`]). Trace replays against the simulator's ground truth
//! live in `sa-verify`.
//!
//! Every layer is instrumented through `sa-obs`: one registry per server
//! holds the cache/router counters, the reactor's connection gauges, and
//! latency histograms (per-algorithm safe-region computation, cache
//! lookup, wire encode/decode, end-to-end update round trip),
//! scrapeable live over the wire with [`Request::Stats`] and rendered
//! as Prometheus text.
//!
//! The runtime is failure-aware end to end ([`chaos`]): transports can
//! be wrapped in a deterministic fault injector (drops, duplicates,
//! delays, disconnect windows), clients ride out transient failures
//! with capped jittered backoff and a documented degraded mode backed
//! by the safe-region invariant, and a [`wire::Request::Resync`]
//! exchange recovers lost trigger deliveries from the server's
//! per-session delivery log.
//!
//! All timing — router entry stamps, compute timers, injected chaos
//! delays, client backoff sleeps — goes through the [`clock::Clock`]
//! trait, so the `sa-verify` harness can substitute a
//! [`clock::VirtualClock`] and make an entire server+fleet+fault run
//! deterministic.
//!
//! The layering, bottom-up:
//!
//! ```text
//! chaos   ── FaultyTransport decorator + FaultPlan; sa-verify's replay
//!            driver arms it, and sa-fed's and this crate's tests wrap
//!            links in it
//! client  ── per-strategy mirrors (MWPSR / PBSR / OPT / safe-period)
//!            + retry → degraded → resync → steady resilience machine
//! transport ─ InProc | Tcp, both framing through the wire codec; Tcp
//!            re-dials and replays Hello after any failed exchange
//! reactor ── the one TCP server: per-worker epoll (poller), one
//!            edge-triggered registration per connection, FrameReader /
//!            WriteQueue (netfront), admission, deadline-sweep reaping
//! server  ── router + sessions + the one VersionedAlarmIndex;
//!            LocationUpdate and every Batch entry, in frame order →
//!            process_into on the caller's thread
//! striped ── the striped-lock map behind the session table and the
//!            per-subscriber fired lists (exactly-once state)
//! cache   ── (cell, height) → public bitmap, epoch-invalidated
//! wire    ── Request/Response codec, sizes == sa-sim payload constants
//! ```

#![warn(missing_docs)]
// The epoll binding in `poller` is the workspace's only non-test
// `unsafe`; everything else in the crate is held to the siblings'
// standard.
#![deny(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod clock;
mod striped;
pub mod netfront;
#[allow(unsafe_code)]
mod poller;
pub mod reactor;
pub mod server;
pub mod transport;
pub mod wire;

pub use cache::{CacheStats, RegionCache};
pub use chaos::{ChaosControls, FaultLeg, FaultPlan, FaultyTransport, InjectedCounts};
pub use client::{Backoff, Client, ClientStats, ResiliencePolicy};
pub use clock::{Clock, SharedClock, SystemClock, VirtualClock};
pub use netfront::{AdmissionConfig, FrameError, FrameReader, WriteQueue};
pub use reactor::{Reactor, ReactorConfig};
pub use sa_obs::TraceMode;
pub use server::{Server, ServerConfig};
pub use transport::{InProcTransport, TcpTransport, Transport, TransportError};
pub use wire::{
    quantize_rect, CellRange, Request, Response, SessionState, StrategySpec, WireError,
};
