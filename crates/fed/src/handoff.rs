//! The inter-server session-migration channel.
//!
//! A handoff moves one session's state — strategy, last cell, delivery
//! log and fired set — from the member that served the vehicle so far
//! to the member owning its new cell. The protocol is three exchanges,
//! each **idempotent**, so any leg can be retried after a transient
//! fault without corrupting either side:
//!
//! 1. `HandoffExport` — a read-only snapshot from the old owner. A
//!    `NO_SESSION` error means a previous (partially observed) attempt
//!    already released the session: the move is done, skip ahead.
//! 2. `HandoffImport` — overwrite-install the snapshot at the new
//!    owner and union its fired pairs. Replaying the same import
//!    re-installs the same state.
//! 3. `HandoffRelease` — drop the session at the old owner. Always
//!    acknowledged; releasing an absent session is a no-op. The fired
//!    pairs stay behind on purpose — they can only *suppress* future
//!    firings, never add one, and a vehicle that crosses back re-imports
//!    over them.
//!
//! Soundness under the safe-region invariant: the safe region the old
//! owner installed stays valid throughout — the client stays silent
//! inside it regardless of which member owns the cell — so no firing
//! can be missed while the session is in flight. A handoff that fails
//! mid-way leaves ownership unchanged at the router; the client's
//! resilience machinery retries the update, which re-enters the (still
//! idempotent) migration.

use sa_server::wire::{Request, Response, TraceCtxExt, SEQ_MASK};
use sa_server::{SharedClock, Transport, TransportError};
use std::time::Duration;

/// Transient-failure retries per handoff leg before the migration is
/// abandoned (and left to the client's retry machinery to re-enter).
const MESH_RETRIES: u32 = 8;

/// Flat backoff between mesh retries — the mesh is server-to-server,
/// so a short fixed pause (virtual under a test clock) suffices.
const MESH_RETRY_PAUSE: Duration = Duration::from_micros(200);

/// `NO_SESSION` as encoded by the server's error responses.
const NO_SESSION: u32 = 1;

/// One client's mesh: an admin link to every federation member, used
/// exclusively for session migration.
pub struct HandoffChannel {
    links: Vec<Box<dyn Transport + Send>>,
    clock: SharedClock,
    seq: u32,
    handoffs: u64,
}

impl HandoffChannel {
    /// Builds a channel over per-member admin links (index = federation
    /// id). Wrap the links in
    /// [`FaultyTransport`](sa_server::FaultyTransport) to chaos-test
    /// the handoff path.
    pub fn new(links: Vec<Box<dyn Transport + Send>>, clock: SharedClock) -> HandoffChannel {
        HandoffChannel { links, clock, seq: 0, handoffs: 0 }
    }

    /// Completed migrations (export → import observed through).
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Migrates `from_session` on member `from` to `to_session` on
    /// member `to`. Returns `true` when state actually moved, `false`
    /// when the old owner no longer held the session (a previous
    /// attempt already completed).
    ///
    /// # Errors
    ///
    /// Fails when a leg stays transiently broken past the retry budget
    /// or a member answers outside the protocol. On error, ownership
    /// must be left unchanged by the caller: re-entering `migrate`
    /// later is safe.
    pub fn migrate(
        &mut self,
        from: usize,
        from_session: u32,
        to: usize,
        to_session: u32,
    ) -> Result<bool, TransportError> {
        self.migrate_traced(from, from_session, to, to_session, TraceCtxExt::default())
    }

    /// [`HandoffChannel::migrate`] carrying an explicit trace context:
    /// both owners record their handoff-leg spans under
    /// `trace.parent_span`, so the legs appear inside the routed
    /// request's causal tree. The legs stay byte-compatible with an
    /// untraced peer (a zero context decodes as "untraced").
    ///
    /// # Errors
    ///
    /// As [`HandoffChannel::migrate`].
    pub fn migrate_traced(
        &mut self,
        from: usize,
        from_session: u32,
        to: usize,
        to_session: u32,
        trace: TraceCtxExt,
    ) -> Result<bool, TransportError> {
        let seq = self.next_seq();
        let state = match self
            .retry(from, Request::HandoffExport { seq, session: from_session, trace })?
        {
            ExchangeOutcome::State(state) => state,
            ExchangeOutcome::NoSession => return Ok(false),
            ExchangeOutcome::Ack => {
                return Err(TransportError::Protocol("export answered with a bare ack"))
            }
        };
        let seq = self.next_seq();
        match self.retry(to, Request::HandoffImport { seq, session: to_session, state, trace })? {
            ExchangeOutcome::Ack => {}
            _ => return Err(TransportError::Protocol("import was not acknowledged")),
        }
        // Best-effort: a release that stays unreachable leaves a stale
        // session behind, which is harmless — no further updates route
        // there, and a return crossing overwrite-imports on top of it.
        let seq = self.next_seq();
        let _ = self.retry(from, Request::HandoffRelease { seq, session: from_session, trace });
        self.handoffs += 1;
        Ok(true)
    }

    /// One leg with bounded transient retries on the shared clock.
    fn retry(&mut self, member: usize, req: Request) -> Result<ExchangeOutcome, TransportError> {
        let mut last = TransportError::TimedOut;
        for attempt in 0..=MESH_RETRIES {
            if attempt > 0 {
                self.clock.sleep(MESH_RETRY_PAUSE);
            }
            match self.links[member].request(req.clone()) {
                Ok(resps) => return classify(resps),
                Err(e) if e.is_transient() => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    fn next_seq(&mut self) -> u32 {
        self.seq = (self.seq + 1) & SEQ_MASK;
        self.seq
    }
}

/// The protocol-level outcomes a handoff leg can produce.
enum ExchangeOutcome {
    Ack,
    State(sa_server::wire::SessionState),
    NoSession,
}

fn classify(resps: Vec<Response>) -> Result<ExchangeOutcome, TransportError> {
    match resps.into_iter().next_back() {
        Some(Response::Ack { .. }) => Ok(ExchangeOutcome::Ack),
        Some(Response::SessionState { state, .. }) => Ok(ExchangeOutcome::State(state)),
        Some(Response::Error { code, .. }) if code == NO_SESSION => Ok(ExchangeOutcome::NoSession),
        Some(Response::Error { .. }) => {
            Err(TransportError::Protocol("member rejected a handoff exchange"))
        }
        _ => Err(TransportError::Protocol("malformed handoff reply")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_geometry::{Grid, Rect};
    use sa_server::wire::StrategySpec;
    use sa_server::{FaultLeg, FaultPlan, FaultyTransport, InProcTransport, Server, VirtualClock};
    use std::sync::Arc;

    fn pair() -> (Arc<Server>, Arc<Server>, SharedClock) {
        let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
        let grid = Grid::new(universe, 1_000.0).unwrap();
        let clock: SharedClock = Arc::new(VirtualClock::new());
        let a = Server::start_with_clock(grid.clone(), Vec::new(), 30.0, Arc::clone(&clock));
        let b = Server::start_with_clock(grid, Vec::new(), 30.0, Arc::clone(&clock));
        (a, b, clock)
    }

    fn hello(t: &mut dyn Transport, seq: u32, user: u32) {
        let resps =
            t.request(Request::Hello { seq, user, strategy: StrategySpec::Mwpsr }).unwrap();
        assert!(matches!(resps.as_slice(), [Response::Ack { .. }]));
    }

    #[test]
    fn migrate_moves_a_session_and_is_idempotent() {
        let (a, b, clock) = pair();
        let mut ta = InProcTransport::connect(Arc::clone(&a));
        let tb = InProcTransport::connect(Arc::clone(&b));
        let (sa, sb) = (ta.session(), tb.session());
        hello(&mut ta, 1, 7);
        let links: Vec<Box<dyn Transport + Send>> = vec![
            Box::new(InProcTransport::connect(Arc::clone(&a))),
            Box::new(InProcTransport::connect(Arc::clone(&b))),
        ];
        let mut mesh = HandoffChannel::new(links, clock);
        assert!(mesh.migrate(0, sa, 1, sb).unwrap(), "first migrate must move state");
        assert_eq!(mesh.handoffs(), 1);
        // Re-entering after completion observes the released session.
        assert!(!mesh.migrate(0, sa, 1, sb).unwrap(), "re-run must see it already moved");
    }

    #[test]
    fn migrate_survives_a_lossy_mesh() {
        let (a, b, clock) = pair();
        let mut ta = InProcTransport::connect(Arc::clone(&a));
        let tb = InProcTransport::connect(Arc::clone(&b));
        let (sa, sb) = (ta.session(), tb.session());
        hello(&mut ta, 1, 9);
        let plan = FaultPlan {
            seed: 42,
            up: FaultLeg { drop: 0.3, duplicate: 0.1, delay: 0.0, max_delay: Duration::ZERO },
            down: FaultLeg { drop: 0.3, duplicate: 0.0, delay: 0.0, max_delay: Duration::ZERO },
            disconnect_steps: Vec::new(),
        };
        let links: Vec<Box<dyn Transport + Send>> = [&a, &b]
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let faulty = FaultyTransport::new(
                    InProcTransport::connect(Arc::clone(s)),
                    plan.clone(),
                    i as u64,
                )
                .with_clock(Arc::clone(&clock));
                faulty.controls().set_armed(true);
                Box::new(faulty) as Box<dyn Transport + Send>
            })
            .collect();
        let mut mesh = HandoffChannel::new(links, clock);
        assert!(mesh.migrate(0, sa, 1, sb).unwrap(), "retries must ride out the loss");
    }
}
