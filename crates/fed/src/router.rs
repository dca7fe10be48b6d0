//! The client-side federation router.
//!
//! [`FedTransport`] implements the plain [`Transport`] trait over a
//! whole federation, so every `sa-server` client strategy mirror — and the entire
//! retry/degraded/resync resilience machine — works against N members
//! unchanged. Routing policy:
//!
//! * `Hello`, `Bye`, alarm installs/removals — broadcast to every
//!   member (the alarm index is replicated; sessions must exist
//!   everywhere so an import always has a target id).
//! * `LocationUpdate` / `Resync` — routed to the owner of the
//!   position's cell under the router's cached [`PartitionMap`]. An
//!   ownership change first migrates the session over the
//!   [`HandoffChannel`], then sends.
//! * everything else (`TriggerNotify`, `Stats`, …) — follows the
//!   session: sent to the current owner.
//!
//! A `WrongOwner` bounce means the cached map is stale: the router
//! refreshes the topology *from the bouncing member* (which, having
//! bounced, must hold a newer epoch), migrates the session to the new
//! owner and re-sends — counting each bounce in
//! `sa_client_redirects_total`. Only when the redirect budget runs out
//! does the bounce escape as the non-transient
//! [`TransportError::WrongOwner`].

use crate::handoff::HandoffChannel;
use crate::topology::PartitionMap;
use sa_geometry::{Grid, Point};
use sa_obs::{
    client_root_span, trace_id_for, Counter, Registry, Span, SpanKind, SpanRecorder, TraceCtx,
};
use sa_server::wire::{dequantize_m, Request, Response, TraceCtxExt};
use sa_server::{Transport, TransportError};
use std::sync::Arc;

/// `WrongOwner` bounces tolerated per routed exchange before the
/// redirect escapes to the caller. Each bounce refreshes the map from a
/// member holding a strictly newer epoch, so a healthy federation
/// converges in one or two hops; the budget only guards against a
/// misbehaving member.
const REDIRECT_BUDGET: u32 = 8;

/// One client's router over all federation members.
pub struct FedTransport {
    links: Vec<Box<dyn Transport + Send>>,
    /// This client's session id on each member (index = federation id).
    sessions: Vec<u32>,
    mesh: HandoffChannel,
    map: PartitionMap,
    grid: Grid,
    /// The member currently holding this client's live session state;
    /// `None` until the first routed request places it.
    owner: Option<usize>,
    redirects: u64,
    meter: Option<Counter>,
    /// Client-side span recorder: records each routed update's
    /// [`SpanKind::ClientUpdate`] root and any [`SpanKind::RedirectHop`]
    /// bounces, on the same trace ids the members derive server-side.
    spans: Option<Arc<SpanRecorder>>,
}

impl FedTransport {
    /// Builds a router from per-member `(link, session_id)` pairs, the
    /// migration mesh, and the initial topology snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `links` is empty or the map has no ranges.
    pub fn new(
        links: Vec<(Box<dyn Transport + Send>, u32)>,
        mesh: HandoffChannel,
        grid: Grid,
        map: PartitionMap,
    ) -> FedTransport {
        assert!(!links.is_empty(), "a federation needs at least one member");
        assert!(!map.ranges.is_empty(), "the partition map must cover the key space");
        let (links, sessions) = links.into_iter().unzip();
        FedTransport {
            links,
            sessions,
            mesh,
            map,
            grid,
            owner: None,
            redirects: 0,
            meter: None,
            spans: None,
        }
    }

    /// Attaches a span recorder. Give the recorder a router
    /// pseudo-member id (e.g. `100 + vehicle`) so client-side spans are
    /// distinguishable from member spans in the merged timeline.
    pub fn set_spans(&mut self, spans: Arc<SpanRecorder>) {
        self.spans = Some(spans);
    }

    /// Registers `sa_client_redirects_total` on `registry` (the same
    /// series the client meter uses for bounces that escape routing).
    pub fn instrument(&mut self, registry: &Registry) {
        self.meter = Some(registry.counter("sa_client_redirects_total"));
    }

    /// The member currently serving this client, if placed.
    pub fn owner(&self) -> Option<usize> {
        self.owner
    }

    /// Completed session migrations.
    pub fn handoffs(&self) -> u64 {
        self.mesh.handoffs()
    }

    /// `WrongOwner` bounces absorbed by re-routing.
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// The epoch of the router's cached map.
    pub fn epoch(&self) -> u64 {
        self.map.epoch
    }

    /// This client's session id on member `id` — batch drivers need it
    /// to address `Request::Batch` entries.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn session_on(&self, id: usize) -> u32 {
        self.sessions[id]
    }

    /// Routes `pos`: ensures the owning member holds the session
    /// (migrating it if ownership changed) and returns that member.
    /// This is the batch driver's entry point — per-request routing
    /// calls it internally.
    ///
    /// # Errors
    ///
    /// Fails when the migration stays broken past its retry budget.
    pub fn route_for(&mut self, pos: Point) -> Result<usize, TransportError> {
        self.route_for_traced(pos, None)
    }

    /// [`FedTransport::route_for`], threading the routed request's
    /// sequence number so a migration's handoff legs join its trace.
    fn route_for_traced(&mut self, pos: Point, seq: Option<u32>) -> Result<usize, TransportError> {
        let key = self.grid.morton_of(self.grid.cell_of(pos));
        let desired = match self.map.owner_of(key) {
            Some(o) => o as usize,
            // A key outside the map degrades to wherever the session
            // lives — the member will answer or bounce with its view.
            None => self.owner.unwrap_or(0),
        };
        self.ensure_owner(desired, seq)?;
        Ok(self.owner.expect("ensure_owner places the session"))
    }

    /// Records a `WrongOwner` bounce observed outside the router (the
    /// batch driver sees them in reply groups) and refreshes the map
    /// from the bouncing member.
    ///
    /// # Errors
    ///
    /// Fails when the topology exchange itself fails.
    pub fn note_bounce(&mut self, member: usize, seq: u32) -> Result<(), TransportError> {
        self.count_redirect();
        self.refresh_topology(member, seq)
    }

    /// Pulls the member's current map and adopts it if strictly newer.
    fn refresh_topology(&mut self, member: usize, seq: u32) -> Result<(), TransportError> {
        let resps = self.links[member]
            .request(Request::Topology { seq, trace: TraceCtxExt::default() })?;
        match resps.into_iter().next_back() {
            Some(Response::Topology { epoch, ranges, .. }) => {
                if epoch > self.map.epoch {
                    self.map = PartitionMap { epoch, ranges };
                }
                Ok(())
            }
            _ => Err(TransportError::Protocol("topology request not answered with a map")),
        }
    }

    /// Moves the session to `desired` if it lives elsewhere. On error
    /// the owner is left unchanged, so re-entering is safe. When `seq`
    /// is known, the handoff legs carry the routed request's trace
    /// context (the trace the *destination* member will derive, since
    /// that is where the update lands after the migration).
    fn ensure_owner(&mut self, desired: usize, seq: Option<u32>) -> Result<(), TransportError> {
        match self.owner {
            // First placement: every member holds this client's fresh
            // `Hello` session and nothing has accumulated yet, so there
            // is no state to move.
            None => {
                self.owner = Some(desired);
                Ok(())
            }
            Some(current) if current == desired => Ok(()),
            Some(current) => {
                let ctx = match (seq, &self.spans) {
                    (Some(seq), Some(_)) => {
                        let trace = trace_id_for(self.sessions[desired], seq);
                        TraceCtxExt { trace_id: trace, parent_span: client_root_span(trace) }
                    }
                    _ => TraceCtxExt::default(),
                };
                self.mesh.migrate_traced(
                    current,
                    self.sessions[current],
                    desired,
                    self.sessions[desired],
                    ctx,
                )?;
                self.owner = Some(desired);
                Ok(())
            }
        }
    }

    fn count_redirect(&mut self) {
        self.redirects += 1;
        if let Some(m) = &self.meter {
            m.inc();
        }
    }

    /// Records the client-side root span of the exchange sent to
    /// `member` — its id is [`client_root_span`] of the trace the member
    /// derives, so the member's dispatch span parents under it with no
    /// wire bytes spent.
    fn record_root(&self, member: usize, seq: u32, start_us: u64) {
        let Some(spans) = &self.spans else { return };
        let trace = trace_id_for(self.sessions[member], seq);
        if !spans.enabled(trace) {
            return;
        }
        spans.record(
            0,
            Span {
                ctx: TraceCtx { trace_id: trace, span_id: client_root_span(trace), parent: 0 },
                kind: SpanKind::ClientUpdate,
                start_us,
                dur_us: spans.now_us().saturating_sub(start_us),
                member: spans.member(),
                shard: 0,
                a: u64::from(self.sessions[member]),
                b: u64::from(seq),
            },
        );
    }

    /// Records one absorbed `WrongOwner` bounce under the bounced
    /// exchange's root.
    fn record_redirect(&self, member: usize, seq: u32, owner: u32, epoch: u64) {
        let Some(spans) = &self.spans else { return };
        let trace = trace_id_for(self.sessions[member], seq);
        if !spans.enabled(trace) {
            return;
        }
        let now = spans.now_us();
        spans.record(
            0,
            Span {
                ctx: TraceCtx {
                    trace_id: trace,
                    span_id: spans.fresh_span_id(),
                    parent: client_root_span(trace),
                },
                kind: SpanKind::RedirectHop,
                start_us: now,
                dur_us: 0,
                member: spans.member(),
                shard: 0,
                a: u64::from(owner),
                b: epoch,
            },
        );
    }

    /// Broadcast to every member; the first member's response sequence
    /// is the caller's answer (the others must transport-succeed but
    /// their payloads are mirrors).
    fn broadcast(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        let mut first = None;
        for link in &mut self.links {
            let resps = link.request(req.clone())?;
            if first.is_none() {
                first = Some(resps);
            }
        }
        Ok(first.expect("at least one member"))
    }

    /// Routes one position-bearing request, absorbing `WrongOwner`
    /// bounces by refresh → migrate → re-send within the budget.
    fn route_positioned(
        &mut self,
        req: Request,
        seq: u32,
        x_fx: u32,
        y_fx: u32,
    ) -> Result<Vec<Response>, TransportError> {
        let pos = Point::new(dequantize_m(x_fx), dequantize_m(y_fx));
        let key = self.grid.morton_of(self.grid.cell_of(pos));
        let start_us = self.spans.as_ref().map_or(0, |s| s.now_us());
        self.route_for_traced(pos, Some(seq))?;
        for _ in 0..REDIRECT_BUDGET {
            let member = self.owner.expect("route_for places the session");
            let resps = self.links[member].request(req.clone())?;
            let (owner, epoch) = match resps.last() {
                Some(Response::WrongOwner { owner, epoch, .. }) => (*owner, *epoch),
                _ => {
                    self.record_root(member, seq, start_us);
                    return Ok(resps);
                }
            };
            // The bounced send is its own (short) trace: root plus hop.
            self.record_root(member, seq, start_us);
            self.record_redirect(member, seq, owner, epoch);
            self.count_redirect();
            self.refresh_topology(member, seq)?;
            let desired = match self.map.owner_of(key) {
                Some(o) if (o as usize) != member => o as usize,
                // The refreshed map still points at the bouncing member
                // (or misses the key): trust the bounce itself.
                _ => owner as usize,
            };
            if desired >= self.links.len() {
                return Err(TransportError::WrongOwner { owner, epoch });
            }
            self.ensure_owner(desired, Some(seq))?;
        }
        Err(TransportError::WrongOwner {
            owner: self.owner.unwrap_or(0) as u32,
            epoch: self.map.epoch,
        })
    }
}

impl Transport for FedTransport {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        match &req {
            Request::Hello { .. }
            | Request::Bye { .. }
            | Request::InstallAlarm { .. }
            | Request::RemoveAlarm { .. } => self.broadcast(req),
            Request::LocationUpdate { seq, x_fx, y_fx, .. }
            | Request::Resync { seq, x_fx, y_fx, .. } => {
                let (seq, x_fx, y_fx) = (*seq, *x_fx, *y_fx);
                self.route_positioned(req, seq, x_fx, y_fx)
            }
            _ => {
                let member = self.owner.unwrap_or(0);
                self.links[member].request(req)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::Federation;
    use sa_geometry::Rect;
    use sa_server::wire::StrategySpec;
    use sa_server::{InProcTransport, Server, SharedClock, VirtualClock};
    use std::sync::Arc;

    fn launch(partitions: u32) -> (Federation, SharedClock) {
        let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
        let grid = Grid::new(universe, 1_000.0).unwrap();
        let clock: SharedClock = Arc::new(VirtualClock::new());
        let fed = Federation::launch(
            grid,
            Vec::new(),
            30.0,
            partitions,
            Arc::clone(&clock),
        );
        (fed, clock)
    }

    fn router(fed: &Federation, clock: &SharedClock) -> FedTransport {
        let links: Vec<(Box<dyn Transport + Send>, u32)> = fed
            .servers()
            .iter()
            .map(|s| {
                let t = InProcTransport::connect(Arc::clone(s));
                let session = t.session();
                (Box::new(t) as Box<dyn Transport + Send>, session)
            })
            .collect();
        let mesh_links: Vec<Box<dyn Transport + Send>> = fed
            .servers()
            .iter()
            .map(|s| {
                Box::new(InProcTransport::connect(Arc::clone(s))) as Box<dyn Transport + Send>
            })
            .collect();
        let mesh = HandoffChannel::new(mesh_links, Arc::clone(clock));
        FedTransport::new(links, mesh, fed.grid().clone(), fed.initial_map().clone())
    }

    fn cell_center(server: &Arc<Server>, owner_key_owner: u32, map: &PartitionMap) -> Point {
        let grid = server.grid();
        for idx in 0..grid.cell_count() {
            let cell = grid.cell_at_index(idx);
            if map.owner_of(grid.morton_of(cell)) == Some(owner_key_owner) {
                return grid.cell_rect(cell).center();
            }
        }
        panic!("no cell owned by {owner_key_owner}");
    }

    fn update(seq: u32, pos: Point) -> Request {
        Request::LocationUpdate {
            seq,
            x_fx: sa_server::wire::quantize_m(pos.x),
            y_fx: sa_server::wire::quantize_m(pos.y),
            motion: 0,
        }
    }

    #[test]
    fn crossing_a_partition_boundary_hands_the_session_off() {
        let (fed, clock) = launch(2);
        let mut t = router(&fed, &clock);
        let resps =
            t.request(Request::Hello { seq: 1, user: 3, strategy: StrategySpec::Mwpsr }).unwrap();
        assert!(matches!(resps.as_slice(), [Response::Ack { .. }]));
        let map = fed.initial_map().clone();
        let p0 = cell_center(fed.server(0), 0, &map);
        let p1 = cell_center(fed.server(0), 1, &map);
        t.request(update(2, p0)).unwrap();
        assert_eq!(t.owner(), Some(0));
        assert_eq!(t.handoffs(), 0, "first placement is not a handoff");
        t.request(update(3, p1)).unwrap();
        assert_eq!(t.owner(), Some(1));
        assert_eq!(t.handoffs(), 1, "boundary crossing must migrate the session");
    }

    #[test]
    fn a_stale_map_is_healed_by_wrong_owner_redirect() {
        let (fed, clock) = launch(2);
        let mut t = router(&fed, &clock);
        t.request(Request::Hello { seq: 1, user: 5, strategy: StrategySpec::Mwpsr }).unwrap();
        let map = fed.initial_map().clone();
        let p0 = cell_center(fed.server(0), 0, &map);
        t.request(update(2, p0)).unwrap();
        assert_eq!(t.owner(), Some(0));
        // Flip ownership of everything to member 1 behind the router's
        // back, as a coordinator repartition would.
        let flipped = vec![sa_server::wire::CellRange { start: 0, end: u64::MAX, owner: 1 }];
        for s in fed.servers() {
            let mut admin = InProcTransport::connect(Arc::clone(s));
            let resps = admin
                .request(Request::InstallTopology {
                    seq: 9,
                    epoch: 1,
                    ranges: flipped.clone(),
                    trace: sa_server::wire::TraceCtxExt::default(),
                })
                .unwrap();
            assert!(matches!(resps.as_slice(), [Response::Ack { .. }]), "install must ack");
        }
        // The router still believes epoch 0: the next update bounces,
        // refreshes, migrates, and lands on member 1.
        t.request(update(3, p0)).unwrap();
        assert_eq!(t.owner(), Some(1));
        assert_eq!(t.redirects(), 1);
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.handoffs(), 1);
        assert!(fed.server(0).wrong_owner_total() >= 1);
        // Both exchanges are in the members' span records: the untraced
        // push under its own derived trace, the bounce naming the owner.
        let recorded = |member: usize, kind, a| {
            fed.server(member).spans().iter().any(|s| s.kind == kind && s.a == a)
        };
        assert!(recorded(0, SpanKind::TopologyInstall, 1) && recorded(1, SpanKind::TopologyInstall, 1));
        assert!(recorded(0, SpanKind::WrongOwner, 1));
    }
}
