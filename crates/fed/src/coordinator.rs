//! The live repartitioning coordinator.
//!
//! The coordinator owns the authoritative [`PartitionMap`]. Fed with
//! the federation-wide per-cell load readout (the
//! `sa_cell_updates_total` counters every member keeps), it re-cuts
//! the map when the observed load distribution has drifted from the
//! current cut and pushes the new epoch to every member over ordinary
//! transports — so the same [`FaultyTransport`](sa_server::FaultyTransport)
//! chaos decorator that fuzzes client links fuzzes the coordinator.
//!
//! Failure model (see DESIGN.md §14 for the recovery table): every
//! `InstallTopology` push is idempotent under the epoch guard — members
//! ignore stale epochs and ack — so a push interrupted by a transient
//! fault is simply retried. Until a member has accepted the new epoch
//! it keeps bouncing by its old map; routers heal those bounces through
//! the `WrongOwner` redirect path, so a partially propagated epoch
//! degrades to extra redirects, never to misdelivery.

use crate::topology::PartitionMap;
use sa_geometry::Grid;
use sa_obs::{trace_id_for, Span, SpanKind, SpanRecorder, TraceCtx};
use sa_server::wire::{Request, Response, TraceCtxExt, SEQ_MASK};
use sa_server::{SharedClock, Transport, TransportError};
use std::sync::Arc;
use std::time::Duration;

/// Transient-failure retries per member before a push attempt fails.
const PUSH_RETRIES: u32 = 8;

/// Flat pause between push retries (virtual under a test clock).
const PUSH_RETRY_PAUSE: Duration = Duration::from_micros(200);

/// The repartitioning authority: one admin link per member plus the
/// current authoritative map.
pub struct Coordinator {
    links: Vec<Box<dyn Transport + Send>>,
    map: PartitionMap,
    clock: SharedClock,
    seq: u32,
    repartitions: u64,
    /// Causal-span recorder, when tracing is wired up; each accepted
    /// push records a [`SpanKind::TopologyPush`] root the member's
    /// `topology_install` span parents under.
    spans: Option<Arc<SpanRecorder>>,
}

impl Coordinator {
    /// Builds a coordinator over per-member admin links (index =
    /// federation id), starting from the map the members launched with.
    pub fn new(
        links: Vec<Box<dyn Transport + Send>>,
        map: PartitionMap,
        clock: SharedClock,
    ) -> Coordinator {
        Coordinator { links, map, clock, seq: 0, repartitions: 0, spans: None }
    }

    /// Attaches a span recorder; topology pushes from here on carry an
    /// explicit trace context and record [`SpanKind::TopologyPush`]
    /// roots. Set the recorder's member id to a coordinator
    /// pseudo-member before attaching so its spans are attributable.
    pub fn set_spans(&mut self, spans: Arc<SpanRecorder>) {
        self.spans = Some(spans);
    }

    /// The authoritative map.
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Completed repartitions (new epoch accepted by every member).
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Rebalances on `loads` (per-cell, federation-wide) and, if the
    /// cut moved, pushes the new epoch to every member. Returns whether
    /// a repartition happened.
    ///
    /// # Errors
    ///
    /// Fails when a member stays unreachable past the retry budget or
    /// rejects the install. The authoritative map is only advanced
    /// after **every** member accepted, so a failed push can be
    /// re-attempted wholesale: members that already accepted treat the
    /// replay as stale and ack it.
    ///
    /// # Panics
    ///
    /// Panics when `loads` is shorter than the grid's cell count.
    pub fn maybe_repartition(
        &mut self,
        grid: &Grid,
        loads: &[u64],
    ) -> Result<bool, TransportError> {
        let Some(next) = self.map.rebalance(grid, loads) else {
            return Ok(false);
        };
        for member in 0..self.links.len() {
            self.push_to(member, next.epoch, &next)?;
        }
        self.map = next;
        self.repartitions += 1;
        Ok(true)
    }

    /// Installs `map` at `member` with bounded transient retries.
    fn push_to(
        &mut self,
        member: usize,
        epoch: u64,
        map: &PartitionMap,
    ) -> Result<(), TransportError> {
        // One deterministic trace per (member, epoch): the push span is
        // its root, the member's install span its only child.
        let (trace, push_span) = match &self.spans {
            Some(s) => {
                let t = trace_id_for(0xFED0_0000 ^ member as u32, epoch as u32);
                (TraceCtxExt { trace_id: t, parent_span: s.fresh_span_id() }, true)
            }
            None => (TraceCtxExt::default(), false),
        };
        let started_us = self.spans.as_ref().map_or(0, |s| s.now_us());
        let mut last = TransportError::TimedOut;
        for attempt in 0..=PUSH_RETRIES {
            if attempt > 0 {
                self.clock.sleep(PUSH_RETRY_PAUSE);
            }
            let seq = self.next_seq();
            let req = Request::InstallTopology { seq, epoch, ranges: map.ranges.clone(), trace };
            match self.links[member].request(req) {
                Ok(resps) => {
                    return match resps.into_iter().next_back() {
                        Some(Response::Ack { .. }) => {
                            if push_span {
                                if let Some(s) = &self.spans {
                                    s.record(
                                        0,
                                        Span {
                                            ctx: TraceCtx {
                                                trace_id: trace.trace_id,
                                                span_id: trace.parent_span,
                                                parent: 0,
                                            },
                                            kind: SpanKind::TopologyPush,
                                            start_us: started_us,
                                            dur_us: s.now_us().saturating_sub(started_us),
                                            member: s.member(),
                                            shard: 0,
                                            a: member as u64,
                                            b: epoch,
                                        },
                                    );
                                }
                            }
                            Ok(())
                        }
                        _ => Err(TransportError::Protocol("member rejected a topology install")),
                    }
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::Federation;
    use sa_geometry::Rect;
    use sa_server::{FaultLeg, FaultPlan, FaultyTransport, InProcTransport, VirtualClock};
    use std::sync::Arc;

    fn launch() -> (Federation, SharedClock) {
        let universe = Rect::new(0.0, 0.0, 4_000.0, 4_000.0).unwrap();
        let grid = Grid::new(universe, 1_000.0).unwrap();
        let clock: SharedClock = Arc::new(VirtualClock::new());
        let fed = Federation::launch(
            grid,
            Vec::new(),
            30.0,
            2,
            Arc::clone(&clock),
        );
        (fed, clock)
    }

    #[test]
    fn skewed_load_repartitions_every_member_to_the_next_epoch() {
        let (fed, clock) = launch();
        let links: Vec<Box<dyn Transport + Send>> = fed
            .servers()
            .iter()
            .map(|s| {
                Box::new(InProcTransport::connect(Arc::clone(s))) as Box<dyn Transport + Send>
            })
            .collect();
        let mut coord =
            Coordinator::new(links, fed.initial_map().clone(), Arc::clone(&clock));
        let grid = fed.grid().clone();
        let mut loads = vec![0u64; grid.cell_count() as usize];
        loads[0] = 50_000;
        assert!(coord.maybe_repartition(&grid, &loads).unwrap());
        assert_eq!(coord.map().epoch, 1);
        for s in fed.servers() {
            assert_eq!(s.topology().0, 1, "every member must hold the new epoch");
            assert_eq!(s.topology().1, coord.map().ranges);
        }
        // Same skew again: the cut is already balanced for it.
        assert!(!coord.maybe_repartition(&grid, &loads).unwrap());
    }

    #[test]
    fn a_lossy_coordinator_link_retries_the_idempotent_install() {
        let (fed, clock) = launch();
        let plan = FaultPlan {
            seed: 11,
            up: FaultLeg { drop: 0.3, duplicate: 0.1, delay: 0.0, max_delay: Duration::ZERO },
            down: FaultLeg { drop: 0.2, duplicate: 0.0, delay: 0.0, max_delay: Duration::ZERO },
            disconnect_steps: Vec::new(),
        };
        let links: Vec<Box<dyn Transport + Send>> = fed
            .servers()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let faulty = FaultyTransport::new(
                    InProcTransport::connect(Arc::clone(s)),
                    plan.clone(),
                    100 + i as u64,
                )
                .with_clock(Arc::clone(&clock));
                faulty.controls().set_armed(true);
                Box::new(faulty) as Box<dyn Transport + Send>
            })
            .collect();
        let mut coord =
            Coordinator::new(links, fed.initial_map().clone(), Arc::clone(&clock));
        let grid = fed.grid().clone();
        let mut loads = vec![0u64; grid.cell_count() as usize];
        loads[3] = 9_999;
        assert!(coord.maybe_repartition(&grid, &loads).unwrap());
        for s in fed.servers() {
            assert_eq!(s.topology().0, 1);
        }
    }
}
