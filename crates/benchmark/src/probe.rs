//! The per-layer ledger, taken from outside.
//!
//! Nothing inside the program is instrumented. Instead a traced run
//! captures every update it sends, and this module re-executes each
//! layer's *public* function on those captured inputs and times it:
//!
//! * `server.handle` — `Server::handle_into` with one `LocationUpdate`,
//!   on fresh in-proc probe sessions of the **live** server (so the
//!   fired set, the index generation and the cache are the run's own).
//!   The closed-loop workloads pause for this four times an hour; the
//!   open loop does it once, after its window.
//! * its children — the request decode, the trigger probe, the region
//!   read, the cache lookup, the safe-region computation and the
//!   response encode that the answer implies, each on a
//!   benchmark-owned snapshot, cache and computer. What they do not
//!   cover of `server.handle` is `server.unattributed_share`: routing,
//!   the shard hand-off, and whatever the server does that no public
//!   function exposes (today: the fired-set scan).
//! * stand-alone probes — socket tier, frame reassembly, codec, index,
//!   index writes, containment checks — on the captured bytes and a
//!   sample of the captured positions.
//!
//! Replaying an update the subscriber already sent cannot fire anything
//! new (every alarm containing that position fired when it was first
//! sent), so probing the live server changes no answer; the traced run
//! is still checked against the ground truth.

use crate::drive::{Capture, Captured, Live, World};
use crate::gen::{process_cpu_ns, ThreadCpu};
use crate::report::Metric;
use crate::spec::Drive;
use crate::stats::{quantile, sorted};
use crate::trace::{Span, SpanLog, NO_PARENT};
use sa_alarms::{AlarmId, SpatialAlarm, SubscriberId, VersionedAlarmIndex};
use sa_core::{BitmapSafeRegion, MwpsrComputer, PyramidComputer, PyramidConfig, SafeRegion as _};
use sa_geometry::{Point, Rect};
use sa_index::RStarTree;
use sa_server::netfront::{FrameReader, WriteQueue};
use sa_server::wire::{
    dequantize_m, frame, read_frame, unpack_motion, write_frame, BatchedUpdate, Request, Response,
};
use sa_server::{quantize_rect, Reactor, ReactorConfig, RegionCache, StrategySpec};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Subscribers whose updates are replayed; the stride over vehicle ids
/// is kept odd so the four-strategy round-robin is sampled evenly.
const PROBE_USERS: u32 = 96;

/// Positions kept for the stand-alone compute and containment probes.
const COMPUTE_INPUTS: usize = 1_024;

/// Subscribers whose updates are replayed over a socket of their own
/// for `reactor.socket_overhead_us`.
const SOCKET_USERS: usize = 8;

/// Dial-`Hello`-hang-up cycles behind `reactor.connect_hello_us_p50`.
const CONNECT_CYCLES: u32 = 64;

/// A probe socket that hears nothing for this long is given up on.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// Quiet window for `reactor.idle_cpu_ms_per_s`.
const IDLE_WINDOW: Duration = Duration::from_secs(2);

/// Pyramid height of `core.pbsr_us` — fixed, whatever the workload's
/// clients ask for, so the number means the same on all four.
const PROBE_PBSR_HEIGHT: u32 = 5;

/// Which answer the server gave, hence which code path ran.
const PATHS: [&str; 5] = ["ack", "mwpsr", "pbsr", "opt", "safe_period"];

/// A position with everything a safe-region computation needs.
struct ComputeInput {
    pos: Point,
    heading: f64,
    cell: Rect,
    obstacles: Vec<Rect>,
}

/// Re-executes layers on captured inputs (see the module docs).
pub struct Prober<'w> {
    world: &'w World,
    /// The benchmark's own copy of the alarm index, kept in step with
    /// the writes `alarm_churn` issues.
    mirror: VersionedAlarmIndex,
    cache: RegionCache,
    stride: u32,
    /// Ground-truth firings of the sampled subscribers, by subscriber.
    firings: HashMap<u32, Vec<(u32, AlarmId)>>,
    /// Probe session and next sequence number of each sampled subscriber.
    sessions: HashMap<u32, (u32, u32)>,
    responses: Vec<Response>,
    handle_ns: Vec<u64>,
    handle_total_ns: u64,
    children_total_ns: u64,
    path_ns: [u64; PATHS.len()],
    trigger_ns: Vec<u64>,
    region_read_ns: Vec<u64>,
    nearest_ns: Vec<u64>,
    replayed: Vec<Captured>,
    inputs: Vec<ComputeInput>,
    inputs_seen: usize,
    /// Cache counters the probes themselves moved on the live server.
    cache_noise: (u64, u64),
}

impl<'w> Prober<'w> {
    /// A prober over `world`'s alarms and ground truth.
    pub fn new(world: &'w World) -> Prober<'w> {
        let vehicles = world.spec.vehicles();
        let stride = vehicles.div_ceil(PROBE_USERS) | 1;
        let mut firings: HashMap<u32, Vec<(u32, AlarmId)>> = HashMap::new();
        for e in world.harness.ground_truth().events() {
            if e.subscriber.0 % stride == 0 {
                firings
                    .entry(e.subscriber.0)
                    .or_default()
                    .push((e.step, e.alarm));
            }
        }
        Prober {
            world,
            mirror: VersionedAlarmIndex::new(world.harness.index().alarms().to_vec())
                .expect("the harness's alarm ids are dense"),
            cache: RegionCache::new(),
            stride,
            firings,
            sessions: HashMap::new(),
            responses: Vec::new(),
            handle_ns: Vec::new(),
            handle_total_ns: 0,
            children_total_ns: 0,
            path_ns: [0; PATHS.len()],
            trigger_ns: Vec::new(),
            region_read_ns: Vec::new(),
            nearest_ns: Vec::new(),
            replayed: Vec::new(),
            inputs: Vec::new(),
            inputs_seen: 0,
            cache_noise: (0, 0),
        }
    }

    /// Follows an `InstallAlarm` the driver issued.
    pub fn mirror_install(&mut self, alarm: SpatialAlarm) {
        self.mirror
            .try_install(alarm)
            .expect("churned ids are dense");
    }

    /// Follows a `RemoveAlarm` the driver issued.
    pub fn mirror_remove(&mut self, id: AlarmId) {
        self.mirror.deactivate(id);
    }

    /// Replays the sampled subscribers' `updates` on the live server,
    /// one `LocationUpdate` at a time, and re-executes the layers each
    /// answer implies. `steps_done` bounds which ground-truth firings
    /// count as already fired.
    pub fn replay(
        &mut self,
        live: &Live,
        updates: &[Captured],
        steps_done: u32,
        spans: &mut SpanLog,
    ) {
        let before = live.server.cache_stats();
        let snapshot = self.mirror.snapshot();
        let grid = self.world.harness.grid();
        let universe = grid.universe();
        let mut fired: HashMap<u32, HashSet<AlarmId>> = HashMap::new();

        let stride = self.stride;
        for update in updates.iter().filter(|u| u.user % stride == 0) {
            let user = SubscriberId(update.user);
            let strategy = self.world.spec.strategy_of(update.user);
            let (session, seq) = *self.sessions.entry(update.user).or_insert_with(|| {
                let session = live.server.open_session();
                let hello = Request::Hello {
                    seq: 0,
                    user: update.user,
                    strategy,
                };
                live.server.handle(session, hello);
                (session, 0)
            });
            let seq = seq + 1;
            self.sessions.insert(update.user, (session, seq));
            let request = update.request(seq);
            let encoded = request.encode();

            self.responses.clear();
            let start_ns = spans.now_ns();
            live.server
                .handle_into(session, request, &mut self.responses);
            let handle_ns = spans.now_ns() - start_ns;
            let root = spans.record(Span {
                name: "server.handle",
                start_ns,
                end_ns: start_ns + handle_ns,
                parent: NO_PARENT,
                user: update.user,
                seq: update.seq,
                count: 1,
            });
            self.handle_ns.push(handle_ns);
            self.handle_total_ns += handle_ns;
            self.replayed.push(*update);

            let pos = Point::new(
                dequantize_m(update.x_fx).clamp(universe.min_x(), universe.max_x()),
                dequantize_m(update.y_fx).clamp(universe.min_y(), universe.max_y()),
            );
            let (heading, _) = unpack_motion(update.motion);
            let cell = grid.cell_of(pos);
            let cell_rect = grid.cell_rect(cell);
            let fired = fired.entry(update.user).or_insert_with(|| {
                self.firings
                    .get(&update.user)
                    .map(|events| {
                        events
                            .iter()
                            .filter(|(step, _)| *step < steps_done)
                            .map(|(_, a)| *a)
                            .collect()
                    })
                    .unwrap_or_default()
            });

            let mut children_ns = 0u64;
            let mut child = |spans: &mut SpanLog, name: &'static str, ns: u64| {
                let at = spans.now_ns();
                spans.record(Span {
                    name,
                    start_ns: at - ns,
                    end_ns: at,
                    parent: root,
                    user: update.user,
                    seq: update.seq,
                    count: 1,
                });
                children_ns += ns;
            };

            let (_, ns) = timed(|| Request::decode(&encoded).is_ok());
            child(spans, "wire.decode", ns);

            let (_, ns) = timed(|| {
                let mut hits = 0u32;
                snapshot.relevant_at_visit(user, pos, |_| hits += 1);
                hits
            });
            self.trigger_ns.push(ns);
            child(spans, "alarms.trigger_probe", ns);

            let path = match self.responses.last() {
                Some(Response::RectInstall { .. }) => {
                    let (views, ns) = timed(|| snapshot.relevant_intersecting(user, cell_rect));
                    self.region_read_ns.push(ns);
                    child(spans, "alarms.region_read", ns);
                    let obstacles = unfired_regions(&views, fired);
                    let (_, ns) = timed(|| {
                        MwpsrComputer::non_weighted().compute(pos, heading, cell_rect, &obstacles)
                    });
                    child(spans, "core.compute", ns);
                    self.keep_input(pos, heading, cell_rect, obstacles);
                    1
                }
                Some(Response::BitmapInstall { .. }) => {
                    let StrategySpec::Pbsr { height } = strategy else {
                        unreachable!()
                    };
                    let (views, ns) = timed(|| snapshot.relevant_intersecting(user, cell_rect));
                    self.region_read_ns.push(ns);
                    child(spans, "alarms.region_read", ns);
                    // The server's own rule: the public bitmap is served
                    // from the cache unless this subscriber has personal
                    // unfired alarms in the cell or fired a public one.
                    let personal = views
                        .iter()
                        .any(|a| !a.is_public() && !fired.contains(&a.id()));
                    let public_fired = views
                        .iter()
                        .any(|a| a.is_public() && fired.contains(&a.id()));
                    let computer = PyramidComputer::new(PyramidConfig::three_by_three(height));
                    let cell_index = grid.cell_index(cell);
                    let region = if !personal && !public_fired {
                        let (cached, ns) = timed(|| self.cache.lookup(cell_index, height));
                        child(spans, "cache.lookup", ns);
                        cached.unwrap_or_else(|| {
                            let public: Vec<Rect> = views
                                .iter()
                                .filter(|a| a.is_public())
                                .map(|a| a.region())
                                .collect();
                            let (region, ns) = timed(|| computer.compute(cell_rect, &public));
                            child(spans, "core.compute", ns);
                            self.cache.insert(
                                cell_index,
                                height,
                                self.cache.epoch(cell_index),
                                region.clone(),
                            );
                            region
                        })
                    } else {
                        let obstacles = unfired_regions(&views, fired);
                        let (region, ns) = timed(|| computer.compute(cell_rect, &obstacles));
                        child(spans, "core.compute", ns);
                        region
                    };
                    let (_, ns) = timed(|| region.to_wire_bits());
                    child(spans, "core.wire_bits", ns);
                    self.keep_input(pos, heading, cell_rect, unfired_regions(&views, fired));
                    2
                }
                Some(Response::AlarmPush { .. }) => {
                    let (_, ns) = timed(|| -> Vec<[u32; 4]> {
                        snapshot
                            .all_intersecting(cell_rect)
                            .iter()
                            .filter(|a| !fired.contains(&a.id()))
                            .map(|a| quantize_rect(a.region()))
                            .collect()
                    });
                    self.region_read_ns.push(ns);
                    child(spans, "alarms.region_read", ns);
                    3
                }
                Some(Response::SafePeriodGrant { .. }) => {
                    let (_, ns) = timed(|| {
                        snapshot.nearest_relevant_distance(user, pos, |id| !fired.contains(&id))
                    });
                    self.nearest_ns.push(ns);
                    child(spans, "alarms.nearest", ns);
                    4
                }
                _ => 0,
            };

            let (_, ns) = timed(|| {
                for resp in &self.responses {
                    black_box(resp.encode());
                }
            });
            child(spans, "wire.encode", ns);

            self.path_ns[path] += handle_ns;
            self.children_total_ns += children_ns.min(handle_ns);
        }

        let after = live.server.cache_stats();
        self.cache_noise.0 += after.hits - before.hits;
        self.cache_noise.1 += after.misses - before.misses;
    }

    fn keep_input(&mut self, pos: Point, heading: f64, cell: Rect, obstacles: Vec<Rect>) {
        let input = ComputeInput {
            pos,
            heading,
            cell,
            obstacles,
        };
        let seen = self.inputs_seen;
        self.inputs_seen += 1;
        if self.inputs.len() < COMPUTE_INPUTS {
            self.inputs.push(input);
        } else if seen.is_multiple_of(4) {
            // Once full, every fourth newcomer takes a slot in turn, so
            // the sample drifts across the run instead of staying at its
            // start.
            self.inputs[seen / 4 % COMPUTE_INPUTS] = input;
        }
    }

    /// Runs the stand-alone probes and returns every probe-derived
    /// per-layer metric.
    pub fn finish(mut self, live: &Live, capture: &Capture, spans: &mut SpanLog) -> Vec<Metric> {
        let mut out = Vec::new();
        let registry = live.server.registry().snapshot();
        let cache = live.server.cache_stats();

        // server: handle times, attribution, paths.
        let handle = sorted(&self.handle_ns);
        for (name, q) in [
            ("server.handle_us_p50", 0.5),
            ("server.handle_us_p99", 0.99),
        ] {
            let value = if handle.is_empty() {
                0.0
            } else {
                us(quantile(&handle, q))
            };
            out.push(Metric::new(name, value, "us", handle.len()));
        }
        let total = self.handle_total_ns.max(1) as f64;
        out.push(Metric::new(
            "server.unattributed_share",
            1.0 - self.children_total_ns as f64 / total,
            "ratio",
            handle.len(),
        ));
        for (path, ns) in PATHS.iter().zip(self.path_ns) {
            out.push(Metric::new(
                format!("server.share_{path}"),
                ns as f64 / total,
                "ratio",
                handle.len(),
            ));
        }
        let queue_wait = registry
            .histogram("sa_shard_dispatch_wait_ns", &[])
            .unwrap_or_default();
        out.push(Metric::new(
            "server.queue_wait_us_p50",
            us(queue_wait.p50),
            "us",
            queue_wait.count as usize,
        ));
        out.push(Metric::new(
            "server.overloads",
            registry
                .counter("sa_server_overloads_total", &[])
                .unwrap_or(0) as f64,
            "count",
            1,
        ));
        out.push(self.batch_probe(live));

        // cache: the run's own counters, less what the probes added.
        let hits = cache.hits.saturating_sub(self.cache_noise.0);
        let misses = cache.misses.saturating_sub(self.cache_noise.1);
        out.push(Metric::new(
            "cache.hit_share",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            "ratio",
            (hits + misses) as usize,
        ));
        out.push(Metric::new(
            "cache.invalidations",
            cache.invalidations as f64,
            "count",
            1,
        ));
        out.push(self.cache_lookup_probe());

        // alarms: reads from the replay, writes through the server and
        // on the benchmark's own index.
        out.push(median_metric(
            "alarms.trigger_probe_ns",
            &self.trigger_ns,
            1.0,
            "ns",
        ));
        out.push(median_metric(
            "alarms.region_read_ns",
            &self.region_read_ns,
            1.0,
            "ns",
        ));
        self.nearest_probe();
        out.push(median_metric(
            "alarms.nearest_ns",
            &self.nearest_ns,
            1.0,
            "ns",
        ));
        out.push(self.server_write_probe(live));
        out.extend(self.index_write_probes());
        out.push(self.read_under_churn_probe());

        out.extend(self.tree_probes());
        out.extend(self.core_probes());
        out.extend(self.socket_probes(live, spans));
        out.extend(netfront_probes(capture));
        out.extend(wire_probes(capture));
        out
    }

    /// `server.batch_us_per_update`: the replayed updates once more, as
    /// `Request::Batch` frames of up to 1,024 on the probe sessions.
    fn batch_probe(&mut self, live: &Live) -> Metric {
        let mut entries = Vec::with_capacity(self.replayed.len());
        for update in &self.replayed {
            let (session, seq) = self.sessions[&update.user];
            self.sessions.insert(update.user, (session, seq + 1));
            entries.push(BatchedUpdate {
                session,
                seq: seq + 1,
                x_fx: update.x_fx,
                y_fx: update.y_fx,
                motion: update.motion,
            });
        }
        let session = live.server.open_session();
        let mut total_ns = 0u64;
        for (i, chunk) in entries.chunks(crate::spec::MAX_BATCH_ENTRIES).enumerate() {
            self.responses.clear();
            let t = Instant::now();
            live.server.handle_into(
                session,
                Request::Batch {
                    seq: i as u32 + 1,
                    updates: chunk.to_vec(),
                },
                &mut self.responses,
            );
            total_ns += t.elapsed().as_nanos() as u64;
        }
        Metric::new(
            "server.batch_us_per_update",
            us(total_ns) / entries.len().max(1) as f64,
            "us",
            entries.len(),
        )
    }

    /// `cache.lookup_ns`: hits on the benchmark's own cache, filled with
    /// one height-5 bitmap per sampled cell.
    fn cache_lookup_probe(&self) -> Metric {
        let grid = self.world.harness.grid();
        let cache = RegionCache::new();
        let computer = PyramidComputer::new(PyramidConfig::three_by_three(PROBE_PBSR_HEIGHT));
        let mut cells = Vec::new();
        for input in self.inputs.iter().take(64) {
            let cell = grid.cell_index(grid.cell_of(input.pos));
            cache.insert(
                cell,
                PROBE_PBSR_HEIGHT,
                0,
                computer.compute(input.cell, &input.obstacles),
            );
            cells.push(cell);
        }
        let mut ns = Vec::new();
        for _ in 0..32 {
            for &cell in &cells {
                ns.push(timed(|| cache.lookup(cell, PROBE_PBSR_HEIGHT)).1);
            }
        }
        median_metric("cache.lookup_ns", &ns, 1.0, "ns")
    }

    /// Tops `alarms.nearest_ns` up from the kept positions when the
    /// workload has no safe-period clients to take it from.
    fn nearest_probe(&mut self) {
        if !self.nearest_ns.is_empty() {
            return;
        }
        let snapshot = self.mirror.snapshot();
        for (i, input) in self.inputs.iter().enumerate() {
            let user = SubscriberId(i as u32 % self.world.spec.vehicles());
            let probe = timed(|| snapshot.nearest_relevant_distance(user, input.pos, |_| true));
            self.nearest_ns.push(probe.1);
        }
    }

    /// `alarms.write_us_per_op`: 128 installs and their removals through
    /// the live server, on a control session of the phantom owner.
    fn server_write_probe(&mut self, live: &Live) -> Metric {
        let spec = &self.world.spec;
        let session = live.server.open_session();
        live.server.handle(
            session,
            Request::Hello {
                seq: 0,
                user: spec.phantom_owner(),
                strategy: StrategySpec::Mwpsr,
            },
        );
        let first = self.mirror.len() as u32;
        let rects = spec.churn_rects(0x9B0B, 128);
        let t = Instant::now();
        for (i, rect) in rects.iter().enumerate() {
            live.server.handle(
                session,
                Request::InstallAlarm {
                    seq: i as u32 + 1,
                    alarm: first + i as u32,
                    flags: spec.phantom_owner() << 1,
                    rect: quantize_rect(*rect),
                },
            );
        }
        for i in 0..rects.len() as u32 {
            live.server.handle(
                session,
                Request::RemoveAlarm {
                    seq: 200 + i,
                    alarm: first + i,
                },
            );
        }
        let ops = rects.len() * 2;
        Metric::new(
            "alarms.write_us_per_op",
            us(t.elapsed().as_nanos() as u64) / ops as f64,
            "us",
            ops,
        )
    }

    /// `alarms.install_us_p50/p99`, `alarms.deactivate_us_p50`: 1,024
    /// writes on a fresh `VersionedAlarmIndex` over the base alarms —
    /// enough to cross the merge threshold sixteen times.
    fn index_write_probes(&self) -> Vec<Metric> {
        let spec = &self.world.spec;
        let base = self.world.harness.index().alarms().to_vec();
        let first = base.len() as u64;
        let index = VersionedAlarmIndex::new(base).expect("dense ids");
        let rects = spec.churn_rects(0x1D5, 1_024);
        let mut install_ns = Vec::with_capacity(rects.len());
        for (i, rect) in rects.iter().enumerate() {
            let alarm = spec.phantom_alarm(first + i as u64, *rect);
            install_ns.push(timed(|| index.try_install(alarm).expect("dense ids")).1);
        }
        let mut deactivate_ns = Vec::with_capacity(rects.len());
        for i in 0..rects.len() as u64 {
            deactivate_ns.push(timed(|| index.deactivate(AlarmId(first + i))).1);
        }
        let installs = sorted(&install_ns);
        vec![
            Metric::new(
                "alarms.install_us_p50",
                us(quantile(&installs, 0.5)),
                "us",
                installs.len(),
            ),
            Metric::new(
                "alarms.install_us_p99",
                us(quantile(&installs, 0.99)),
                "us",
                installs.len(),
            ),
            median_metric("alarms.deactivate_us_p50", &deactivate_ns, 1e-3, "us"),
        ]
    }

    /// `alarms.read_slowdown_under_churn`: the median region read on a
    /// fresh index while another thread installs and removes alarms as
    /// fast as it can, over the same reads on the quiet index.
    fn read_under_churn_probe(&self) -> Metric {
        let spec = &self.world.spec;
        let base = self.world.harness.index().alarms().to_vec();
        let first = base.len() as u64;
        let index = VersionedAlarmIndex::new(base).expect("dense ids");
        let rects = spec.churn_rects(0xC0DE, 100_000);
        let read_all = |index: &VersionedAlarmIndex| {
            let mut ns = Vec::with_capacity(self.inputs.len() * 4);
            for round in 0..4u32 {
                for (i, input) in self.inputs.iter().enumerate() {
                    let user = SubscriberId((i as u32 + round) % spec.vehicles());
                    let t = Instant::now();
                    black_box(
                        index
                            .snapshot()
                            .relevant_intersecting(user, input.cell)
                            .len(),
                    );
                    ns.push(t.elapsed().as_nanos() as u64);
                }
            }
            ns
        };
        let quiet = read_all(&index);
        let stop = AtomicBool::new(false);
        let churned = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for (i, rect) in rects.iter().enumerate() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let id = first + i as u64;
                    index
                        .try_install(spec.phantom_alarm(id, *rect))
                        .expect("dense ids");
                    if i >= 32 {
                        index.deactivate(AlarmId(id - 32));
                    }
                }
            });
            let ns = read_all(&index);
            stop.store(true, Ordering::Relaxed);
            writer.join().expect("churn writer");
            ns
        });
        if quiet.is_empty() {
            return Metric::new("alarms.read_slowdown_under_churn", 1.0, "ratio", 0);
        }
        let ratio =
            quantile(&sorted(&churned), 0.5) as f64 / quantile(&sorted(&quiet), 0.5).max(1) as f64;
        Metric::new(
            "alarms.read_slowdown_under_churn",
            ratio,
            "ratio",
            churned.len(),
        )
    }

    /// `index.*`: the R*-tree alone, over the base alarms' rectangles.
    fn tree_probes(&self) -> Vec<Metric> {
        let entries: Vec<(Rect, u32)> = self
            .world
            .harness
            .index()
            .alarms()
            .iter()
            .enumerate()
            .map(|(i, a)| (a.region(), i as u32))
            .collect();
        let mut loads = Vec::new();
        let mut tree = RStarTree::bulk_load(entries.clone());
        for _ in 0..5 {
            let rects = entries.clone();
            let (loaded, ns) = timed(|| RStarTree::bulk_load(rects));
            tree = loaded;
            loads.push(ns);
        }
        let mut point_ns = Vec::new();
        let mut range_ns = Vec::new();
        let mut nodes = 0usize;
        for round in 0..8 {
            for input in &self.inputs {
                let probe = timed(|| {
                    let mut hits = 0u32;
                    tree.visit_point(input.pos, |_| hits += 1);
                    hits
                });
                point_ns.push(probe.1);
                let probe = timed(|| {
                    let mut hits = 0u32;
                    tree.visit_intersecting(input.cell, |_, _| hits += 1);
                    hits
                });
                range_ns.push(probe.1);
                if round == 0 {
                    nodes += tree.search_point_with_stats(input.pos).1.nodes_visited;
                }
            }
        }
        vec![
            median_metric("index.bulk_load_ms", &loads, 1e-6, "ms"),
            median_metric("index.point_query_ns", &point_ns, 1.0, "ns"),
            median_metric("index.range_query_ns", &range_ns, 1.0, "ns"),
            Metric::new(
                "index.nodes_per_point_query",
                nodes as f64 / self.inputs.len().max(1) as f64,
                "count",
                self.inputs.len(),
            ),
        ]
    }

    /// `core.*`: the safe-region computers and the client's containment
    /// checks, on the kept positions with their real obstacle sets.
    fn core_probes(&self) -> Vec<Metric> {
        let mwpsr = MwpsrComputer::non_weighted();
        let pyramid = PyramidComputer::new(PyramidConfig::three_by_three(PROBE_PBSR_HEIGHT));
        let mut mwpsr_ns = Vec::new();
        let mut pbsr_ns = Vec::new();
        let mut bits_ns = Vec::new();
        let mut bitmap_bytes = Vec::new();
        let mut rect_ps = Vec::new();
        let mut bitmap_ps = Vec::new();
        for input in &self.inputs {
            let (rect, ns) =
                timed(|| mwpsr.compute(input.pos, input.heading, input.cell, &input.obstacles));
            mwpsr_ns.push(ns);
            let (region, ns): (BitmapSafeRegion, u64) =
                timed(|| pyramid.compute(input.cell, &input.obstacles));
            pbsr_ns.push(ns);
            let (bits, ns) = timed(|| region.to_wire_bits());
            bits_ns.push(ns);
            bitmap_bytes.push(bits.len().div_ceil(8) as u64);
            // Containment is nanoseconds: time 1,024 checks at once, and
            // keep picoseconds so the median has digits.
            let t = Instant::now();
            for _ in 0..1_024 {
                black_box(black_box(rect.rect()).contains_point(black_box(input.pos)));
            }
            rect_ps.push(t.elapsed().as_nanos() as u64 * 1_000 / 1_024);
            let t = Instant::now();
            for _ in 0..1_024 {
                black_box(black_box(&region).contains(black_box(input.pos)));
            }
            bitmap_ps.push(t.elapsed().as_nanos() as u64 * 1_000 / 1_024);
        }
        vec![
            median_metric("core.mwpsr_us", &mwpsr_ns, 1e-3, "us"),
            median_metric("core.pbsr_us", &pbsr_ns, 1e-3, "us"),
            median_metric("core.pbsr_wire_bits_ns", &bits_ns, 1.0, "ns"),
            median_metric("core.bitmap_bytes_p50", &bitmap_bytes, 1.0, "B"),
            median_metric("core.rect_contains_ns", &rect_ps, 1e-3, "ns"),
            median_metric("core.bitmap_contains_ns", &bitmap_ps, 1e-3, "ns"),
        ]
    }

    /// `reactor.*`: the socket tier's own cost. The replayed updates go
    /// once more over fresh loopback connections (with every connection
    /// of the workload still parked on the reactor) and, as the
    /// identical stream, through `handle_into`; the difference of the
    /// medians is what the sockets add.
    fn socket_probes(&mut self, live: &Live, spans: &mut SpanLog) -> Vec<Metric> {
        let mut own_reactor = None;
        let addr: SocketAddr = match &live.reactor {
            Some(reactor) => reactor.addr(),
            None => {
                let reactor = Reactor::bind(Arc::clone(&live.server), ReactorConfig::default())
                    .expect("bind a probe reactor on loopback");
                let addr = reactor.addr();
                own_reactor = Some(reactor);
                addr
            }
        };

        // A handful of subscribers, each with its own connection: the
        // drivers leave the reactor 16 connections of headroom.
        let mut by_user: Vec<(u32, Vec<Captured>)> = Vec::new();
        for update in &self.replayed {
            match by_user.iter().position(|(user, _)| *user == update.user) {
                Some(i) => by_user[i].1.push(*update),
                None if by_user.len() < SOCKET_USERS => by_user.push((update.user, vec![*update])),
                None => {}
            }
        }

        // Connection set-up as a newcomer sees it: dial, `Hello`, ack,
        // hang up — one at a time, beside everything already parked.
        let mut connect_ns = Vec::new();
        for i in 0..CONNECT_CYCLES {
            let hello = Request::Hello {
                seq: 0,
                user: i,
                strategy: self.world.spec.strategy_of(i),
            };
            let t = Instant::now();
            let Ok(mut stream) = TcpStream::connect(addr) else {
                continue;
            };
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(SOCKET_TIMEOUT)).ok();
            if write_frame(&mut stream, &hello.encode()).is_ok() && read_frame(&mut stream).is_ok()
            {
                connect_ns.push(t.elapsed().as_nanos() as u64);
            }
        }

        let mut socket_ns = Vec::new();
        let mut handle_ns = Vec::new();
        let mut parked = Vec::new();
        for (user, updates) in &by_user {
            let strategy = self.world.spec.strategy_of(*user);
            let hello = Request::Hello {
                seq: 0,
                user: *user,
                strategy,
            };
            let Ok(mut stream) = TcpStream::connect(addr) else {
                continue;
            };
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(SOCKET_TIMEOUT)).ok();
            if write_frame(&mut stream, &hello.encode()).is_err()
                || read_frame(&mut stream).is_err()
            {
                continue;
            }
            let session = live.server.open_session();
            live.server.handle(session, hello);
            for (i, update) in updates.iter().enumerate() {
                let request = update.request(i as u32 + 1);
                let start_ns = spans.now_ns();
                if write_frame(&mut stream, &request.encode()).is_err() {
                    break;
                }
                let mut terminal = false;
                while !terminal {
                    match read_frame(&mut stream) {
                        Ok(Some(body)) => {
                            terminal = Response::decode(&body).map_or(true, |r| r.is_terminal());
                        }
                        _ => break,
                    }
                }
                let end_ns = spans.now_ns();
                socket_ns.push(end_ns - start_ns);
                spans.record(Span {
                    name: "socket.probe",
                    start_ns,
                    end_ns,
                    parent: NO_PARENT,
                    user: *user,
                    seq: update.seq,
                    count: 1,
                });
                self.responses.clear();
                let probe = timed(|| {
                    live.server
                        .handle_into(session, request, &mut self.responses)
                });
                handle_ns.push(probe.1);
            }
            parked.push(stream);
        }

        // Idle cost: every connection parked, nothing in flight.
        let mut cpu = ThreadCpu::open();
        let before = (process_cpu_ns(), cpu.now_ns());
        std::thread::sleep(IDLE_WINDOW);
        let idle_cpu_ns = (process_cpu_ns() - before.0).saturating_sub(cpu.now_ns() - before.1);

        drop(parked);
        if let Some(mut reactor) = own_reactor {
            reactor.shutdown();
        }
        let overhead = if socket_ns.is_empty() {
            0.0
        } else {
            us(quantile(&sorted(&socket_ns), 0.5)) - us(quantile(&sorted(&handle_ns), 0.5))
        };
        let parked_conns = match self.world.spec.drive {
            Drive::BatchedInProc { .. } => 0,
            _ => self.world.spec.vehicles() as usize,
        };
        vec![
            Metric::new(
                "reactor.socket_overhead_us",
                overhead,
                "us",
                socket_ns.len(),
            ),
            Metric::new(
                "reactor.idle_cpu_ms_per_s",
                idle_cpu_ns as f64 / 1e6 / IDLE_WINDOW.as_secs_f64(),
                "ms/s",
                parked_conns + by_user.len(),
            ),
            median_metric("reactor.connect_hello_us_p50", &connect_ns, 1e-3, "us"),
        ]
    }
}

impl Captured {
    /// The update as a `LocationUpdate` with sequence number `seq`.
    pub fn request(&self, seq: u32) -> Request {
        Request::LocationUpdate {
            seq,
            x_fx: self.x_fx,
            y_fx: self.y_fx,
            motion: self.motion,
        }
    }
}

/// Runs `f`, keeping its result from the optimiser, and returns it with
/// the nanoseconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let started = Instant::now();
    let result = black_box(f());
    (result, started.elapsed().as_nanos() as u64)
}

/// The regions of the alarms in `views` that have not fired.
fn unfired_regions(views: &[&SpatialAlarm], fired: &HashSet<AlarmId>) -> Vec<Rect> {
    views
        .iter()
        .filter(|a| !fired.contains(&a.id()))
        .map(|a| a.region())
        .collect()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The exact median of `samples`, scaled into `unit`.
fn median_metric(name: &'static str, samples: &[u64], scale: f64, unit: &'static str) -> Metric {
    let value = if samples.is_empty() {
        0.0
    } else {
        quantile(&sorted(samples), 0.5) as f64 * scale
    };
    Metric::new(name, value, unit, samples.len())
}

/// Splits concatenated `u32 length + body` frames.
fn frames(bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while rest.len() >= 4 {
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if rest.len() < 4 + len {
            break;
        }
        out.push(&rest[4..4 + len]);
        rest = &rest[4 + len..];
    }
    out
}

/// `netfront.*`: frame reassembly over the captured uplink bytes fed in
/// 16 KiB reads (the reactor's read size), and the write queue over the
/// captured downlink frames drained into a sink.
fn netfront_probes(capture: &Capture) -> Vec<Metric> {
    let mut reader = FrameReader::new();
    let mut reassembled = 0usize;
    let t = Instant::now();
    for (i, chunk) in capture.up.chunks(16 * 1024).enumerate() {
        reader.push(chunk, i as u64);
        while let Ok(Some(body)) = reader.next_frame(i as u64) {
            black_box(body);
            reassembled += 1;
        }
    }
    let reassembly_ns = t.elapsed().as_nanos() as u64;

    let down: Vec<Vec<u8>> = frames(&capture.down).into_iter().map(framed).collect();
    let queued = down.len();
    let mut queue = WriteQueue::new(usize::MAX);
    let mut sink = std::io::sink();
    let t = Instant::now();
    for frame in down {
        queue.push_frame(frame);
        black_box(queue.write_some(&mut sink).ok());
    }
    let queue_ns = t.elapsed().as_nanos() as u64;
    vec![
        Metric::new(
            "netfront.reassembly_ns_per_frame",
            reassembly_ns as f64 / reassembled.max(1) as f64,
            "ns",
            reassembled,
        ),
        Metric::new(
            "netfront.write_queue_ns_per_frame",
            queue_ns as f64 / queued.max(1) as f64,
            "ns",
            queued,
        ),
    ]
}

/// A length-prefixed copy of `body`.
pub(crate) fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// `wire.*`: the codec over the captured frames, and the batch codec
/// over the captured updates.
fn wire_probes(capture: &Capture) -> Vec<Metric> {
    let requests = frames(&capture.up);
    let t = Instant::now();
    for body in &requests {
        black_box(Request::decode(body).is_ok());
    }
    let decode_ns = t.elapsed().as_nanos() as u64;

    let responses: Vec<Response> = frames(&capture.down)
        .into_iter()
        .filter_map(|body| Response::decode(body).ok())
        .collect();
    let t = Instant::now();
    for resp in &responses {
        black_box(frame(&resp.encode()));
    }
    let encode_ns = t.elapsed().as_nanos() as u64;

    let entries: Vec<BatchedUpdate> = capture
        .updates
        .iter()
        .take(8 * crate::spec::MAX_BATCH_ENTRIES)
        .map(|u| BatchedUpdate {
            session: u.user + 1,
            seq: u.seq,
            x_fx: u.x_fx,
            y_fx: u.y_fx,
            motion: u.motion,
        })
        .collect();
    let t = Instant::now();
    for (i, chunk) in entries.chunks(crate::spec::MAX_BATCH_ENTRIES).enumerate() {
        let body = Request::Batch {
            seq: i as u32 + 1,
            updates: chunk.to_vec(),
        }
        .encode();
        black_box(Request::decode(&body).is_ok());
    }
    let batch_ns = t.elapsed().as_nanos() as u64;
    vec![
        Metric::new(
            "wire.decode_ns_per_request",
            decode_ns as f64 / requests.len().max(1) as f64,
            "ns",
            requests.len(),
        ),
        Metric::new(
            "wire.encode_ns_per_response",
            encode_ns as f64 / responses.len().max(1) as f64,
            "ns",
            responses.len(),
        ),
        Metric::new(
            "wire.batch_ns_per_entry",
            batch_ns as f64 / entries.len().max(1) as f64,
            "ns",
            entries.len(),
        ),
    ]
}
