//! Transcript-level install-soundness oracle.
//!
//! [`check_transcript`] replays a recorded [`Transcript`] against the
//! brute-force reference oracles of `sa-core`: every safe region the
//! server shipped (rectangular or bitmap), every OPT alarm push and
//! every safe-period grant is decoded from its wire bytes and checked
//! against the alarm workload — a region must never claim safe a point
//! strictly inside an alarm that had not yet fired for that subscriber,
//! a push must cover every unfired relevant alarm of the cell, and a
//! grant must not outlast the time needed to reach the nearest unfired
//! relevant alarm at top speed.
//!
//! Fired-set tracking follows the transcript order. Trigger deliveries
//! precede the terminal frame of their exchange, and post-failure
//! resyncs re-deliver missed firings before any fresh region, so by the
//! time an install is decoded every firing the server knew about has
//! been seen — the oracle's unfired set matches the server's.
//!
//! All geometric comparisons carry a tolerance of [`GEOMETRY_TOL_M`]:
//! wire coordinates are Q16.16-quantized (error ≲ 8 µm), so exact
//! comparisons against the unquantized workload would flag phantom
//! sub-micrometer overlaps.

use crate::transcript::Transcript;
use sa_alarms::{SpatialAlarm, SubscriberId};
use sa_core::oracle::{check_bitmap_against_mask, check_sound};
use sa_core::BitmapSafeRegion;
use sa_geometry::{CellId, Grid, Point, Rect};
use sa_server::wire::{dequantize_m, dequantize_rect, PushedAlarm};
use sa_server::{Request, Response, StrategySpec};
use sa_sim::{pbsr_pyramid, SimulationHarness};
use std::collections::{HashMap, HashSet};

/// Slack applied to every geometric comparison against wire-decoded
/// coordinates: far above the Q16.16 quantization error (≈ 7.6 µm) and
/// far below any alarm-region feature (tens of meters).
pub const GEOMETRY_TOL_M: f64 = 1e-3;

/// Lattice density for the per-install soundness sampling (the bitmap
/// mask check is exact; the lattice additionally exercises the decoded
/// region's own containment code).
const INSTALL_LATTICE_N: usize = 24;

/// True when `p` lies strictly inside `rect` by more than `tol`.
pub fn strictly_inside(rect: Rect, p: Point, tol: f64) -> bool {
    p.x > rect.min_x() + tol
        && p.x < rect.max_x() - tol
        && p.y > rect.min_y() + tol
        && p.y < rect.max_y() - tol
}

/// True when the interiors of `a` and `b` overlap by more than `tol` in
/// both axes.
fn overlaps_beyond_tol(a: Rect, b: Rect, tol: f64) -> bool {
    let w = a.max_x().min(b.max_x()) - a.min_x().max(b.min_x());
    let h = a.max_y().min(b.max_y()) - a.min_y().max(b.min_y());
    w > tol && h > tol
}

/// The cell rectangle of a flattened wire cell index.
fn wire_cell_rect(grid: &Grid, index: u32) -> Result<Rect, String> {
    let cols = u64::from(grid.cols());
    let idx = u64::from(index);
    if idx >= grid.cell_count() {
        return Err(format!("wire cell index {index} out of range"));
    }
    let cell = CellId { col: (idx % cols) as u32, row: (idx / cols) as u32 };
    Ok(grid.cell_rect(cell))
}

/// Per-run context shared by every per-response check.
struct OracleState<'a> {
    grid: &'a Grid,
    alarms: &'a [SpatialAlarm],
    v_max: f64,
    /// `(subscriber, alarm id)` pairs the transcript has seen fire.
    fired: HashSet<(u32, u64)>,
}

impl OracleState<'_> {
    /// Alarm regions that could still fire for `user`.
    fn unfired_relevant(&self, user: u32) -> Vec<&SpatialAlarm> {
        self.alarms
            .iter()
            .filter(|a| {
                a.is_relevant_to(SubscriberId(user)) && !self.fired.contains(&(user, a.id().0))
            })
            .collect()
    }

    fn check_rect_install(&self, user: u32, cell: u32, rect: [u32; 4]) -> Result<(), String> {
        let region = dequantize_rect(rect)
            .map_err(|e| format!("wire rect does not decode to a rectangle: {e}"))?;
        let cell_rect = wire_cell_rect(self.grid, cell)?;
        let inflated = cell_rect
            .inflated(GEOMETRY_TOL_M)
            .map_err(|e| format!("cell rect inflation failed: {e}"))?;
        if !inflated.contains_rect(&region) {
            return Err(format!(
                "rect install for user#{user} escapes its cell: region {region:?} vs cell \
                 {cell_rect:?}"
            ));
        }
        for alarm in self.unfired_relevant(user) {
            if overlaps_beyond_tol(region, alarm.region(), GEOMETRY_TOL_M) {
                return Err(format!(
                    "rect install for user#{user} overlaps unfired {}: region {region:?} vs \
                     alarm {:?}",
                    alarm.id(),
                    alarm.region()
                ));
            }
        }
        Ok(())
    }

    fn check_bitmap_install(
        &self,
        user: u32,
        strategy: StrategySpec,
        cell: u32,
        bits: &sa_core::BitVec,
    ) -> Result<(), String> {
        let StrategySpec::Pbsr { height } = strategy else {
            return Err(format!(
                "bitmap install shipped to user#{user} running {strategy:?}"
            ));
        };
        let cell_rect = wire_cell_rect(self.grid, cell)?;
        let region = BitmapSafeRegion::from_wire_bits(cell_rect, pbsr_pyramid(height), bits.clone())
            .map_err(|e| format!("bitmap for user#{user} does not decode: {e}"))?;
        let obstacles: Vec<Rect> = self
            .unfired_relevant(user)
            .iter()
            .map(|a| a.region())
            .filter(|r| r.intersects_interior(&cell_rect))
            .collect();
        check_bitmap_against_mask("bitmap-wire", &region, &obstacles)
            .map_err(|v| format!("user#{user}: {v}"))?;
        check_sound("bitmap-wire", &region, cell_rect, &obstacles, INSTALL_LATTICE_N)
            .map_err(|v| format!("user#{user}: {v}"))?;
        Ok(())
    }

    fn check_alarm_push(&self, user: u32, cell: u32, pushed: &[PushedAlarm]) -> Result<(), String> {
        let cell_rect = wire_cell_rect(self.grid, cell)?;
        let pushed_relevant: HashSet<u64> = pushed
            .iter()
            .filter(|p| p.relevant)
            .map(|p| u64::from(p.alarm))
            .collect();
        for alarm in self.unfired_relevant(user) {
            if alarm.region().intersects_interior(&cell_rect)
                && !pushed_relevant.contains(&alarm.id().0)
            {
                return Err(format!(
                    "alarm push for user#{user} in cell {cell} omits unfired relevant {}",
                    alarm.id()
                ));
            }
        }
        Ok(())
    }

    fn check_safe_period(&self, user: u32, pos: Point, period_ms: u32) -> Result<(), String> {
        let Some(dist) = self
            .unfired_relevant(user)
            .iter()
            .map(|a| a.region().distance_to_point(pos))
            .min_by(|a, b| a.partial_cmp(b).expect("distances are finite"))
        else {
            return Ok(());
        };
        let period_s = f64::from(period_ms) / 1_000.0;
        // One granted millisecond plus the quantized-position slack.
        let slack = self.v_max * 2e-3 + GEOMETRY_TOL_M;
        if period_s * self.v_max > dist + slack {
            return Err(format!(
                "safe-period grant for user#{user} outlasts the nearest unfired alarm: \
                 {period_ms} ms at v_max {:.2} m/s covers {:.3} m but the alarm is {:.3} m away",
                self.v_max,
                period_s * self.v_max,
                dist
            ));
        }
        Ok(())
    }

    /// Processes one response sequence addressed to `user`, in delivery
    /// order, updating the fired set as deliveries appear.
    fn absorb_responses(
        &mut self,
        user: u32,
        strategy: StrategySpec,
        pos: Option<Point>,
        responses: &[Response],
    ) -> Result<(), String> {
        for resp in responses {
            match resp {
                Response::TriggerDelivery { alarm, .. } => {
                    self.fired.insert((user, u64::from(*alarm)));
                }
                Response::RectInstall { cell, rect, .. } => {
                    self.check_rect_install(user, *cell, *rect)?;
                }
                Response::BitmapInstall { cell, bits, .. } => {
                    self.check_bitmap_install(user, strategy, *cell, bits)?;
                }
                Response::AlarmPush { cell, alarms, .. } => {
                    self.check_alarm_push(user, *cell, alarms)?;
                }
                Response::SafePeriodGrant { period_ms } => {
                    if let Some(pos) = pos {
                        self.check_safe_period(user, pos, *period_ms)?;
                    }
                }
                Response::Ack { .. }
                | Response::Overloaded { .. }
                | Response::Error { .. }
                | Response::Stats { .. }
                | Response::Batch { .. }
                | Response::Topology { .. }
                | Response::WrongOwner { .. }
                | Response::SessionState { .. } => {}
            }
        }
        Ok(())
    }
}

/// Replays `transcript` through the brute-force oracles.
///
/// `sessions[i][m]` is client `i`'s session on federation member `m`,
/// and `strategies[i]` its strategy (subscriber id `i`). Entries are
/// attributed by their tag, laid out as
/// `kind << 48 | client << 16 | member`: a client link (kind 0) speaks
/// for its client, batch reply groups on a member's driver link (kind
/// 3) are attributed by `(member, session)`, and the handoff mesh (1)
/// and coordinator (2) links carry no subscriber's answers, so they are
/// skipped.
///
/// # Errors
///
/// The first soundness violation, decode failure, or protocol-shape
/// surprise, rendered as one line of context.
pub fn check_transcript(
    transcript: &Transcript,
    harness: &SimulationHarness,
    sessions: &[Vec<u32>],
    strategies: &[StrategySpec],
) -> Result<(), String> {
    assert_eq!(sessions.len(), strategies.len(), "one session list per client");
    let by_session: HashMap<(u32, u32), usize> = sessions
        .iter()
        .enumerate()
        .flat_map(|(i, per_member)| {
            per_member.iter().enumerate().map(move |(m, &s)| ((m as u32, s), i))
        })
        .collect();
    let mut state = OracleState {
        grid: harness.grid(),
        alarms: harness.index().alarms(),
        v_max: harness.v_max(),
        fired: HashSet::new(),
    };

    for (n, entry) in transcript.entries().iter().enumerate() {
        let (kind, client, member) =
            (entry.tag >> 48, (entry.tag >> 16) as u32 as usize, (entry.tag & 0xFFFF) as u32);
        if kind == 1 || kind == 2 {
            continue;
        }
        let req = Request::decode(&entry.request)
            .map_err(|e| format!("entry {n}: recorded request does not decode: {e}"))?;
        // Client-side trigger detection counts as fired the moment it is
        // attempted: marking on a lost notify only shrinks the expected
        // set (conservative), while missing a delivered one would flag
        // phantom violations.
        if let (0, Request::TriggerNotify { alarm, .. }) = (kind, &req) {
            state.fired.insert((client as u32, u64::from(*alarm)));
        }
        let Ok(frames) = &entry.outcome else { continue };
        let responses: Vec<Response> = frames
            .iter()
            .map(|f| Response::decode(f))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("entry {n}: recorded response does not decode: {e}"))?;

        if kind == 3 {
            let Request::Batch { updates, .. } = &req else {
                continue;
            };
            let positions: HashMap<u32, Point> = updates
                .iter()
                .map(|u| {
                    (u.session, Point::new(dequantize_m(u.x_fx), dequantize_m(u.y_fx)))
                })
                .collect();
            for resp in &responses {
                let Response::Batch { replies, .. } = resp else { continue };
                for group in replies {
                    let Some(&client) = by_session.get(&(member, group.session)) else {
                        return Err(format!(
                            "entry {n}: batch reply for unknown session {} on member {member}",
                            group.session
                        ));
                    };
                    state
                        .absorb_responses(
                            client as u32,
                            strategies[client],
                            positions.get(&group.session).copied(),
                            &group.responses,
                        )
                        .map_err(|e| format!("entry {n}: {e}"))?;
                }
            }
        } else {
            if kind != 0 || client >= strategies.len() {
                return Err(format!("entry {n}: unknown connection tag {:#x}", entry.tag));
            }
            let pos = req
                .position_fx()
                .map(|(x, y)| Point::new(dequantize_m(x), dequantize_m(y)));
            state
                .absorb_responses(client as u32, strategies[client], pos, &responses)
                .map_err(|e| format!("entry {n}: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::link_salt;
    use crate::transcript::TranscriptEntry;
    use sa_server::wire::{pack_motion, quantize_m, quantize_rect, BatchReply, BatchedUpdate};
    use sa_sim::SimulationConfig;

    /// Client `i`'s session on member `m` is `SESSIONS[i][m]`: session 7
    /// is client 0's on member 2 and client 1's on member 1.
    const SESSIONS: [[u32; 3]; 3] = [[3, 4, 7], [5, 7, 8], [6, 9, 10]];

    fn sessions() -> Vec<Vec<u32>> {
        SESSIONS.iter().map(|s| s.to_vec()).collect()
    }

    /// An alarm relevant to subscriber `yes` and not to `no`.
    fn alarm_for(harness: &SimulationHarness, yes: u32, no: u32) -> &SpatialAlarm {
        harness
            .index()
            .alarms()
            .iter()
            .find(|a| a.is_relevant_to(SubscriberId(yes)) && !a.is_relevant_to(SubscriberId(no)))
            .expect("the workload carries private alarms")
    }

    /// An update at the centre of `alarm` and the unsound install that
    /// answers it: a 1 m square around that centre, inside its cell.
    fn unsound_exchange(harness: &SimulationHarness, alarm: &SpatialAlarm) -> (Point, Response) {
        let c = alarm.region().center();
        let grid = harness.grid();
        let cell = grid.cell_of(c);
        let rect = Rect::new(c.x - 0.5, c.y - 0.5, c.x + 0.5, c.y + 0.5).unwrap();
        assert!(grid.cell_rect(cell).contains_rect(&rect), "the square must sit inside its cell");
        let install =
            Response::RectInstall { seq: 1, cell: grid.cell_index(cell) as u32, rect: quantize_rect(rect) };
        (c, install)
    }

    fn update(pos: Point) -> Request {
        let (x_fx, y_fx) = (quantize_m(pos.x), quantize_m(pos.y));
        Request::LocationUpdate { seq: 1, x_fx, y_fx, motion: pack_motion(0.0, 10.0) }
    }

    fn entry(tag: u64, req: &Request, resp: &Response) -> TranscriptEntry {
        TranscriptEntry {
            tag,
            request: req.encode().to_vec(),
            outcome: Ok(vec![resp.encode().to_vec()]),
        }
    }

    fn harness() -> SimulationHarness {
        SimulationHarness::build(&SimulationConfig::fuzz_slice(3, 48, 20, 0x0AC1E))
    }

    fn check(harness: &SimulationHarness, entries: Vec<TranscriptEntry>) -> Result<(), String> {
        let mut transcript = Transcript::new();
        entries.into_iter().for_each(|e| transcript.push(e));
        let strategies = [StrategySpec::Mwpsr; 3];
        check_transcript(&transcript, harness, &sessions(), &strategies)
    }

    #[test]
    fn an_unsound_install_on_a_members_client_link_is_flagged_for_its_subscriber() {
        let harness = harness();
        let (pos, install) = unsound_exchange(&harness, alarm_for(&harness, 1, 0));
        let err = check(&harness, vec![entry(link_salt(0, 1, 1), &update(pos), &install)])
            .expect_err("an install overlapping an unfired relevant alarm is unsound");
        assert!(err.contains("rect install for user#1 overlaps unfired"), "{err}");
        // The same bytes answering client 0, to whom the alarm is
        // irrelevant, are sound.
        check(&harness, vec![entry(link_salt(0, 0, 1), &update(pos), &install)])
            .expect("the alarm is not client 0's");
    }

    #[test]
    fn batch_reply_groups_are_attributed_by_member_and_session() {
        let harness = harness();
        let (pos, install) = unsound_exchange(&harness, alarm_for(&harness, 0, 1));
        let batch = |member: u32| {
            let session = 7;
            let (x_fx, y_fx) = (quantize_m(pos.x), quantize_m(pos.y));
            let updates =
                vec![BatchedUpdate { session, seq: 1, x_fx, y_fx, motion: pack_motion(0.0, 10.0) }];
            let replies = vec![BatchReply { session, responses: vec![install.clone()] }];
            let tag = link_salt(3, u32::MAX, member);
            entry(tag, &Request::Batch { seq: 1, updates }, &Response::Batch { seq: 1, replies })
        };
        // Session 7 on member 2 is client 0, whose alarm the install
        // overlaps; on member 1 it is client 1, to whom it is irrelevant.
        let err = check(&harness, vec![batch(2)]).expect_err("client 0's install is unsound");
        assert!(err.contains("user#0"), "{err}");
        check(&harness, vec![batch(1)]).expect("client 1's install is sound");
        let err = check(&harness, vec![batch(0)]).expect_err("no client has session 7 on member 0");
        assert!(err.contains("unknown session 7 on member 0"), "{err}");
    }

    #[test]
    fn mesh_and_coordinator_links_are_skipped() {
        let harness = harness();
        let (pos, install) = unsound_exchange(&harness, alarm_for(&harness, 1, 0));
        let trunks = vec![
            entry(link_salt(1, 1, 1), &update(pos), &install),
            entry(link_salt(2, u32::MAX, 1), &update(pos), &install),
        ];
        check(&harness, trunks).expect("server-to-server links answer no subscriber");
        let err = check(&harness, vec![entry(link_salt(4, 1, 1), &update(pos), &install)])
            .expect_err("an unknown link kind is a protocol-shape surprise");
        assert!(err.contains("unknown connection tag"), "{err}");
    }

    #[test]
    fn strictly_inside_respects_the_tolerance_band() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0).unwrap();
        assert!(strictly_inside(r, Point::new(5.0, 5.0), GEOMETRY_TOL_M));
        assert!(!strictly_inside(r, Point::new(10.0, 5.0), GEOMETRY_TOL_M));
        assert!(!strictly_inside(r, Point::new(5.0, 0.000_4), GEOMETRY_TOL_M));
    }

    #[test]
    fn overlap_beyond_tol_ignores_edge_contact() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0).unwrap();
        let touching = Rect::new(10.0, 0.0, 20.0, 10.0).unwrap();
        let shaved = Rect::new(9.999_5, 0.0, 20.0, 10.0).unwrap();
        let deep = Rect::new(8.0, 2.0, 20.0, 8.0).unwrap();
        assert!(!overlaps_beyond_tol(a, touching, GEOMETRY_TOL_M));
        assert!(!overlaps_beyond_tol(a, shaved, GEOMETRY_TOL_M), "sub-tolerance overlap is noise");
        assert!(overlaps_beyond_tol(a, deep, GEOMETRY_TOL_M));
    }

    #[test]
    fn wire_cell_rect_round_trips_the_flattened_index() {
        let universe = Rect::new(0.0, 0.0, 3_000.0, 3_000.0).unwrap();
        let grid = Grid::new(universe, 1_000.0).unwrap();
        for row in 0..grid.rows() {
            for col in 0..grid.cols() {
                let cell = CellId { col, row };
                let idx = grid.cell_index(cell) as u32;
                assert_eq!(wire_cell_rect(&grid, idx).unwrap(), grid.cell_rect(cell));
            }
        }
        assert!(wire_cell_rect(&grid, 9).is_err());
    }
}
