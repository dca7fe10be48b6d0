//! What runs: the four workloads and their sizes.
//!
//! A round is a fixed amount of work, not a time limit — a faster
//! server finishes the same hour sooner, it is not handed a longer one —
//! so the exact ratios repeat bit for bit. A run repeats its round
//! `Spec::rounds` times at `BENCHMARK.json`'s `run_seconds`; `--seconds`
//! scales the number of rounds, never the round.

use crate::gen::{churn_rects, derive_seed, Stream};
use sa_alarms::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
use sa_geometry::Rect;
use sa_server::StrategySpec;
use sa_sim::SimulationConfig;

/// Identical rounds per run of an in-proc workload at `BENCHMARK.json`'s
/// `run_seconds`: a round is the whole hour, and every timing is taken,
/// segment by segment, from the round in which that segment ran fastest.
pub const IN_PROC_ROUNDS: u32 = 3;

/// Rounds per run of a TCP workload: twice as many, half as long. Each
/// round dials its connections afresh, and which of the reactor's two
/// workers accepts a connection is a race (`reactor::worker_loop`: "whoever
/// polls first takes the connection"), so every set-up splits the
/// connections differently and a lopsided split scans slowly for the whole
/// round (median RTT on `tcp_fleet` 0.40 to 0.80 ms from round to round
/// inside one run). Six set-ups make it likely that one of them is even.
pub const TCP_ROUNDS: u32 = 6;

/// Workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["tcp_fleet", "tcp_refresh", "monitor_hour", "alarm_churn"];

/// The strategy mix of the three client-driven workloads, assigned to
/// vehicles round-robin.
pub const STRATEGY_MIX: [StrategySpec; 4] = [
    StrategySpec::Mwpsr,
    StrategySpec::Pbsr { height: 5 },
    StrategySpec::Opt,
    StrategySpec::SafePeriod,
];

/// Entries per `Request::Batch` frame on the in-proc workloads.
pub const MAX_BATCH_ENTRIES: usize = 1024;

/// Share of the paper's 10,000 vehicles × 10,000 alarms the two in-proc
/// workloads run (the whole hour of it).
pub const IN_PROC_SCALE: f64 = 0.2;

/// `InstallAlarm`s, and after the lifetime as many `RemoveAlarm`s, that
/// `alarm_churn` issues per step.
pub const CHURN_WRITES_PER_STEP: u32 = 8;

/// Side of the squares `alarm_churn` installs, in meters.
pub const CHURN_RECT_SIDE_M: f64 = 300.0;

/// How a workload drives the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// One loopback TCP connection per vehicle, every sample sent as a
    /// `LocationUpdate`, open loop at `rate_per_s`, after
    /// `warmup_steps` untimed steps.
    OpenLoopTcp {
        /// Offered Poisson rate, updates per second.
        rate_per_s: f64,
        /// Steps sent before the timed window opens.
        warmup_steps: u32,
    },
    /// Real `Client<TcpTransport>` state machines, one blocking exchange
    /// at a time.
    ClosedLoopTcp,
    /// Real `Client<InProcTransport>`s polled per step, one
    /// `Request::Batch` per step, plus `writes_per_step` alarm installs
    /// and (after `lifetime_steps`) as many removals on a control
    /// session.
    BatchedInProc {
        /// `InstallAlarm`s (and later `RemoveAlarm`s) per step; 0 on
        /// `monitor_hour`.
        writes_per_step: u32,
        /// Steps an installed alarm lives before it is removed.
        lifetime_steps: u32,
    },
}

/// One fully sized workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// The run's `--seed`; the open-loop schedule and the churn
    /// rectangles are drawn from it at drive time.
    pub seed: u64,
    /// How the server is driven.
    pub drive: Drive,
    /// The simulated world, every generator seeded from `--seed`.
    pub config: SimulationConfig,
    /// Timed steps per round (warm-up steps, where any, come on top).
    pub steps: u32,
    /// Identical untraced rounds per run at `BENCHMARK.json`'s
    /// `run_seconds`.
    pub rounds: u32,
    /// Full set-ups per round; `setup_s` is the fastest of the run.
    pub setups: u32,
}

impl Spec {
    /// The workload `name` at its nominal size. Returns `None` for an
    /// unknown name.
    pub fn nominal(name: &str, seed: u64) -> Option<Spec> {
        let spec = match name {
            "tcp_fleet" => Spec {
                name: "tcp_fleet",
                seed,
                drive: Drive::OpenLoopTcp {
                    rate_per_s: 8_000.0,
                    warmup_steps: 4,
                },
                config: SimulationConfig::scaled(0.1),
                steps: 20,
                rounds: TCP_ROUNDS,
                setups: 1,
            },
            "tcp_refresh" => {
                let mut config = SimulationConfig::scaled(0.1);
                config.fleet.vehicles = 256;
                Spec {
                    name: "tcp_refresh",
                    seed,
                    drive: Drive::ClosedLoopTcp,
                    config,
                    steps: 480,
                    rounds: TCP_ROUNDS,
                    setups: 4,
                }
            }
            "monitor_hour" => Spec {
                name: "monitor_hour",
                seed,
                drive: Drive::BatchedInProc {
                    writes_per_step: 0,
                    lifetime_steps: 0,
                },
                config: SimulationConfig::paper_fraction(IN_PROC_SCALE),
                steps: 3_600,
                rounds: IN_PROC_ROUNDS,
                setups: 8,
            },
            "alarm_churn" => Spec {
                name: "alarm_churn",
                seed,
                drive: Drive::BatchedInProc {
                    writes_per_step: CHURN_WRITES_PER_STEP,
                    lifetime_steps: 60,
                },
                config: SimulationConfig::paper_fraction(IN_PROC_SCALE),
                steps: 3_600,
                rounds: IN_PROC_ROUNDS,
                setups: 8,
            },
            _ => return None,
        };
        Some(spec.seeded(seed))
    }

    /// A 30-step miniature of `name` for the determinism tests: the same
    /// driver, a few dozen vehicles, finished in well under a second.
    pub fn miniature(name: &str, seed: u64) -> Option<Spec> {
        let mut spec = Spec::nominal(name, seed)?;
        let vehicles = 48;
        spec.config.fleet.vehicles = vehicles;
        spec.config.workload.alarms = 2_000;
        spec.config.workload.subscribers = vehicles as u32;
        spec.steps = 30;
        spec.rounds = 1;
        spec.setups = 1;
        match &mut spec.drive {
            Drive::OpenLoopTcp {
                rate_per_s,
                warmup_steps,
            } => {
                *rate_per_s = 4_000.0;
                *warmup_steps = 2;
            }
            // Short enough that removals happen inside thirty steps.
            Drive::BatchedInProc { lifetime_steps, .. } => *lifetime_steps = 10,
            Drive::ClosedLoopTcp => {}
        }
        Some(spec.seeded(seed))
    }

    /// Re-seeds the vehicles' trips from `seed` and sets the simulated
    /// duration to cover every step that will be driven.
    ///
    /// The road network and the installed alarm set stay the paper's
    /// fixed ones: they are the world, the subscribers' movements are
    /// the input. Re-drawing the alarm layout per seed moved
    /// `uplinks_per_ksample` by ±7% and throughput by ±12% between seeds
    /// (a few public alarms on busy roads decide how often everyone
    /// reports), which would bury any change the benchmark is meant to
    /// show; re-drawing only the trips moves the exact ratios by ±0.4%.
    fn seeded(mut self, seed: u64) -> Spec {
        self.seed = seed;
        self.config.fleet.seed = derive_seed(seed, Stream::Fleet);
        self.config.duration_s = f64::from(self.total_steps()) * self.config.sample_period_s;
        self
    }

    /// Warm-up steps before the timed window (0 except on `tcp_fleet`).
    pub fn warmup_steps(&self) -> u32 {
        match self.drive {
            Drive::OpenLoopTcp { warmup_steps, .. } => warmup_steps,
            _ => 0,
        }
    }

    /// Warm-up plus timed steps.
    pub fn total_steps(&self) -> u32 {
        self.warmup_steps() + self.steps
    }

    /// Vehicles (= sessions; = TCP connections on the two TCP workloads).
    pub fn vehicles(&self) -> u32 {
        self.config.fleet.vehicles as u32
    }

    /// The strategy vehicle `v` runs.
    pub fn strategy_of(&self, v: u32) -> StrategySpec {
        match self.drive {
            Drive::OpenLoopTcp { .. } => StrategySpec::Pbsr { height: 3 },
            _ => STRATEGY_MIX[v as usize % STRATEGY_MIX.len()],
        }
    }

    /// The subscriber id churned alarms are private to: beyond every
    /// vehicle, so they are relevant to no one and change no answer.
    pub fn phantom_owner(&self) -> u32 {
        self.vehicles() + 7
    }

    /// Alarm `id` over `rect`, private to the phantom owner.
    pub fn phantom_alarm(&self, id: u64, rect: Rect) -> SpatialAlarm {
        SpatialAlarm::new(
            AlarmId(id),
            rect,
            AlarmTarget::Static(rect.center()),
            AlarmScope::Private {
                owner: SubscriberId(self.phantom_owner()),
            },
        )
    }

    /// `count` churn rectangles from the stream `salt` picks under the
    /// run's seed (0 is the workload's own; the probes use others).
    pub fn churn_rects(&self, salt: u64, count: usize) -> Vec<Rect> {
        churn_rects(
            self.seed ^ salt,
            self.config.universe(),
            CHURN_RECT_SIDE_M,
            count,
        )
    }
}
