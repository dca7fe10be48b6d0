//! The deterministic schedule harness.
//!
//! [`FuzzCase`] is a complete description of one end-to-end run — fleet
//! slice, alarm workload, strategy mix, fault plan and batching cadence
//! — derivable from a single `u64` seed
//! ([`FuzzCase::from_seed`]). [`run_case`] executes it against the live
//! `sa-server` stack on a [`VirtualClock`]: every timestamp, injected
//! delay and backoff sleep advances simulated time instead of wall
//! time, every RNG is seeded from the case, and the single driver
//! thread exchanges requests synchronously — so the entire run,
//! including its byte-level [`Transcript`], is a pure function of the
//! case.
//!
//! Determinism boundary: the server owns no threads. Every request —
//! a batch frame's entries included, in frame order — runs on the
//! driver thread itself, so the transcript never observes thread
//! timing.

use crate::oracle::check_transcript;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use sa_server::transcript::{RecordingTransport, SharedTranscript, Transcript, DRIVER_TAG};
use sa_server::{
    connect_fleet, drive, verify_prefix, BatchDriver, ChaosControls, Client, FaultLeg, FaultPlan,
    FaultyTransport, InProcTransport, ReplayConfig, ResiliencePolicy, SharedClock, StrategySpec,
    TraceMode, TransportError, VirtualClock,
};
use sa_sim::{FiredEvent, SimulationConfig, SimulationHarness};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One fully-specified fuzz run: everything [`run_case`] needs, and
/// nothing it reads from anywhere else.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Master seed: world generation, fault RNG streams, interleaving.
    pub seed: u64,
    /// Fleet size (clamped to ≥ 1).
    pub vehicles: usize,
    /// Alarm workload size (clamped to ≥ 1).
    pub alarms: usize,
    /// Steps to drive (1 Hz sampling).
    pub steps: u32,
    /// Strategies assigned to vehicles round-robin.
    pub strategies: Vec<StrategySpec>,
    /// The fault schedule every client link runs under.
    pub plan: FaultPlan,
    /// Every `batch_every`-th step is driven as one [`sa_server::Request::Batch`]
    /// frame instead of per-client exchanges; `0` never batches. Only
    /// meaningful under a clean plan — [`FuzzCase::from_seed`] never
    /// combines batching with faults, because the chaos semantics
    /// (retry, resync, degraded mode) are defined on the per-request
    /// path.
    pub batch_every: u32,
}

impl FuzzCase {
    /// Derives a complete case from one seed. The mapping is pure: the
    /// same seed always yields the same case.
    pub fn from_seed(seed: u64) -> FuzzCase {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0DE_5EED_F007_BA11);
        let vehicles = rng.gen_range(2..=6usize);
        let alarms = rng.gen_range(4..=48usize);
        let steps = rng.gen_range(16..=72u32);
        let pyramid_height = rng.gen_range(1..=5u32);
        let rot = rng.gen_range(0..4usize);
        let all = [
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: pyramid_height },
            StrategySpec::Opt,
            StrategySpec::SafePeriod,
        ];
        let strategies = (0..all.len()).map(|i| all[(i + rot) % all.len()]).collect();
        let plan = match rng.gen_range(0..5u32) {
            0 | 1 => FaultPlan::clean(),
            2 => FaultPlan {
                seed,
                up: FaultLeg { drop: 0.10, duplicate: 0.02, delay: 0.05, max_delay: Duration::from_millis(40) },
                down: FaultLeg { drop: 0.10, duplicate: 0.02, delay: 0.05, max_delay: Duration::from_millis(40) },
                disconnect_steps: random_windows(&mut rng, steps),
            },
            3 => FaultPlan { seed, disconnect_steps: random_windows(&mut rng, steps), ..FaultPlan::clean() },
            _ => FaultPlan::duplicating(seed),
        };
        let clean = plan == FaultPlan::clean();
        let batch_every = if clean { rng.gen_range(0..3u32) } else { 0 };
        FuzzCase { seed, vehicles, alarms, steps, strategies, plan, batch_every }
    }
}

/// Up to two disconnect windows of 2–6 steps inside `0..steps`.
fn random_windows(rng: &mut SmallRng, steps: u32) -> Vec<std::ops::Range<u32>> {
    let count = rng.gen_range(1..=2u32);
    (0..count)
        .map(|_| {
            let len = rng.gen_range(2..=6u32);
            let start = rng.gen_range(0..steps.saturating_sub(len).max(1));
            start..start + len
        })
        .collect()
}

/// Everything one [`run_case`] execution produced.
#[derive(Debug)]
pub struct CaseOutcome {
    /// [`Transcript::digest`] of the run — the byte-identity witness.
    pub digest: u64,
    /// The full byte transcript.
    pub transcript: Transcript,
    /// Every firing observed by any client.
    pub fired: Vec<FiredEvent>,
    /// Diff against the simulator's ground truth restricted to the
    /// replayed steps (the paper's 100%-accuracy requirement).
    pub verification: Result<(), String>,
    /// The transcript-level install-soundness oracle (every safe region,
    /// alarm push and safe-period grant the server shipped, checked
    /// against the brute-force reference).
    pub oracle: Result<(), String>,
    /// Total faults the chaos layer injected.
    pub injected_total: u64,
    /// Steps actually driven.
    pub steps: u32,
}

impl CaseOutcome {
    /// The first invariant violation, if any.
    pub fn failure(&self) -> Option<String> {
        match (&self.verification, &self.oracle) {
            (Err(e), _) => Some(format!("ground-truth divergence: {e}")),
            (_, Err(e)) => Some(format!("oracle violation: {e}")),
            _ => None,
        }
    }

    /// Panics with the violation when the run was not clean.
    ///
    /// # Panics
    ///
    /// Panics when the ground-truth diff or the install oracle failed.
    pub fn assert_clean(&self) {
        if let Some(e) = self.failure() {
            panic!("fuzz case violated an invariant: {e}");
        }
    }
}

/// Executes one [`FuzzCase`] end to end — `sa-server`'s one replay
/// driver on a [`VirtualClock`], every link recorded — and returns its
/// outcome.
///
/// # Errors
///
/// Fails when a client hits a non-transient transport error or the
/// server violates the batch protocol.
///
/// # Panics
///
/// Panics when the case carries an empty strategy list.
pub fn run_case(case: &FuzzCase) -> Result<CaseOutcome, TransportError> {
    let config =
        SimulationConfig::fuzz_slice(case.vehicles, case.alarms, case.steps, case.seed);
    config.validate();
    let harness = SimulationHarness::build(&config);
    let dt = Duration::from_secs_f64(config.sample_period_s);
    let vehicles = 0..config.fleet.vehicles as u32;
    let replay = ReplayConfig {
        steps: Some(case.steps.max(1)),
        strategies: case.strategies.clone(),
        trace_mode: TraceMode::Full,
    };
    let vclock = Arc::new(VirtualClock::new());
    let clock: SharedClock = vclock.clone();
    let (server, steps) = replay.start(&harness, Arc::clone(&clock));
    let log: SharedTranscript = Arc::new(Mutex::new(Transcript::new()));
    let link = ChaosControls::default();
    let mut sessions = Vec::with_capacity(vehicles.len());
    let mut clients = connect_fleet(&harness, &case.strategies, vehicles.clone(), |v| {
        let inner = InProcTransport::connect(Arc::clone(&server));
        sessions.push(inner.session());
        let faulty = FaultyTransport::new(inner, case.plan.clone(), u64::from(v))
            .with_clock(Arc::clone(&clock))
            .sharing(&link);
        Ok(RecordingTransport::new(faulty, u64::from(v), Arc::clone(&log)))
    })?;
    for (v, client) in clients.iter_mut().enumerate() {
        client.set_clock(Arc::clone(&clock));
        client.enable_resilience(ResiliencePolicy::standard(case.seed ^ 0xBACC_0FF5 ^ v as u64));
    }
    let strategies: Vec<StrategySpec> = clients.iter().map(Client::strategy).collect();
    let mut driver = BatchDriver::new(
        RecordingTransport::new(
            InProcTransport::connect(Arc::clone(&server)),
            DRIVER_TAG,
            Arc::clone(&log),
        ),
        sessions.clone(),
        0,
    );

    let faults = Some((&case.plan, &link));
    let hook = |step, clients: &mut [_], samples: &[_]| {
        vclock.advance(dt);
        if case.batch_every > 0 && step % case.batch_every == 0 {
            driver.exchange_step(clients, step, samples).map(Some)
        } else {
            Ok(None)
        }
    };
    let driven = drive(&harness, vehicles, steps, faults, Some(case.seed), &mut clients, hook)?;

    let lone = std::slice::from_ref(&server);
    let verification = verify_prefix(&harness, steps, &driven.fired, || server.spans(), lone);

    let transcript = log.lock().expect("transcript lock poisoned").clone();
    let oracle = check_transcript(&transcript, &harness, &sessions, &strategies);
    Ok(CaseOutcome {
        digest: transcript.digest(),
        transcript,
        fired: driven.fired,
        verification,
        oracle,
        injected_total: link.counts().total(),
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_pure_and_varies() {
        let a = FuzzCase::from_seed(7);
        assert_eq!(a, FuzzCase::from_seed(7));
        let b = FuzzCase::from_seed(8);
        assert_ne!(a, b);
        assert!(a.vehicles >= 1 && a.steps >= 1 && !a.strategies.is_empty());
    }

    #[test]
    fn seeds_cover_clean_and_faulty_plans_and_batching() {
        let cases: Vec<FuzzCase> = (0..64).map(FuzzCase::from_seed).collect();
        assert!(cases.iter().any(|c| c.plan == FaultPlan::clean()));
        assert!(cases.iter().any(|c| c.plan != FaultPlan::clean()));
        assert!(cases.iter().any(|c| c.batch_every > 0));
        // Batching never rides on a faulty plan (chaos semantics are
        // per-request).
        assert!(cases
            .iter()
            .all(|c| c.batch_every == 0 || c.plan == FaultPlan::clean()));
    }

    #[test]
    fn a_tiny_clean_case_runs_clean() {
        let case = FuzzCase {
            seed: 11,
            vehicles: 2,
            alarms: 8,
            steps: 20,
            strategies: vec![StrategySpec::Mwpsr, StrategySpec::Pbsr { height: 2 }],
            plan: FaultPlan::clean(),
            batch_every: 2,
        };
        let outcome = run_case(&case).expect("transport must hold");
        outcome.assert_clean();
        assert!(!outcome.transcript.entries().is_empty());
    }
}
