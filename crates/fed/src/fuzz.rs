//! Named federation fuzz schedules for the PR gate.
//!
//! Each [`FedCase`] pins a full [`FedReplayConfig`] — seed, fault plan,
//! partition count, repartition point — chosen so the replay provably
//! crosses the scenario it is named for (the tests at the bottom assert
//! the crossing, so a regression that silently stops exercising the
//! path fails loudly). [`run_fed_case`] executes a case **twice** and
//! demands byte-identical digests plus an exact ground-truth match on
//! both runs; `verify_fuzz` runs the same cases as its federation
//! phase.

use crate::replay::{fed_replay, FedOutcome, FedReplayConfig};
use sa_server::{FaultPlan, StrategySpec};

/// A named, fully pinned federation replay scenario.
#[derive(Debug, Clone)]
pub struct FedCase {
    /// Stable name (used in reports and repro files).
    pub name: &'static str,
    /// The pinned replay configuration.
    pub config: FedReplayConfig,
    /// The case must complete at least this many session handoffs.
    pub min_handoffs: u64,
    /// The case must complete a mid-run repartition.
    pub expect_repartition: bool,
}

/// What one [`run_fed_case`] execution established.
#[derive(Debug)]
pub struct FedCaseOutcome {
    /// The case name.
    pub name: &'static str,
    /// Digest of the (identical) runs.
    pub digest: u64,
    /// Both runs produced the same digest.
    pub deterministic: bool,
    /// Both runs fired exactly the ground-truth sequence.
    pub verified: bool,
    /// Handoffs completed by the first run.
    pub handoffs: u64,
    /// Redirect bounces absorbed by the first run.
    pub redirects: u64,
    /// Chaos injections over the first run.
    pub injected: u64,
    /// Whether the mid-run repartition moved the cut.
    pub repartitioned: bool,
    /// First failure detected, if any.
    pub failure: Option<String>,
    /// Chrome trace-event JSON of the first run (CI keeps it as an
    /// artifact; empty when the first run never completed).
    pub trace_json: String,
}

impl FedCaseOutcome {
    /// Whether the case passed every gate.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// A vehicle loses its radio mid-run while drifting across a partition
/// boundary: the handoff triggered by the boundary crossing and the
/// disconnect-window resync overlap, and the pending firings must come
/// out exactly once on the new owner.
pub fn handoff_during_disconnect_case() -> FedCase {
    FedCase {
        name: "handoff-during-disconnect",
        config: FedReplayConfig {
            partitions: 3,
            vehicles: 4,
            alarms: 24,
            steps: 48,
            seed: 0xFED_0001,
            plan: FaultPlan {
                disconnect_steps: std::iter::once(20..27).collect(),
                ..FaultPlan::lossy(0xFED_0001)
            },
            batch_every: 0,
            repartition_at: None,
            strategies: vec![
                StrategySpec::Mwpsr,
                StrategySpec::Pbsr { height: 3 },
                StrategySpec::Opt,
                StrategySpec::SafePeriod,
            ],
        },
        min_handoffs: 1,
        expect_repartition: false,
    }
}

/// The coordinator re-cuts the map in the middle of a batched step
/// cadence: in-flight batch entries bounce with `WrongOwner`, re-route
/// through a session handoff, and must neither duplicate nor drop a
/// staged update.
pub fn repartition_during_batch_case() -> FedCase {
    FedCase {
        name: "repartition-during-batch",
        config: FedReplayConfig {
            partitions: 3,
            vehicles: 4,
            alarms: 24,
            steps: 48,
            seed: 0xFED_0002,
            plan: FaultPlan::clean(),
            batch_every: 2,
            repartition_at: Some(24),
            strategies: vec![
                StrategySpec::Mwpsr,
                StrategySpec::Pbsr { height: 3 },
                StrategySpec::Opt,
                StrategySpec::SafePeriod,
            ],
        },
        min_handoffs: 1,
        expect_repartition: true,
    }
}

/// The PR-gating federation schedule set.
pub fn gating_cases() -> Vec<FedCase> {
    vec![handoff_during_disconnect_case(), repartition_during_batch_case()]
}

/// Runs `case` twice and checks determinism, exactness and scenario
/// coverage. Transport-level failures are folded into the outcome
/// rather than propagated — a gate wants a report, not a panic.
pub fn run_fed_case(case: &FedCase) -> FedCaseOutcome {
    let mut outcome = FedCaseOutcome {
        name: case.name,
        digest: 0,
        deterministic: false,
        verified: false,
        handoffs: 0,
        redirects: 0,
        injected: 0,
        repartitioned: false,
        failure: None,
        trace_json: String::new(),
    };
    let first = match fed_replay(&case.config) {
        Ok(out) => out,
        Err(e) => {
            outcome.failure = Some(format!("first run failed: {e}"));
            return outcome;
        }
    };
    let second = match fed_replay(&case.config) {
        Ok(out) => out,
        Err(e) => {
            outcome.failure = Some(format!("second run failed: {e}"));
            return outcome;
        }
    };
    outcome.digest = first.digest;
    outcome.deterministic = first.digest == second.digest;
    outcome.verified = first.verification.is_ok() && second.verification.is_ok();
    outcome.handoffs = first.handoffs;
    outcome.redirects = first.redirects;
    outcome.injected = first.injected_total;
    outcome.repartitioned = first.repartitioned;
    outcome.failure = check(case, &first, &second);
    outcome.trace_json = first.trace_json;
    outcome
}

fn check(case: &FedCase, first: &FedOutcome, second: &FedOutcome) -> Option<String> {
    if let Err(e) = &first.verification {
        return Some(format!("first run diverged from ground truth: {e}"));
    }
    if let Err(e) = &second.verification {
        return Some(format!("second run diverged from ground truth: {e}"));
    }
    if first.digest != second.digest {
        return Some(format!(
            "nondeterministic transcript: {:#018x} vs {:#018x}",
            first.digest, second.digest
        ));
    }
    if first.handoffs < case.min_handoffs {
        return Some(format!(
            "scenario not exercised: {} handoffs, expected at least {}",
            first.handoffs, case.min_handoffs
        ));
    }
    if case.expect_repartition && !first.repartitioned {
        return Some("scenario not exercised: the mid-run repartition was a no-op".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_during_disconnect_gates_green() {
        let outcome = run_fed_case(&handoff_during_disconnect_case());
        assert!(outcome.passed(), "{:?}", outcome.failure);
        assert!(outcome.handoffs >= 1, "the boundary crossing must have handed off");
    }

    #[test]
    fn repartition_during_batch_gates_green() {
        let outcome = run_fed_case(&repartition_during_batch_case());
        assert!(outcome.passed(), "{:?}", outcome.failure);
        assert!(outcome.repartitioned, "the mid-run repartition must have moved the cut");
    }
}
