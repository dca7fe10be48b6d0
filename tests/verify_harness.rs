//! Tier-1 smoke gate over the sa-verify harness: one fixed case must
//! replay deterministically and clean, and a thin differential slice
//! must pass. The wide sweeps live in `crates/verify/tests/` and the
//! `verify_fuzz` CI binary.

use sa_server::{FaultPlan, StrategySpec};
use sa_verify::{fuzz_differential, run_case, FuzzCase};

fn fixed_case() -> FuzzCase {
    FuzzCase {
        seed: 0xFEED_FACE,
        vehicles: 3,
        alarms: 12,
        steps: 24,
        strategies: vec![
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: 3 },
            StrategySpec::Opt,
        ],
        plan: FaultPlan::clean(),
        batch_every: 3,
    }
}

#[test]
fn the_fixed_case_is_deterministic_and_clean() {
    let case = fixed_case();
    let a = run_case(&case).expect("transport must hold");
    let b = run_case(&case).expect("transport must hold");
    assert_eq!(a.digest, b.digest, "same case must produce the same transcript digest");
    assert_eq!(a.transcript, b.transcript);
    a.assert_clean();
}

#[test]
fn a_differential_slice_passes() {
    fuzz_differential(0, 32).expect("shipped computers must satisfy the oracle");
}
