//! The named federation cases `verify_fuzz` gates on. Each must run
//! clean (exact against the ground truth, passing the transcript
//! oracle) and byte-identically twice, fire at least once, hand off at
//! least once, and repartition where its name says so — and the gate
//! must refuse a case that stops exercising its scenario.

use sa_verify::{federation_cases, pinned_failure, run_case, CaseOutcome, FuzzCase};

fn named(name: &str) -> FuzzCase {
    federation_cases()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no pinned case named {name}"))
        .1
}

/// Two runs of `case` and the gate's verdict on them.
fn gate(case: &FuzzCase) -> (CaseOutcome, CaseOutcome, Option<String>) {
    let first = run_case(case).expect("transport must hold");
    let second = run_case(case).expect("transport must hold");
    let failure = pinned_failure(case, &first, &second);
    (first, second, failure)
}

#[test]
fn handoff_during_disconnect_gates_green() {
    let (out, _, failure) = gate(&named("handoff-during-disconnect"));
    assert_eq!(failure, None);
    assert!(out.handoffs >= 1, "the boundary crossing must have handed off");
}

#[test]
fn repartition_during_batch_gates_green() {
    let (out, _, failure) = gate(&named("repartition-during-batch"));
    assert_eq!(failure, None);
    assert!(out.repartitioned, "the mid-run repartition must have moved the cut");
    assert!(out.batch_bounces >= 1, "an in-flight batch entry must have bounced");
}

#[test]
fn lossy_repartition_gates_green() {
    let (out, _, failure) = gate(&named("lossy-repartition"));
    assert_eq!(failure, None);
    assert!(out.handoffs >= 1 && out.repartitioned);
    assert!(out.injected_total > 0, "the lossy plan must have injected something");
}

/// The batch case as first pinned (seed 0xFED_0002) hands off and
/// repartitions but fires nothing; the gate must refuse it.
#[test]
fn a_case_that_fires_nothing_fails_the_gate() {
    let mut case = named("repartition-during-batch");
    case.seed = 0xFED_0002;
    let (first, second, failure) = gate(&case);
    first.assert_clean();
    second.assert_clean();
    assert_eq!(first.digest, second.digest);
    assert!(first.handoffs >= 1 && first.repartitioned);
    let failure = failure.expect("a run without a firing must fail");
    assert!(failure.contains("fired no alarm"), "{failure}");
}

/// The batch case as pinned until its bounces were counted (seed
/// 0xFED_0004) fires, hands off and repartitions, but every batch entry
/// reaches its owner first time; the gate must refuse it. Its digest is
/// the one that case was pinned with.
#[test]
fn a_batch_case_that_bounces_nothing_fails_the_gate() {
    let mut case = named("repartition-during-batch");
    case.seed = 0xFED_0004;
    let (first, _, failure) = gate(&case);
    assert_eq!(first.digest, 0xd17d_8be0_f784_0726);
    assert!(!first.fired.is_empty() && first.handoffs >= 1 && first.repartitioned);
    assert_eq!(first.batch_bounces, 0);
    let failure = failure.expect("a batch case without a bounce must fail");
    assert!(failure.contains("no batch entry bounced"), "{failure}");
}
