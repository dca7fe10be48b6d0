//! The determinism gate: a [`sa_verify::FuzzCase`] is a pure function
//! of its seed. Same seed ⇒ byte-identical transcript (not merely an
//! equal digest), including under an armed chaos fault plan, over a
//! federation, across a mid-run repartition; different seeds must
//! diverge.

use sa_server::{FaultPlan, StrategySpec};
use sa_verify::{federation_cases, run_case, CaseOutcome, FuzzCase};

/// A small fleet — three vehicles, twelve alarms, 32 steps — over a
/// federation of `partitions` members.
fn federated(seed: u64, partitions: u32, plan: FaultPlan, batch_every: u32) -> FuzzCase {
    FuzzCase {
        seed,
        vehicles: 3,
        alarms: 12,
        steps: 32,
        strategies: vec![StrategySpec::Mwpsr, StrategySpec::Pbsr { height: 2 }, StrategySpec::Opt],
        plan,
        batch_every,
        partitions,
        repartition_at: None,
    }
}

fn run(case: &FuzzCase) -> CaseOutcome {
    run_case(case).expect("transport must hold under the harness")
}

fn assert_reproducible(case: &FuzzCase) {
    let first = run(case);
    for round in 0..2 {
        let again = run(case);
        assert_eq!(
            first.digest, again.digest,
            "round {round}: digest diverged for seed {}",
            case.seed
        );
        assert_eq!(
            first.transcript, again.transcript,
            "round {round}: transcript diverged beyond the digest for seed {}",
            case.seed
        );
        assert_eq!(first.fired, again.fired, "round {round}: fired set diverged");
        assert_eq!(
            first.injected_total, again.injected_total,
            "round {round}: chaos injection count diverged"
        );
    }
    first.assert_clean();
}

#[test]
fn clean_runs_are_byte_identical() {
    for seed in [3, 17, 101] {
        let mut case = FuzzCase::from_seed(seed);
        case.plan = FaultPlan::clean();
        assert_reproducible(&case);
    }
    // A mid-run repartition the clients learn of only by bouncing.
    let mut case = federated(21, 3, FaultPlan::clean(), 0);
    case.steps = 40;
    case.repartition_at = Some(16);
    assert_reproducible(&case);
}

#[test]
fn chaos_runs_are_byte_identical() {
    // A hand-built lossy case: drops, duplicates, delays and a
    // disconnect window, all riding the virtual clock.
    let mut case = FuzzCase::from_seed(29);
    case.vehicles = 3;
    case.alarms = 16;
    case.steps = 40;
    case.plan = FaultPlan::lossy(29);
    case.plan.disconnect_steps = vec![10..14, 25..28];
    case.batch_every = 0;
    assert_reproducible(&case);
    // Chaos on client, handoff mesh and coordinator links alike.
    assert_reproducible(&federated(11, 3, FaultPlan::lossy(11), 0));
}

#[test]
fn batched_runs_are_byte_identical() {
    let mut case = FuzzCase::from_seed(57);
    case.plan = FaultPlan::clean();
    case.batch_every = 2;
    assert_reproducible(&case);
    // One batch frame per member, entries routed to their owners.
    assert_reproducible(&federated(31, 2, FaultPlan::clean(), 2));
}

#[test]
fn fuzzed_cases_straight_from_seeds_are_byte_identical() {
    for seed in 200..206u64 {
        assert_reproducible(&FuzzCase::from_seed(seed));
    }
}

#[test]
fn different_seeds_produce_different_transcripts() {
    let a = run(&FuzzCase::from_seed(1000));
    let b = run(&FuzzCase::from_seed(1001));
    assert_ne!(a.digest, b.digest, "distinct seeds should not collide");
    assert_ne!(a.transcript, b.transcript);
    let a = run(&federated(11, 3, FaultPlan::lossy(11), 0));
    let b = run(&federated(12, 3, FaultPlan::lossy(12), 0));
    assert_ne!(a.digest, b.digest, "distinct federated seeds should not collide");
}

/// The bytes themselves, pinned: the tests above compare a run with a
/// rerun of itself, so only fixed digests catch a change that moves
/// what crosses a link — in the pinned federation cases, a one-member
/// batched case and a federated batched case.
#[test]
fn transcript_digests_are_pinned() {
    let one_member_batched = FuzzCase {
        seed: 11,
        vehicles: 2,
        alarms: 8,
        steps: 20,
        strategies: vec![StrategySpec::Mwpsr, StrategySpec::Pbsr { height: 2 }],
        plan: FaultPlan::clean(),
        batch_every: 2,
        partitions: 1,
        repartition_at: None,
    };
    let pinned = [
        ("handoff-during-disconnect", 0x5078_9a12_16ca_560e),
        ("repartition-during-batch", 0xbd0f_f7ff_fb6a_ae24),
        ("lossy-repartition", 0x7919_8948_d602_f29b),
    ];
    let mut cases: Vec<(String, FuzzCase, u64)> = federation_cases()
        .into_iter()
        .map(|(name, case)| {
            let digest = pinned.iter().find(|(n, _)| *n == name).expect("a pinned digest").1;
            (name.to_string(), case, digest)
        })
        .collect();
    cases.push(("one-member batched".into(), one_member_batched, 0x6a48_31a3_c63a_ba2e));
    cases.push((
        "federated batched".into(),
        federated(31, 2, FaultPlan::clean(), 2),
        0xc778_c058_1c15_b3cc,
    ));
    for (name, case, digest) in cases {
        let outcome = run(&case);
        outcome.assert_clean();
        assert_eq!(outcome.digest, digest, "{name}: {:#018x}", outcome.digest);
    }
}
