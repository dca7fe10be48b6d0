//! Minimized reproducers of violations the schedule sweep once found,
//! kept as regression tests in the form `sa_verify::reproducer` emits.

use sa_server::{FaultLeg, FaultPlan, StrategySpec};
use std::time::Duration;

/// Schedule seed 16248, shrunk. An OPT vehicle enters a cell during a
/// disconnect window, so its update is buffered. After the window, the
/// replay of that sample lands and pushes the new cell's alarms, but a
/// drop leaves the next buffered sample — already inside alarm 23 —
/// pending. The following step's local OPT check then fires alarm 23
/// against the fresh push, before the pending sample's replay delivers
/// it. The firing belongs to the pending sample's step, not to the
/// later step of the local check (the violation read "LATE/EARLY:
/// alarm#23 for user#5 at step 17, expected 16").
#[test]
fn a_local_opt_fire_does_not_outdate_a_buffered_samples_delivery() {
    let leg = FaultLeg {
        drop: 0.1,
        duplicate: 0.02,
        delay: 0.05,
        max_delay: Duration::from_nanos(40_000_000),
    };
    let case = sa_verify::FuzzCase {
        seed: 16248,
        vehicles: 6,
        alarms: 24,
        steps: 18,
        strategies: vec![StrategySpec::Opt],
        plan: FaultPlan { seed: 16248, up: leg, down: leg, disconnect_steps: vec![4..10, 10..16] },
        batch_every: 0,
        partitions: 2,
        repartition_at: None,
    };
    let outcome = sa_verify::run_case(&case).expect("transport must hold");
    outcome.assert_clean();
}
