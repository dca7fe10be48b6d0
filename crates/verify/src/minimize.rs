//! Greedy failure minimization and reproducer emission.
//!
//! When a fuzzed schedule violates an invariant, the raw case is rarely
//! the story: a 6-vehicle, 48-alarm, 72-step run with a lossy fault
//! plan usually shrinks to a couple of vehicles over a handful of steps
//! with no faults at all. [`shrink_case`] walks the case's dimensions
//! greedily — drop the fault plan, drop batching, halve steps, halve
//! the fleet and workload, thin the strategy mix —
//! keeping each reduction only if the failure survives, until a full
//! pass makes no progress. [`shrink_elements`] is the same idea for
//! plain element sets (the obstacle lists of the region oracles).
//!
//! [`reproducer`] renders the minimized case as a self-contained
//! `#[test]` function: paste it into any crate depending on
//! `sa-verify`, run `cargo test`, and the violation replays.

use crate::harness::FuzzCase;
use sa_server::{FaultPlan, StrategySpec};

/// Greedily shrinks `items` while `still_fails` keeps returning true on
/// the shrunk set: first dropping halves/quarters (ddmin-style chunk
/// removal), then single elements. The returned set still fails, and no
/// single further removal preserves the failure.
pub fn shrink_elements<T: Clone>(
    items: &[T],
    mut still_fails: impl FnMut(&[T]) -> bool,
) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    let mut chunk = (current.len() / 2).max(1);
    while !current.is_empty() {
        let mut removed_any = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.drain(start..end);
            if still_fails(&candidate) {
                current = candidate;
                removed_any = true;
                // Retry the same offset: the next chunk slid into it.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        if !removed_any {
            chunk = (chunk / 2).max(1);
        }
    }
    current
}

/// One shrinking candidate: a transformed copy of the case, or `None`
/// when the dimension is already minimal.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FuzzCase)| {
        let mut c = case.clone();
        f(&mut c);
        if c != *case {
            out.push(c);
        }
    };
    push(&|c| c.plan = FaultPlan::clean());
    push(&|c| c.plan.disconnect_steps.clear());
    push(&|c| c.batch_every = 0);
    push(&|c| c.steps = (c.steps / 2).max(1));
    push(&|c| c.steps = c.steps.saturating_sub(1).max(1));
    push(&|c| c.vehicles = (c.vehicles / 2).max(1));
    push(&|c| c.vehicles = c.vehicles.saturating_sub(1).max(1));
    push(&|c| c.alarms = (c.alarms / 2).max(1));
    push(&|c| c.alarms = c.alarms.saturating_sub(1).max(1));
    for i in 0..case.strategies.len() {
        if case.strategies.len() > 1 {
            push(&|c| {
                c.strategies = vec![case.strategies[i]];
            });
        }
    }
    out
}

/// Greedily shrinks a failing [`FuzzCase`] while `still_fails` keeps
/// confirming the failure. Every accepted reduction restarts the pass;
/// the result fails and none of the candidate reductions preserve the
/// failure. `still_fails(&case)` itself is assumed true and re-checked
/// defensively; a case that does not fail is returned unchanged.
pub fn shrink_case(case: &FuzzCase, mut still_fails: impl FnMut(&FuzzCase) -> bool) -> FuzzCase {
    if !still_fails(case) {
        return case.clone();
    }
    let mut current = case.clone();
    loop {
        let mut progressed = false;
        for candidate in candidates(&current) {
            if still_fails(&candidate) {
                current = candidate;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return current;
        }
    }
}

fn strategy_literal(s: StrategySpec) -> String {
    match s {
        StrategySpec::Mwpsr => "StrategySpec::Mwpsr".into(),
        StrategySpec::Pbsr { height } => format!("StrategySpec::Pbsr {{ height: {height} }}"),
        StrategySpec::Opt => "StrategySpec::Opt".into(),
        StrategySpec::SafePeriod => "StrategySpec::SafePeriod".into(),
    }
}

fn plan_literal(plan: &FaultPlan) -> String {
    if *plan == FaultPlan::clean() {
        return "FaultPlan::clean()".into();
    }
    let leg = |l: &sa_server::FaultLeg| {
        format!(
            "FaultLeg {{ drop: {:?}, duplicate: {:?}, delay: {:?}, max_delay: \
             Duration::from_nanos({}) }}",
            l.drop,
            l.duplicate,
            l.delay,
            l.max_delay.as_nanos()
        )
    };
    let windows = plan
        .disconnect_steps
        .iter()
        .map(|w| format!("{}..{}", w.start, w.end))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "FaultPlan {{ seed: {}, up: {}, down: {}, disconnect_steps: vec![{windows}] }}",
        plan.seed,
        leg(&plan.up),
        leg(&plan.down)
    )
}

/// Renders a `#[test]`-shaped reproducer function named `name` whose
/// body is `body`, prefixed by the violation as a comment block.
pub fn test_artifact(name: &str, violation: &str, body: &str) -> String {
    let mut out = String::from("// Minimized reproducer emitted by sa-verify.\n");
    for line in violation.lines() {
        out.push_str("// ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("#[test]\nfn ");
    out.push_str(name);
    out.push_str("() {\n");
    for line in body.lines() {
        out.push_str("    ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

/// Renders a minimized [`FuzzCase`] as a self-contained `#[test]`
/// artifact that replays the violation through [`crate::run_case`].
pub fn reproducer(case: &FuzzCase, violation: &str) -> String {
    let strategies = case
        .strategies
        .iter()
        .map(|s| strategy_literal(*s))
        .collect::<Vec<_>>()
        .join(", ");
    let body = format!(
        "use sa_server::{{FaultLeg, FaultPlan, StrategySpec}};\n\
         use std::time::Duration;\n\
         let case = sa_verify::FuzzCase {{\n\
         \x20   seed: {seed},\n\
         \x20   vehicles: {vehicles},\n\
         \x20   alarms: {alarms},\n\
         \x20   steps: {steps},\n\
         \x20   strategies: vec![{strategies}],\n\
         \x20   plan: {plan},\n\
         \x20   batch_every: {batch_every},\n\
         }};\n\
         let outcome = sa_verify::run_case(&case).expect(\"transport must hold\");\n\
         outcome.assert_clean();",
        seed = case.seed,
        vehicles = case.vehicles,
        alarms = case.alarms,
        steps = case.steps,
        plan = plan_literal(&case.plan),
        batch_every = case.batch_every,
    );
    test_artifact(&format!("sa_verify_minimized_seed_{}", case.seed), violation, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_elements_finds_a_minimal_failing_singleton() {
        // "Fails" whenever element 13 is present.
        let items: Vec<u32> = (0..40).collect();
        let shrunk = shrink_elements(&items, |s| s.contains(&13));
        assert_eq!(shrunk, vec![13]);
    }

    #[test]
    fn shrink_elements_keeps_interacting_pairs() {
        let items: Vec<u32> = (0..32).collect();
        let shrunk = shrink_elements(&items, |s| s.contains(&3) && s.contains(&27));
        assert_eq!(shrunk, vec![3, 27]);
    }

    #[test]
    fn shrink_case_collapses_irrelevant_dimensions() {
        let case = FuzzCase::from_seed(42);
        // "Fails" whenever at least 2 vehicles exist — everything else
        // should collapse to its floor.
        let shrunk = shrink_case(&case, |c| c.vehicles >= 2);
        assert_eq!(shrunk.vehicles, 2);
        assert_eq!(shrunk.steps, 1);
        assert_eq!(shrunk.alarms, 1);
        assert_eq!(shrunk.plan, FaultPlan::clean());
        assert_eq!(shrunk.batch_every, 0);
        assert_eq!(shrunk.strategies.len(), 1);
    }

    #[test]
    fn reproducer_is_a_test_shaped_artifact() {
        let case = FuzzCase::from_seed(7);
        let art = reproducer(&case, "oracle violation: something\nsecond line");
        assert!(art.contains("#[test]"));
        assert!(art.contains("sa_verify::run_case"));
        assert!(art.contains("// second line"));
        assert!(art.contains(&format!("seed: {},", case.seed)));
    }

    #[test]
    fn faulty_plans_render_as_literals() {
        let mut case = FuzzCase::from_seed(2);
        case.plan = FaultPlan::lossy(9);
        let art = reproducer(&case, "x");
        assert!(art.contains("FaultPlan { seed: 9"));
        assert!(art.contains("disconnect_steps: vec![60..65]"));
    }
}
