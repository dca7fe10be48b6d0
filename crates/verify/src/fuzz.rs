//! Seed-driven fuzzing entry points.
//!
//! Two sweeps, both pure functions of their seeds:
//!
//! * [`fuzz_differential`] — the cheap per-cell sweep: each seed builds
//!   a random (position, heading, cell, obstacle set) and runs
//!   [`sa_core::differential_check`], computing MWPSR, GBSR and PBSR
//!   for the same inputs and checking all three against the brute-force
//!   lattice and reference-mask oracles. Thousands per CI run.
//! * [`fuzz_schedule`] — the heavy end-to-end sweep: each seed derives
//!   a [`FuzzCase`] and drives the whole server/fleet/chaos stack
//!   through [`run_case`]; any invariant violation is shrunk to a
//!   minimal case and rendered as a `#[test]` reproducer.

use crate::harness::{run_case, FuzzCase};
use crate::minimize::{reproducer, shrink_case};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use sa_geometry::{Point, Rect};

/// One fuzzed schedule failure, minimized and rendered.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The seed that found it.
    pub seed: u64,
    /// The case as fuzzed.
    pub case: FuzzCase,
    /// The greedily minimized case (equals `case` when minimization was
    /// disabled or made no progress).
    pub minimized: FuzzCase,
    /// The violation message of the minimized case.
    pub violation: String,
    /// A self-contained `#[test]` artifact replaying the violation.
    pub reproducer: String,
}

/// The outcome of a [`fuzz_schedule`] sweep.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Seeds driven end to end.
    pub seeds_run: u64,
    /// Violations found (empty on a clean sweep).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when no seed violated an invariant.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs a case and returns its violation, folding transport errors in:
/// the harness never legitimately surfaces one (resilient clients
/// absorb transient faults), so an escaped error is itself a failure.
fn violation_of(case: &FuzzCase) -> Option<String> {
    match run_case(case) {
        Ok(outcome) => outcome.failure(),
        Err(e) => Some(format!("transport error escaped the harness: {e}")),
    }
}

/// Fuzzes the seeds of `seeds`, one full [`run_case`] each; failures
/// are minimized (when `minimize` is set) and rendered as reproducers.
pub fn fuzz_schedule(seeds: impl IntoIterator<Item = u64>, minimize: bool) -> FuzzReport {
    let mut report = FuzzReport::default();
    for seed in seeds {
        report.seeds_run += 1;
        let case = FuzzCase::from_seed(seed);
        let Some(first_violation) = violation_of(&case) else { continue };
        let minimized = if minimize {
            shrink_case(&case, |c| violation_of(c).is_some())
        } else {
            case.clone()
        };
        let violation = violation_of(&minimized).unwrap_or(first_violation);
        let rendered = reproducer(&minimized, &violation);
        report.failures.push(FuzzFailure {
            seed,
            case,
            minimized,
            violation,
            reproducer: rendered,
        });
    }
    report
}

/// Builds the random per-cell differential case of `seed` and runs
/// [`sa_core::differential_check`] on it.
///
/// # Errors
///
/// The rendered oracle violation, when one of the three computers
/// produces an unsound region.
pub fn differential_seed(seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00D1_FFEB_CE11);
    let side = rng.gen_range(300.0..2_000.0f64);
    let x0 = rng.gen_range(0.0..20_000.0f64);
    let y0 = rng.gen_range(0.0..20_000.0f64);
    let cell = Rect::new(x0, y0, x0 + side, y0 + side).expect("cell side is positive");
    let pos = Point::new(
        rng.gen_range(cell.min_x()..cell.max_x()),
        rng.gen_range(cell.min_y()..cell.max_y()),
    );
    let heading = rng.gen_range(0.0..std::f64::consts::TAU);
    let count = rng.gen_range(0..=8u32);
    let mut obstacles = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let hw = rng.gen_range(5.0..=side * 0.4);
        let hh = rng.gen_range(5.0..=side * 0.4);
        let cx = rng.gen_range(cell.min_x() - hw..cell.max_x() + hw);
        let cy = rng.gen_range(cell.min_y() - hh..cell.max_y() + hh);
        let obstacle =
            Rect::new(cx - hw, cy - hh, cx + hw, cy + hh).expect("half extents are positive");
        // The subscriber must stand outside every obstacle interior (an
        // alarm strictly containing them would already have fired).
        if !obstacle.contains_point_strict(pos) {
            obstacles.push(obstacle);
        }
    }
    let pbsr_height = rng.gen_range(2..=4u32);
    sa_core::differential_check(pos, heading, cell, &obstacles, pbsr_height)
        .map_err(|v| format!("differential seed {seed}: {v}"))
}

/// Runs [`differential_seed`] over `start..start + count`.
///
/// # Errors
///
/// The first seed's violation.
pub fn fuzz_differential(start: u64, count: u64) -> Result<u64, String> {
    for seed in start..start.saturating_add(count) {
        differential_seed(seed)?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_seeds_are_deterministic_and_pass() {
        for seed in 0..24 {
            differential_seed(seed).expect("shipped computers must satisfy the oracle");
        }
    }

    #[test]
    fn a_small_schedule_sweep_is_clean() {
        let report = fuzz_schedule(100..102u64, false);
        assert_eq!(report.seeds_run, 2);
        assert!(report.is_clean(), "failures: {:?}", report.failures);
    }
}
