/// Structural parameters of an [`crate::RStarTree`].
///
/// The default follows the R*-tree paper's recommendation of a minimum
/// fill of 40% of the maximum fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RStarParams {
    /// Maximum number of entries per node (`M`). Must be ≥ 4.
    pub max_entries: usize,
    /// Minimum number of entries per node (`m`). Must satisfy
    /// `2 ≤ m ≤ M/2`.
    pub min_entries: usize,
}

impl RStarParams {
    /// Parameters with fan-out `max_entries` and min fill 40%, per the
    /// original paper's tuning.
    ///
    /// # Panics
    ///
    /// Panics when `max_entries < 4`.
    pub fn with_max_entries(max_entries: usize) -> RStarParams {
        assert!(max_entries >= 4, "R*-tree fan-out must be at least 4");
        let min_entries = ((max_entries as f64 * 0.4).round() as usize).clamp(2, max_entries / 2);
        RStarParams {
            max_entries,
            min_entries,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.max_entries >= 4, "max_entries must be >= 4");
        assert!(
            self.min_entries >= 2 && self.min_entries <= self.max_entries / 2,
            "min_entries must satisfy 2 <= m <= M/2"
        );
    }
}

impl Default for RStarParams {
    fn default() -> RStarParams {
        RStarParams::with_max_entries(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_forty_percent_rule() {
        let p = RStarParams::default();
        assert_eq!(p.max_entries, 32);
        assert_eq!(p.min_entries, 13); // 40% of 32
        p.validate();
    }

    #[test]
    fn small_fanout_is_clamped_legal() {
        for m in 4..=64 {
            let p = RStarParams::with_max_entries(m);
            p.validate();
        }
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn rejects_tiny_fanout() {
        RStarParams::with_max_entries(3);
    }
}
