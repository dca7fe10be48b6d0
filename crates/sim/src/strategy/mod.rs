//! The spatial-alarm processing strategies compared in §5: the two
//! server-centric baselines (periodic, safe-period), the two distributed
//! safe-region techniques (MWPSR rectangles, GBSR/PBSR bitmaps) and the
//! client-omniscient optimal bound.

mod optimal;
mod periodic;
mod safe_period;
mod safe_region_bitmap;
mod safe_region_rect;

pub use optimal::OptimalStrategy;
pub use periodic::PeriodicStrategy;
pub use safe_period::SafePeriodStrategy;
pub use safe_region_bitmap::BitmapStrategy;
pub use safe_region_rect::RectStrategy;

use crate::message::{pbsr_pyramid, server_mwpsr};
use crate::ServerCtx;
use sa_core::{MwpsrComputer, PyramidComputer, PyramidConfig};
use sa_geometry::MotionPdf;
use sa_roadnet::TraceSample;
use serde::{Deserialize, Serialize};

/// A processing strategy: decides, per location sample, what the client
/// does locally and what reaches the server.
///
/// Implementations own their per-subscriber state; one instance serves all
/// subscribers of one simulation shard.
pub trait Strategy {
    /// Processes one location sample of one subscriber.
    fn on_sample(&mut self, step: u32, sample: &TraceSample, server: &mut ServerCtx<'_>);
}

/// Strategy selection for [`crate::SimulationHarness::run`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// PRD: the client reports every sample; the server evaluates each
    /// report against the alarm index.
    Periodic,
    /// SP: the server grants adaptive silent periods based on pessimistic
    /// motion bounds (Bamba et al., HiPC'08 \[3\]).
    SafePeriod,
    /// MWPSR: maximum weighted perimeter rectangular safe regions with
    /// steadiness parameters `y`, `z` (§3).
    Mwpsr {
        /// Steadiness weight (`y/z < 1`).
        y: f64,
        /// Angular granularity.
        z: u32,
    },
    /// The non-weighted maximum perimeter rectangle (the improved \[10\]
    /// baseline of Figure 4(a)).
    MwpsrNonWeighted,
    /// The *broken* Hu–Xu–Lee \[10\] rectangle (no overlap / axis-straddling
    /// handling). Ablation only: it misses alarms, reproducing the §5
    /// claim; its runs fail the accuracy check by design.
    MwpsrLegacyHuXuLee,
    /// GBSR/PBSR: pyramid bitmap safe regions with a `3 × 3` split and the
    /// given height (`1` = GBSR, Figure 5 sweeps 1–7, Figure 6 uses 5).
    Pbsr {
        /// Pyramid height `h`.
        height: u32,
    },
    /// PBSR with the §4.2 public-alarm broadcast optimization: per-cell
    /// public bitmaps are precomputed and broadcast once per epoch (the
    /// engine charges that downlink), so recomputations unicast only the
    /// personal overlay. Identical firing behaviour to [`StrategyKind::Pbsr`].
    PbsrBroadcast {
        /// Pyramid height `h`.
        height: u32,
    },
    /// GBSR with an explicit single-level `u × v` grid (Figure 3(c) uses
    /// 9×9).
    Gbsr {
        /// Horizontal split factor.
        u: u32,
        /// Vertical split factor.
        v: u32,
    },
    /// OPT: every relevant alarm in the client's grid cell is pushed to the
    /// client, which evaluates them locally (§4 intro).
    Optimal,
}

impl StrategyKind {
    /// Short label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            StrategyKind::Periodic => "PRD".into(),
            StrategyKind::SafePeriod => "SP".into(),
            StrategyKind::Mwpsr { y, z } => format!("MWPSR(y={y},z={z})"),
            StrategyKind::MwpsrNonWeighted => "MWPSR(non-weighted)".into(),
            StrategyKind::MwpsrLegacyHuXuLee => "HXL[10]".into(),
            StrategyKind::Pbsr { height } => format!("PBSR(h={height})"),
            StrategyKind::PbsrBroadcast { height } => format!("PBSR-B(h={height})"),
            StrategyKind::Gbsr { u, v } => format!("GBSR({u}x{v})"),
            StrategyKind::Optimal => "OPT".into(),
        }
    }

    /// Instantiates the strategy for one shard.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are invalid (e.g. `y/z ≥ 1`).
    pub fn build(&self) -> Box<dyn Strategy> {
        match *self {
            StrategyKind::Periodic => Box::new(PeriodicStrategy),
            StrategyKind::SafePeriod => Box::new(SafePeriodStrategy::default()),
            StrategyKind::Mwpsr { y, z } => Box::new(RectStrategy::new(MwpsrComputer::new(
                MotionPdf::new(y, z).expect("valid steadiness parameters"),
            ))),
            StrategyKind::MwpsrNonWeighted => Box::new(RectStrategy::new(server_mwpsr())),
            StrategyKind::MwpsrLegacyHuXuLee => {
                Box::new(RectStrategy::new_legacy_hu_xu_lee(server_mwpsr()))
            }
            StrategyKind::Pbsr { height } => {
                Box::new(BitmapStrategy::new(PyramidComputer::new(pbsr_pyramid(height))))
            }
            StrategyKind::PbsrBroadcast { height } => {
                Box::new(BitmapStrategy::new_broadcast(PyramidComputer::new(pbsr_pyramid(height))))
            }
            StrategyKind::Gbsr { u, v } => {
                Box::new(BitmapStrategy::new(PyramidComputer::new(PyramidConfig::gbsr(u, v))))
            }
            StrategyKind::Optimal => Box::new(OptimalStrategy::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_abbreviations() {
        assert_eq!(StrategyKind::Periodic.label(), "PRD");
        assert_eq!(StrategyKind::SafePeriod.label(), "SP");
        assert_eq!(StrategyKind::Optimal.label(), "OPT");
        assert_eq!(StrategyKind::Pbsr { height: 5 }.label(), "PBSR(h=5)");
        assert!(StrategyKind::Mwpsr { y: 1.0, z: 32 }.label().contains("z=32"));
    }

    #[test]
    fn build_accepts_every_valid_kind() {
        for kind in [
            StrategyKind::Periodic,
            StrategyKind::SafePeriod,
            StrategyKind::Mwpsr { y: 1.0, z: 32 },
            StrategyKind::MwpsrNonWeighted,
            StrategyKind::Pbsr { height: 3 },
            StrategyKind::Gbsr { u: 9, v: 9 },
            StrategyKind::Optimal,
        ] {
            kind.build();
        }
    }

    #[test]
    #[should_panic(expected = "valid steadiness")]
    fn build_rejects_bad_pdf_parameters() {
        StrategyKind::Mwpsr { y: 64.0, z: 4 }.build();
    }
}
