//! The incentive→quality relationship, calibrated to the pilot study
//! (paper Figure 6).

use crate::IncentiveLevel;
use crowdlearn_dataset::TemporalContext;

/// Adjusts a worker's base reliability for the incentive paid and the
/// temporal context.
///
/// The paper's pilot found that very low incentives (1-2 cents) depress
/// label quality, but that further raises buy *no* significant improvement
/// (Wilcoxon p-values 0.12-0.77 between adjacent levels from 2c upward) —
/// "workers often do not need to exert much effort … to accurately label the
/// images notwithstanding the incentives". The context adjustment reproduces
/// Table I's mild evening/midnight quality edge.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityModel {
    /// Additive reliability adjustment per incentive level.
    incentive_boost: [f64; IncentiveLevel::COUNT],
    /// Additive reliability adjustment per temporal context.
    context_boost: [f64; TemporalContext::COUNT],
}

impl QualityModel {
    /// The pilot-calibrated curve (see type docs), the one every platform
    /// answers with.
    pub const PAPER: Self = Self {
        // 1c depresses quality noticeably, 2c slightly; 4c+ flat
        // (statistically indistinguishable), tiny bump at 20c.
        incentive_boost: [-0.18, -0.04, 0.0, 0.0, 0.0, 0.002, 0.01],
        // Night workers are marginally more accurate (Table I trend).
        context_boost: [-0.015, -0.005, 0.005, 0.015],
    };

    /// The probability that a worker with `reliability` answers correctly at
    /// this incentive and context, clamped to `[0.02, 0.99]`.
    ///
    /// # Panics
    ///
    /// Panics if `reliability` is outside `[0, 1]`.
    pub fn correct_probability(
        &self,
        reliability: f64,
        incentive: IncentiveLevel,
        context: TemporalContext,
    ) -> f64 {
        assert!(
            (0.0..=1.0).contains(&reliability),
            "reliability must be in [0, 1]"
        );
        (reliability
            + self.incentive_boost[incentive.index()]
            + self.context_boost[context.index()])
        .clamp(0.02, 0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_incentives_depress_quality() {
        let m = QualityModel::PAPER;
        let at = |l| m.correct_probability(0.8, l, TemporalContext::Afternoon);
        assert!(at(IncentiveLevel::C1) < at(IncentiveLevel::C2));
        assert!(at(IncentiveLevel::C2) < at(IncentiveLevel::C4));
    }

    #[test]
    fn mid_range_incentives_are_flat() {
        let m = QualityModel::PAPER;
        let at = |l| m.correct_probability(0.8, l, TemporalContext::Afternoon);
        assert_eq!(at(IncentiveLevel::C4), at(IncentiveLevel::C6));
        assert_eq!(at(IncentiveLevel::C6), at(IncentiveLevel::C8));
        // 20c buys only a trivial bump.
        assert!(at(IncentiveLevel::C20) - at(IncentiveLevel::C8) < 0.02);
    }

    #[test]
    fn night_contexts_are_slightly_better() {
        let m = QualityModel::PAPER;
        let at = |c| m.correct_probability(0.8, IncentiveLevel::C4, c);
        assert!(at(TemporalContext::Midnight) > at(TemporalContext::Morning));
    }

    #[test]
    fn probabilities_are_clamped() {
        let m = QualityModel::PAPER;
        let p = m.correct_probability(0.05, IncentiveLevel::C1, TemporalContext::Morning);
        assert!(p >= 0.02);
        let p = m.correct_probability(1.0, IncentiveLevel::C20, TemporalContext::Midnight);
        assert!(p <= 0.99);
    }

    #[test]
    #[should_panic(expected = "reliability must be in [0, 1]")]
    fn bad_reliability_rejected() {
        QualityModel::PAPER.correct_probability(-0.1, IncentiveLevel::C4, TemporalContext::Morning);
    }
}
