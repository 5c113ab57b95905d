//! Incentive Policy Design (paper §IV-B): the CCMB mapping between the
//! crowdsourcing platform and the bandit substrate.

use crate::IncentivePolicyKind;
use crowdlearn_bandit::{
    BanditConfig, CostedBandit, EpsilonGreedy, FixedPolicy, RandomPolicy, UcbAlp,
};
use crowdlearn_crowd::IncentiveLevel;
use crowdlearn_dataset::TemporalContext;
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// Maps raw crowd delays to the bandit's `[0, 1]` payoff scale.
///
/// The paper defines payoff as "the additive inverse of the average delay of
/// the query answers" (Definition 12); normalizing by a delay ceiling keeps
/// payoffs inside the `[0, 1]` range UCB-style confidence bounds expect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayoffNormalizer;

impl PayoffNormalizer {
    /// The delay ceiling in seconds, comfortably above the slowest
    /// pilot-study cell; delays above it clamp to payoff 0.
    const CEILING_SECS: f64 = 1800.0;

    /// The normalizer IPD uses.
    pub fn paper() -> Self {
        Self
    }

    /// Payoff of a delay: `1 - delay / 1800 s`, clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `delay_secs` is negative or NaN.
    pub fn payoff(&self, delay_secs: f64) -> f64 {
        assert!(
            delay_secs >= 0.0 && !delay_secs.is_nan(),
            "delay must be non-negative"
        );
        (1.0 - delay_secs / Self::CEILING_SECS).clamp(0.0, 1.0)
    }
}

/// The IPD module: a budget-constrained contextual bandit choosing one
/// [`IncentiveLevel`] per query, learning from observed delays.
///
/// The learner is one of the four policies an [`IncentivePolicyKind`]
/// names — `UcbAlp` for CrowdLearn proper, ε-greedy for the ablation,
/// `FixedPolicy`/`RandomPolicy` for the Figure 8 baselines — held as a
/// closed set, so every policy a system boots has a snapshot codec.
pub struct IncentivePolicy {
    // Boxed, as the trait object it replaced was. Held inline, it grows
    // every system by the largest learner's size, and the first checkpoint
    // after a perfbench run measured 10-20% slower (glibc malloc, 2-vCPU
    // x86-64 host) as the heap layout shifted.
    learner: Box<Learner>,
    observations: u64,
}

/// The four learners, each carrying its own codec.
enum Learner {
    UcbAlp(UcbAlp),
    EpsilonGreedy(EpsilonGreedy),
    Fixed(FixedPolicy),
    Random(RandomPolicy),
}

impl IncentivePolicy {
    /// Builds the `kind` learner over `config`, its randomness seeded from
    /// `seed`; the fixed policy pins the largest level affordable at
    /// `budget / horizon` per query.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not have one action per incentive level and
    /// one context per temporal context.
    pub fn new(kind: IncentivePolicyKind, config: BanditConfig, seed: u64) -> Self {
        assert_eq!(
            config.actions(),
            IncentiveLevel::COUNT,
            "bandit must have one action per incentive level"
        );
        assert_eq!(
            config.contexts(),
            TemporalContext::COUNT,
            "bandit must have one context per temporal context"
        );
        let learner = match kind {
            IncentivePolicyKind::UcbAlp => Learner::UcbAlp(UcbAlp::new(config, seed ^ 0xa1)),
            IncentivePolicyKind::EpsilonGreedy => {
                Learner::EpsilonGreedy(EpsilonGreedy::new(config, 0.1, seed ^ 0xa2))
            }
            IncentivePolicyKind::FixedMax => Learner::Fixed(FixedPolicy::max_affordable(config)),
            IncentivePolicyKind::Random => Learner::Random(RandomPolicy::new(config, seed ^ 0xa3)),
        };
        Self {
            learner: Box::new(learner),
            observations: 0,
        }
    }

    fn bandit(&self) -> &dyn CostedBandit {
        match &*self.learner {
            Learner::UcbAlp(b) => b,
            Learner::EpsilonGreedy(b) => b,
            Learner::Fixed(b) => b,
            Learner::Random(b) => b,
        }
    }

    fn bandit_mut(&mut self) -> &mut dyn CostedBandit {
        match &mut *self.learner {
            Learner::UcbAlp(b) => b,
            Learner::EpsilonGreedy(b) => b,
            Learner::Fixed(b) => b,
            Learner::Random(b) => b,
        }
    }

    /// Which policy drives the learner.
    pub(crate) fn kind(&self) -> IncentivePolicyKind {
        match *self.learner {
            Learner::UcbAlp(_) => IncentivePolicyKind::UcbAlp,
            Learner::EpsilonGreedy(_) => IncentivePolicyKind::EpsilonGreedy,
            Learner::Fixed(_) => IncentivePolicyKind::FixedMax,
            Learner::Random(_) => IncentivePolicyKind::Random,
        }
    }

    /// The problem description the learner was built for.
    pub(crate) fn bandit_config(&self) -> &BanditConfig {
        self.bandit().config()
    }

    /// Total delay observations fed to the learner so far — both the
    /// absorb path and the censored timeout path count, so runtimes can
    /// assert "exactly one observation per posted attempt".
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Chooses an incentive for one query in `context`, charging the bandit
    /// budget. Returns `None` when the budget is exhausted.
    pub fn choose(&mut self, context: TemporalContext) -> Option<IncentiveLevel> {
        self.bandit_mut()
            .select(context.index())
            .map(IncentiveLevel::from_index)
    }

    /// Feeds an observed query delay back to the learner.
    pub fn report_delay(
        &mut self,
        context: TemporalContext,
        incentive: IncentiveLevel,
        delay_secs: f64,
    ) {
        let payoff = PayoffNormalizer::paper().payoff(delay_secs);
        self.observations += 1;
        self.bandit_mut()
            .observe(context.index(), incentive.index(), payoff);
    }

    /// Charges the cost of `incentive` to the bandit's budget without
    /// consulting the policy: the forced-action path for reposting a
    /// timed-out HIT at an escalated incentive. Returns `false` (charging
    /// nothing) when the remaining budget cannot afford it.
    pub fn try_charge(&mut self, incentive: IncentiveLevel) -> bool {
        self.bandit_mut().charge(incentive.index())
    }

    /// Removes up to `cents` from the bandit's remaining budget (a mid-run
    /// budget shock), returning the amount actually clawed back. The learner
    /// itself is untouched — only the ledger shrinks — so pacing policies
    /// react on their next selection.
    ///
    /// # Panics
    ///
    /// Panics if `cents` is negative or not finite.
    pub fn clawback_cents(&mut self, cents: f64) -> f64 {
        self.bandit_mut().clawback(cents)
    }

    /// Remaining budget in cents.
    pub fn remaining_budget_cents(&self) -> f64 {
        self.bandit().remaining_budget()
    }

    /// The underlying policy's name (for reports).
    pub fn policy_name(&self) -> &str {
        self.bandit().name()
    }
}

// Snapshot codec: the policy kind's tag (0-3), the learner's own state,
// then the observation count. Decoding re-checks the constructor's arity
// rule.
impl Encode for IncentivePolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind().encode(out);
        match &*self.learner {
            Learner::UcbAlp(b) => b.encode(out),
            Learner::EpsilonGreedy(b) => b.encode(out),
            Learner::Fixed(b) => b.encode(out),
            Learner::Random(b) => b.encode(out),
        }
        self.observations.encode(out);
    }
}

impl Decode for IncentivePolicy {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let learner = match IncentivePolicyKind::decode(r)? {
            IncentivePolicyKind::UcbAlp => Learner::UcbAlp(UcbAlp::decode(r)?),
            IncentivePolicyKind::EpsilonGreedy => Learner::EpsilonGreedy(EpsilonGreedy::decode(r)?),
            IncentivePolicyKind::FixedMax => Learner::Fixed(FixedPolicy::decode(r)?),
            IncentivePolicyKind::Random => Learner::Random(RandomPolicy::decode(r)?),
        };
        let policy = Self {
            learner: Box::new(learner),
            observations: u64::decode(r)?,
        };
        let config = policy.bandit_config();
        if config.actions() != IncentiveLevel::COUNT || config.contexts() != TemporalContext::COUNT
        {
            return Err(DecodeError::Invalid);
        }
        Ok(policy)
    }
}

impl std::fmt::Debug for IncentivePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncentivePolicy")
            .field("policy", &self.policy_name())
            .field("remaining_budget", &self.remaining_budget_cents())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(budget: f64, horizon: u64) -> BanditConfig {
        BanditConfig::new(
            TemporalContext::COUNT,
            IncentiveLevel::costs(),
            budget,
            horizon,
        )
    }

    const KINDS: [IncentivePolicyKind; 4] = [
        IncentivePolicyKind::UcbAlp,
        IncentivePolicyKind::EpsilonGreedy,
        IncentivePolicyKind::FixedMax,
        IncentivePolicyKind::Random,
    ];

    #[test]
    fn payoff_maps_delay_inversely() {
        let n = PayoffNormalizer::paper();
        assert_eq!(n.payoff(0.0), 1.0);
        assert!((n.payoff(PayoffNormalizer::CEILING_SECS / 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(n.payoff(2.0 * PayoffNormalizer::CEILING_SECS), 0.0);
    }

    #[test]
    fn choose_and_report_round_trip() {
        let mut ipd = IncentivePolicy::new(IncentivePolicyKind::UcbAlp, config(100.0, 20), 3);
        let level = ipd.choose(TemporalContext::Morning).expect("budget left");
        ipd.report_delay(TemporalContext::Morning, level, 300.0);
        assert!(ipd.remaining_budget_cents() < 100.0);
    }

    #[test]
    fn fixed_policy_reports_its_level() {
        // 200 cents over 20 queries: 10 cents per query.
        let mut ipd = IncentivePolicy::new(IncentivePolicyKind::FixedMax, config(200.0, 20), 0);
        assert_eq!(
            ipd.choose(TemporalContext::Evening),
            Some(IncentiveLevel::C10)
        );
        assert_eq!(ipd.policy_name(), "fixed");
    }

    #[test]
    fn exhausts_budget_to_none() {
        let mut ipd = IncentivePolicy::new(IncentivePolicyKind::FixedMax, config(2.0, 10), 0);
        assert!(ipd.choose(TemporalContext::Morning).is_some());
        assert!(ipd.choose(TemporalContext::Morning).is_some());
        assert!(ipd.choose(TemporalContext::Morning).is_none());
    }

    #[test]
    fn clawback_shrinks_budget_and_clamps() {
        let mut ipd = IncentivePolicy::new(IncentivePolicyKind::FixedMax, config(10.0, 10), 0);
        assert_eq!(ipd.clawback_cents(4.0), 4.0);
        assert_eq!(ipd.remaining_budget_cents(), 6.0);
        assert_eq!(ipd.clawback_cents(100.0), 6.0);
        assert_eq!(ipd.remaining_budget_cents(), 0.0);
    }

    #[test]
    fn counts_every_delay_observation() {
        let mut ipd = IncentivePolicy::new(IncentivePolicyKind::UcbAlp, config(100.0, 20), 3);
        assert_eq!(ipd.observations(), 0);
        ipd.report_delay(TemporalContext::Morning, IncentiveLevel::C4, 120.0);
        ipd.report_delay(TemporalContext::Evening, IncentiveLevel::C8, 600.0);
        assert_eq!(ipd.observations(), 2);
        let resumed = IncentivePolicy::from_bytes(&ipd.to_bytes()).expect("round trip");
        assert_eq!(resumed.observations(), 2);
    }

    #[test]
    fn every_kind_round_trips_under_its_own_tag() {
        for (tag, kind) in KINDS.into_iter().enumerate() {
            let mut ipd = IncentivePolicy::new(kind, config(100.0, 20), 7);
            ipd.choose(TemporalContext::Midnight);
            let bytes = ipd.to_bytes();
            assert_eq!(usize::from(bytes[0]), tag, "{kind:?}");
            let resumed = IncentivePolicy::from_bytes(&bytes).expect("round trip");
            assert_eq!(resumed.kind(), kind);
            assert_eq!(resumed.bandit_config(), ipd.bandit_config());
            assert_eq!(resumed.to_bytes(), bytes, "{kind:?}");
        }
    }

    #[test]
    fn unknown_tag_is_invalid() {
        assert!(matches!(
            IncentivePolicy::from_bytes(&[9]),
            Err(DecodeError::Invalid)
        ));
    }

    #[test]
    fn decode_rejects_wrong_arity() {
        let wrong = BanditConfig::new(TemporalContext::COUNT, vec![1.0, 2.0], 10.0, 5);
        let mut bytes = vec![0];
        UcbAlp::new(wrong, 0).encode(&mut bytes);
        0u64.encode(&mut bytes);
        assert!(matches!(
            IncentivePolicy::from_bytes(&bytes),
            Err(DecodeError::Invalid)
        ));
    }

    #[test]
    #[should_panic(expected = "one action per incentive level")]
    fn rejects_wrong_action_arity() {
        IncentivePolicy::new(
            IncentivePolicyKind::UcbAlp,
            BanditConfig::new(TemporalContext::COUNT, vec![1.0, 2.0], 10.0, 5),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "delay must be non-negative")]
    fn rejects_negative_delay() {
        PayoffNormalizer::paper().payoff(-1.0);
    }
}
