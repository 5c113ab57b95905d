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

// Snapshot codec: the learner's learned state, then the observation count.
// Which learner it is and the problem it was built for are the config's:
// decoding restores onto the policy `IncentivePolicy::new` rebuilt from it.
impl IncentivePolicy {
    /// Appends what the learner has learned and spent, then the
    /// observation count.
    pub fn encode_learned(&self, out: &mut Vec<u8>) {
        match &*self.learner {
            Learner::UcbAlp(b) => b.encode_learned(out),
            Learner::EpsilonGreedy(b) => b.encode_learned(out),
            Learner::Fixed(b) => b.encode_learned(out),
            Learner::Random(b) => b.encode_learned(out),
        }
        self.observations.encode(out);
    }

    /// Restores [`IncentivePolicy::encode_learned`] bytes onto a policy
    /// [`IncentivePolicy::new`] built from the same kind and config.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Invalid`] for state the rebuilt learner cannot hold:
    /// tables of another shape, or a remaining budget that is negative or
    /// above the config's.
    pub fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        match &mut *self.learner {
            Learner::UcbAlp(b) => b.decode_learned(r)?,
            Learner::EpsilonGreedy(b) => b.decode_learned(r)?,
            Learner::Fixed(b) => b.decode_learned(r)?,
            Learner::Random(b) => b.decode_learned(r)?,
        }
        self.observations = u64::decode(r)?;
        Ok(())
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

    /// `ipd`'s learned state restored onto a policy rebuilt as `kind`
    /// over `config`.
    fn restored(
        ipd: &IncentivePolicy,
        kind: IncentivePolicyKind,
        config: BanditConfig,
    ) -> Result<IncentivePolicy, DecodeError> {
        let mut bytes = Vec::new();
        ipd.encode_learned(&mut bytes);
        let mut rebuilt = IncentivePolicy::new(kind, config, 0);
        let mut r = Reader::new(&bytes);
        rebuilt.decode_learned(&mut r)?;
        if !r.is_empty() {
            return Err(DecodeError::Invalid);
        }
        Ok(rebuilt)
    }

    #[test]
    fn counts_every_delay_observation() {
        let mut ipd = IncentivePolicy::new(IncentivePolicyKind::UcbAlp, config(100.0, 20), 3);
        assert_eq!(ipd.observations(), 0);
        ipd.report_delay(TemporalContext::Morning, IncentiveLevel::C4, 120.0);
        ipd.report_delay(TemporalContext::Evening, IncentiveLevel::C8, 600.0);
        assert_eq!(ipd.observations(), 2);
        let resumed =
            restored(&ipd, IncentivePolicyKind::UcbAlp, config(100.0, 20)).expect("round trip");
        assert_eq!(resumed.observations(), 2);
    }

    #[test]
    fn every_kind_round_trips_onto_its_rebuilt_learner() {
        for kind in KINDS {
            let mut ipd = IncentivePolicy::new(kind, config(100.0, 20), 7);
            ipd.choose(TemporalContext::Midnight);
            ipd.report_delay(TemporalContext::Midnight, IncentiveLevel::C4, 300.0);
            let resumed = restored(&ipd, kind, config(100.0, 20)).expect("round trip");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            ipd.encode_learned(&mut a);
            resumed.encode_learned(&mut b);
            assert_eq!(a, b, "{kind:?}");
            assert_eq!(
                resumed.remaining_budget_cents(),
                ipd.remaining_budget_cents()
            );
        }
    }

    #[test]
    fn decode_refuses_state_the_rebuilt_learner_cannot_hold() {
        let mut ucb = IncentivePolicy::new(IncentivePolicyKind::UcbAlp, config(100.0, 20), 3);
        ucb.choose(TemporalContext::Morning);
        // The statistics of a two-action bandit: tables of another shape.
        let two = BanditConfig::new(TemporalContext::COUNT, vec![1.0, 2.0], 100.0, 20);
        let mut bytes = Vec::new();
        UcbAlp::new(two, 3).encode_learned(&mut bytes);
        0u64.encode(&mut bytes);
        let mut rebuilt = IncentivePolicy::new(IncentivePolicyKind::UcbAlp, config(100.0, 20), 3);
        assert_eq!(
            rebuilt.decode_learned(&mut Reader::new(&bytes)),
            Err(DecodeError::Invalid)
        );
        // A remaining budget above the rebuilt learner's total.
        for kind in KINDS {
            let rich = IncentivePolicy::new(kind, config(200.0, 20), 3);
            assert_eq!(
                restored(&rich, kind, config(100.0, 20)).err(),
                Some(DecodeError::Invalid),
                "{kind:?}"
            );
        }
        // Truncated state.
        let mut rebuilt = IncentivePolicy::new(IncentivePolicyKind::Random, config(100.0, 20), 3);
        assert_eq!(
            rebuilt.decode_learned(&mut Reader::new(&[1])),
            Err(DecodeError::Truncated)
        );
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
