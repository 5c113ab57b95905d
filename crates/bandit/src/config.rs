//! Shared configuration and the bandit trait.

use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// Static description of a constrained contextual bandit problem: the number
/// of contexts, the per-action costs, the total budget, and the horizon
/// (expected number of pulls).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BanditConfig {
    contexts: usize,
    action_costs: Vec<f64>,
    total_budget: f64,
    horizon: u64,
    context_distribution: Option<Vec<f64>>,
}

impl BanditConfig {
    /// Creates a problem description.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`BanditConfig::check`] if it rejects the
    /// description.
    pub fn new(contexts: usize, action_costs: Vec<f64>, total_budget: f64, horizon: u64) -> Self {
        let config = Self {
            contexts,
            action_costs,
            total_budget,
            horizon,
            context_distribution: None,
        };
        config.check().unwrap_or_else(|e| panic!("{e}"));
        config
    }

    /// Declares the long-run context distribution when it is known a priori
    /// (the paper's four temporal contexts are uniform by construction:
    /// 10 sensing cycles each). Without this, policies estimate the
    /// distribution empirically — which is badly misleading when contexts
    /// arrive in long blocks rather than i.i.d.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`BanditConfig::check`] if it rejects the
    /// distribution.
    pub fn with_context_distribution(mut self, distribution: Vec<f64>) -> Self {
        self.context_distribution = Some(distribution);
        self.check().unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// The one validity rule, returning the first one broken: the
    /// constructors panic with its message, the snapshot decoder reports
    /// `Invalid`.
    pub fn check(&self) -> Result<(), &'static str> {
        let dist = self.context_distribution.as_deref();
        if self.contexts == 0 {
            Err("need at least one context")
        } else if self.action_costs.is_empty() {
            Err("need at least one action")
        } else if !self.action_costs.iter().all(|c| *c > 0.0 && c.is_finite()) {
            Err("action costs must be positive and finite")
        } else if !(self.total_budget.is_finite() && self.total_budget >= 0.0) {
            Err("budget must be non-negative and finite")
        } else if self.horizon == 0 {
            Err("horizon must be positive")
        } else if dist.is_some_and(|d| d.len() != self.contexts) {
            Err("one probability per context")
        } else if dist.is_some_and(|d| !d.iter().all(|p| p.is_finite() && *p >= 0.0)) {
            Err("probabilities must be non-negative and finite")
        } else if dist.is_some_and(|d| (d.iter().sum::<f64>() - 1.0).abs() >= 1e-6) {
            Err("probabilities must sum to 1")
        } else {
            Ok(())
        }
    }

    /// The declared context distribution, if any.
    pub fn context_distribution(&self) -> Option<&[f64]> {
        self.context_distribution.as_deref()
    }

    /// Number of contexts `Z`.
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// Number of actions `K`.
    pub fn actions(&self) -> usize {
        self.action_costs.len()
    }

    /// Per-action costs, indexed by action id.
    pub fn action_costs(&self) -> &[f64] {
        &self.action_costs
    }

    /// Cost of one action.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn cost(&self, action: usize) -> f64 {
        self.action_costs[action]
    }

    /// Total budget `B` of Eq. 4.
    pub fn total_budget(&self) -> f64 {
        self.total_budget
    }

    /// Horizon `T` (total expected pulls).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Index of the cheapest action (the always-affordable fallback).
    pub fn cheapest_action(&self) -> usize {
        self.action_costs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite costs"))
            .map(|(i, _)| i)
            .expect("non-empty actions")
    }
}

/// A budget-constrained contextual bandit over integer contexts/actions.
///
/// The protocol per round is: observe a context, call
/// [`CostedBandit::select`] (which charges the chosen action's cost against
/// the internal budget and returns `None` once even the cheapest action is
/// unaffordable), then later call [`CostedBandit::observe`] with the revealed
/// payoff. Payoffs are expected to be normalized to `[0, 1]` — for IPD this
/// is `1 - delay / delay_ceiling`, implementing the paper's "additive inverse
/// of the average delay" (Definition 12).
pub trait CostedBandit: Send {
    /// Human-readable policy name for reports.
    fn name(&self) -> &str;

    /// Chooses an action for `context`, charging its cost to the budget.
    /// Returns `None` when the remaining budget cannot afford any action.
    ///
    /// # Panics
    ///
    /// Implementations panic if `context` is out of range.
    fn select(&mut self, context: usize) -> Option<usize>;

    /// Reveals the payoff of a previously selected action.
    ///
    /// # Panics
    ///
    /// Implementations panic if `context`/`action` are out of range or the
    /// payoff is NaN.
    fn observe(&mut self, context: usize, action: usize, payoff: f64);

    /// Charges the cost of `action` to the budget without consulting the
    /// policy, returning whether the charge succeeded. Callers that re-issue
    /// an already-selected action (e.g. reposting a timed-out crowd task at
    /// an escalated incentive) use this so the spend still comes out of the
    /// same ledger [`CostedBandit::select`] draws from — the budget constraint
    /// holds across every posting path, not just policy-chosen ones.
    ///
    /// # Panics
    ///
    /// Implementations panic if `action` is out of range.
    fn charge(&mut self, action: usize) -> bool;

    /// Removes up to `amount` from the remaining budget and returns how much
    /// was actually removed (less than `amount` when the ledger holds less).
    /// This is the budget-shock path: an external clawback (platform refund
    /// reversal, sponsor pulling funds mid-run) hits the same ledger that
    /// [`CostedBandit::select`] draws from, so the policy's pacing reacts to
    /// the shrunken budget on the very next selection.
    ///
    /// # Panics
    ///
    /// Implementations panic if `amount` is negative or not finite.
    fn clawback(&mut self, amount: f64) -> f64;

    /// Budget still available.
    fn remaining_budget(&self) -> f64;
}

/// Per-(context, action) tables must match the configuration's dimensions,
/// or indexing in `select`/`observe` would panic after resume.
pub(crate) fn tables_match(config: &BanditConfig, counts: &[Vec<u64>], means: &[Vec<f64>]) -> bool {
    counts.len() == config.contexts()
        && means.len() == config.contexts()
        && counts.iter().all(|row| row.len() == config.actions())
        && means
            .iter()
            .all(|row| row.len() == config.actions() && row.iter().all(|m| m.is_finite()))
}

/// Shared budget ledger used by the policy implementations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct BudgetLedger {
    remaining: f64,
}

impl BudgetLedger {
    pub(crate) fn new(total: f64) -> Self {
        Self { remaining: total }
    }

    pub(crate) fn remaining(&self) -> f64 {
        self.remaining
    }

    /// Whether `cost` fits the remaining budget (up to float dust).
    pub(crate) fn affords(&self, cost: f64) -> bool {
        cost <= self.remaining + 1e-9
    }

    /// Charges `cost` if affordable; returns whether the charge succeeded.
    pub(crate) fn try_charge(&mut self, cost: f64) -> bool {
        if self.affords(cost) {
            self.remaining = (self.remaining - cost).max(0.0);
            true
        } else {
            false
        }
    }

    /// Removes up to `amount`, clamping at zero; returns the amount taken.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or not finite.
    pub(crate) fn clawback(&mut self, amount: f64) -> f64 {
        assert!(
            amount >= 0.0 && amount.is_finite(),
            "clawback must be non-negative and finite"
        );
        let taken = amount.min(self.remaining);
        self.remaining -= taken;
        taken
    }

    /// The affordable actions, in index order.
    pub(crate) fn affordable<'a>(
        &self,
        costs: impl IntoIterator<Item = (usize, &'a f64)>,
    ) -> Vec<usize> {
        costs
            .into_iter()
            .filter(|(_, &c)| self.affords(c))
            .map(|(i, _)| i)
            .collect()
    }
}

// Snapshot codec: the remaining budget, restored onto the ledger a policy
// rebuilt from its config holds. Spend only ever shrinks it, so decoding
// rejects a negative, non-finite or larger remaining budget.
impl BudgetLedger {
    pub(crate) fn encode_learned(&self, out: &mut Vec<u8>) {
        self.remaining.encode(out);
    }

    pub(crate) fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let remaining = f64::decode(r)?;
        if !(0.0..=self.remaining).contains(&remaining) {
            return Err(DecodeError::Invalid);
        }
        self.remaining = remaining;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpsilonGreedy, FixedPolicy, RandomPolicy, UcbAlp};

    #[test]
    fn config_accessors_work() {
        let c = BanditConfig::new(4, vec![2.0, 1.0, 4.0], 10.0, 5);
        assert_eq!(c.contexts(), 4);
        assert_eq!(c.actions(), 3);
        assert_eq!(c.cost(2), 4.0);
        assert_eq!(c.cheapest_action(), 1);
        assert_eq!(c.total_budget(), 10.0);
        assert_eq!(c.horizon(), 5);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_cost_rejected() {
        BanditConfig::new(1, vec![0.0], 1.0, 1);
    }

    #[test]
    fn check_holds_every_field_to_its_rule() {
        let paper = BanditConfig::new(4, vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0], 1000.0, 200);
        let mut cases = vec![
            (paper.clone(), true),
            (
                BanditConfig {
                    contexts: 0,
                    ..paper.clone()
                },
                false,
            ),
            (
                BanditConfig {
                    action_costs: Vec::new(),
                    ..paper.clone()
                },
                false,
            ),
            (
                BanditConfig {
                    horizon: 0,
                    ..paper.clone()
                },
                false,
            ),
            (
                BanditConfig {
                    context_distribution: Some(vec![0.5, 0.5]),
                    ..paper.clone()
                },
                false,
            ),
        ];
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0, 0.25] {
            let probability = x == 0.0 || x == 0.25;
            cases.push((
                BanditConfig {
                    total_budget: x,
                    ..paper.clone()
                },
                probability,
            ));
            cases.push((
                BanditConfig {
                    action_costs: vec![1.0, x],
                    ..paper.clone()
                },
                x == 0.25,
            ));
            cases.push((
                BanditConfig {
                    context_distribution: Some(vec![x, 0.25, 0.25, 0.5 - x]),
                    ..paper.clone()
                },
                probability,
            ));
        }
        for (config, valid) in &cases {
            assert_eq!(config.check().is_ok(), *valid, "{config:?}");
        }
        // The constructor once accepted an infinite budget that resume
        // then rejected.
        let infinite = BanditConfig {
            total_budget: f64::INFINITY,
            ..paper
        };
        assert_eq!(
            infinite.check(),
            Err("budget must be non-negative and finite")
        );
    }

    #[test]
    #[should_panic(expected = "budget must be non-negative and finite")]
    fn infinite_budget_rejected() {
        BanditConfig::new(1, vec![1.0], f64::INFINITY, 1);
    }

    #[test]
    fn ledger_charges_until_exhausted() {
        let mut ledger = BudgetLedger::new(5.0);
        assert!(ledger.try_charge(2.0));
        assert!(ledger.try_charge(3.0));
        assert!(!ledger.try_charge(0.5));
        assert_eq!(ledger.remaining(), 0.0);
    }

    #[test]
    fn ledger_clawback_clamps_at_zero() {
        let mut ledger = BudgetLedger::new(5.0);
        assert_eq!(ledger.clawback(2.0), 2.0);
        assert_eq!(ledger.remaining(), 3.0);
        assert_eq!(ledger.clawback(10.0), 3.0);
        assert_eq!(ledger.remaining(), 0.0);
        assert_eq!(ledger.clawback(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "clawback must be non-negative")]
    fn ledger_clawback_rejects_negative() {
        BudgetLedger::new(5.0).clawback(-1.0);
    }

    #[test]
    fn ledger_lists_affordable_actions() {
        let ledger = BudgetLedger::new(3.0);
        let costs = [1.0, 2.0, 4.0];
        let affordable = ledger.affordable(costs.iter().enumerate());
        assert_eq!(affordable, vec![0, 1]);
    }

    #[test]
    fn ledger_tolerates_float_dust() {
        let mut ledger = BudgetLedger::new(0.3);
        assert!(ledger.try_charge(0.1));
        assert!(ledger.try_charge(0.1));
        assert!(
            ledger.try_charge(0.1),
            "0.3 - 0.1 - 0.1 must still afford 0.1"
        );
    }

    fn resume_config() -> BanditConfig {
        BanditConfig::new(2, vec![1.0, 2.0, 4.0], 300.0, 120)
            .with_context_distribution(vec![0.5, 0.5])
    }

    /// Drives a policy `rounds` times, alternating contexts, with a fixed
    /// payoff schedule; returns the picks.
    fn drive(bandit: &mut dyn CostedBandit, rounds: u64) -> Vec<Option<usize>> {
        (0..rounds)
            .map(|r| {
                let ctx = (r % 2) as usize;
                let pick = bandit.select(ctx);
                if let Some(a) = pick {
                    bandit.observe(ctx, a, [0.2, 0.6, 0.9][a]);
                }
                pick
            })
            .collect()
    }

    /// A learned-state pair: what a policy writes, and how a policy rebuilt
    /// from the same config restores it.
    type Learned<B> = (
        fn(&B, &mut Vec<u8>),
        fn(&mut B, &mut Reader<'_>) -> Result<(), DecodeError>,
    );

    /// A policy's learned state, decoded mid-run onto `rebuilt` (built from
    /// the same config under another seed), re-encodes to the same bytes,
    /// and the rebuilt policy then picks exactly what the live one picks.
    fn assert_resume_is_transparent<B: CostedBandit>(
        mut live: B,
        mut rebuilt: B,
        codec: Learned<B>,
    ) {
        let (encode, decode) = codec;
        drive(&mut live, 37);
        let mut bytes = Vec::new();
        encode(&live, &mut bytes);
        let mut r = Reader::new(&bytes);
        decode(&mut rebuilt, &mut r).expect("round trip");
        assert!(r.is_empty());
        let mut again = Vec::new();
        encode(&rebuilt, &mut again);
        assert_eq!(again, bytes);
        assert_eq!(drive(&mut live, 40), drive(&mut rebuilt, 40));
        assert_eq!(live.remaining_budget(), rebuilt.remaining_budget());
    }

    #[test]
    fn ucb_alp_resumes_byte_identically() {
        assert_resume_is_transparent(
            UcbAlp::new(resume_config(), 9),
            UcbAlp::new(resume_config(), 1),
            (UcbAlp::encode_learned, UcbAlp::decode_learned),
        );
    }

    #[test]
    fn epsilon_greedy_resumes_byte_identically() {
        assert_resume_is_transparent(
            EpsilonGreedy::new(resume_config(), 0.2, 9),
            EpsilonGreedy::new(resume_config(), 0.2, 1),
            (EpsilonGreedy::encode_learned, EpsilonGreedy::decode_learned),
        );
    }

    #[test]
    fn fixed_resumes_byte_identically() {
        assert_resume_is_transparent(
            FixedPolicy::new(resume_config(), 1),
            FixedPolicy::new(resume_config(), 1),
            (FixedPolicy::encode_learned, FixedPolicy::decode_learned),
        );
    }

    #[test]
    fn random_resumes_byte_identically() {
        assert_resume_is_transparent(
            RandomPolicy::new(resume_config(), 9),
            RandomPolicy::new(resume_config(), 1),
            (RandomPolicy::encode_learned, RandomPolicy::decode_learned),
        );
    }

    #[test]
    fn learned_state_the_rebuilt_policy_cannot_hold_is_invalid() {
        // A 2-action policy's statistics restored onto a 3-action policy:
        // the tables no longer fit the rebuilt policy's.
        let two = BanditConfig::new(2, vec![1.0, 2.0], 300.0, 120);
        let mut bytes = Vec::new();
        EpsilonGreedy::new(two.clone(), 0.1, 9).encode_learned(&mut bytes);
        let mut rebuilt = EpsilonGreedy::new(resume_config(), 0.1, 9);
        assert_eq!(
            rebuilt.decode_learned(&mut Reader::new(&bytes)),
            Err(DecodeError::Invalid)
        );
        let mut bytes = Vec::new();
        UcbAlp::new(two, 9).encode_learned(&mut bytes);
        let mut rebuilt = UcbAlp::new(resume_config(), 9);
        assert_eq!(
            rebuilt.decode_learned(&mut Reader::new(&bytes)),
            Err(DecodeError::Invalid)
        );
        // A remaining budget that is negative, not a number, or above the
        // config's total (spend only ever shrinks it), for any policy.
        for remaining in [-1.0, f64::NAN, 300.5] {
            let mut bytes = remaining.to_bytes();
            bytes.extend_from_slice(&[0; 32]);
            let mut rebuilt = RandomPolicy::new(resume_config(), 9);
            assert_eq!(
                rebuilt.decode_learned(&mut Reader::new(&bytes)),
                Err(DecodeError::Invalid),
                "remaining budget {remaining}"
            );
        }
    }
}
