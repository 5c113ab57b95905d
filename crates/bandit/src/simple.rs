//! The non-adaptive incentive baselines of Figure 8: a fixed incentive level
//! for every query, and uniformly random incentive levels.

use crate::config::{BanditConfig, BudgetLedger, CostedBandit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// Always plays the same action (the paper's fixed-incentive baseline uses
/// "the maximum incentive for each query, i.e. the total budget divided by
/// the number of queries").
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    config: BanditConfig,
    ledger: BudgetLedger,
    action: usize,
}

impl FixedPolicy {
    /// Creates a policy pinned to `action`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn new(config: BanditConfig, action: usize) -> Self {
        assert!(action < config.actions(), "action out of range");
        Self {
            ledger: BudgetLedger::new(config.total_budget()),
            action,
            config,
        }
    }

    /// The paper's construction: pin the incentive to `floor(B / horizon)`,
    /// i.e. the largest action whose cost does not exceed the per-query
    /// budget share.
    pub fn max_affordable(config: BanditConfig) -> Self {
        let share = config.total_budget() / config.horizon() as f64;
        let action = config
            .action_costs()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c <= share + 1e-9)
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite costs"))
            .map(|(i, _)| i)
            .unwrap_or_else(|| config.cheapest_action());
        Self::new(config, action)
    }

    /// The pinned action.
    pub fn action(&self) -> usize {
        self.action
    }
}

impl CostedBandit for FixedPolicy {
    fn name(&self) -> &str {
        "fixed"
    }

    fn select(&mut self, context: usize) -> Option<usize> {
        assert!(context < self.config.contexts(), "context out of range");
        if self.ledger.try_charge(self.config.cost(self.action)) {
            Some(self.action)
        } else {
            // Degrade to the cheapest affordable action rather than dropping
            // the query entirely.
            let cheapest = self.config.cheapest_action();
            if self.ledger.try_charge(self.config.cost(cheapest)) {
                Some(cheapest)
            } else {
                None
            }
        }
    }

    fn observe(&mut self, _context: usize, _action: usize, payoff: f64) {
        assert!(!payoff.is_nan(), "payoff must not be NaN");
    }

    fn charge(&mut self, action: usize) -> bool {
        self.ledger.try_charge(self.config.cost(action))
    }

    fn clawback(&mut self, amount: f64) -> f64 {
        self.ledger.clawback(amount)
    }

    fn remaining_budget(&self) -> f64 {
        self.ledger.remaining()
    }
}

/// Plays a uniformly random affordable action each round.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    config: BanditConfig,
    ledger: BudgetLedger,
    rng: StdRng,
}

impl RandomPolicy {
    /// Creates a random policy.
    pub fn new(config: BanditConfig, seed: u64) -> Self {
        Self {
            ledger: BudgetLedger::new(config.total_budget()),
            rng: StdRng::seed_from_u64(seed),
            config,
        }
    }
}

impl CostedBandit for RandomPolicy {
    fn name(&self) -> &str {
        "random"
    }

    fn select(&mut self, context: usize) -> Option<usize> {
        assert!(context < self.config.contexts(), "context out of range");
        let affordable = self
            .ledger
            .affordable(self.config.action_costs().iter().enumerate());
        if affordable.is_empty() {
            return None;
        }
        let action = affordable[self.rng.gen_range(0..affordable.len())];
        let charged = self.ledger.try_charge(self.config.cost(action));
        debug_assert!(charged);
        Some(action)
    }

    fn observe(&mut self, _context: usize, _action: usize, payoff: f64) {
        assert!(!payoff.is_nan(), "payoff must not be NaN");
    }

    fn charge(&mut self, action: usize) -> bool {
        self.ledger.try_charge(self.config.cost(action))
    }

    fn clawback(&mut self, amount: f64) -> f64 {
        self.ledger.clawback(amount)
    }

    fn remaining_budget(&self) -> f64 {
        self.ledger.remaining()
    }
}

// Snapshot codecs: what each policy spent (and the random policy's RNG
// words). The config and the pinned action are the rebuilt policy's.
impl FixedPolicy {
    /// Appends the learned state: the budget ledger.
    pub fn encode_learned(&self, out: &mut Vec<u8>) {
        self.ledger.encode_learned(out);
    }

    /// Restores [`FixedPolicy::encode_learned`] bytes onto a policy built
    /// from the same config and action.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Invalid`] for a negative remaining budget, or one
    /// above the rebuilt policy's.
    pub fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.ledger.decode_learned(r)
    }
}

impl RandomPolicy {
    /// Appends the learned state: the budget ledger and the RNG words.
    pub fn encode_learned(&self, out: &mut Vec<u8>) {
        self.ledger.encode_learned(out);
        self.rng.state().encode(out);
    }

    /// Restores [`RandomPolicy::encode_learned`] bytes onto a policy built
    /// from the same config.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Invalid`] for a negative remaining budget, or one
    /// above the rebuilt policy's.
    pub fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.ledger.decode_learned(r)?;
        let rng = <[u64; 4]>::decode(r)?;
        self.rng = StdRng::from_state(rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BanditConfig {
        BanditConfig::new(2, vec![1.0, 2.0, 4.0], 20.0, 10)
    }

    #[test]
    fn fixed_always_plays_its_action_while_affordable() {
        let mut p = FixedPolicy::new(config(), 1);
        for _ in 0..10 {
            assert_eq!(p.select(0), Some(1));
        }
        assert_eq!(p.remaining_budget(), 0.0);
    }

    #[test]
    fn fixed_degrades_to_cheapest_then_none() {
        let mut p = FixedPolicy::new(BanditConfig::new(1, vec![1.0, 4.0], 5.0, 2), 1);
        assert_eq!(p.select(0), Some(1)); // 4.0 spent, 1.0 left
        assert_eq!(p.select(0), Some(0)); // degrade to 1.0
        assert_eq!(p.select(0), None);
    }

    #[test]
    fn max_affordable_picks_per_query_share() {
        // 20 budget / 10 rounds = 2.0 per query -> action 1 (cost 2.0).
        let p = FixedPolicy::max_affordable(config());
        assert_eq!(p.action(), 1);
        // Tiny budget falls back to the cheapest action.
        let p = FixedPolicy::max_affordable(BanditConfig::new(1, vec![2.0, 4.0], 1.0, 10));
        assert_eq!(p.action(), 0);
    }

    #[test]
    fn random_spreads_over_affordable_actions() {
        let mut p = RandomPolicy::new(BanditConfig::new(1, vec![1.0, 2.0], 3000.0, 1000), 7);
        let mut counts = [0usize; 2];
        for _ in 0..1000 {
            counts[p.select(0).unwrap()] += 1;
        }
        assert!(counts[0] > 300 && counts[1] > 300, "counts {counts:?}");
    }

    #[test]
    fn random_respects_budget() {
        let mut p = RandomPolicy::new(BanditConfig::new(1, vec![1.0, 5.0], 7.0, 100), 3);
        let mut spent = 0.0;
        while let Some(a) = p.select(0) {
            spent += [1.0, 5.0][a];
        }
        assert!(spent <= 7.0 + 1e-9);
    }
}
