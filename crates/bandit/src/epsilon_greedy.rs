//! Budget-aware contextual ε-greedy — a simpler CCMB policy used in
//! ablations against [`crate::UcbAlp`].

use crate::config::{tables_match, BanditConfig, BudgetLedger, CostedBandit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// Contextual ε-greedy with budget pacing.
///
/// With probability ε an affordable action is chosen uniformly at random;
/// otherwise the empirically best *affordable* action whose cost does not
/// exceed the per-round budget pace (`remaining budget / remaining rounds`,
/// relaxed by 2x so the policy is not overly conservative early on).
///
/// # Example
///
/// ```
/// use crowdlearn_bandit::{BanditConfig, CostedBandit, EpsilonGreedy};
///
/// let mut eg = EpsilonGreedy::new(BanditConfig::new(1, vec![1.0, 2.0], 10.0, 10), 0.1, 5);
/// let a = eg.select(0).expect("affordable");
/// eg.observe(0, a, 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    config: BanditConfig,
    epsilon: f64,
    ledger: BudgetLedger,
    counts: Vec<Vec<u64>>,
    means: Vec<Vec<f64>>,
    rounds_elapsed: u64,
    rng: StdRng,
}

impl EpsilonGreedy {
    /// Creates a policy with exploration rate `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside `[0, 1]`.
    pub fn new(config: BanditConfig, epsilon: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        let z = config.contexts();
        let k = config.actions();
        Self {
            ledger: BudgetLedger::new(config.total_budget()),
            epsilon,
            counts: vec![vec![0; k]; z],
            means: vec![vec![0.0; k]; z],
            rounds_elapsed: 0,
            rng: StdRng::seed_from_u64(seed),
            config,
        }
    }
}

impl CostedBandit for EpsilonGreedy {
    fn name(&self) -> &str {
        "epsilon-greedy"
    }

    fn select(&mut self, context: usize) -> Option<usize> {
        assert!(context < self.config.contexts(), "context out of range");
        self.rounds_elapsed += 1;
        let affordable = self
            .ledger
            .affordable(self.config.action_costs().iter().enumerate());
        if affordable.is_empty() {
            return None;
        }

        let remaining_rounds = self
            .config
            .horizon()
            .saturating_sub(self.rounds_elapsed - 1)
            .max(1);
        let pace = 2.0 * self.ledger.remaining() / remaining_rounds as f64;
        let paced: Vec<usize> = affordable
            .iter()
            .copied()
            .filter(|&a| self.config.cost(a) <= pace)
            .collect();
        let pool = if paced.is_empty() {
            &affordable
        } else {
            &paced
        };

        let action = if self.rng.gen::<f64>() < self.epsilon {
            pool[self.rng.gen_range(0..pool.len())]
        } else {
            // Prefer untried actions, then the best empirical mean.
            *pool
                .iter()
                .max_by(|&&a, &&b| {
                    let score = |x: usize| {
                        if self.counts[context][x] == 0 {
                            f64::INFINITY
                        } else {
                            self.means[context][x]
                        }
                    };
                    score(a).partial_cmp(&score(b)).expect("no NaN means")
                })
                .expect("pool checked non-empty")
        };
        let charged = self.ledger.try_charge(self.config.cost(action));
        debug_assert!(charged, "selected action must be affordable");
        Some(action)
    }

    fn observe(&mut self, context: usize, action: usize, payoff: f64) {
        assert!(context < self.config.contexts(), "context out of range");
        assert!(action < self.config.actions(), "action out of range");
        assert!(!payoff.is_nan(), "payoff must not be NaN");
        let n = &mut self.counts[context][action];
        *n += 1;
        let mean = &mut self.means[context][action];
        *mean += (payoff - *mean) / *n as f64;
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

// Snapshot codec: what the policy learned and spent, RNG words included.
// The config and ε are the rebuilt policy's; decoding rejects tables that do
// not fit the config.
impl EpsilonGreedy {
    /// Appends the learned state: the budget ledger, the statistics tables,
    /// the round counter and the RNG words.
    pub fn encode_learned(&self, out: &mut Vec<u8>) {
        self.ledger.encode_learned(out);
        self.counts.encode(out);
        self.means.encode(out);
        self.rounds_elapsed.encode(out);
        self.rng.state().encode(out);
    }

    /// Restores [`EpsilonGreedy::encode_learned`] bytes onto a policy built
    /// from the same config and ε.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Invalid`] for tables that do not fit the config, or a
    /// negative remaining budget or one above the rebuilt policy's.
    pub fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.ledger.decode_learned(r)?;
        let counts = Vec::<Vec<u64>>::decode(r)?;
        let means = Vec::<Vec<f64>>::decode(r)?;
        let rounds_elapsed = u64::decode(r)?;
        let rng = <[u64; 4]>::decode(r)?;
        if !tables_match(&self.config, &counts, &means) {
            return Err(DecodeError::Invalid);
        }
        self.counts = counts;
        self.means = means;
        self.rounds_elapsed = rounds_elapsed;
        self.rng = StdRng::from_state(rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(epsilon: f64, budget: f64, rounds: u64) -> Vec<usize> {
        let config = BanditConfig::new(1, vec![1.0, 2.0, 3.0], budget, rounds);
        let mut eg = EpsilonGreedy::new(config, epsilon, 5);
        let mut picks = Vec::new();
        for _ in 0..rounds {
            if let Some(a) = eg.select(0) {
                // Action 1 is the best.
                let payoff = [0.3, 0.9, 0.5][a];
                eg.observe(0, a, payoff);
                picks.push(a);
            }
        }
        picks
    }

    #[test]
    fn converges_to_best_action() {
        let picks = harness(0.1, 10_000.0, 300);
        let late_best = picks.iter().skip(150).filter(|&&a| a == 1).count() as f64
            / picks.iter().skip(150).count() as f64;
        assert!(late_best > 0.7, "best-action rate {late_best}");
    }

    #[test]
    fn pure_exploration_spreads_choices() {
        let picks = harness(1.0, 10_000.0, 600);
        for a in 0..3 {
            let share = picks.iter().filter(|&&x| x == a).count() as f64 / picks.len() as f64;
            assert!((share - 1.0 / 3.0).abs() < 0.1, "action {a} share {share}");
        }
    }

    #[test]
    fn respects_budget() {
        let picks = harness(0.3, 20.0, 100);
        let spent: f64 = picks.iter().map(|&a| [1.0, 2.0, 3.0][a]).sum();
        assert!(spent <= 20.0 + 1e-9);
    }

    #[test]
    fn returns_none_when_broke() {
        let config = BanditConfig::new(1, vec![2.0], 3.0, 10);
        let mut eg = EpsilonGreedy::new(config, 0.0, 0);
        assert!(eg.select(0).is_some());
        assert!(eg.select(0).is_none(), "1.0 remaining cannot afford 2.0");
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0, 1]")]
    fn rejects_bad_epsilon() {
        EpsilonGreedy::new(BanditConfig::new(1, vec![1.0], 1.0, 1), 1.5, 0);
    }
}
