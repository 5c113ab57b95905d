//! EXP3 — the adversarial (non-stochastic) bandit, one learner per context.
//!
//! Included because the crowdsourcing platform is not guaranteed to be
//! stationary (worker populations shift within a day); EXP3's guarantees
//! hold against arbitrary payoff sequences, at the cost of slower
//! convergence than the stochastic policies on benign data.

use crate::config::{BanditConfig, BudgetLedger, CostedBandit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-context EXP3 with importance-weighted updates and budget pacing.
///
/// Arm probabilities mix the exponential-weight distribution with uniform
/// exploration `gamma`; observed payoffs are importance-weighted by the
/// selection probability, which keeps the estimator unbiased.
#[derive(Debug, Clone)]
pub struct Exp3 {
    config: BanditConfig,
    ledger: BudgetLedger,
    /// `weights[context][action]`, kept normalized per context.
    weights: Vec<Vec<f64>>,
    /// Probability used at the last selection, for the importance weight.
    last_probability: Vec<Vec<f64>>,
    gamma: f64,
    rounds_elapsed: u64,
    rng: StdRng,
}

impl Exp3 {
    /// Default exploration mix for short horizons.
    pub const DEFAULT_GAMMA: f64 = 0.1;

    /// Creates a learner with exploration mix `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is outside `(0, 1]`.
    pub fn new(config: BanditConfig, gamma: f64, seed: u64) -> Self {
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        let z = config.contexts();
        let k = config.actions();
        Self {
            ledger: BudgetLedger::new(config.total_budget()),
            weights: vec![vec![1.0 / k as f64; k]; z],
            last_probability: vec![vec![1.0 / k as f64; k]; z],
            gamma,
            rounds_elapsed: 0,
            rng: StdRng::seed_from_u64(seed),
            config,
        }
    }

    fn probabilities(&self, context: usize, pool: &[usize]) -> Vec<f64> {
        let k = pool.len() as f64;
        let total: f64 = pool.iter().map(|&a| self.weights[context][a]).sum();
        pool.iter()
            .map(|&a| {
                (1.0 - self.gamma) * self.weights[context][a] / total.max(f64::MIN_POSITIVE)
                    + self.gamma / k
            })
            .collect()
    }
}

impl CostedBandit for Exp3 {
    fn name(&self) -> &str {
        "EXP3"
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
        let pool = if paced.is_empty() { affordable } else { paced };

        let probs = self.probabilities(context, &pool);
        let mut target = self.rng.gen::<f64>();
        let mut chosen = *pool.last().expect("pool non-empty");
        let mut chosen_p = *probs.last().expect("pool non-empty");
        for (&a, &p) in pool.iter().zip(&probs) {
            target -= p;
            if target <= 0.0 {
                chosen = a;
                chosen_p = p;
                break;
            }
        }
        self.last_probability[context][chosen] = chosen_p;
        let charged = self.ledger.try_charge(self.config.cost(chosen));
        debug_assert!(charged);
        Some(chosen)
    }

    fn observe(&mut self, context: usize, action: usize, payoff: f64) {
        assert!(context < self.config.contexts(), "context out of range");
        assert!(action < self.config.actions(), "action out of range");
        assert!(!payoff.is_nan(), "payoff must not be NaN");
        let k = self.config.actions() as f64;
        let p = self.last_probability[context][action].max(1e-6);
        let estimate = payoff.clamp(0.0, 1.0) / p;
        let weights = &mut self.weights[context];
        weights[action] *= (self.gamma * estimate / k).exp();
        // Renormalize to keep the weights from overflowing on long runs, and
        // floor them (a fixed-share-style anchor) so that a long-suppressed
        // arm can recover quickly when the environment shifts — the whole
        // point of using an adversarial learner.
        const FLOOR: f64 = 1e-4;
        let sum: f64 = weights.iter().sum();
        if sum > f64::MIN_POSITIVE {
            for w in weights.iter_mut() {
                *w = (*w / sum).max(FLOOR);
            }
            let sum: f64 = weights.iter().sum();
            for w in weights.iter_mut() {
                *w /= sum;
            }
        } else {
            weights.fill(1.0 / k);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concentrates_on_the_best_arm() {
        let config = BanditConfig::new(1, vec![1.0, 1.0, 1.0], 1e6, 3000);
        let mut exp3 = Exp3::new(config, 0.1, 3);
        for _ in 0..3000 {
            let a = exp3.select(0).unwrap();
            exp3.observe(0, a, [0.2, 0.9, 0.4][a]);
        }
        assert!(
            exp3.weights[0][1] > 0.7,
            "weights {:?} must favor arm 1",
            exp3.weights[0]
        );
    }

    #[test]
    fn adapts_when_the_best_arm_flips() {
        // Non-stationary sequence: arm 0 is best for the first half, arm 1
        // afterwards. EXP3 must follow the flip.
        let config = BanditConfig::new(1, vec![1.0, 1.0], 1e6, 6000);
        let mut exp3 = Exp3::new(config, 0.15, 4);
        for round in 0..6000 {
            let a = exp3.select(0).unwrap();
            let best = usize::from(round >= 3000);
            exp3.observe(0, a, if a == best { 0.9 } else { 0.1 });
        }
        assert!(
            exp3.weights[0][1] > exp3.weights[0][0],
            "post-flip weights {:?}",
            exp3.weights[0]
        );
    }

    #[test]
    fn respects_budget() {
        let config = BanditConfig::new(1, vec![2.0, 3.0], 25.0, 100);
        let mut exp3 = Exp3::new(config, 0.2, 5);
        let mut spent = 0.0;
        while let Some(a) = exp3.select(0) {
            spent += [2.0, 3.0][a];
            exp3.observe(0, a, 0.5);
        }
        assert!(spent <= 25.0 + 1e-9);
    }

    #[test]
    fn weights_stay_normalized_under_extreme_payoffs() {
        let config = BanditConfig::new(1, vec![1.0, 1.0], 1e9, 100_000);
        let mut exp3 = Exp3::new(config, 0.3, 6);
        for _ in 0..20_000 {
            let a = exp3.select(0).unwrap();
            exp3.observe(0, a, 1.0);
        }
        let sum: f64 = exp3.weights[0].iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(exp3.weights[0].iter().all(|w| w.is_finite()));
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0, 1]")]
    fn rejects_bad_gamma() {
        Exp3::new(BanditConfig::new(1, vec![1.0], 1.0, 1), 0.0, 0);
    }
}
