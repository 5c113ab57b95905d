//! Gaussian Thompson sampling — a posterior-sampling alternative to the
//! UCB-ALP policy, used by the incentive-policy ablations.

use crate::config::{BanditConfig, BudgetLedger, CostedBandit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-(context, action) Gaussian Thompson sampling with budget pacing.
///
/// Each arm keeps a running mean and count; at selection time a payoff is
/// sampled from `N(mean, DEFAULT_SIGMA / sqrt(n + 1))` for every arm the pacing
/// allows (cost at most twice the per-round budget share), and the largest
/// sample wins. Unexplored arms have a prior mean of 0.5 over the `[0, 1]`
/// payoff scale, so everything gets tried early.
#[derive(Debug, Clone)]
pub struct ThompsonSampling {
    config: BanditConfig,
    ledger: BudgetLedger,
    counts: Vec<Vec<u64>>,
    means: Vec<Vec<f64>>,
    rounds_elapsed: u64,
    rng: StdRng,
}

impl ThompsonSampling {
    /// The prior/posterior scale, suited to `[0, 1]` payoffs.
    pub const DEFAULT_SIGMA: f64 = 0.25;

    /// Creates a sampler.
    pub fn new(config: BanditConfig, seed: u64) -> Self {
        let z = config.contexts();
        let k = config.actions();
        Self {
            ledger: BudgetLedger::new(config.total_budget()),
            counts: vec![vec![0; k]; z],
            means: vec![vec![0.5; k]; z],
            rounds_elapsed: 0,
            rng: StdRng::seed_from_u64(seed),
            config,
        }
    }

    fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl CostedBandit for ThompsonSampling {
    fn name(&self) -> &str {
        "thompson"
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

        let mut best = pool[0];
        let mut best_sample = f64::NEG_INFINITY;
        for &a in &pool {
            let n = self.counts[context][a] as f64;
            let noise = self.gaussian();
            let sample = self.means[context][a] + noise * Self::DEFAULT_SIGMA / (n + 1.0).sqrt();
            if sample > best_sample {
                best_sample = sample;
                best = a;
            }
        }
        let charged = self.ledger.try_charge(self.config.cost(best));
        debug_assert!(charged, "pool members are affordable");
        Some(best)
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

    fn config(&self) -> &BanditConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_the_best_arm() {
        let config = BanditConfig::new(1, vec![1.0, 1.0, 1.0], 10_000.0, 500);
        let mut ts = ThompsonSampling::new(config, 8);
        let mut picks = Vec::new();
        for _ in 0..500 {
            let a = ts.select(0).expect("budget ample");
            ts.observe(0, a, [0.3, 0.8, 0.5][a]);
            picks.push(a);
        }
        let late_best = picks.iter().skip(300).filter(|&&a| a == 1).count() as f64 / 200.0;
        assert!(late_best > 0.85, "best-arm rate {late_best}");
    }

    #[test]
    fn respects_the_budget() {
        let config = BanditConfig::new(1, vec![1.0, 4.0], 30.0, 100);
        let mut ts = ThompsonSampling::new(config, 1);
        let mut spent = 0.0;
        while let Some(a) = ts.select(0) {
            spent += [1.0, 4.0][a];
            ts.observe(0, a, 0.5);
        }
        assert!(spent <= 30.0 + 1e-9);
        assert!(ts.remaining_budget() < 1.0);
    }

    #[test]
    fn contexts_learn_independently() {
        let config = BanditConfig::new(2, vec![1.0, 1.0], 10_000.0, 600);
        let mut ts = ThompsonSampling::new(config, 5);
        for r in 0..600 {
            let ctx = r % 2;
            if let Some(a) = ts.select(ctx) {
                // Context 0 prefers arm 0, context 1 prefers arm 1.
                let payoff = if (ctx == 0) == (a == 0) { 0.9 } else { 0.2 };
                ts.observe(ctx, a, payoff);
            }
        }
        assert!(ts.means[0][0] > ts.means[0][1]);
        assert!(ts.means[1][1] > ts.means[1][0]);
    }
}
