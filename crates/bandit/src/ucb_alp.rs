//! UCB-ALP: the constrained contextual bandit solver of Wu, Srikant, Liu &
//! Jiang, "Algorithms with logarithmic or sublinear regret for constrained
//! contextual bandits" (NeurIPS 2015) — the algorithm the paper cites for
//! solving the IPD objective (Eq. 4).
//!
//! Per round the algorithm:
//!
//! 1. maintains UCB estimates of the expected payoff of every
//!    (context, action) pair,
//! 2. computes the *average remaining budget per remaining round*
//!    `rho = B_remaining / tau_remaining`,
//! 3. solves the adaptive linear program
//!    `max sum_z pi(z) sum_a p(a|z) UCB(z,a)` subject to
//!    `sum_z pi(z) sum_a p(a|z) c(a) <= rho` exactly: the LP has a single
//!    coupling constraint, so the optimum is attained by the per-context
//!    argmax of `UCB(z,a) - lambda c(a)` with at most one mixed context,
//!    and that greedy plan changes only where two actions' scores cross —
//!    at most `Z K (K-1) / 2` values of `lambda`. The solver sorts those
//!    crossings and binary-searches the segments between them for the
//!    first plan that fits `rho`, evaluating each segment at its midpoint
//!    so a floating-point tie at a crossing never decides a choice,
//! 4. samples the action for the observed context from the LP solution.
//!
//! The context distribution `pi` is estimated from the empirical context
//! frequencies (initialized uniform), as the paper's four temporal contexts
//! are equally likely by construction.
//!
//! The last segment ends at `hi`, twice the largest crossing (1 when
//! there is none), so its plan is the one every larger multiplier gives:
//! a cheapest action in each context. An untried action keeps its place
//! in the search however far its crossing lies, so the solve still mixes
//! it in when the budget affords part of it.
//!
//! The breakpoint search returns what an 80-step Lagrangian bisection over
//! the same `(0, hi)` interval returns (the tests keep that bisection as an
//! oracle), except in two cases: two crossings closer together than the
//! bisection's resolution (about `hi * 2^-80`, or one ulp of `lambda`),
//! which the bisection cannot tell apart; and, when a lower-indexed action
//! costs more than a higher-indexed one, two untried actions whose capped
//! scores `1e12 - lambda c(a)` tie below the ulp of `1e12` at the
//! bisection's smallest `lambda`. Ascending costs, like the paper's, rule
//! out the second case.

use crate::config::{tables_match, BanditConfig, BudgetLedger, CostedBandit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// The score an untried (context, action) pair plays with: it beats every
/// tried pair until the multiplier prices it out, far past any crossing of
/// two tried pairs (forced exploration), yet stays finite so that costs
/// still break ties between untried actions.
const UNTRIED_SCORE: f64 = 1e12;

/// The UCB-ALP policy. See the module docs for the algorithm.
///
/// # Example
///
/// ```
/// use crowdlearn_bandit::{BanditConfig, CostedBandit, UcbAlp};
///
/// let mut bandit = UcbAlp::new(BanditConfig::new(2, vec![1.0, 5.0], 60.0, 20), 3);
/// for round in 0..20 {
///     let ctx = round % 2;
///     if let Some(action) = bandit.select(ctx) {
///         // cheap action pays well in context 0, expensive in context 1
///         let payoff = if (ctx == 0) == (action == 0) { 0.9 } else { 0.2 };
///         bandit.observe(ctx, action, payoff);
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct UcbAlp {
    config: BanditConfig,
    ledger: BudgetLedger,
    /// Pull counts per (context, action).
    counts: Vec<Vec<u64>>,
    /// Mean payoff per (context, action).
    means: Vec<Vec<f64>>,
    /// Observed context frequencies (for the pi estimate).
    context_counts: Vec<u64>,
    rounds_elapsed: u64,
    rng: StdRng,
    /// Per-pick scratch, sized at construction so a pick allocates nothing
    /// (none of it is learned state): the UCB table, `K` cells per context;
    /// the context distribution; the score crossings, at most `Z K (K-1) / 2`
    /// plus the search's upper end.
    ucbs: Vec<f64>,
    pi: Vec<f64>,
    crossings: Vec<f64>,
}

impl UcbAlp {
    /// The exploration coefficient; tuned for payoffs normalized to
    /// `[0, 1]` and the paper's short (hundreds of pulls) horizons — the
    /// textbook `sqrt(2 ln t / n)` bonus would dwarf the payoff gaps and
    /// turn the LP into a pure cheapest-arm race.
    pub const DEFAULT_EXPLORATION_SCALE: f64 = 0.08;

    /// Creates a fresh policy for the given problem.
    pub fn new(config: BanditConfig, seed: u64) -> Self {
        let z = config.contexts();
        let k = config.actions();
        Self {
            ledger: BudgetLedger::new(config.total_budget()),
            counts: vec![vec![0; k]; z],
            means: vec![vec![0.0; k]; z],
            context_counts: vec![0; z],
            rounds_elapsed: 0,
            rng: StdRng::seed_from_u64(seed),
            ucbs: vec![0.0; z * k],
            pi: vec![0.0; z],
            crossings: Vec::with_capacity(z * k * k.saturating_sub(1) / 2 + 1),
            config,
        }
    }

    /// Fills the pick's UCB table and context distribution. Untried pairs
    /// get `+inf` so they are explored first. The distribution is the
    /// declared one when known, otherwise the uniform-smoothed empirical
    /// estimate.
    fn refresh_tables(&mut self) {
        let k = self.config.actions();
        let ln_t = (self.rounds_elapsed.max(2) as f64).ln();
        let rows = self.counts.iter().zip(&self.means);
        for (cells, (counts, means)) in self.ucbs.chunks_exact_mut(k).zip(rows) {
            for ((cell, &n), &mean) in cells.iter_mut().zip(counts).zip(means) {
                *cell = if n == 0 {
                    f64::INFINITY
                } else {
                    mean + Self::DEFAULT_EXPLORATION_SCALE * (ln_t / n as f64).sqrt()
                };
            }
        }
        match self.config.context_distribution() {
            Some(known) => self.pi.copy_from_slice(known),
            None => {
                let z = self.config.contexts();
                let total: u64 = self.context_counts.iter().sum();
                for (p, &c) in self.pi.iter_mut().zip(&self.context_counts) {
                    *p = (c as f64 + 1.0) / (total as f64 + z as f64);
                }
            }
        }
    }
}

/// One pick's adaptive LP: the problem, its UCB table (`K` cells per
/// context) and its context distribution.
struct Lp<'a> {
    config: &'a BanditConfig,
    ucbs: &'a [f64],
    pi: &'a [f64],
}

/// A UCB cell's score before the cost term: untried cells play
/// [`UNTRIED_SCORE`].
fn capped(ucb: f64) -> f64 {
    if ucb.is_infinite() {
        UNTRIED_SCORE
    } else {
        ucb
    }
}

impl Lp<'_> {
    /// Expected per-round cost of the greedy plan at Lagrange multiplier
    /// `lambda` (each context's first argmax of `UCB - lambda c`), and that
    /// plan's action at `context`.
    fn greedy(&self, lambda: f64, context: usize) -> (f64, usize) {
        let costs = self.config.action_costs();
        let mut expected_cost = 0.0;
        let mut chosen = 0;
        for (z, row) in self.ucbs.chunks_exact(costs.len()).enumerate() {
            let mut best = 0;
            let mut best_score = f64::NEG_INFINITY;
            for (a, (&ucb, &cost)) in row.iter().zip(costs).enumerate() {
                let score = capped(ucb) - lambda * cost;
                if score > best_score {
                    best_score = score;
                    best = a;
                }
            }
            expected_cost += self.pi[z] * costs[best];
            if z == context {
                chosen = best;
            }
        }
        (expected_cost, chosen)
    }

    /// Solves the LP for `rho` and returns, at `context`, the action of the
    /// smallest-multiplier greedy plan whose expected cost fits `rho`,
    /// together with the action of the boundary plan just below that
    /// multiplier and the mixing probability that makes the expected cost
    /// exactly `rho`. `crossings` is the caller's scratch.
    ///
    /// The LP optimum at a single coupling constraint randomizes between the
    /// two adjacent deterministic plans; without the mixing, per-round slack
    /// accumulates and gets burned late in flat (low-marginal-payoff)
    /// contexts.
    fn solve(
        &self,
        rho: f64,
        context: usize,
        crossings: &mut Vec<f64>,
    ) -> (usize, Option<(usize, f64)>) {
        // If the unconstrained greedy fits, take it.
        let unconstrained = self.greedy(0.0, context);
        if unconstrained.0 <= rho {
            return (unconstrained.1, None);
        }

        let costs = self.config.action_costs();
        crossings.clear();
        for row in self.ucbs.chunks_exact(costs.len()) {
            for (a, (&ucb_a, &cost_a)) in row.iter().zip(costs).enumerate() {
                for (&ucb_b, &cost_b) in row.iter().zip(costs).skip(a + 1) {
                    if cost_a != cost_b {
                        let lambda = (capped(ucb_a) - capped(ucb_b)) / (cost_a - cost_b);
                        if lambda > 0.0 {
                            crossings.push(lambda);
                        }
                    }
                }
            }
        }
        crossings.sort_unstable_by(f64::total_cmp);
        crossings.dedup();
        // Past the largest crossing the plan no longer changes: close the
        // last segment at twice it, so its midpoint lies beyond them all.
        crossings.push(crossings.last().map_or(1.0, |&top| 2.0 * top));

        // Segment `i` runs from the previous crossing (0 for the first) to
        // `crossings[i]`; the greedy plan is constant inside it and its
        // cost does not rise with `i`. Find the first segment that fits,
        // and keep the last one evaluated that does not.
        let segment = |i: usize| {
            let from = if i == 0 { 0.0 } else { crossings[i - 1] };
            self.greedy(0.5 * (from + crossings[i]), context)
        };
        let (mut lo, mut hi) = (0, crossings.len());
        let mut feasible = None;
        let mut infeasible = unconstrained;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let plan = segment(mid);
            if plan.0 <= rho {
                feasible = Some(plan);
                hi = mid;
            } else {
                infeasible = plan;
                lo = mid + 1;
            }
        }
        match feasible {
            Some((c_f, action_f)) => {
                let (c_i, action_i) = infeasible;
                let mix = if c_i > c_f + 1e-12 {
                    let p = ((rho - c_f) / (c_i - c_f)).clamp(0.0, 1.0);
                    (p > 0.0).then_some((action_i, p))
                } else {
                    None
                };
                (action_f, mix)
            }
            // Even the last segment's plan does not fit rho (rho below
            // minimum cost): fall back to cheapest everywhere.
            None => (self.config.cheapest_action(), None),
        }
    }
}

impl CostedBandit for UcbAlp {
    fn name(&self) -> &str {
        "UCB-ALP"
    }

    fn select(&mut self, context: usize) -> Option<usize> {
        assert!(context < self.config.contexts(), "context out of range");
        self.rounds_elapsed += 1;
        self.context_counts[context] += 1;

        let remaining_rounds = self
            .config
            .horizon()
            .saturating_sub(self.rounds_elapsed - 1)
            .max(1);
        let rho = self.ledger.remaining() / remaining_rounds as f64;
        self.refresh_tables();
        let lp = Lp {
            config: &self.config,
            ucbs: &self.ucbs,
            pi: &self.pi,
        };
        let (mut action, boundary) = lp.solve(rho, context, &mut self.crossings);
        if let Some((upper_action, p)) = boundary {
            if self.rng.gen::<f64>() < p {
                action = upper_action;
            }
        }

        if !self.ledger.try_charge(self.config.cost(action)) {
            // LP answer unaffordable right now: degrade to the affordable
            // action with the highest UCB, preferring exploration value.
            let k = self.config.actions();
            let row = &self.ucbs[context * k..(context + 1) * k];
            let costs = self.config.action_costs();
            let fallback = (0..k)
                .filter(|&a| self.ledger.affords(costs[a]))
                .max_by(|&a, &b| row[a].partial_cmp(&row[b]).expect("UCBs comparable"));
            action = fallback?;
            let charged = self.ledger.try_charge(self.config.cost(action));
            debug_assert!(charged, "affordable action must charge");
        }
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

// Snapshot codec: what the policy learned and spent, RNG words included, so
// a policy rebuilt from the same config continues the live one's exact pick
// sequence. The config itself does not travel; decoding rejects tables that
// do not fit it.
impl UcbAlp {
    /// Appends the learned state: the budget ledger, the statistics tables,
    /// the context counts, the round counter and the RNG words.
    pub fn encode_learned(&self, out: &mut Vec<u8>) {
        self.ledger.encode_learned(out);
        self.counts.encode(out);
        self.means.encode(out);
        self.context_counts.encode(out);
        self.rounds_elapsed.encode(out);
        self.rng.state().encode(out);
    }

    /// Restores [`UcbAlp::encode_learned`] bytes onto a policy built from
    /// the same config.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Invalid`] for tables that do not fit the config, or a
    /// negative remaining budget or one above the rebuilt policy's.
    pub fn decode_learned(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.ledger.decode_learned(r)?;
        let counts = Vec::<Vec<u64>>::decode(r)?;
        let means = Vec::<Vec<f64>>::decode(r)?;
        let context_counts = Vec::<u64>::decode(r)?;
        let rounds_elapsed = u64::decode(r)?;
        let rng = <[u64; 4]>::decode(r)?;
        let valid = tables_match(&self.config, &counts, &means)
            && context_counts.len() == self.config.contexts();
        if !valid {
            return Err(DecodeError::Invalid);
        }
        self.counts = counts;
        self.means = means;
        self.context_counts = context_counts;
        self.rounds_elapsed = rounds_elapsed;
        self.rng = StdRng::from_state(rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic environment: payoff depends on (context, action) with a
    /// known optimum per context.
    fn payoff(ctx: usize, action: usize) -> f64 {
        // Context 0 rewards expensive actions strongly; context 1 is flat
        // (cheap actions are effectively optimal per cost).
        match ctx {
            0 => [0.1, 0.4, 0.9][action],
            _ => [0.75, 0.8, 0.82][action],
        }
    }

    fn run(total_budget: f64, rounds: u64) -> (UcbAlp, Vec<(usize, usize)>) {
        let config = BanditConfig::new(2, vec![1.0, 2.0, 4.0], total_budget, rounds);
        let mut bandit = UcbAlp::new(config, 11);
        let mut picks = Vec::new();
        for r in 0..rounds {
            let ctx = (r % 2) as usize;
            if let Some(a) = bandit.select(ctx) {
                bandit.observe(ctx, a, payoff(ctx, a));
                picks.push((ctx, a));
            }
        }
        (bandit, picks)
    }

    #[test]
    fn never_overspends_budget() {
        for budget in [3.0, 10.0, 50.0, 120.0] {
            let (bandit, picks) = run(budget, 100);
            let spent: f64 = picks.iter().map(|&(_, a)| [1.0, 2.0, 4.0][a]).sum();
            assert!(spent <= budget + 1e-9, "spent {spent} of {budget}");
            assert!((bandit.remaining_budget() - (budget - spent)).abs() < 1e-6);
        }
    }

    #[test]
    fn rich_budget_finds_per_context_optimum() {
        // Budget 400 over 100 rounds: can always afford the best action.
        let (_, picks) = run(400.0, 100);
        let late: Vec<_> = picks.iter().skip(60).collect();
        let ctx0_best = late
            .iter()
            .filter(|(c, _)| *c == 0)
            .filter(|(_, a)| *a == 2)
            .count() as f64
            / late.iter().filter(|(c, _)| *c == 0).count().max(1) as f64;
        assert!(
            ctx0_best > 0.7,
            "context 0 should converge to action 2, rate {ctx0_best}"
        );
    }

    #[test]
    fn tight_budget_spends_where_it_matters() {
        // rho = 2.0: cannot afford action 2 everywhere. The LP should spend
        // on context 0 (payoff gap 0.8) and save on context 1 (flat).
        let (_, picks) = run(200.0, 100);
        let late: Vec<_> = picks.iter().skip(40).collect();
        let avg_cost = |ctx: usize| {
            let xs: Vec<f64> = late
                .iter()
                .filter(|(c, _)| *c == ctx)
                .map(|&&(_, a)| [1.0f64, 2.0, 4.0][a])
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        assert!(
            avg_cost(0) > avg_cost(1),
            "must pay more in the payoff-sensitive context: {} vs {}",
            avg_cost(0),
            avg_cost(1)
        );
    }

    #[test]
    fn exhausted_budget_returns_none() {
        let config = BanditConfig::new(1, vec![1.0], 2.0, 10);
        let mut bandit = UcbAlp::new(config, 1);
        assert!(bandit.select(0).is_some());
        assert!(bandit.select(0).is_some());
        assert!(bandit.select(0).is_none());
        assert_eq!(bandit.remaining_budget(), 0.0);
    }

    #[test]
    fn explores_every_action_at_least_once_with_budget() {
        let (bandit, picks) = run(1000.0, 60);
        for a in 0..3 {
            assert!(
                picks.iter().any(|&(_, pa)| pa == a),
                "action {a} never tried; counts {:?}",
                bandit.counts
            );
        }
    }

    #[test]
    #[should_panic(expected = "context out of range")]
    fn select_rejects_bad_context() {
        let mut bandit = UcbAlp::new(BanditConfig::new(2, vec![1.0], 5.0, 5), 0);
        bandit.select(2);
    }

    #[test]
    #[should_panic(expected = "payoff must not be NaN")]
    fn observe_rejects_nan() {
        let mut bandit = UcbAlp::new(BanditConfig::new(1, vec![1.0], 5.0, 5), 0);
        bandit.observe(0, 0, f64::NAN);
    }

    #[test]
    fn is_deterministic_given_seed_and_payoffs() {
        let (_, a) = run(120.0, 50);
        let (_, b) = run(120.0, 50);
        assert_eq!(a, b);
    }

    /// The Lagrangian bisection the breakpoint search replaced, kept as its
    /// oracle: 80 halvings of `(0, hi)`, the search's own upper end, the
    /// whole greedy plan recomputed at each midpoint. Returns the feasible
    /// plan and the boundary plan with its mixing probability, one action
    /// per context.
    fn bisection(lp: &Lp<'_>, rho: f64, mut hi: f64) -> (Vec<usize>, Option<(Vec<usize>, f64)>) {
        let z = lp.config.contexts();
        let k = lp.config.actions();
        let ucbs: Vec<Vec<f64>> = lp.ucbs.chunks_exact(k).map(<[f64]>::to_vec).collect();
        let greedy_at_lambda = |lambda: f64| {
            let mut expected_cost = 0.0;
            let mut choices = Vec::with_capacity(z);
            for (zz, row) in ucbs.iter().enumerate() {
                let mut best = 0;
                let mut best_score = f64::NEG_INFINITY;
                for (a, &ucb) in row.iter().enumerate() {
                    let score = if ucb.is_infinite() {
                        1e12 - lambda * lp.config.cost(a)
                    } else {
                        ucb - lambda * lp.config.cost(a)
                    };
                    if score > best_score {
                        best_score = score;
                        best = a;
                    }
                }
                expected_cost += lp.pi[zz] * lp.config.cost(best);
                choices.push(best);
            }
            (expected_cost, choices)
        };

        let (cost0, choices0) = greedy_at_lambda(0.0);
        if cost0 <= rho {
            return (choices0, None);
        }
        let mut lo = 0.0;
        let mut feasible = None;
        let mut infeasible = Some((cost0, choices0));
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let (cost, choices) = greedy_at_lambda(mid);
            if cost <= rho {
                feasible = Some((cost, choices));
                hi = mid;
            } else {
                infeasible = Some((cost, choices));
                lo = mid;
            }
        }
        match feasible {
            Some((c_f, plan_f)) => {
                let mix = infeasible.and_then(|(c_i, plan_i)| {
                    if c_i > c_f + 1e-12 {
                        let p = ((rho - c_f) / (c_i - c_f)).clamp(0.0, 1.0);
                        (p > 0.0).then_some((plan_i, p))
                    } else {
                        None
                    }
                });
                (plan_f, mix)
            }
            None => (vec![lp.config.cheapest_action(); z], None),
        }
    }

    /// The breakpoint search's answer at every context, against the
    /// bisection's: the same feasible action, the same boundary action and
    /// the bit-identical mix. Returns the first mismatch.
    fn compare_with_bisection(bandit: &mut UcbAlp, rho: f64) -> Result<(), String> {
        bandit.refresh_tables();
        let lp = Lp {
            config: &bandit.config,
            ucbs: &bandit.ucbs,
            pi: &bandit.pi,
        };
        // The search's upper end: solving once fills the crossings. When
        // the unconstrained plan fits, neither side searches.
        lp.solve(rho, 0, &mut bandit.crossings);
        let hi = bandit.crossings.last().copied().unwrap_or(1.0);
        let (plan, boundary) = bisection(&lp, rho, hi);
        for (context, &expected) in plan.iter().enumerate() {
            let oracle = (
                expected,
                boundary
                    .as_ref()
                    .map(|(p, mix)| (p[context], mix.to_bits())),
            );
            let (action, mix) = lp.solve(rho, context, &mut bandit.crossings);
            let solved = (action, mix.map(|(a, p)| (a, p.to_bits())));
            if solved != oracle {
                return Err(format!(
                    "context {context} at rho {rho}: search {solved:?}, bisection {oracle:?}"
                ));
            }
        }
        Ok(())
    }

    /// A policy with a drawn learned state over `costs`: each cell untried
    /// with probability `untried`, otherwise pulled 1..50 times with a mean
    /// in `[0, 1)`; drawn context counts and round counter; and, half the
    /// time, a declared context distribution instead of the empirical one.
    fn drawn_policy(rng: &mut StdRng, contexts: usize, costs: Vec<f64>, untried: f64) -> UcbAlp {
        let k = costs.len();
        let mut config = BanditConfig::new(contexts, costs, 100.0, 200);
        if rng.gen_bool(0.5) {
            let weights: Vec<f64> = (0..contexts).map(|_| rng.gen_range(0.05..1.0)).collect();
            let total: f64 = weights.iter().sum();
            config = config.with_context_distribution(weights.iter().map(|w| w / total).collect());
        }
        let mut bandit = UcbAlp::new(config, 0);
        for z in 0..contexts {
            for a in 0..k {
                if !rng.gen_bool(untried) {
                    bandit.counts[z][a] = rng.gen_range(1..50);
                    bandit.means[z][a] = rng.gen_range(0.0..1.0);
                }
            }
            bandit.context_counts[z] = rng.gen_range(0..100);
        }
        bandit.rounds_elapsed = rng.gen_range(0..2_000);
        bandit
    }

    /// Strictly ascending costs: real-valued steps, or integer steps like
    /// the paper's `{1, 2, 4, 6, 8, 10, 20}`.
    fn ascending_costs(rng: &mut StdRng, k: usize) -> Vec<f64> {
        let integer = rng.gen_bool(0.5);
        let mut cost = 0.0;
        (0..k)
            .map(|_| {
                cost += if integer {
                    rng.gen_range(1..=10) as f64
                } else {
                    rng.gen_range(0.05..5.0)
                };
                cost
            })
            .collect()
    }

    /// Whether two of the search's sorted crossings lie within `1e-12` of
    /// each other, relative: closer than the scores' rounding can place a
    /// crossing (an untried cell's `1e12 - lambda c` carries an absolute
    /// error near `1e-4`), so float evaluation, not the LP, decides which
    /// side of the pair a multiplier is on.
    fn near_coincident(crossings: &[f64]) -> bool {
        crossings.windows(2).any(|w| w[1] - w[0] <= 1e-12 * w[1])
    }

    /// Over drawn problems (1..=6 contexts, 1..=8 strictly ascending costs,
    /// untried cells, declared or empirical pi, rho from below the cheapest
    /// cost to above the unconstrained greedy's), the breakpoint search
    /// answers what the bisection answers at every context. A draw whose
    /// answers differ is excluded only when it has near-coincident
    /// crossings, the first disagreement case of the module docs. None of
    /// these 20 000 draws is; at 400 000 draws, 7 were, and no other draw
    /// disagreed.
    #[test]
    fn breakpoint_search_matches_the_bisection() {
        let cases = 20_000;
        let excluded = std::cell::Cell::new(0);
        let config = proptest::test_runner::ProptestConfig::with_cases(cases);
        proptest::test_runner::run(&config, "breakpoint_search", |rng| {
            let contexts = rng.gen_range(1..=6);
            let k = rng.gen_range(1..=8);
            let costs = ascending_costs(rng, k);
            let (cheapest, dearest) = (costs[0], costs[k - 1]);
            let untried = [0.0, 0.2, 0.6][rng.gen_range(0usize..3)];
            let mut bandit = drawn_policy(rng, contexts, costs, untried);
            for _ in 0..8 {
                let rho = rng.gen_range(0.5 * cheapest..1.2 * dearest);
                if let Err(mismatch) = compare_with_bisection(&mut bandit, rho) {
                    if near_coincident(&bandit.crossings) {
                        excluded.set(excluded.get() + 1);
                        return Ok(());
                    }
                    return Err(proptest::test_runner::TestCaseError::Fail(mismatch));
                }
            }
            Ok(())
        });
        eprintln!("{} of {cases} draws excluded", excluded.get());
        assert!(
            excluded.get() * 1_000 <= cases,
            "{} draws excluded",
            excluded.get()
        );
    }

    /// A 2-context policy over `costs` whose tried cells hold `means`
    /// (`None` for untried), pulled 5 times each, 40 rounds in.
    fn tabled(costs: Vec<f64>, means: &[Option<f64>]) -> UcbAlp {
        let k = costs.len();
        let mut bandit = UcbAlp::new(BanditConfig::new(2, costs, 100.0, 200), 0);
        for (i, mean) in means.iter().enumerate() {
            if let Some(mean) = mean {
                bandit.counts[i / k][i % k] = 5;
                bandit.means[i / k][i % k] = *mean;
            }
        }
        bandit.context_counts = vec![20, 20];
        bandit.rounds_elapsed = 40;
        bandit
    }

    /// The search's answer at `context`, mix as bits.
    fn solved(bandit: &mut UcbAlp, rho: f64, context: usize) -> (usize, Option<(usize, u64)>) {
        bandit.refresh_tables();
        let lp = Lp {
            config: &bandit.config,
            ucbs: &bandit.ucbs,
            pi: &bandit.pi,
        };
        let (action, mix) = lp.solve(rho, context, &mut bandit.crossings);
        (action, mix.map(|(a, p)| (a, p.to_bits())))
    }

    #[test]
    fn every_action_untried_plays_the_cheapest() {
        let mut bandit = tabled(vec![1.0, 2.0, 4.0], &[None; 6]);
        for rho in [0.5, 1.0, 3.0, 10.0] {
            compare_with_bisection(&mut bandit, rho).unwrap();
            assert_eq!(solved(&mut bandit, rho, 1), (0, None), "rho {rho}");
        }
    }

    #[test]
    fn one_action_is_always_the_answer() {
        let mut bandit = tabled(vec![3.0], &[Some(0.4), None]);
        for rho in [0.5, 3.0, 10.0] {
            compare_with_bisection(&mut bandit, rho).unwrap();
            for context in 0..2 {
                assert_eq!(solved(&mut bandit, rho, context), (0, None));
            }
        }
    }

    #[test]
    fn rho_below_the_cheapest_cost_falls_back_to_it() {
        // Costs out of order: the cheapest action is index 1.
        let means = [Some(0.2), Some(0.5), Some(0.9), Some(0.3), None, Some(0.1)];
        let mut bandit = tabled(vec![2.0, 1.0, 4.0], &means);
        compare_with_bisection(&mut bandit, 0.5).unwrap();
        for context in 0..2 {
            assert_eq!(solved(&mut bandit, 0.5, context), (1, None));
        }
    }

    #[test]
    fn equal_cost_pairs_never_cross() {
        // Actions 1 and 2 cost the same: the higher UCB wins at every
        // multiplier, and a tie goes to the lower index.
        let means = [
            Some(0.1),
            Some(0.5),
            Some(0.7),
            Some(0.9),
            Some(0.2),
            Some(0.6),
            Some(0.6),
            Some(0.95),
        ];
        let mut bandit = tabled(vec![1.0, 2.0, 2.0, 4.0], &means);
        for rho in [0.5, 1.5, 2.0, 2.5, 3.0, 5.0] {
            compare_with_bisection(&mut bandit, rho).unwrap();
        }
        // At rho 2 both contexts can afford a cost-2 action and no more.
        assert_eq!(solved(&mut bandit, 2.0, 0), (2, None));
        assert_eq!(solved(&mut bandit, 2.0, 1), (1, None));
    }

    #[test]
    fn an_untried_action_past_the_cost_span_is_still_mixed_in() {
        // Action 1 is untried and only 0.5 dearer than action 0, so it
        // beats action 0 until lambda ~2e12, far past the tried crossing.
        // Between the two costs the LP mixes it in with the cheap action.
        let config = BanditConfig::new(1, vec![1.0, 1.5, 10.0], 100.0, 200);
        let mut bandit = UcbAlp::new(config, 0);
        for (action, mean) in [(0, 0.5), (2, 0.9)] {
            bandit.counts[0][action] = 5;
            bandit.means[0][action] = mean;
        }
        bandit.context_counts = vec![40];
        bandit.rounds_elapsed = 40;
        for (rho, p) in [(1.2, 0.4), (1.4, 0.8)] {
            compare_with_bisection(&mut bandit, rho).unwrap();
            let (action, mix) = solved(&mut bandit, rho, 0);
            let (boundary, mixed) = mix.expect("the budget affords part of action 1");
            assert_eq!((action, boundary), (0, 1), "rho {rho}");
            assert!((f64::from_bits(mixed) - p).abs() < 1e-12, "rho {rho}");
        }
    }
}
