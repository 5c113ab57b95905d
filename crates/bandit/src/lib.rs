//! Reinforcement-learning substrate for CrowdLearn.
//!
//! The paper's Incentive Policy Design module (Section IV-B) maps incentive
//! selection onto a **constrained contextual multi-armed bandit** (CCMB): at
//! each sensing cycle the temporal context is observed, an incentive level
//! (action) is chosen for the cycle's queries, the cost is charged against a
//! global budget, and the payoff — the additive inverse of the crowd's
//! response delay — is revealed only after the crowd answers. The paper
//! solves the CCMB "using the adaptive linear programming approach in
//! [Wu et al., NeurIPS 2015]"; [`UcbAlp`] implements that algorithm
//! (UCB estimates + per-round adaptive LP via Lagrangian search).
//!
//! The crate also provides the building blocks the evaluation compares
//! against and the learner MIC uses:
//!
//! * [`EpsilonGreedy`] — budget-aware contextual ε-greedy,
//! * [`ThompsonSampling`] — Gaussian posterior sampling (ablations),
//! * [`Exp3`] — the adversarial bandit, robust to non-stationary crowds,
//! * [`FixedPolicy`] / [`RandomPolicy`] — the fixed- and random-incentive
//!   baselines of Figure 8,
//! * [`RegretTracker`] — pseudo-regret accounting against a known oracle,
//! * [`ExpWeights`] — Hedge/exponential-weights updates (Cesa-Bianchi &
//!   Lugosi), used by MIC's dynamic expert-weight strategy,
//! * the [`CostedBandit`] trait tying them together.
//!
//! [`UcbAlp`], [`EpsilonGreedy`], [`FixedPolicy`] and [`RandomPolicy`] — the
//! policies CrowdLearn's IPD module can boot — and [`ExpWeights`] carry
//! learned-state codecs (`encode_learned`/`decode_learned`): what they
//! learned and spent, RNG words included, restored onto a learner rebuilt
//! from the same settings, which refuses state that does not fit it. The
//! settings themselves ([`BanditConfig`], ε, η) never travel.
//!
//! # Example
//!
//! ```
//! use crowdlearn_bandit::{BanditConfig, CostedBandit, UcbAlp};
//!
//! let config = BanditConfig::new(4, vec![1.0, 2.0, 4.0], 100.0, 50);
//! let mut bandit = UcbAlp::new(config, 7);
//! let action = bandit.select(0).expect("budget available");
//! bandit.observe(0, action, 0.8);
//! assert!(bandit.remaining_budget() < 100.0);
//! ```

//! Determinism: a simulation crate under `detlint` rules D1-D6 (DESIGN.md
//! "Determinism invariants") — BTree collections only, virtual time only,
//! seeded RNG only.
//!
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod epsilon_greedy;
mod exp3;
mod hedge;
mod regret;
mod simple;
mod thompson;
mod ucb_alp;

pub use config::{BanditConfig, CostedBandit};
pub use epsilon_greedy::EpsilonGreedy;
pub use exp3::Exp3;
pub use hedge::ExpWeights;
pub use regret::RegretTracker;
pub use simple::{FixedPolicy, RandomPolicy};
pub use thompson::ThompsonSampling;
pub use ucb_alp::UcbAlp;
