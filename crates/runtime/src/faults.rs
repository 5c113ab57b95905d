//! Deterministic fault injection: seeded, virtual-time schedules of crowd
//! failures, and the typed circuit-breaker states the driver answers them
//! with.
//!
//! A [`FaultPlan`] is a list of typed [`FaultEpisode`]s pinned to virtual
//! time. The driver turns the plan into [`crate::EventKind::FaultStart`] /
//! [`crate::EventKind::FaultEnd`] events at boot, and consults the plan at
//! event boundaries. Every answer is a pure function of virtual time plus,
//! for answer loss, a dedicated SplitMix64 stream seeded from the plan (the
//! execution's one piece of fault state) — no wall clock, no shared RNG —
//! so a faulted run is exactly as replayable as a clean one, and an
//! **empty plan draws nothing at all**: the run is byte-identical to one
//! that never heard of faults.
//!
//! The episode taxonomy mirrors how a real crowd platform fails under a
//! live deployment (DESIGN.md "Fault model & degradation ladder"):
//!
//! * [`FaultEpisode::PlatformOutage`] — HIT posts are rejected outright.
//! * [`FaultEpisode::WorkerAttrition`] — the worker pool shrinks; answer
//!   delays inflate by `1 / (1 - fraction)`.
//! * [`FaultEpisode::AnswerLoss`] — a posted attempt never answers, forcing
//!   the timeout path.
//! * [`FaultEpisode::BudgetShock`] — an instantaneous ledger clawback.
//!
//! Episode windows are half-open `[from, until)`: at the `until` instant
//! the fault is already over, regardless of how simultaneous events happen
//! to tie-break.

use serde::binary::{Decode, DecodeError, Encode, Reader};

/// One typed fault episode pinned to virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEpisode {
    /// The crowd platform rejects every HIT post in `[from, until)`.
    PlatformOutage {
        /// Virtual second the outage begins.
        from_secs: f64,
        /// Virtual second the platform accepts posts again (exclusive).
        until_secs: f64,
    },
    /// A `fraction` of the worker pool walks away in `[from, until)`;
    /// answers posted during the window take `1 / (1 - fraction)` times as
    /// long to complete.
    WorkerAttrition {
        /// Fraction of the pool lost, in `[0, 1)`.
        fraction: f64,
        /// Virtual second the attrition begins.
        from_secs: f64,
        /// Virtual second the pool is back at strength (exclusive).
        until_secs: f64,
    },
    /// Each attempt posted in `[from, until)` is lost with probability
    /// `prob` — the workers never answer, and only the timeout path can
    /// retire the HIT. Requires a configured HIT timeout.
    AnswerLoss {
        /// Per-attempt loss probability, in `[0, 1]`.
        prob: f64,
        /// Virtual second losses begin.
        from_secs: f64,
        /// Virtual second losses stop (exclusive).
        until_secs: f64,
    },
    /// `cents` are clawed back from the incentive bandit's ledger at
    /// `at_secs` (a sponsor pulling funds, a platform reversing a refund).
    /// Instantaneous: it emits only a `FaultStarted` metric, no end.
    BudgetShock {
        /// Virtual second the clawback lands.
        at_secs: f64,
        /// Amount removed (the ledger clamps at zero).
        cents: f64,
    },
}

impl FaultEpisode {
    /// Virtual second the episode takes effect.
    pub fn start_secs(&self) -> f64 {
        match *self {
            FaultEpisode::PlatformOutage { from_secs, .. }
            | FaultEpisode::WorkerAttrition { from_secs, .. }
            | FaultEpisode::AnswerLoss { from_secs, .. } => from_secs,
            FaultEpisode::BudgetShock { at_secs, .. } => at_secs,
        }
    }

    /// Virtual second a windowed episode ends (exclusive), or `None` for
    /// the instantaneous [`FaultEpisode::BudgetShock`].
    pub fn end_secs(&self) -> Option<f64> {
        match *self {
            FaultEpisode::PlatformOutage { until_secs, .. }
            | FaultEpisode::WorkerAttrition { until_secs, .. }
            | FaultEpisode::AnswerLoss { until_secs, .. } => Some(until_secs),
            FaultEpisode::BudgetShock { .. } => None,
        }
    }

    /// Whether a windowed episode covers the instant `now` (`[from, until)`;
    /// always `false` for [`FaultEpisode::BudgetShock`]).
    pub fn active_at(&self, now_secs: f64) -> bool {
        match self.end_secs() {
            Some(until) => self.start_secs() <= now_secs && now_secs < until,
            None => false,
        }
    }

    /// The one validity rule: [`FaultPlan::new`] panics with its message,
    /// the snapshot decoder reports `Invalid`.
    pub fn check(&self) -> Result<(), &'static str> {
        let window_ok = |from: f64, until: f64| {
            from.is_finite() && from >= 0.0 && until.is_finite() && until > from
        };
        let ok = match *self {
            FaultEpisode::PlatformOutage {
                from_secs,
                until_secs,
            } => window_ok(from_secs, until_secs),
            FaultEpisode::WorkerAttrition {
                fraction,
                from_secs,
                until_secs,
            } => window_ok(from_secs, until_secs) && (0.0..1.0).contains(&fraction),
            FaultEpisode::AnswerLoss {
                prob,
                from_secs,
                until_secs,
            } => window_ok(from_secs, until_secs) && (0.0..=1.0).contains(&prob),
            FaultEpisode::BudgetShock { at_secs, cents } => {
                at_secs.is_finite() && at_secs >= 0.0 && cents.is_finite() && cents >= 0.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err("fault episode is malformed: bad time window, fraction, prob or cents")
        }
    }
}

// Snapshot codec: a stable u8 tag per episode kind, fields in declaration
// order. Decode runs `FaultEpisode::check` and reports `Invalid` instead of
// panicking.
impl Encode for FaultEpisode {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            FaultEpisode::PlatformOutage {
                from_secs,
                until_secs,
            } => {
                0u8.encode(out);
                from_secs.encode(out);
                until_secs.encode(out);
            }
            FaultEpisode::WorkerAttrition {
                fraction,
                from_secs,
                until_secs,
            } => {
                1u8.encode(out);
                fraction.encode(out);
                from_secs.encode(out);
                until_secs.encode(out);
            }
            FaultEpisode::AnswerLoss {
                prob,
                from_secs,
                until_secs,
            } => {
                2u8.encode(out);
                prob.encode(out);
                from_secs.encode(out);
                until_secs.encode(out);
            }
            FaultEpisode::BudgetShock { at_secs, cents } => {
                3u8.encode(out);
                at_secs.encode(out);
                cents.encode(out);
            }
        }
    }
}

impl Decode for FaultEpisode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = u8::decode(r)?;
        let episode = match tag {
            0 => FaultEpisode::PlatformOutage {
                from_secs: f64::decode(r)?,
                until_secs: f64::decode(r)?,
            },
            1 => FaultEpisode::WorkerAttrition {
                fraction: f64::decode(r)?,
                from_secs: f64::decode(r)?,
                until_secs: f64::decode(r)?,
            },
            2 => FaultEpisode::AnswerLoss {
                prob: f64::decode(r)?,
                from_secs: f64::decode(r)?,
                until_secs: f64::decode(r)?,
            },
            3 => FaultEpisode::BudgetShock {
                at_secs: f64::decode(r)?,
                cents: f64::decode(r)?,
            },
            _ => return Err(DecodeError::Invalid),
        };
        episode.check().map_err(|_| DecodeError::Invalid)?;
        Ok(episode)
    }
}

/// A seeded, virtual-time schedule of [`FaultEpisode`]s — the whole fault
/// scenario of a run, carried by [`crate::RuntimeConfig`] and therefore by
/// the snapshot and each fleet shard's spec.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    episodes: Vec<FaultEpisode>,
}

impl FaultPlan {
    /// The empty plan: no episodes, no RNG draws, byte-identical runs.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with `episodes` drawing loss decisions from `seed`.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`FaultPlan::check`] if any episode is
    /// malformed.
    pub fn new(seed: u64, episodes: Vec<FaultEpisode>) -> Self {
        let plan = Self { seed, episodes };
        plan.check().unwrap_or_else(|e| panic!("{e}"));
        plan
    }

    /// The seed of the plan's dedicated RNG stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled episodes, in plan order.
    pub fn episodes(&self) -> &[FaultEpisode] {
        &self.episodes
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// Whether any episode can lose answers (such plans require a
    /// configured HIT timeout — a lost answer can only be retired by it).
    pub fn has_answer_loss(&self) -> bool {
        self.episodes
            .iter()
            .any(|e| matches!(e, FaultEpisode::AnswerLoss { .. }))
    }

    /// The first malformed episode's [`FaultEpisode::check`] error.
    pub fn check(&self) -> Result<(), &'static str> {
        self.episodes.iter().try_for_each(FaultEpisode::check)
    }

    /// Whether a [`FaultEpisode::PlatformOutage`] covers `now`: HIT posts
    /// must be rejected.
    pub(crate) fn outage_active(&self, now_secs: f64) -> bool {
        self.episodes
            .iter()
            .any(|e| matches!(e, FaultEpisode::PlatformOutage { .. }) && e.active_at(now_secs))
    }

    /// Delay inflation factor from every [`FaultEpisode::WorkerAttrition`]
    /// active at `now`: `1.0` at full strength, the product of
    /// `1 / (1 - fraction)` over active episodes otherwise.
    pub(crate) fn attrition_factor(&self, now_secs: f64) -> f64 {
        self.episodes
            .iter()
            .filter_map(|e| match e {
                FaultEpisode::WorkerAttrition { fraction, .. } if e.active_at(now_secs) => {
                    Some(1.0 / (1.0 - fraction))
                }
                _ => None,
            })
            .product()
    }
}

impl Encode for FaultPlan {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seed.encode(out);
        self.episodes.encode(out);
    }
}

impl Decode for FaultPlan {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let plan = Self {
            seed: u64::decode(r)?,
            episodes: Vec::<FaultEpisode>::decode(r)?,
        };
        plan.check().map_err(|_| DecodeError::Invalid)?;
        Ok(plan)
    }
}

/// SplitMix64 step: the same generator the simulated experts use for
/// hashing, here run as a stream (the state advances per draw).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The live state of a plan's dedicated loss stream, which the driver
/// draws from when it posts an attempt. The plan itself is the run's
/// [`crate::RuntimeConfig::faults`]: every other fault query is a pure
/// function of the plan and virtual time, so the injector snapshots as
/// the stream position alone.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultInjector {
    rng: u64,
}

impl FaultInjector {
    /// The stream of `plan`, at its seed.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        Self { rng: plan.seed() }
    }

    /// Whether an attempt posted at `now` under `plan` is lost. Draws from
    /// the loss stream **only** when at least one
    /// [`FaultEpisode::AnswerLoss`] is active — a plan without loss
    /// episodes never advances the stream, so it cannot perturb anything.
    pub(crate) fn answer_lost(&mut self, plan: &FaultPlan, now_secs: f64) -> bool {
        let survive: f64 = plan
            .episodes
            .iter()
            .filter_map(|e| match e {
                FaultEpisode::AnswerLoss { prob, .. } if e.active_at(now_secs) => Some(1.0 - prob),
                _ => None,
            })
            .product();
        if survive >= 1.0 {
            return false;
        }
        // 53 uniform bits in [0, 1).
        let unit = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        unit >= survive
    }
}

// Snapshot codec: the stream position.
impl Encode for FaultInjector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rng.encode(out);
    }
}

impl Decode for FaultInjector {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            rng: u64::decode(r)?,
        })
    }
}

/// The crowd-path circuit breaker's state (DESIGN.md "Fault model &
/// degradation ladder"). `Closed` posts normally; a rejected post trips to
/// `Open`, where cycles degrade to AI-only labeling and mid-flight cycles
/// park; after the backoff a scheduled probe passes through `HalfProbe`,
/// either closing (recovery: parked cycles resume posting) or re-opening
/// with doubled backoff. `HalfProbe` never persists across events — it is
/// the transient the probe transitions through, made visible to the
/// metrics tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Crowd path healthy: posts go to the platform.
    Closed,
    /// Crowd path down: no posts; cycles degrade or park.
    Open,
    /// A probe is testing the platform right now.
    HalfProbe,
}

impl BreakerState {
    /// Backoff before the first probe after a trip, in cycle periods; a
    /// recovery resets the backoff to it.
    pub(crate) const FIRST_BACKOFF_CYCLES: u32 = 1;
    /// Backoff ceiling in cycle periods: every failed probe doubles the
    /// backoff up to here.
    pub(crate) const MAX_BACKOFF_CYCLES: u32 = 8;
}

// Snapshot codec: a stable u8 tag per state.
impl Encode for BreakerState {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BreakerState::Closed => 0u8.encode(out),
            BreakerState::Open => 1u8.encode(out),
            BreakerState::HalfProbe => 2u8.encode(out),
        }
    }
}

impl Decode for BreakerState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(BreakerState::Closed),
            1 => Ok(BreakerState::Open),
            2 => Ok(BreakerState::HalfProbe),
            _ => Err(DecodeError::Invalid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outage(from: f64, until: f64) -> FaultEpisode {
        FaultEpisode::PlatformOutage {
            from_secs: from,
            until_secs: until,
        }
    }

    #[test]
    fn empty_plan_answers_nothing_and_never_draws() {
        let plan = FaultPlan::none();
        let mut injector = FaultInjector::new(&plan);
        let before = injector.clone();
        for t in [0.0, 1e3, 1e6] {
            assert!(!plan.outage_active(t));
            assert_eq!(plan.attrition_factor(t), 1.0);
            assert!(!injector.answer_lost(&plan, t));
        }
        // No draw happened: the stream position is untouched.
        assert_eq!(injector, before);
    }

    #[test]
    fn outage_windows_are_half_open() {
        let plan = FaultPlan::new(1, vec![outage(100.0, 200.0)]);
        assert!(!plan.outage_active(99.9));
        assert!(plan.outage_active(100.0));
        assert!(plan.outage_active(199.9));
        assert!(!plan.outage_active(200.0));
    }

    #[test]
    fn attrition_factors_compound() {
        let plan = FaultPlan::new(
            2,
            vec![
                FaultEpisode::WorkerAttrition {
                    fraction: 0.5,
                    from_secs: 0.0,
                    until_secs: 100.0,
                },
                FaultEpisode::WorkerAttrition {
                    fraction: 0.5,
                    from_secs: 50.0,
                    until_secs: 150.0,
                },
            ],
        );
        assert_eq!(plan.attrition_factor(10.0), 2.0);
        assert_eq!(plan.attrition_factor(75.0), 4.0);
        assert_eq!(plan.attrition_factor(120.0), 2.0);
        assert_eq!(plan.attrition_factor(150.0), 1.0);
    }

    #[test]
    fn answer_loss_draws_only_inside_the_window() {
        let plan = FaultPlan::new(
            3,
            vec![FaultEpisode::AnswerLoss {
                prob: 1.0,
                from_secs: 100.0,
                until_secs: 200.0,
            }],
        );
        let mut injector = FaultInjector::new(&plan);
        let before = injector.clone();
        assert!(!injector.answer_lost(&plan, 50.0));
        assert_eq!(injector, before, "no draw outside the window");
        assert!(injector.answer_lost(&plan, 150.0), "prob 1.0 always loses");
        assert_ne!(injector, before, "the draw advanced the stream");
    }

    #[test]
    fn answer_loss_rate_tracks_probability() {
        let plan = FaultPlan::new(
            0xfa117,
            vec![FaultEpisode::AnswerLoss {
                prob: 0.3,
                from_secs: 0.0,
                until_secs: 1e9,
            }],
        );
        let mut injector = FaultInjector::new(&plan);
        let lost = (0..10_000)
            .filter(|_| injector.answer_lost(&plan, 1.0))
            .count();
        assert!(
            (2_700..3_300).contains(&lost),
            "loss rate {lost}/10000 should be near 3000"
        );
    }

    #[test]
    fn same_seed_same_loss_sequence() {
        let plan = FaultPlan::new(
            9,
            vec![FaultEpisode::AnswerLoss {
                prob: 0.5,
                from_secs: 0.0,
                until_secs: 1e6,
            }],
        );
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        let seq_a: Vec<bool> = (0..64).map(|_| a.answer_lost(&plan, 10.0)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.answer_lost(&plan, 10.0)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn budget_shock_is_instantaneous() {
        let shock = FaultEpisode::BudgetShock {
            at_secs: 300.0,
            cents: 150.0,
        };
        assert_eq!(shock.start_secs(), 300.0);
        assert_eq!(shock.end_secs(), None);
        assert!(!shock.active_at(300.0));
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn inverted_window_rejected() {
        FaultPlan::new(0, vec![outage(200.0, 100.0)]);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn full_attrition_rejected() {
        // fraction 1.0 would make the inflation factor infinite.
        FaultPlan::new(
            0,
            vec![FaultEpisode::WorkerAttrition {
                fraction: 1.0,
                from_secs: 0.0,
                until_secs: 10.0,
            }],
        );
    }

    #[test]
    fn codec_round_trips_and_rejects_invalid() {
        let plan = FaultPlan::new(
            42,
            vec![
                outage(100.0, 200.0),
                FaultEpisode::WorkerAttrition {
                    fraction: 0.25,
                    from_secs: 0.0,
                    until_secs: 50.0,
                },
                FaultEpisode::AnswerLoss {
                    prob: 0.1,
                    from_secs: 10.0,
                    until_secs: 20.0,
                },
                FaultEpisode::BudgetShock {
                    at_secs: 30.0,
                    cents: 200.0,
                },
            ],
        );
        assert_eq!(FaultPlan::from_bytes(&plan.to_bytes()), Ok(plan.clone()));

        let mut injector = FaultInjector::new(&plan);
        injector.answer_lost(&plan, 15.0);
        assert_eq!(
            FaultInjector::from_bytes(&injector.to_bytes()),
            Ok(injector)
        );

        // An inverted window on the wire decodes to a typed error.
        let mut evil = FaultPlan::none();
        evil.episodes.push(outage(5.0, 1.0));
        assert_eq!(
            FaultPlan::from_bytes(&evil.to_bytes()),
            Err(DecodeError::Invalid)
        );

        // Unknown episode and breaker tags are typed errors too.
        assert_eq!(FaultEpisode::from_bytes(&[9u8]), Err(DecodeError::Invalid));
        assert_eq!(BreakerState::from_bytes(&[3u8]), Err(DecodeError::Invalid));

        for state in [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfProbe,
        ] {
            assert_eq!(BreakerState::from_bytes(&state.to_bytes()), Ok(state));
        }
    }

    #[test]
    fn snapshotted_injector_resumes_the_stream_exactly() {
        let plan = FaultPlan::new(
            7,
            vec![FaultEpisode::AnswerLoss {
                prob: 0.5,
                from_secs: 0.0,
                until_secs: 1e6,
            }],
        );
        let mut live = FaultInjector::new(&plan);
        for _ in 0..10 {
            live.answer_lost(&plan, 1.0);
        }
        let mut resumed = FaultInjector::from_bytes(&live.to_bytes()).expect("round trip");
        let rest_live: Vec<bool> = (0..32).map(|_| live.answer_lost(&plan, 2.0)).collect();
        let rest_resumed: Vec<bool> = (0..32).map(|_| resumed.answer_lost(&plan, 2.0)).collect();
        assert_eq!(rest_live, rest_resumed);
    }
}
