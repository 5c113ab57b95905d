//! Runtime configuration.

use crate::faults::{BreakerConfig, FaultPlan};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// How the pipeline's in-flight cycle window is governed.
///
/// The window is the runtime's backpressure knob: cycles beyond it queue up
/// and are admitted as earlier cycles retire. A static window is a fixed
/// bet on crowd latency — too narrow starves throughput when the crowd is
/// slow relative to the sensing cadence, too wide floods the HIT board (and
/// the budget) when it is fast. The adaptive policy lets the runtime's
/// window controller re-make that bet at every `CycleClosed` boundary from
/// the metrics tap's rolling crowd-delay quantiles (see DESIGN.md
/// "Adaptive window control").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowPolicy {
    /// A fixed window of `n` cycles. `Static(1)` runs cycles strictly one
    /// at a time, every crowd answer waited out (the paper's blocking
    /// loop); this is byte-identical to the pre-controller runtime at
    /// every window size.
    Static(usize),
    /// Widen/narrow the *effective* window one step at a time within
    /// `[min, max]`, driven by the attached metrics tap (one is attached
    /// automatically at start when missing). At each `CycleClosed`
    /// boundary the controller compares the tap's rolling crowd-delay
    /// `percentile` against two thresholds expressed as multiples of the
    /// cycle period — the gap between them plus the cooldown is the
    /// hysteresis that keeps the controller from thrashing. The decision
    /// is a pure function of streamed metrics: no wall clock, no RNG, so
    /// same-seed runs stay byte-identical.
    Adaptive {
        /// Smallest effective window (also the starting window). At least 1.
        min: usize,
        /// Largest effective window. At least `min`.
        max: usize,
        /// Which rolling crowd-delay quantile the controller watches,
        /// in `[0, 1]` (the paper's tail-latency lens is 0.9).
        percentile: f64,
        /// Narrow when the watched delay percentile drops below
        /// `low_threshold × cycle_period_secs` (and the window is above
        /// `min`): the crowd is beating the cadence, overlap is unneeded.
        low_threshold: f64,
        /// Widen when the watched delay percentile exceeds
        /// `high_threshold × cycle_period_secs` *and* arrivals are queued
        /// behind the window (and the window is below `max`): cycles
        /// outlast the cadence and admission is the bottleneck. Must be
        /// strictly above `low_threshold` — the band between the two is
        /// the hysteresis dead zone.
        high_threshold: f64,
        /// `CycleClosed` boundaries to hold after a change before the
        /// controller may move again.
        cooldown_cycles: u32,
    },
}

impl WindowPolicy {
    /// An adaptive policy over `[min, max]` with the default controller
    /// tuning: watch the 0.9 delay quantile, narrow below 0.25 cycle
    /// periods, widen above 0.5, one-cycle cooldown.
    pub fn adaptive(min: usize, max: usize) -> Self {
        WindowPolicy::Adaptive {
            min,
            max,
            percentile: 0.9,
            low_threshold: 0.25,
            high_threshold: 0.5,
            cooldown_cycles: 1,
        }
    }

    /// The window an execution opens with: the static size, or the
    /// adaptive floor (the controller only widens on evidence).
    pub fn initial_window(&self) -> usize {
        match *self {
            WindowPolicy::Static(n) => n,
            WindowPolicy::Adaptive { min, .. } => min,
        }
    }

    /// Whether this policy adapts at runtime.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, WindowPolicy::Adaptive { .. })
    }

    /// The one validity rule, shared by [`RuntimeConfig::check`] and the
    /// snapshot decoder.
    pub fn check(&self) -> Result<(), &'static str> {
        match *self {
            WindowPolicy::Static(0) | WindowPolicy::Adaptive { min: 0, .. } => {
                Err("window must admit at least one cycle")
            }
            WindowPolicy::Static(_) => Ok(()),
            WindowPolicy::Adaptive {
                min,
                max,
                percentile,
                low_threshold: low,
                high_threshold: high,
                ..
            } => {
                if max < min {
                    Err("adaptive window range must satisfy min <= max")
                } else if !(0.0..=1.0).contains(&percentile) {
                    Err("watched percentile must lie in [0, 1]")
                } else if !(low.is_finite() && low >= 0.0) {
                    Err("low threshold must be finite and non-negative")
                } else if !(high.is_finite() && high > low) {
                    Err("high threshold must be finite and above the low threshold")
                } else {
                    Ok(())
                }
            }
        }
    }
}

impl Encode for WindowPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            WindowPolicy::Static(n) => {
                0u8.encode(out);
                n.encode(out);
            }
            WindowPolicy::Adaptive {
                min,
                max,
                percentile,
                low_threshold,
                high_threshold,
                cooldown_cycles,
            } => {
                1u8.encode(out);
                min.encode(out);
                max.encode(out);
                percentile.encode(out);
                low_threshold.encode(out);
                high_threshold.encode(out);
                cooldown_cycles.encode(out);
            }
        }
    }
}

impl Decode for WindowPolicy {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let policy = match u8::decode(r)? {
            0 => WindowPolicy::Static(usize::decode(r)?),
            1 => WindowPolicy::Adaptive {
                min: usize::decode(r)?,
                max: usize::decode(r)?,
                percentile: f64::decode(r)?,
                low_threshold: f64::decode(r)?,
                high_threshold: f64::decode(r)?,
                cooldown_cycles: u32::decode(r)?,
            },
            _ => return Err(DecodeError::Invalid),
        };
        policy.check().map_err(|_| DecodeError::Invalid)?;
        Ok(policy)
    }
}

/// Configuration of the event-driven runtime: the sensing cadence, how the
/// in-flight cycle window is governed, the per-HIT timeout/repost policy,
/// and the fault scenario to inject (empty by default — carrying a
/// [`FaultPlan`] is what cost this struct its `Copy`).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Seconds between sensing-cycle arrivals (paper Definition 1: a cycle
    /// every 10 minutes).
    pub cycle_period_secs: f64,
    /// How the in-flight cycle window (backpressure) is governed:
    /// arrivals beyond the effective window queue up and are admitted as
    /// earlier cycles retire. `Static(1)` reproduces the fully sequential
    /// system.
    pub window_policy: WindowPolicy,
    /// Optional per-HIT timeout: a HIT whose workers have not all answered
    /// within this many seconds of posting expires and may be reposted.
    /// An answer landing *exactly at* the timeout counts as expired
    /// (censoring is `delay >= timeout`, matching the IPD contract).
    /// `None` waits out every answer (the paper's setting).
    pub hit_timeout_secs: Option<f64>,
    /// Maximum posting attempts per query, counting the original post.
    /// Reposts beyond this absorb the original (late) answer as a
    /// learning-only observation.
    pub max_post_attempts: u32,
    /// Whether a repost escalates one incentive level above the expired
    /// attempt (capped at the highest level); `false` reposts at the same
    /// incentive.
    pub escalate_on_repost: bool,
    /// The fault scenario injected into the run (see [`FaultPlan`]). The
    /// empty plan — the default — schedules no events and draws nothing:
    /// byte-identical to a runtime without fault injection.
    pub faults: FaultPlan,
    /// Crowd-path circuit-breaker backoff tuning (only consulted once a
    /// fault actually rejects a post).
    pub breaker: BreakerConfig,
}

impl RuntimeConfig {
    /// The paper deployment's cadence: 600 s cycles, a static four-cycle
    /// pipeline window, no per-HIT timeout.
    pub fn paper() -> Self {
        Self {
            cycle_period_secs: 600.0,
            window_policy: WindowPolicy::Static(4),
            hit_timeout_secs: None,
            max_post_attempts: 1,
            escalate_on_repost: true,
            faults: FaultPlan::none(),
            breaker: BreakerConfig::paper(),
        }
    }

    /// The paper's blocking loop: a window of one, so cycles never overlap
    /// and each query waits out its answer before the next one posts. This
    /// is how every experiment that does not study pipelining runs a
    /// stream; `tests/golden.rs` pins it against a plain stage-by-stage
    /// reference loop, outcome for outcome.
    pub fn sequential() -> Self {
        Self::paper().with_inflight_window(1)
    }

    /// Sets a static in-flight cycle window of `window` cycles
    /// (shorthand for `with_window_policy(WindowPolicy::Static(window))`).
    pub fn with_inflight_window(mut self, window: usize) -> Self {
        self.window_policy = WindowPolicy::Static(window);
        self
    }

    /// Sets the window policy.
    pub fn with_window_policy(mut self, policy: WindowPolicy) -> Self {
        self.window_policy = policy;
        self
    }

    /// Sets the sensing-cycle period.
    pub fn with_cycle_period_secs(mut self, secs: f64) -> Self {
        self.cycle_period_secs = secs;
        self
    }

    /// Sets the per-HIT timeout and the total posting attempts allowed.
    pub fn with_hit_timeout(mut self, timeout_secs: Option<f64>, max_attempts: u32) -> Self {
        self.hit_timeout_secs = timeout_secs;
        self.max_post_attempts = max_attempts;
        self
    }

    /// Sets whether reposts escalate the incentive.
    pub fn with_escalation(mut self, escalate: bool) -> Self {
        self.escalate_on_repost = escalate;
        self
    }

    /// Sets the fault scenario to inject.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the circuit-breaker backoff tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// The effective window an execution opens with (see
    /// [`WindowPolicy::initial_window`]).
    pub fn initial_window(&self) -> usize {
        self.window_policy.initial_window()
    }

    /// The one validity rule, the window policy's, fault plan's and
    /// breaker's included: the runtime's constructors panic with its
    /// message, the snapshot decoder reports `Invalid`.
    pub fn check(&self) -> Result<(), &'static str> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        // An infinite period would NaN-panic inside `EventQueue::schedule`.
        if !positive(self.cycle_period_secs) {
            return Err("cycle period must be finite and positive");
        }
        self.window_policy.check()?;
        if self.max_post_attempts == 0 {
            return Err("need at least one post attempt");
        }
        if !self.hit_timeout_secs.is_none_or(positive) {
            return Err("HIT timeout must be finite and positive");
        }
        self.faults.check()?;
        // A lost answer can only be retired by the timeout path.
        if self.faults.has_answer_loss() && self.hit_timeout_secs.is_none() {
            return Err("an AnswerLoss fault plan requires a HIT timeout");
        }
        self.breaker.check()
    }
}

impl Encode for RuntimeConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cycle_period_secs.encode(out);
        self.window_policy.encode(out);
        self.hit_timeout_secs.encode(out);
        self.max_post_attempts.encode(out);
        self.escalate_on_repost.encode(out);
        self.faults.encode(out);
        self.breaker.encode(out);
    }
}

impl Decode for RuntimeConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let config = Self {
            cycle_period_secs: f64::decode(r)?,
            window_policy: WindowPolicy::decode(r)?,
            hit_timeout_secs: Option::<f64>::decode(r)?,
            max_post_attempts: u32::decode(r)?,
            escalate_on_repost: bool::decode(r)?,
            faults: FaultPlan::decode(r)?,
            breaker: BreakerConfig::decode(r)?,
        };
        config.check().map_err(|_| DecodeError::Invalid)?;
        Ok(config)
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        assert_eq!(RuntimeConfig::paper().check(), Ok(()));
        assert_eq!(RuntimeConfig::sequential().check(), Ok(()));
        assert_eq!(
            RuntimeConfig::sequential().window_policy,
            WindowPolicy::Static(1)
        );
        assert_eq!(RuntimeConfig::sequential().initial_window(), 1);
    }

    #[test]
    fn adaptive_defaults_are_valid_and_open_at_the_floor() {
        let policy = WindowPolicy::adaptive(2, 6);
        assert_eq!(
            RuntimeConfig::paper().with_window_policy(policy).check(),
            Ok(())
        );
        assert_eq!(policy.initial_window(), 2);
        assert!(policy.is_adaptive());
        assert!(!WindowPolicy::Static(3).is_adaptive());
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_window_rejected() {
        RuntimeConfig::paper()
            .with_inflight_window(0)
            .check()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn inverted_adaptive_range_rejected() {
        RuntimeConfig::paper()
            .with_window_policy(WindowPolicy::adaptive(4, 2))
            .check()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "above the low threshold")]
    fn collapsed_hysteresis_band_rejected() {
        RuntimeConfig::paper()
            .with_window_policy(WindowPolicy::Adaptive {
                min: 1,
                max: 4,
                percentile: 0.9,
                low_threshold: 0.5,
                high_threshold: 0.5,
                cooldown_cycles: 0,
            })
            .check()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "cycle period must be finite")]
    fn infinite_cycle_period_rejected() {
        RuntimeConfig::paper()
            .with_cycle_period_secs(f64::INFINITY)
            .check()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "HIT timeout must be finite")]
    fn infinite_hit_timeout_rejected() {
        RuntimeConfig::paper()
            .with_hit_timeout(Some(f64::INFINITY), 2)
            .check()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "requires a HIT timeout")]
    fn answer_loss_without_timeout_rejected() {
        RuntimeConfig::paper()
            .with_faults(FaultPlan::new(
                1,
                vec![crate::FaultEpisode::AnswerLoss {
                    prob: 0.5,
                    from_secs: 0.0,
                    until_secs: 100.0,
                }],
            ))
            .check()
            .unwrap();
    }

    #[test]
    fn faulted_config_round_trips() {
        let config = RuntimeConfig::paper()
            .with_hit_timeout(Some(300.0), 2)
            .with_faults(FaultPlan::new(
                7,
                vec![crate::FaultEpisode::PlatformOutage {
                    from_secs: 600.0,
                    until_secs: 1800.0,
                }],
            ));
        assert_eq!(config.check(), Ok(()));
        assert_eq!(
            RuntimeConfig::from_bytes(&config.to_bytes()),
            Ok(config.clone())
        );

        // An AnswerLoss plan without a timeout is invalid on the wire too.
        let mut bad = config;
        bad.hit_timeout_secs = None;
        bad.faults = FaultPlan::new(
            1,
            vec![crate::FaultEpisode::AnswerLoss {
                prob: 0.5,
                from_secs: 0.0,
                until_secs: 100.0,
            }],
        );
        assert_eq!(
            RuntimeConfig::from_bytes(&bad.to_bytes()),
            Err(DecodeError::Invalid)
        );
    }

    /// Asserts that `value.check()` (passed as `check`) accepts exactly what
    /// the snapshot decoder accepts.
    fn assert_agrees<T: Encode + Decode + std::fmt::Debug>(value: &T, check: Result<(), &str>) {
        let decoded = T::from_bytes(&value.to_bytes());
        assert_eq!(
            check.is_ok(),
            decoded.is_ok(),
            "{value:?}: check {check:?}, decode {decoded:?}"
        );
    }

    #[test]
    fn check_agrees_with_the_snapshot_decoder() {
        use crate::{ArbitrationPolicy, FaultEpisode, FleetConfig};
        let loss = |prob| FaultEpisode::AnswerLoss {
            prob,
            from_secs: 0.0,
            until_secs: 100.0,
        };
        let paper = RuntimeConfig::paper();
        let mut configs = vec![
            paper.clone(),
            paper.clone().with_inflight_window(0),
            paper
                .clone()
                .with_window_policy(WindowPolicy::adaptive(0, 4)),
            paper
                .clone()
                .with_window_policy(WindowPolicy::adaptive(4, 2)),
            paper.clone().with_hit_timeout(Some(300.0), 0),
            paper
                .clone()
                .with_faults(FaultPlan::new(1, vec![loss(0.5)])),
            paper
                .clone()
                .with_hit_timeout(Some(300.0), 2)
                .with_faults(FaultPlan::new(1, vec![loss(0.5)])),
        ];
        let mut episodes = Vec::new();
        let mut breakers = Vec::new();
        let mut fleets = vec![FleetConfig::new(1000.0).with_pool_capacity(0)];
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0, 0.5] {
            configs.push(paper.clone().with_cycle_period_secs(x));
            configs.push(paper.clone().with_hit_timeout(Some(x), 2));
            for i in 0..3 {
                let mut policy = [0.9, 0.25, 0.5];
                policy[i] = x;
                configs.push(paper.clone().with_window_policy(WindowPolicy::Adaptive {
                    min: 1,
                    max: 8,
                    percentile: policy[0],
                    low_threshold: policy[1],
                    high_threshold: policy[2],
                    cooldown_cycles: 1,
                }));
            }
            episodes.extend([
                FaultEpisode::PlatformOutage {
                    from_secs: x,
                    until_secs: 600.0,
                },
                FaultEpisode::PlatformOutage {
                    from_secs: 0.0,
                    until_secs: x,
                },
                FaultEpisode::WorkerAttrition {
                    fraction: x,
                    from_secs: 0.0,
                    until_secs: 600.0,
                },
                loss(x),
                FaultEpisode::BudgetShock {
                    at_secs: x,
                    cents: 100.0,
                },
                FaultEpisode::BudgetShock {
                    at_secs: 600.0,
                    cents: x,
                },
            ]);
            fleets.extend([
                FleetConfig::new(x),
                FleetConfig::new(1000.0).with_contention_alpha(x),
                FleetConfig::new(1000.0)
                    .with_arbitration(ArbitrationPolicy::Priority(vec![1.0, x])),
            ]);
        }
        fleets.push(FleetConfig::new(1000.0).with_arbitration(ArbitrationPolicy::Priority(vec![])));
        for (base, max) in [(1, 8), (0, 8), (4, 2), (3, 3)] {
            breakers.push(BreakerConfig {
                base_backoff_cycles: base,
                max_backoff_cycles: max,
            });
        }
        for config in &configs {
            assert_agrees(config, config.check());
            assert_agrees(&config.window_policy, config.window_policy.check());
        }
        for episode in &episodes {
            assert_agrees(episode, episode.check());
        }
        for breaker in &breakers {
            assert_agrees(breaker, breaker.check());
        }
        for fleet in &fleets {
            assert_agrees(fleet, fleet.check());
            assert_agrees(&fleet.arbitration, fleet.arbitration.check());
        }
    }

    #[test]
    fn codec_round_trips_and_rejects_invalid() {
        let config = RuntimeConfig::paper().with_hit_timeout(Some(900.0), 3);
        assert_eq!(
            RuntimeConfig::from_bytes(&config.to_bytes()),
            Ok(config.clone())
        );

        let adaptive = RuntimeConfig::paper().with_window_policy(WindowPolicy::adaptive(1, 8));
        assert_eq!(
            RuntimeConfig::from_bytes(&adaptive.to_bytes()),
            Ok(adaptive)
        );

        let mut bad = RuntimeConfig::paper();
        bad.cycle_period_secs = f64::INFINITY;
        assert_eq!(
            RuntimeConfig::from_bytes(&bad.to_bytes()),
            Err(DecodeError::Invalid)
        );

        // An adaptive policy whose hysteresis band is inverted on the wire
        // is rejected at decode.
        let mut bad = RuntimeConfig::paper().with_window_policy(WindowPolicy::adaptive(1, 8));
        if let WindowPolicy::Adaptive { low_threshold, .. } = &mut bad.window_policy {
            *low_threshold = 9.0;
        }
        assert_eq!(
            RuntimeConfig::from_bytes(&bad.to_bytes()),
            Err(DecodeError::Invalid)
        );
    }
}
