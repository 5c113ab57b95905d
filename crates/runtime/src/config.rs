//! Runtime configuration.

use crate::faults::FaultPlan;
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// How the pipeline's in-flight cycle window is governed.
///
/// The window is the runtime's backpressure knob: cycles beyond it queue up
/// and are admitted as earlier cycles retire. A static window is a fixed
/// bet on crowd latency — too narrow starves throughput when the crowd is
/// slow relative to the sensing cadence, too wide floods the HIT board (and
/// the budget) when it is fast. The adaptive policy lets the runtime's
/// window controller re-make that bet at every `CycleClosed` boundary from
/// the run's own crowd delays (see DESIGN.md "Adaptive window control").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowPolicy {
    /// A fixed window of `n` cycles. `Static(1)` runs cycles strictly one
    /// at a time, every crowd answer waited out (the paper's blocking
    /// loop); this is byte-identical to the pre-controller runtime at
    /// every window size.
    Static(usize),
    /// Widen/narrow the *effective* window one step at a time within
    /// `[min, max]`, driven by the run's crowd delays. At each
    /// `CycleClosed` boundary the controller compares the
    /// [`WindowPolicy::PERCENTILE`] of every answer absorbed so far
    /// against two thresholds expressed as multiples of the cycle period —
    /// the gap between them plus the cooldown is the hysteresis that keeps
    /// the controller from thrashing. The decision is a pure function of
    /// the execution state, whether or not a metrics tap is attached: no
    /// wall clock, no RNG, so same-seed runs stay byte-identical.
    Adaptive {
        /// Smallest effective window (also the starting window). At least 1.
        min: usize,
        /// Largest effective window. At least `min`.
        max: usize,
    },
}

impl WindowPolicy {
    /// The rolling crowd-delay quantile the adaptive controller watches
    /// (the paper's tail-latency lens).
    pub const PERCENTILE: f64 = 0.9;
    /// Narrow when the watched delay quantile drops below this many
    /// [`RuntimeConfig::CYCLE_PERIOD_SECS`] (and the window is above `min`):
    /// the crowd is beating the cadence, overlap is unneeded.
    pub const LOW_THRESHOLD: f64 = 0.25;
    /// Widen when the watched delay quantile exceeds this many
    /// [`RuntimeConfig::CYCLE_PERIOD_SECS`] *and* arrivals are queued behind
    /// the window (and the window is below `max`): cycles outlast the
    /// cadence and admission is the bottleneck. The band between the two
    /// thresholds is the hysteresis dead zone.
    pub const HIGH_THRESHOLD: f64 = 0.5;
    /// `CycleClosed` boundaries the controller holds after a move before it
    /// may move again.
    pub const COOLDOWN_CYCLES: u32 = 1;

    /// An adaptive policy over `[min, max]`.
    pub fn adaptive(min: usize, max: usize) -> Self {
        WindowPolicy::Adaptive { min, max }
    }

    /// The window an execution opens with: the static size, or the
    /// adaptive floor (the controller only widens on evidence).
    pub fn initial_window(&self) -> usize {
        match *self {
            WindowPolicy::Static(n) => n,
            WindowPolicy::Adaptive { min, .. } => min,
        }
    }

    /// The effective windows this policy can run at: `n..=n` under
    /// `Static(n)`, `min..=max` under `Adaptive`. Resume refuses an
    /// execution whose window or trajectory leaves it.
    pub(crate) fn window_range(&self) -> std::ops::RangeInclusive<usize> {
        match *self {
            WindowPolicy::Static(n) => n..=n,
            WindowPolicy::Adaptive { min, max } => min..=max,
        }
    }

    /// The one validity rule, shared by [`RuntimeConfig::check`] and the
    /// snapshot decoder.
    pub fn check(&self) -> Result<(), &'static str> {
        match *self {
            WindowPolicy::Static(0) | WindowPolicy::Adaptive { min: 0, .. } => {
                Err("window must admit at least one cycle")
            }
            WindowPolicy::Adaptive { min, max } if max < min => {
                Err("adaptive window range must satisfy min <= max")
            }
            _ => Ok(()),
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
            WindowPolicy::Adaptive { min, max } => {
                1u8.encode(out);
                min.encode(out);
                max.encode(out);
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
            },
            _ => return Err(DecodeError::Invalid),
        };
        policy.check().map_err(|_| DecodeError::Invalid)?;
        Ok(policy)
    }
}

/// Configuration of the event-driven runtime: how the in-flight cycle
/// window is governed, the per-HIT timeout/repost policy,
/// and the fault scenario to inject (empty by default — carrying a
/// [`FaultPlan`] is what cost this struct its `Copy`).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
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
}

impl RuntimeConfig {
    /// Seconds between sensing-cycle arrivals (paper Definition 1: a cycle
    /// every 10 minutes).
    pub const CYCLE_PERIOD_SECS: f64 = 600.0;

    /// The paper deployment: a static four-cycle pipeline window, no
    /// per-HIT timeout.
    pub fn paper() -> Self {
        Self {
            window_policy: WindowPolicy::Static(4),
            hit_timeout_secs: None,
            max_post_attempts: 1,
            escalate_on_repost: true,
            faults: FaultPlan::none(),
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

    /// The effective window an execution opens with (see
    /// [`WindowPolicy::initial_window`]).
    pub fn initial_window(&self) -> usize {
        self.window_policy.initial_window()
    }

    /// The one validity rule, the window policy's and fault plan's
    /// included: the runtime's constructors panic with its message, the
    /// snapshot decoder reports `Invalid`.
    pub fn check(&self) -> Result<(), &'static str> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
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
        Ok(())
    }
}

impl Encode for RuntimeConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.window_policy.encode(out);
        self.hit_timeout_secs.encode(out);
        self.max_post_attempts.encode(out);
        self.escalate_on_repost.encode(out);
        self.faults.encode(out);
    }
}

impl Decode for RuntimeConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let config = Self {
            window_policy: WindowPolicy::decode(r)?,
            hit_timeout_secs: Option::<f64>::decode(r)?,
            max_post_attempts: u32::decode(r)?,
            escalate_on_repost: bool::decode(r)?,
            faults: FaultPlan::decode(r)?,
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
        let mut fleets = vec![FleetConfig::new(1000.0).with_pool_capacity(0)];
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0, 0.5] {
            configs.push(paper.clone().with_hit_timeout(Some(x), 2));
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
                FleetConfig::new(1000.0)
                    .with_arbitration(ArbitrationPolicy::Priority(vec![1.0, x])),
            ]);
        }
        // Episodes that reach the fault horizon, and ones past it.
        let horizon = FaultEpisode::HORIZON_SECS;
        for until_secs in [horizon, horizon * (1.0 + f64::EPSILON), 1.26e114] {
            episodes.extend([
                FaultEpisode::PlatformOutage {
                    from_secs: 0.0,
                    until_secs,
                },
                FaultEpisode::BudgetShock {
                    at_secs: until_secs,
                    cents: 100.0,
                },
            ]);
        }
        fleets.push(FleetConfig::new(1000.0).with_arbitration(ArbitrationPolicy::Priority(vec![])));
        for config in &configs {
            assert_agrees(config, config.check());
            assert_agrees(&config.window_policy, config.window_policy.check());
        }
        for episode in &episodes {
            assert_agrees(episode, episode.check());
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
        // The controller's tuning is constant: the policy is its tag and
        // two `usize` bounds, 17 bytes.
        assert_eq!(WindowPolicy::adaptive(1, 8).to_bytes().len(), 17);

        let mut bad = RuntimeConfig::paper();
        bad.hit_timeout_secs = Some(f64::INFINITY);
        assert_eq!(
            RuntimeConfig::from_bytes(&bad.to_bytes()),
            Err(DecodeError::Invalid)
        );

        // An adaptive range inverted on the wire is rejected at decode.
        let bad = WindowPolicy::Adaptive { min: 8, max: 1 };
        assert_eq!(
            WindowPolicy::from_bytes(&bad.to_bytes()),
            Err(DecodeError::Invalid)
        );
    }
}
