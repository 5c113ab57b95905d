//! Behavioral tests for the adaptive window controller at its one tuning
//! (watch the p90 delay, narrow below 0.25 cycle periods, widen above 0.5,
//! hold one close after a move). On a platform with *exact* (zero-noise,
//! uniform-speed) delays, the controller's moves are fully predictable: a
//! worker-attrition episode stretches every 30 s HIT to 1 200 s for the
//! first three cycle periods, so the tests pin both directions of the
//! decision rule — widening under a slow crowd with a backlog, narrowing
//! once fast answers dominate the rolling quantile and the backlog drains —
//! plus the guarantees the policy makes regardless of profile: the
//! effective window never leaves `[min, max]`, every move is followed by a
//! held close, `Static` never moves, and a collapsed `Adaptive { min == max }`
//! range cannot move either.

use crowdlearn::{CrowdLearnConfig, CrowdLearnSystem};
use crowdlearn_crowd::{
    DelayModel, IncentiveLevel, Platform, PlatformConfig, Worker, WorkerId, WorkerPool,
};
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream, TemporalContext};
use crowdlearn_runtime::{
    FaultEpisode, FaultPlan, PipelinedSystem, RunBound, RuntimeConfig, RuntimeReport, WindowPolicy,
};

/// Every HIT takes exactly 30 s, whatever its context or incentive.
fn flat_delay_model(secs: f64) -> DelayModel {
    DelayModel::from_table([[secs; IncentiveLevel::COUNT]; TemporalContext::COUNT], 0.0)
}

fn uniform_pool(size: usize) -> WorkerPool {
    let workers = (0..size)
        .map(|i| Worker::from_traits(WorkerId(i as u32), 0.85, 1.0, [1.0; TemporalContext::COUNT]))
        .collect();
    WorkerPool::from_workers(workers)
}

/// 97.5 % of the crowd gone for the first three cycle periods: pending
/// completions stretch by 1 / (1 − 0.975) = 40×, so a 30 s HIT takes 1 200 s
/// — twice the cadence — until the episode ends.
fn attrition() -> FaultPlan {
    FaultPlan::new(
        1,
        vec![FaultEpisode::WorkerAttrition {
            fraction: 0.975,
            from_secs: 0.0,
            until_secs: 1800.0,
        }],
    )
}

fn pipelined(policy: WindowPolicy, dataset: &Dataset) -> PipelinedSystem {
    let platform_config = PlatformConfig::paper()
        .with_seed(23)
        .with_delay_model(flat_delay_model(30.0));
    let platform = Platform::with_pool(platform_config, uniform_pool(80));
    let system = CrowdLearnSystem::with_platform(dataset, CrowdLearnConfig::paper(), platform);
    let runtime = RuntimeConfig::paper()
        .with_window_policy(policy)
        .with_faults(attrition());
    PipelinedSystem::from_system(system, runtime)
}

fn adaptive_run(policy: WindowPolicy, cycles: usize) -> RuntimeReport {
    let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(11));
    let stream = SensingCycleStream::new(&dataset, cycles, 4);
    pipelined(policy, &dataset).run(&dataset, &stream)
}

#[test]
fn controller_widens_under_backlog_and_narrows_when_the_crowd_speeds_up() {
    let run = adaptive_run(WindowPolicy::adaptive(1, 3), 16);

    // One trajectory entry per cycle close.
    assert_eq!(run.window_trajectory.len(), 16);
    assert!(
        run.window_trajectory.iter().all(|&w| (1..=3).contains(&w)),
        "effective window must stay within [min, max]: {:?}",
        run.window_trajectory
    );

    // Widening: under attrition a serialized query takes 1 200 s against a
    // 600 s cadence, so arrivals pile up behind the window and the p90
    // delay sits far above 300 s: the controller must open the window, up
    // to its bound.
    let peak = *run.window_trajectory.iter().max().expect("non-empty");
    assert_eq!(
        peak, 3,
        "a 2x-over-cadence crowd with a backlog must widen the window to max: {:?}",
        run.window_trajectory
    );

    // Narrowing: once the episode ends, 30 s answers come to fill the
    // rolling p90; when it falls under 150 s and the arrival backlog has
    // drained, the controller must hand back the unneeded overlap, down to
    // its floor.
    let first_peak = run
        .window_trajectory
        .iter()
        .position(|&w| w == peak)
        .expect("peak is in the trajectory");
    assert!(
        run.window_trajectory[first_peak..].contains(&1),
        "after the crowd speeds up and the backlog drains, the window must narrow to min: {:?}",
        run.window_trajectory
    );

    // The controller reads the run's own delays: nothing attaches a tap.
    assert!(
        run.metrics.is_none(),
        "an adaptive run without an attached tap reports no metrics"
    );
}

#[test]
fn static_policy_trajectory_is_constant() {
    let run = adaptive_run(WindowPolicy::Static(2), 8);
    assert_eq!(run.window_trajectory, vec![2; 8]);
    assert!(
        run.metrics.is_none(),
        "a static run without an attached tap reports no metrics"
    );
}

#[test]
fn collapsed_adaptive_range_cannot_move() {
    // min == max pins the window even while attrition keeps the crowd at
    // twice the cadence with a backlog queued.
    let run = adaptive_run(WindowPolicy::adaptive(2, 2), 8);
    assert_eq!(run.window_trajectory, vec![2; 8]);
}

#[test]
fn cooldown_spaces_controller_moves_apart() {
    // Every move must be followed by at least one held close.
    let run = adaptive_run(WindowPolicy::adaptive(1, 3), 16);
    let moves: Vec<usize> = run
        .window_trajectory
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[0] != w[1])
        .map(|(i, _)| i)
        .collect();
    assert!(
        moves.len() >= 2,
        "the attrition episode must move the window both ways: {:?}",
        run.window_trajectory
    );
    for pair in moves.windows(2) {
        assert!(
            pair[1] - pair[0] > WindowPolicy::COOLDOWN_CYCLES as usize,
            "moves at closes {} and {} violate the {}-cycle cooldown: {:?}",
            pair[0],
            pair[1],
            WindowPolicy::COOLDOWN_CYCLES,
            run.window_trajectory
        );
    }
}

#[test]
fn effective_window_is_pollable_between_slices() {
    let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(11));
    let stream = SensingCycleStream::new(&dataset, 16, 4);
    let mut pipelined = pipelined(WindowPolicy::adaptive(1, 3), &dataset);

    assert_eq!(pipelined.effective_window(), None, "not running yet");
    let mut seen = Vec::new();
    let mut report = None;
    while report.is_none() {
        report = pipelined.run_until(&dataset, &stream, RunBound::Events(25));
        if let Some(window) = pipelined.effective_window() {
            seen.push(window);
        }
    }
    let report = report.expect("loop exits with the report");
    assert!(
        seen.iter().any(|&w| w > 1),
        "polled windows must show the controller opening up: {seen:?}"
    );
    // The polled view and the trajectory agree on the peak window.
    let polled_peak = seen.iter().max().copied().unwrap_or(1);
    let trajectory_peak = report.window_trajectory.iter().max().copied().unwrap();
    assert_eq!(polled_peak, trajectory_peak);
    assert_eq!(pipelined.effective_window(), None, "drained run is idle");
}
