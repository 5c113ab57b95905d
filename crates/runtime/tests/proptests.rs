//! Property tests for the runtime's core invariants:
//!
//! 1. the virtual clock never runs backwards for any schedule,
//! 2. no event is lost or duplicated by the queue,
//! 3. in-flight cycles (and HITs) never exceed the configured window,
//! 4. the crowd budget is never overspent, even with concurrent cycles
//!    and incentive-escalated reposts in flight.

use crowdlearn::CrowdLearnConfig;
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{EventKind, EventQueue, PipelinedSystem, RuntimeConfig, VirtualClock};
use proptest::collection::vec;
use proptest::prelude::*;

/// A small but complete system: the full boot sequence at a fraction of
/// the paper's training volume, over an 8-cycle stream.
fn small_config(seed: u64, budget_cents: f64) -> CrowdLearnConfig {
    let mut config = CrowdLearnConfig::paper().with_seed(seed);
    config.queries_per_cycle = 3;
    config.warmup_per_cell = 1;
    config.cqc_training_queries = 84;
    config.horizon_queries = 24;
    config.budget_cents = budget_cents;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Popping any schedule of events advances the queue's clock
    /// monotonically to each due time, and every scheduled event is either
    /// waiting or counted as popped at every step.
    #[test]
    fn clock_is_monotone_and_no_event_is_lost(
        times in vec((0.0f64..1e6, 0usize..64), 1..128)
    ) {
        let mut queue = EventQueue::new();
        let mut clock = VirtualClock::new();
        for &(at, cycle) in &times {
            queue.schedule(at, EventKind::CycleArrival { cycle });
        }
        prop_assert_eq!(queue.len(), times.len());
        let mut popped = 0u64;
        let mut last = f64::NEG_INFINITY;
        while let Some(event) = queue.pop() {
            clock.advance_to(event.at_secs); // panics if non-monotone
            prop_assert!(event.at_secs >= last);
            prop_assert_eq!(queue.now_secs(), event.at_secs);
            last = event.at_secs;
            popped += 1;
            prop_assert_eq!(queue.events_popped(), popped);
            prop_assert_eq!(popped + queue.len() as u64, times.len() as u64);
        }
        prop_assert_eq!(popped, times.len() as u64);
        prop_assert_eq!(clock.now_secs(), last);
    }

    /// Simultaneous events pop in scheduling order (FIFO among ties), so
    /// the event stream is a pure function of the schedule calls.
    #[test]
    fn ties_resolve_in_scheduling_order(cycles in vec(0usize..1000, 2..64)) {
        let mut queue = EventQueue::new();
        for &cycle in &cycles {
            queue.schedule(42.0, EventKind::CycleArrival { cycle });
        }
        let order: Vec<usize> = std::iter::from_fn(|| queue.pop())
            .filter_map(|e| e.kind.cycle())
            .collect();
        prop_assert_eq!(order, cycles);
    }
}

proptest! {
    // Each case boots and runs a full (small) system; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Across windows, timeouts, and budgets: cycle/HIT concurrency stays
    /// within the window, every cycle completes no earlier than it
    /// arrived, and the evaluation spend never exceeds the budget — even
    /// though several cycles charge it concurrently and timed-out HITs
    /// repost at escalated incentives.
    #[test]
    fn window_and_budget_invariants_hold(
        seed in 0u64..512,
        window in 1usize..6,
        budget_cents in 30.0f64..160.0,
        with_timeout in any::<bool>(),
        timeout_secs in 120.0f64..900.0,
    ) {
        let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(seed ^ 0xd5));
        let stream = SensingCycleStream::new(&dataset, 8, 5);
        let runtime = RuntimeConfig::paper()
            .with_inflight_window(window)
            .with_hit_timeout(with_timeout.then_some(timeout_secs), 3);
        let mut system =
            PipelinedSystem::new(&dataset, small_config(seed, budget_cents), runtime.clone());
        let run = system.run(&dataset, &stream);

        // Backpressure: the window bounds cycle concurrency, and intra-cycle
        // query chaining bounds HITs to one per active cycle.
        prop_assert!(run.peak_cycles_in_flight <= window);
        prop_assert!(run.peak_hits_in_flight <= window);

        // Completeness: every cycle finalized, at or after its arrival.
        prop_assert_eq!(run.outcomes.len(), 8);
        for (k, (outcome, &done)) in
            run.outcomes.iter().zip(&run.completed_at_secs).enumerate()
        {
            prop_assert_eq!(outcome.cycle, k);
            prop_assert!(done >= k as f64 * RuntimeConfig::CYCLE_PERIOD_SECS);
        }

        // Budget safety: every charge (selections *and* escalated reposts)
        // went through the same ledger, so the evaluation spend can never
        // exceed the budget.
        let spent = run.outcomes.iter().map(|o| o.spent_cents).sum::<u64>();
        prop_assert!(
            spent as f64 <= budget_cents + 1e-9,
            "spent {} cents of a {} cent budget", spent, budget_cents
        );
        prop_assert_eq!(spent, system.system().evaluation_spent_cents());
        if run.timeouts > 0 {
            prop_assert!(run.reposts <= run.timeouts);
        }
    }
}

proptest! {
    // Each case boots and runs a full (small) system; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation under arbitrary valid fault plans: every posted HIT
    /// attempt feeds the incentive learner exactly one delay observation
    /// (answered, censored-then-late, or censored-then-abandoned), every
    /// cycle still finalizes, and the run terminates even when the breaker
    /// opens with the in-flight window full — the drain assertions inside
    /// the runtime (`finish`) make a stalled ladder a hard failure.
    #[test]
    fn faulted_runs_conserve_observations_and_terminate(
        seed in 0u64..256,
        plan_seed in 0u64..u64::MAX,
        outage_from in 0.0f64..4000.0,
        outage_len in 60.0f64..4000.0,
        attrition_from in 0.0f64..4000.0,
        attrition_fraction in 0.0f64..0.9,
        loss_from in 0.0f64..4000.0,
        loss_prob in 0.0f64..1.0,
        shock_at in 0.0f64..4000.0,
        shock_cents in 0.0f64..120.0,
    ) {
        use crowdlearn_runtime::{FaultEpisode, FaultPlan, MetricsTap};

        let plan = FaultPlan::new(plan_seed, vec![
            FaultEpisode::PlatformOutage {
                from_secs: outage_from,
                until_secs: outage_from + outage_len,
            },
            FaultEpisode::WorkerAttrition {
                fraction: attrition_fraction,
                from_secs: attrition_from,
                until_secs: attrition_from + 1200.0,
            },
            FaultEpisode::AnswerLoss {
                prob: loss_prob,
                from_secs: loss_from,
                until_secs: loss_from + 1800.0,
            },
            FaultEpisode::BudgetShock {
                at_secs: shock_at,
                cents: shock_cents,
            },
        ]);
        let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(seed ^ 0xfa));
        let stream = SensingCycleStream::new(&dataset, 8, 5);
        let runtime = RuntimeConfig::paper()
            .with_inflight_window(3)
            .with_hit_timeout(Some(150.0), 2)
            .with_faults(plan);
        let mut system =
            PipelinedSystem::new(&dataset, small_config(seed, 120.0), runtime);
        system.attach_metrics_tap(MetricsTap::new());
        let observed_at_boot = system.system().delay_observations();
        let run = system.run(&dataset, &stream);

        // Completeness: the run drained (or `run` would have panicked on
        // the parked/waiting/in-flight drain assertions), and every cycle
        // finalized in order.
        prop_assert_eq!(run.outcomes.len(), 8);
        for (k, outcome) in run.outcomes.iter().enumerate() {
            prop_assert_eq!(outcome.cycle, k);
        }

        // Conservation: posted attempts (first posts + reposts) map
        // one-to-one onto delay observations.
        let tap = run.metrics.as_ref().expect("tap was attached");
        let attempts = tap.hits_posted() + tap.hits_reposted();
        let observed = system.system().delay_observations() - observed_at_boot;
        prop_assert_eq!(
            observed, attempts,
            "posted {} attempts but the learner saw {} observations",
            attempts, observed
        );

        // The ladder's own accounting stays coherent.
        prop_assert!(tap.hits_abandoned() <= tap.hits_timed_out());
        prop_assert_eq!(tap.degraded_cycles(), run.degraded_cycles);
        prop_assert!(run.degraded_cycles <= 8);
    }
}

proptest! {
    // Each case boots one small system and runs it twice.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Taps observe and never steer: attaching, replacing or detaching one
    /// at any event boundary leaves the `RuntimeReport` byte-identical to
    /// the untapped run's, its `metrics` aside — under static and adaptive
    /// windows, with and without HIT timeouts.
    #[test]
    fn moving_the_tap_never_changes_the_run(
        seed in 0u64..512,
        adaptive in any::<bool>(),
        window in 1usize..5,
        with_timeout in any::<bool>(),
        boundary in 0.0f64..1.0,
        // At the boundary the tap is taken (0), swapped for a fresh one
        // (1), or first attached (2).
        tap_move in 0u8..3,
    ) {
        use crowdlearn_runtime::{MetricsTap, RunBound, WindowPolicy};

        let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(seed ^ 0x7a));
        let stream = SensingCycleStream::new(&dataset, 8, 5);
        let policy = if adaptive {
            WindowPolicy::adaptive(1, window + 1)
        } else {
            WindowPolicy::Static(window)
        };
        let runtime = RuntimeConfig::paper()
            .with_window_policy(policy)
            .with_hit_timeout(with_timeout.then_some(300.0), 2);
        // One boot, restored twice: a checkpoint taken before the run.
        let boot = PipelinedSystem::new(&dataset, small_config(seed, 120.0), runtime);
        let Ok(booted) = boot.snapshot();
        let restore = || PipelinedSystem::resume(&booted, &stream).expect("resumes");

        let mut untapped = restore().run(&dataset, &stream);
        prop_assert!(untapped.metrics.is_none());

        let mut system = restore();
        if tap_move < 2 {
            system.attach_metrics_tap(MetricsTap::new());
        }
        let cut = (untapped.events_processed as f64 * boundary) as u64;
        prop_assert!(system.run_until(&dataset, &stream, RunBound::Events(cut)).is_none());
        if tap_move == 0 {
            prop_assert!(system.take_metrics_tap().is_some());
        } else {
            system.attach_metrics_tap(MetricsTap::new());
        }
        let mut tapped = system.run(&dataset, &stream);
        untapped.metrics = None;
        tapped.metrics = None;
        prop_assert_eq!(format!("{tapped:?}"), format!("{untapped:?}"));
    }
}
