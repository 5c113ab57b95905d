//! Integration tests for the incentive pipeline: the bandit against the
//! live platform, budget conservation across layers, and the Figure 8/11
//! orderings at integration scope.

use crowdlearn::{CrowdLearnConfig, IncentivePolicyKind};
use crowdlearn_bandit::{BanditConfig, CostedBandit, UcbAlp};
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig};
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream, TemporalContext};
use crowdlearn_metrics::bootstrap_paired_diff_ci;
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};

/// Boots the system under `config` for a sequential run.
fn sequential(dataset: &Dataset, config: CrowdLearnConfig) -> PipelinedSystem {
    PipelinedSystem::new(dataset, config, RuntimeConfig::sequential())
}

#[test]
fn adaptive_policy_beats_fixed_with_statistical_confidence() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let stream = SensingCycleStream::paper(&dataset);

    let run = |policy: IncentivePolicyKind| {
        let mut system = sequential(&dataset, CrowdLearnConfig::paper().with_policy(policy));
        let report = system.run(&dataset, &stream).report;
        report.crowd_delay.samples().to_vec()
    };
    let adaptive = run(IncentivePolicyKind::UcbAlp);
    let fixed = run(IncentivePolicyKind::FixedMax);
    assert_eq!(adaptive.len(), fixed.len());

    // Paired per-cycle bootstrap: the delay reduction must be real, not
    // realization luck.
    let ci = bootstrap_paired_diff_ci(&fixed, &adaptive, 0.95, 2000, 9);
    assert!(
        ci.excludes(0.0) && ci.point > 0.0,
        "fixed-minus-adaptive delay CI must exclude zero: {ci:?}"
    );
}

#[test]
fn the_bandit_learns_the_contextual_structure() {
    // Directly drive UCB-ALP against the platform and verify it pays more in
    // the incentive-sensitive day contexts than at night — the learned
    // policy the paper describes ("CrowdLearn would provide higher
    // incentives [when] the crowd is less responsive").
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(0x1bd));
    let config = BanditConfig::new(TemporalContext::COUNT, IncentiveLevel::costs(), 1000.0, 200)
        .with_context_distribution(vec![0.25; TemporalContext::COUNT]);
    let mut bandit = UcbAlp::new(config, 5);

    // Warm up.
    let mut i = 0usize;
    for _ in 0..10 {
        for ctx in TemporalContext::ALL {
            for level in IncentiveLevel::ALL {
                let img = &dataset.train()[i % dataset.train().len()];
                i += 1;
                let r = platform.submit(img, level, ctx);
                let payoff = (1.0 - r.completion_delay_secs / 1800.0).clamp(0.0, 1.0);
                bandit.observe(ctx.index(), level.index(), payoff);
            }
        }
    }

    let mut spend = [0.0f64; TemporalContext::COUNT];
    let mut counts = [0usize; TemporalContext::COUNT];
    for round in 0..200usize {
        let ctx = TemporalContext::from_index(round % 4);
        let Some(a) = bandit.select(ctx.index()) else {
            break;
        };
        let level = IncentiveLevel::from_index(a);
        let img = &dataset.test()[round % dataset.test().len()];
        let r = platform.submit(img, level, ctx);
        bandit.observe(
            ctx.index(),
            a,
            (1.0 - r.completion_delay_secs / 1800.0).clamp(0.0, 1.0),
        );
        spend[ctx.index()] += f64::from(level.cents());
        counts[ctx.index()] += 1;
    }
    let mean = |z: usize| spend[z] / counts[z].max(1) as f64;
    let day = 0.5 * (mean(0) + mean(1));
    let night = 0.5 * (mean(2) + mean(3));
    assert!(
        day > 1.5 * night,
        "day spending {day:.1}c must clearly exceed night spending {night:.1}c"
    );
}

#[test]
fn budget_flows_are_conserved_across_system_layers() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let stream = SensingCycleStream::paper(&dataset);
    for budget in [150.0, 600.0, 1000.0] {
        let mut pipelined = sequential(
            &dataset,
            CrowdLearnConfig::paper().with_budget_cents(budget),
        );
        let report = pipelined.run(&dataset, &stream).report;
        let system = pipelined.system();
        // The platform's eval-phase ledger, the report's tally, and the
        // bandit's remaining budget must reconcile exactly.
        assert_eq!(report.spent_cents, system.evaluation_spent_cents());
        let accounted = report.spent_cents as f64 + system.remaining_budget_cents();
        assert!(
            accounted <= budget + 1e-6,
            "spent + remaining ({accounted}) exceeds budget {budget}"
        );
    }
}

#[test]
fn richer_budgets_never_slow_the_crowd_down() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let stream = SensingCycleStream::paper(&dataset);
    let mut last_delay = f64::INFINITY;
    for budget in [200.0, 1000.0, 4000.0] {
        let mut system = sequential(
            &dataset,
            CrowdLearnConfig::paper().with_budget_cents(budget),
        );
        let report = system.run(&dataset, &stream).report;
        let delay = report.mean_crowd_delay_secs().expect("queries issued");
        assert!(
            delay < last_delay * 1.08,
            "budget {budget}: delay {delay} regressed past {last_delay}"
        );
        last_delay = delay;
    }
}
