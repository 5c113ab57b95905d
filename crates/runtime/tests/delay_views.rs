//! Crowd-delay views are exact summaries of the delays the run keeps, with
//! no ceiling. Worker attrition (every answer 10× slower) and a saturated
//! shared pool (a HIT deferred up to 19× its base delay) both push answers
//! well past two hours, and every view's quantiles still equal the order
//! statistics of the outcomes' own `query_delay_secs`.

use crowdlearn::{CrowdLearnConfig, CrowdLearnSystem, CycleOutcome};
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream, TemporalContext};
use crowdlearn_runtime::{
    FaultEpisode, FaultPlan, FleetConfig, FleetOrchestrator, PipelinedSystem, RuntimeConfig,
    ShardSpec,
};

/// Two hours: past it, a view that clamps its samples reads wrong.
const TWO_HOURS_SECS: f64 = 7200.0;

fn dataset(seed: u64) -> Dataset {
    Dataset::generate(&DatasetConfig::paper().with_seed(seed))
}

/// The `q`-th quantile of `delays` by sorting them, interpolating linearly
/// between the two order statistics around rank `q · (n − 1)`.
fn order_statistic(delays: &[f64], q: f64) -> f64 {
    let mut sorted = delays.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let t = pos - lo as f64;
    sorted[lo] * (1.0 - t) + sorted[hi] * t
}

/// Every absorbed answer's delay of `outcomes`, of `only`'s cycles when set.
fn delays<'a>(
    outcomes: impl IntoIterator<Item = &'a CycleOutcome>,
    only: Option<TemporalContext>,
) -> Vec<f64> {
    outcomes
        .into_iter()
        .filter(|o| only.is_none_or(|c| c == o.context))
        .flat_map(|o| o.query_delay_secs.iter().copied())
        .collect()
}

#[test]
fn context_views_are_exact_under_heavy_attrition() {
    // 90 % of the crowd gone for the whole run: answers take 10× as long.
    let runtime = RuntimeConfig::paper().with_faults(FaultPlan::new(
        1,
        vec![FaultEpisode::WorkerAttrition {
            fraction: 0.9,
            from_secs: 0.0,
            until_secs: FaultEpisode::HORIZON_SECS,
        }],
    ));
    let dataset = dataset(7);
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let system = CrowdLearnSystem::new(&dataset, CrowdLearnConfig::paper());
    let run = PipelinedSystem::from_system(system, runtime).run(&dataset, &stream);

    let mut past_two_hours = 0;
    for context in TemporalContext::ALL {
        let expected = delays(&run.outcomes, Some(context));
        let view = run.crowd_delay_in(context);
        if expected.is_empty() {
            assert!(view.is_empty(), "{context:?} had no answers");
            continue;
        }
        for q in [0.5, 0.9] {
            assert_eq!(
                view.quantile(q),
                Some(order_statistic(&expected, q)),
                "{context:?} q{q}"
            );
        }
        past_two_hours += usize::from(order_statistic(&expected, 0.9) > TWO_HOURS_SECS);
    }
    assert!(
        past_two_hours > 0,
        "some context's p90 must exceed two hours"
    );
}

#[test]
fn fleet_rollup_is_exact_on_a_saturated_pool() {
    // Two shards on a two-worker pool: every post meets a saturated pool.
    let datasets = vec![dataset(7), dataset(8)];
    let streams: Vec<SensingCycleStream> = datasets
        .iter()
        .map(|d| SensingCycleStream::new(d, 8, 5))
        .collect();
    let specs = vec![ShardSpec::new(CrowdLearnConfig::paper(), RuntimeConfig::paper()); 2];
    let budget = CrowdLearnConfig::paper().budget_cents * 2.0;
    let config = FleetConfig::new(budget).with_pool_capacity(2);
    let report = FleetOrchestrator::new(specs, config, &datasets).run(&datasets, &streams);

    let expected = delays(report.shards.iter().flat_map(|s| &s.outcomes), None);
    let rollup = &report.rollup_crowd_delay;
    for q in [0.5, 0.9] {
        assert_eq!(
            rollup.quantile(q),
            Some(order_statistic(&expected, q)),
            "q{q}"
        );
    }
    assert!(
        order_statistic(&expected, 0.9) > TWO_HOURS_SECS,
        "the saturated pool must push the p90 past two hours"
    );
}
