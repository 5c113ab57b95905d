//! Property-based tests on the simulated crowdsourcing platform.

use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig};
use crowdlearn_dataset::{Dataset, DatasetConfig, TemporalContext};
use proptest::prelude::*;

fn small_dataset(seed: u64) -> Dataset {
    Dataset::generate(
        &DatasetConfig::paper()
            .with_total(60)
            .with_train_count(30)
            .with_seed(seed),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every response has the paper's fan-out of 5, positive delays, and a
    /// completion time equal to the slowest worker.
    #[test]
    fn responses_are_well_formed(
        seed in 0u64..2_000,
        level_idx in 0usize..IncentiveLevel::COUNT,
        ctx_idx in 0usize..TemporalContext::COUNT,
    ) {
        let ds = small_dataset(seed);
        let fanout = PlatformConfig::WORKERS_PER_QUERY;
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(seed));
        let response = platform.submit(
            &ds.test()[0],
            IncentiveLevel::from_index(level_idx),
            TemporalContext::from_index(ctx_idx),
        );
        prop_assert_eq!(response.responses.len(), fanout);
        let max = response
            .responses
            .iter()
            .map(|r| r.delay_secs)
            .fold(0.0f64, f64::max);
        prop_assert!((response.completion_delay_secs - max).abs() < 1e-12);
        prop_assert!(response.responses.iter().all(|r| r.delay_secs > 0.0));
        // Distinct workers per query.
        let mut ids: Vec<_> = response.responses.iter().map(|r| r.worker).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), fanout);
    }

    /// The spend ledger is exactly the sum of the submitted incentives.
    #[test]
    fn ledger_is_exact(
        seed in 0u64..2_000,
        levels in proptest::collection::vec(0usize..IncentiveLevel::COUNT, 1..25),
    ) {
        let ds = small_dataset(seed);
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(seed));
        let mut expected = 0u64;
        for (i, &l) in levels.iter().enumerate() {
            let level = IncentiveLevel::from_index(l);
            expected += u64::from(level.cents());
            let img = &ds.test()[i % ds.test().len()];
            let _ = platform.submit(img, level, TemporalContext::Evening);
        }
        prop_assert_eq!(platform.spent_cents(), expected);
        prop_assert_eq!(platform.queries_served(), levels.len() as u64);
    }

    /// Platforms are reproducible: identical seeds and request sequences
    /// yield identical responses, even with churn enabled.
    #[test]
    fn platforms_are_reproducible(seed in 0u64..2_000, churn in 0.0f64..1.0) {
        let ds = small_dataset(seed);
        let mk = || Platform::new(PlatformConfig::paper().with_seed(seed).with_churn_rate(churn));
        let (mut a, mut b) = (mk(), mk());
        for i in 0..10 {
            let img = &ds.test()[i % ds.test().len()];
            let ra = a.submit(img, IncentiveLevel::C4, TemporalContext::Morning);
            let rb = b.submit(img, IncentiveLevel::C4, TemporalContext::Morning);
            prop_assert_eq!(ra, rb);
        }
    }

    /// The pilot-calibrated ordering — morning at 1 cent is slower than
    /// evening at any mid incentive — holds for any platform seed.
    #[test]
    fn morning_cheap_is_slow_everywhere(seed in 0u64..500) {
        let ds = small_dataset(seed);
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(seed));
        let mean = |p: &mut Platform, level, ctx| -> f64 {
            (0..15)
                .map(|i| {
                    p.submit(&ds.train()[i % ds.train().len()], level, ctx)
                        .mean_worker_delay_secs()
                })
                .sum::<f64>()
                / 15.0
        };
        let slow = mean(&mut platform, IncentiveLevel::C1, TemporalContext::Morning);
        let fast = mean(&mut platform, IncentiveLevel::C6, TemporalContext::Evening);
        prop_assert!(slow > fast, "morning@1c {slow} vs evening@6c {fast}");
    }
}
