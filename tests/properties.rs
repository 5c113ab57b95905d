//! Cross-crate property-based tests (proptest) over the public APIs.

use crowdlearn::{Committee, CrowdLearnConfig};
use crowdlearn_bandit::{
    BanditConfig, CostedBandit, EpsilonGreedy, FixedPolicy, RandomPolicy, UcbAlp,
};
use crowdlearn_classifiers::{profiles, BoostedEnsemble, ClassDistribution, Classifier};
use crowdlearn_dataset::{
    DamageLabel, Dataset, DatasetConfig, EvidenceMatrix, LabeledImage, SensingCycleStream,
    SyntheticImage, TemporalContext,
};
use crowdlearn_metrics::{wilcoxon_signed_rank, ConfusionMatrix, RocCurve, SummaryStats};
use crowdlearn_runtime::{MetricsTap, PipelinedSystem, RuntimeConfig, WindowPolicy};
use crowdlearn_truth::{Aggregator, Annotation, DawidSkeneEm, MajorityVoting, WorkerId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn class_distributions_from_any_logits_are_normalized(
        a in -50.0f64..50.0, b in -50.0f64..50.0, c in -50.0f64..50.0
    ) {
        let d = ClassDistribution::from_logits([a, b, c]);
        let sum: f64 = d.probs().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(d.probs().iter().all(|p| (0.0..=1.0).contains(p)));
        prop_assert!(d.entropy() >= -1e-12);
        prop_assert!(d.entropy() <= (DamageLabel::COUNT as f64).ln() + 1e-12);
    }

    #[test]
    fn symmetric_kl_is_symmetric_and_nonnegative(
        a in 0.01f64..10.0, b in 0.01f64..10.0, c in 0.01f64..10.0,
        x in 0.01f64..10.0, y in 0.01f64..10.0, z in 0.01f64..10.0
    ) {
        let p = ClassDistribution::from_weights([a, b, c]);
        let q = ClassDistribution::from_weights([x, y, z]);
        let pq = p.symmetric_kl(&q);
        let qp = q.symmetric_kl(&p);
        prop_assert!(pq >= -1e-12);
        prop_assert!((pq - qp).abs() < 1e-9);
    }

    #[test]
    fn committee_mixture_is_permutation_invariant(
        w1 in 0.1f64..5.0, w2 in 0.1f64..5.0, w3 in 0.1f64..5.0,
        l1 in -5.0f64..5.0, l2 in -5.0f64..5.0, l3 in -5.0f64..5.0
    ) {
        let d1 = ClassDistribution::from_logits([l1, l2, l3]);
        let d2 = ClassDistribution::from_logits([l2, l3, l1]);
        let d3 = ClassDistribution::from_logits([l3, l1, l2]);
        let forward = ClassDistribution::weighted_mixture([(w1, &d1), (w2, &d2), (w3, &d3)]);
        let backward = ClassDistribution::weighted_mixture([(w3, &d3), (w1, &d1), (w2, &d2)]);
        for (a, b) in forward.probs().iter().zip(backward.probs()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn confusion_matrix_accuracy_is_bounded(
        pairs in proptest::collection::vec((0usize..3, 0usize..3), 1..200)
    ) {
        let cm = ConfusionMatrix::from_pairs(3, pairs.iter().copied());
        prop_assert!((0.0..=1.0).contains(&cm.accuracy()));
        prop_assert!((0.0..=1.0).contains(&cm.macro_f1()));
        prop_assert_eq!(cm.total(), pairs.len() as u64);
    }

    #[test]
    fn roc_auc_is_bounded_and_curve_monotone(
        scores in proptest::collection::vec(0.0f64..1.0, 4..100),
        flip in proptest::collection::vec(any::<bool>(), 4..100)
    ) {
        let n = scores.len().min(flip.len());
        let roc = RocCurve::from_binary_scores(&scores[..n], &flip[..n]);
        prop_assert!((0.0..=1.0).contains(&roc.auc()));
        let pts = roc.points();
        for w in pts.windows(2) {
            prop_assert!(w[1].fpr >= w[0].fpr - 1e-12);
            prop_assert!(w[1].tpr >= w[0].tpr - 1e-12);
        }
    }

    #[test]
    fn summary_stats_mean_within_min_max(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100)
    ) {
        let stats: SummaryStats = xs.iter().copied().collect();
        let mean = stats.mean();
        prop_assert!(mean >= stats.min().unwrap() - 1e-9);
        prop_assert!(mean <= stats.max().unwrap() + 1e-9);
        prop_assert!(stats.std_dev() >= 0.0);
    }

    #[test]
    fn wilcoxon_p_value_is_a_probability(
        xs in proptest::collection::vec(0.0f64..1.0, 5..40),
        ys in proptest::collection::vec(0.0f64..1.0, 5..40)
    ) {
        let n = xs.len().min(ys.len());
        let out = wilcoxon_signed_rank(&xs[..n], &ys[..n]);
        prop_assert!((0.0..=1.0).contains(&out.p_value));
        // Rank sums must total n_eff (n_eff + 1) / 2.
        let ne = out.n_effective as f64;
        prop_assert!((out.w_plus + out.w_minus - ne * (ne + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn bandit_policies_never_overspend(
        budget in 1.0f64..60.0,
        seed in 0u64..1000,
        rounds in 1u64..80
    ) {
        let mk = || BanditConfig::new(2, vec![1.0, 3.0, 7.0], budget, rounds);
        let policies: Vec<Box<dyn CostedBandit>> = vec![
            Box::new(UcbAlp::new(mk(), seed)),
            Box::new(EpsilonGreedy::new(mk(), 0.2, seed)),
            Box::new(FixedPolicy::max_affordable(mk())),
            Box::new(RandomPolicy::new(mk(), seed)),
        ];
        for mut policy in policies {
            let mut spent = 0.0;
            for r in 0..rounds {
                if let Some(a) = policy.select((r % 2) as usize) {
                    spent += [1.0, 3.0, 7.0][a];
                    policy.observe((r % 2) as usize, a, 0.5);
                }
            }
            prop_assert!(spent <= budget + 1e-6, "{} overspent: {spent} > {budget}", policy.name());
            prop_assert!((policy.remaining_budget() - (budget - spent)).abs() < 1e-6);
        }
    }

    #[test]
    fn majority_voting_and_ds_produce_normalized_estimates(
        labels in proptest::collection::vec((0u32..8, 0usize..6, 0usize..3), 1..120)
    ) {
        let annotations: Vec<Annotation> = labels
            .iter()
            .map(|&(w, item, label)| Annotation::new(WorkerId(w), item, label))
            .collect();
        for aggregator in [&mut MajorityVoting as &mut dyn Aggregator,
                           &mut DawidSkeneEm::default() as &mut dyn Aggregator] {
            let estimates = aggregator.aggregate(&annotations, 6, 3);
            prop_assert_eq!(estimates.len(), 6);
            for e in &estimates {
                let sum: f64 = e.distribution.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-6);
                prop_assert!(e.label() < 3);
            }
        }
    }

    #[test]
    fn dataset_splits_are_always_disjoint_and_complete(
        seed in 0u64..50,
        total in 30usize..200
    ) {
        let train = total / 2;
        let ds = Dataset::generate(
            &DatasetConfig::paper().with_seed(seed).with_total(total).with_train_count(train),
        );
        prop_assert_eq!(ds.train().len() + ds.test().len(), ds.len());
        let mut ids: Vec<u32> = ds.images().iter().map(|i| i.id().0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), ds.len());
    }
}

/// One dataset shared by the batch-equivalence properties below — dataset
/// generation dominates the per-case cost and the properties only read it.
fn shared_dataset() -> &'static Dataset {
    static DS: std::sync::OnceLock<Dataset> = std::sync::OnceLock::new();
    DS.get_or_init(|| Dataset::generate(&DatasetConfig::paper()))
}

fn assert_distributions_bit_identical(
    batched: &[ClassDistribution],
    scalar: &[ClassDistribution],
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(batched.len(), scalar.len());
    for (b, s) in batched.iter().zip(scalar) {
        for (pb, ps) in b.probs().iter().zip(s.probs()) {
            prop_assert_eq!(pb.to_bits(), ps.to_bits());
        }
    }
    Ok(())
}

// The batch-inference contract (DESIGN.md "Batched committee inference"):
// `predict_evidence` / `votes_batch` / `entropies_batch`
// are performance paths, never semantic ones — every shipped classifier
// profile, trained or untrained, must reproduce the scalar path bit for bit.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_prediction_is_bit_identical_to_scalar_for_every_profile(
        seed in 0u64..500,
        start in 0usize..400,
        len in 1usize..48,
        train in any::<bool>()
    ) {
        let ds = shared_dataset();
        let test = ds.test();
        let start = start % test.len();
        let len = len.min(test.len() - start);
        let batch = &test[start..start + len];
        let evidence = EvidenceMatrix::from_refs(batch);
        let classifiers: Vec<Box<dyn Classifier>> = vec![
            Box::new(profiles::vgg16(seed)),
            Box::new(profiles::bovw(seed)),
            Box::new(profiles::ddm(seed)),
            Box::new(BoostedEnsemble::new(profiles::paper_committee(seed))),
        ];
        for mut classifier in classifiers {
            if train {
                let samples: Vec<LabeledImage> = ds
                    .train()
                    .iter()
                    .cloned()
                    .map(LabeledImage::ground_truth)
                    .collect();
                classifier.retrain(&samples);
            }
            let scalar: Vec<ClassDistribution> =
                batch.iter().map(|img| classifier.predict(img)).collect();
            assert_distributions_bit_identical(&classifier.predict_evidence(&evidence), &scalar)?;
        }
    }

    #[test]
    fn committee_batch_votes_and_entropies_are_bit_identical_to_scalar(
        seed in 0u64..500,
        start in 0usize..400,
        len in 1usize..32,
        l0 in 0.0f64..1.0, l1 in 0.0f64..1.0, l2 in 0.0f64..1.0,
        rounds in 0usize..3
    ) {
        let ds = shared_dataset();
        let members: Vec<Box<dyn Classifier>> = profiles::paper_committee(seed)
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Classifier>)
            .collect();
        let mut committee = Committee::new(members, 0.6);
        for _ in 0..rounds {
            committee.update_weights(&[l0, l1, l2]);
        }
        let test = ds.test();
        let start = start % test.len();
        let len = len.min(test.len() - start);
        let batch: Vec<&SyntheticImage> = test[start..start + len].iter().collect();

        let votes = committee.votes_batch(&batch);
        let entropies = committee.entropies_batch(&batch);
        prop_assert_eq!(votes.len(), batch.len());
        prop_assert_eq!(entropies.len(), batch.len());
        for ((img, image_votes), entropy) in batch.iter().zip(&votes).zip(&entropies) {
            assert_distributions_bit_identical(image_votes, &committee.votes(img))?;
            prop_assert_eq!(entropy.to_bits(), committee.entropy(img).to_bits());
        }
    }
}

// Full closed-loop runs are expensive (committee boot per case), so the
// tap-convergence property uses its own small case budget and a reduced
// bootstrap (fewer CQC training queries, lighter bandit warm-up).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn metrics_tap_agrees_with_the_end_of_run_report(
        seed in 0u64..1000,
        window in 1usize..5,
        with_timeout in any::<bool>()
    ) {
        let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(seed));
        let stream = SensingCycleStream::new(&dataset, 6, 4);
        let mut config = CrowdLearnConfig::paper().with_seed(seed);
        config.cqc_training_queries = 200;
        config.warmup_per_cell = 2;
        let mut runtime = RuntimeConfig::paper().with_inflight_window(window);
        if with_timeout {
            runtime = runtime.with_hit_timeout(Some(150.0), 2);
        }
        let mut system = PipelinedSystem::from_system(
            crowdlearn::CrowdLearnSystem::new(&dataset, config),
            runtime,
        );
        system.attach_metrics_tap(MetricsTap::new());
        let run = system.run(&dataset, &stream);
        let tap = run.metrics.as_ref().expect("tap rides the report");

        // Counters: the streamed view and the end-of-run report must agree
        // exactly — same spend, same timeout/repost telemetry, same number
        // of absorbed answers (the report's per-query delay samples; a
        // censored timeout is not one).
        let report = &run.report;
        prop_assert_eq!(tap.spent_cents(), report.spent_cents);
        prop_assert_eq!(tap.hits_timed_out(), run.timeouts);
        prop_assert_eq!(tap.hits_reposted(), run.reposts);
        prop_assert_eq!(tap.cycles_closed(), run.outcomes.len() as u64);
        prop_assert_eq!(
            tap.hits_answered() + tap.late_answers(),
            report.query_delay.len() as u64
        );
        // The per-context views partition the run's delays.
        let per_context: usize = TemporalContext::ALL
            .into_iter()
            .map(|c| run.crowd_delay_in(c).len())
            .sum();
        prop_assert_eq!(per_context, report.query_delay.len());
    }

    #[test]
    fn collapsed_adaptive_policy_is_byte_identical_to_static(
        seed in 0u64..1000,
        n in 1usize..4
    ) {
        // An `Adaptive` policy pinned to `min == max == n` can never move,
        // so the whole run — controller consultations included — must
        // reproduce `Static(n)` byte for byte. The static run gets the
        // same explicitly attached tap the adaptive run auto-attaches, so
        // the reports' metrics fields compare too.
        let run = |policy: WindowPolicy| {
            let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(seed));
            let stream = SensingCycleStream::new(&dataset, 6, 4);
            let mut config = CrowdLearnConfig::paper().with_seed(seed);
            config.cqc_training_queries = 200;
            config.warmup_per_cell = 2;
            let mut system = PipelinedSystem::from_system(
                crowdlearn::CrowdLearnSystem::new(&dataset, config),
                RuntimeConfig::paper().with_window_policy(policy),
            );
            system.attach_metrics_tap(MetricsTap::new());
            system.run(&dataset, &stream)
        };
        let adaptive = run(WindowPolicy::adaptive(n, n));
        let static_run = run(WindowPolicy::Static(n));
        prop_assert_eq!(&adaptive.window_trajectory, &static_run.window_trajectory);
        prop_assert_eq!(
            format!("{adaptive:?}"),
            format!("{static_run:?}"),
            "a collapsed adaptive range must reproduce Static({}) byte for byte",
            n
        );
    }
}
