//! Design-choice ablations (DESIGN.md §7) and the extension experiments
//! beyond the paper: domain drift, worker churn and incentive-policy regret.

use crowdlearn::{
    CalibratorConfig, CrowdLearnConfig, IncentivePolicyKind, QualityController, QueryFeatures,
    SchemeReport,
};
use crowdlearn_bandit::{
    BanditConfig, CostedBandit, EpsilonGreedy, Exp3, FixedPolicy, RandomPolicy, RegretTracker,
    ThompsonSampling, UcbAlp,
};
use crowdlearn_bench::{banner, Fixture};
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig, QueryResponse};
use crowdlearn_dataset::{
    DamageLabel, Dataset, DatasetConfig, SensingCycleStream, SyntheticImage, TemporalContext,
};
use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig};
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};
use crowdlearn_truth::{Aggregator, Annotation, MajorityVoting, OneCoinEm, WorkerFiltering};

/// What each CrowdLearn mechanism contributes, measured by switching it off
/// against the full system (the Table II run):
///
/// * **ε = 0** (pure entropy ranking) — misses confidently-wrong deceptive
///   images (paper §IV-A's motivation for ε-greedy).
/// * **No offloading** — crowd labels only retrain/reweight; the innate AI
///   failures stay in the output.
/// * **No Hedge weight updates** — committee weights stay uniform.
/// * **No retraining** — models never see crowd labels.
/// * **ε-greedy incentive policy** instead of UCB-ALP.
/// * **Labels-only CQC** — the questionnaire features are dropped, leaving
///   the boosting model only the vote histogram (CQC degrades toward
///   majority voting, §IV-C).
pub fn ablations(fixture: &Fixture, full: &SchemeReport) {
    banner(
        "Ablations: what each CrowdLearn mechanism buys",
        "DESIGN.md §7 — not a paper table; quantifies the design choices the paper argues for",
    );

    let without = |calibration| {
        fixture.run_crowdlearn(CrowdLearnConfig::paper().with_calibration(calibration))
    };

    println!(
        "{:<34} {:>9} {:>9} {:>12}",
        "variant", "accuracy", "F1", "crowd delay"
    );
    let fmt = |name: &str, r: &SchemeReport| {
        println!(
            "{:<34} {:>9.3} {:>9.3} {:>12}",
            name,
            r.accuracy(),
            r.macro_f1(),
            r.mean_crowd_delay_secs()
                .map(|d| format!("{d:.0} s"))
                .unwrap_or_else(|| "n/a".into())
        );
    };
    fmt("full CrowdLearn", full);

    let no_epsilon = fixture.run_crowdlearn(CrowdLearnConfig::paper().with_epsilon(0.0));
    fmt("epsilon = 0 (pure entropy QSS)", &no_epsilon);

    let no_offload = without(CalibratorConfig {
        offload: false,
        ..CalibratorConfig::paper()
    });
    fmt("no crowd offloading", &no_offload);

    let no_hedge = without(CalibratorConfig {
        update_weights: false,
        ..CalibratorConfig::paper()
    });
    fmt("no Hedge weight updates", &no_hedge);

    let no_retrain = without(CalibratorConfig {
        retrain: false,
        ..CalibratorConfig::paper()
    });
    fmt("no model retraining", &no_retrain);

    let eps_policy = fixture
        .run_crowdlearn(CrowdLearnConfig::paper().with_policy(IncentivePolicyKind::EpsilonGreedy));
    fmt("epsilon-greedy incentive policy", &eps_policy);

    println!();
    println!("CQC feature ablation (labels-only vs labels+questionnaire):");
    cqc_feature_ablation(fixture);

    println!();
    println!("Shape checks:");
    println!(
        "  offloading is the dominant accuracy mechanism: full {:.3} vs no-offload {:.3}",
        full.accuracy(),
        no_offload.accuracy()
    );
    assert!(
        full.accuracy() > no_offload.accuracy() + 0.01,
        "offloading must carry a large share of the gain"
    );
}

/// Trains two boosting models on the same responses — one on the full CQC
/// features, one on the vote histogram alone — and compares accuracy.
fn cqc_feature_ablation(fixture: &Fixture) {
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(0xab1a));
    let gather = |platform: &mut Platform, images: &[SyntheticImage]| {
        images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                let ctx = TemporalContext::from_index(i % TemporalContext::COUNT);
                (platform.submit(img, IncentiveLevel::C6, ctx), img.truth())
            })
            .collect::<Vec<(QueryResponse, DamageLabel)>>()
    };
    let train = gather(&mut platform, fixture.dataset.train());
    let test = gather(&mut platform, fixture.dataset.test());

    let full_rows: Vec<Vec<f64>> = train
        .iter()
        .map(|(r, _)| QueryFeatures::extract(r))
        .collect();
    let labels: Vec<usize> = train.iter().map(|(_, l)| l.index()).collect();
    // Labels-only: keep the vote fractions + entropy + top share, drop the
    // five questionnaire means.
    let strip = |f: &[f64]| {
        let mut v = f[..DamageLabel::COUNT].to_vec();
        v.extend_from_slice(&f[f.len() - 3..]);
        v
    };
    let stripped_rows: Vec<Vec<f64>> = full_rows.iter().map(|f| strip(f)).collect();

    let config = GbdtConfig {
        rounds: 150,
        max_depth: 5,
        learning_rate: 0.12,
        ..GbdtConfig::small()
    };
    let full_model = GbdtClassifier::fit(&full_rows, &labels, DamageLabel::COUNT, &config);
    let stripped_model = GbdtClassifier::fit(&stripped_rows, &labels, DamageLabel::COUNT, &config);

    let mut full_ok = 0usize;
    let mut stripped_ok = 0usize;
    for (resp, truth) in &test {
        let f = QueryFeatures::extract(resp);
        full_ok += usize::from(full_model.predict(&f) == truth.index());
        stripped_ok += usize::from(stripped_model.predict(&strip(&f)) == truth.index());
    }
    let n = test.len() as f64;
    let acc_full = full_ok as f64 / n;
    let acc_stripped = stripped_ok as f64 / n;
    println!("  labels + questionnaire: {acc_full:.3}");
    println!("  labels only:            {acc_stripped:.3}");
    assert!(
        acc_full > acc_stripped + 0.02,
        "the questionnaire evidence must carry real signal"
    );
}

/// Extension: MIC's dynamic expert weights under domain drift.
///
/// On the paper's stationary evaluation the Hedge weight update is roughly
/// neutral (see [`ablations`]): the experts' relative quality never changes,
/// so there is nothing for a *dynamic* weighting to track. This experiment
/// enables the dataset's feature-family drift — the informative visual
/// evidence migrates from the deep-texture family to the handcrafted family
/// as the disaster unfolds — and shows that the paper's design choice pays
/// off exactly when the committee's relative reliability is non-stationary.
pub fn drift() {
    banner(
        "Extension: dynamic expert weights under feature-family drift",
        "paper §IV-D motivates dynamic weights; drift is where they matter",
    );

    let drifted = Dataset::generate(&DatasetConfig::paper().with_family_drift(true));
    let stream = SensingCycleStream::paper(&drifted);

    let run = |update_weights: bool| {
        let config = CrowdLearnConfig::paper().with_calibration(CalibratorConfig {
            update_weights,
            ..CalibratorConfig::paper()
        });
        let mut system = PipelinedSystem::new(&drifted, config, RuntimeConfig::sequential());
        let report = system.run(&drifted, &stream).report;
        (report, system.system().committee_weights().to_vec())
    };

    let (with_hedge, final_weights) = run(true);
    let (without_hedge, static_weights) = run(false);

    println!("{:<28} {:>9} {:>9}", "variant", "accuracy", "F1");
    println!(
        "{:<28} {:>9.3} {:>9.3}",
        "dynamic weights (Hedge)",
        with_hedge.accuracy(),
        with_hedge.macro_f1()
    );
    println!(
        "{:<28} {:>9.3} {:>9.3}",
        "static uniform weights",
        without_hedge.accuracy(),
        without_hedge.macro_f1()
    );
    println!();
    println!(
        "final expert weights (VGG16 / BoVW / DDM): dynamic {:?}, static {:?}",
        round3(&final_weights),
        round3(&static_weights)
    );
    println!();
    println!(
        "Shape check: under drift, Hedge must track the migrating evidence \
         ({:+.3} accuracy)",
        with_hedge.accuracy() - without_hedge.accuracy()
    );
    assert!(
        with_hedge.accuracy() > without_hedge.accuracy(),
        "dynamic weights must win under drift"
    );
    // The deep-texture expert (VGG16) fades as its family does: its final
    // weight must be below uniform.
    assert!(
        final_weights[0] < 1.0 / 3.0,
        "VGG16's weight must have been reduced: {final_weights:?}"
    );
}

fn round3(w: &[f64]) -> Vec<f64> {
    w.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}

/// Extension: label-aggregation schemes under worker churn.
///
/// The paper dismisses worker filtering because it "may fail when the
/// workers are new to the platform and do not have sufficient labeling
/// history" (§IV-C). This experiment makes that concrete: as the per-query
/// churn rate rises, history-based filtering degrades toward plain voting,
/// while CQC — which models the *response*, not the *worker* — is
/// unaffected.
pub fn churn(fixture: &Fixture) {
    banner(
        "Extension: quality control under worker churn",
        "paper §IV-C: filtering fails on fresh workers; CQC models responses, not workers",
    );

    println!(
        "{:<8} {:>9} {:>9} {:>11} {:>9} {:>13}",
        "churn", "Voting", "OneCoin", "Filtering", "CQC", "blacklisted"
    );

    let mut filtering_series = Vec::new();
    let mut cqc_series = Vec::new();
    for &churn in &[0.0, 0.2, 0.5, 1.0] {
        let mut platform = Platform::new(
            PlatformConfig::paper()
                .with_seed(0xc4u64)
                .with_churn_rate(churn),
        );

        // Train CQC on training-split responses under the same churn.
        let mut cqc = QualityController::paper();
        let train: Vec<(QueryResponse, DamageLabel)> = (0..1120)
            .map(|i| {
                let img = &fixture.dataset.train()[i % fixture.dataset.train().len()];
                let ctx = TemporalContext::from_index(i % TemporalContext::COUNT);
                (platform.submit(img, IncentiveLevel::C6, ctx), img.truth())
            })
            .collect();
        cqc.train(&train);

        // History pass for filtering, then a scored evaluation pass.
        let gather = |platform: &mut Platform| -> Vec<(usize, QueryResponse)> {
            fixture
                .dataset
                .test()
                .iter()
                .take(200)
                .enumerate()
                .map(|(i, img)| {
                    let ctx = TemporalContext::from_index(i % TemporalContext::COUNT);
                    (i, platform.submit(img, IncentiveLevel::C6, ctx))
                })
                .collect()
        };
        let history_pass = gather(&mut platform);
        let eval_pass = gather(&mut platform);
        let to_annotations = |responses: &[(usize, QueryResponse)]| -> Vec<Annotation> {
            responses
                .iter()
                .flat_map(|(item, resp)| {
                    resp.responses
                        .iter()
                        .map(move |r| Annotation::new(r.worker, *item, r.label.index()))
                        .collect::<Vec<_>>()
                })
                .collect()
        };

        let truths: Vec<usize> = fixture
            .dataset
            .test()
            .iter()
            .take(200)
            .map(|img| img.truth().index())
            .collect();
        let score = |estimates: &[crowdlearn_truth::LabelEstimate]| {
            estimates
                .iter()
                .zip(&truths)
                .filter(|(e, &t)| e.label() == t)
                .count() as f64
                / truths.len() as f64
        };

        let eval_annotations = to_annotations(&eval_pass);
        let voting = score(&MajorityVoting.aggregate(&eval_annotations, 200, 3));
        let one_coin = score(&OneCoinEm::default().aggregate(&eval_annotations, 200, 3));

        let mut filtering = WorkerFiltering::paper_default();
        let _ = filtering.aggregate(&to_annotations(&history_pass), 200, 3);
        let blacklisted = filtering.blacklisted_count();
        let filtering_acc = score(&filtering.aggregate(&eval_annotations, 200, 3));

        let cqc_acc = eval_pass
            .iter()
            .zip(&truths)
            .filter(|((_, resp), &t)| cqc.truthful_label(resp).index() == t)
            .count() as f64
            / truths.len() as f64;

        println!(
            "{:<8} {:>9.3} {:>9.3} {:>11.3} {:>9.3} {:>13}",
            format!("{churn:.1}"),
            voting,
            one_coin,
            filtering_acc,
            cqc_acc,
            blacklisted
        );
        filtering_series.push((filtering_acc, blacklisted));
        cqc_series.push(cqc_acc);
    }

    println!();
    let stable_blacklist = filtering_series[0].1;
    let churned_blacklist = filtering_series.last().unwrap().1;
    println!(
        "Shape check: filtering's blacklist shrinks under churn ({stable_blacklist} -> \
         {churned_blacklist} workers); CQC accuracy is churn-insensitive"
    );
    assert!(
        churned_blacklist <= stable_blacklist,
        "churn must erode the blacklist"
    );
    // CQC models responses rather than worker identities, so full churn must
    // not cost it more than per-run sampling noise (200-item batches move a
    // few points between draws regardless of churn).
    assert!(
        cqc_series.last().unwrap() >= &(cqc_series[0] - 0.05),
        "CQC must be churn-insensitive: {cqc_series:?}"
    );
}

const BUDGET: f64 = 1000.0;
const ROUNDS: u64 = 200;
const PAYOFF_CEILING: f64 = 1800.0;

fn payoff(delay: f64) -> f64 {
    (1.0 - delay / PAYOFF_CEILING).clamp(0.0, 1.0)
}

/// Extension: regret comparison of every incentive policy.
///
/// The paper only compares CCMB against fixed and random incentives
/// (Figure 8). This experiment adds ε-greedy, Thompson sampling and EXP3,
/// and scores everything by *pseudo-regret* against the oracle that knows
/// each cell's true expected payoff — separating "learned the surface" from
/// "got lucky with the budget".
pub fn policies(fixture: &Fixture) {
    banner(
        "Extension: incentive-policy regret comparison",
        "Figure 8 compares CCMB/fixed/random; this adds the other learners and an oracle",
    );

    let images: Vec<&SyntheticImage> = fixture.dataset.train().iter().take(60).collect();

    // Estimate the true expected payoff of every (context, incentive) cell
    // from a large sample — the oracle the regret is measured against.
    let mut probe = Platform::new(PlatformConfig::paper().with_seed(0xacade));
    let mut expected = vec![vec![0.0f64; IncentiveLevel::COUNT]; TemporalContext::COUNT];
    for (z, &ctx) in TemporalContext::ALL.iter().enumerate() {
        for (a, &level) in IncentiveLevel::ALL.iter().enumerate() {
            let mut sum = 0.0;
            const PROBES: usize = 150;
            for i in 0..PROBES {
                let r = probe.submit(images[i % images.len()], level, ctx);
                sum += payoff(r.completion_delay_secs);
            }
            expected[z][a] = sum / PROBES as f64;
        }
    }

    let config = || {
        BanditConfig::new(
            TemporalContext::COUNT,
            IncentiveLevel::costs(),
            BUDGET,
            ROUNDS,
        )
        .with_context_distribution(vec![0.25; TemporalContext::COUNT])
    };
    let policies: Vec<Box<dyn CostedBandit>> = vec![
        Box::new(UcbAlp::new(config(), 21)),
        Box::new(ThompsonSampling::new(config(), 22)),
        Box::new(Exp3::new(config(), 0.1, 23)),
        Box::new(EpsilonGreedy::new(config(), 0.1, 24)),
        Box::new(FixedPolicy::max_affordable(config())),
        Box::new(RandomPolicy::new(config(), 25)),
    ];

    println!(
        "{:<16} {:>14} {:>14} {:>12}",
        "policy", "total regret", "mean delay", "spent"
    );
    let mut results = Vec::new();
    for mut policy in policies {
        let mut platform = Platform::new(PlatformConfig::paper().with_seed(0xbea7));
        // Pilot-style warm-up observations (free, as in the system).
        for pass in 0..8usize {
            for ctx in TemporalContext::ALL {
                for level in IncentiveLevel::ALL {
                    let img = images[(pass + level.index()) % images.len()];
                    let r = platform.submit(img, level, ctx);
                    policy.observe(ctx.index(), level.index(), payoff(r.completion_delay_secs));
                }
            }
        }

        let mut tracker = RegretTracker::new(expected.clone());
        let mut delay_sum = 0.0;
        let mut answered = 0u64;
        let mut spent = 0.0;
        for round in 0..ROUNDS {
            let ctx = TemporalContext::from_index((round % 4) as usize);
            let Some(a) = policy.select(ctx.index()) else {
                continue;
            };
            tracker.record(ctx.index(), a);
            let level = IncentiveLevel::from_index(a);
            let r = platform.submit(images[round as usize % images.len()], level, ctx);
            policy.observe(ctx.index(), a, payoff(r.completion_delay_secs));
            delay_sum += r.completion_delay_secs;
            answered += 1;
            spent += f64::from(level.cents());
        }
        let mean_delay = delay_sum / answered.max(1) as f64;
        println!(
            "{:<16} {:>14.2} {:>12.0} s {:>10.0} c",
            policy.name(),
            tracker.cumulative_regret(),
            mean_delay,
            spent
        );
        results.push((
            policy.name().to_owned(),
            tracker.cumulative_regret(),
            mean_delay,
        ));
    }

    println!();
    println!(
        "(Note: the oracle ignores the budget, so even a perfect constrained policy \
         carries irreducible 'regret' from playing affordable arms. The comparison is \
         relative.)"
    );
    let ucb = results
        .iter()
        .find(|(n, _, _)| n == "UCB-ALP")
        .expect("present");
    let fixed = results
        .iter()
        .find(|(n, _, _)| n == "fixed")
        .expect("present");
    let random = results
        .iter()
        .find(|(n, _, _)| n == "random")
        .expect("present");
    println!(
        "Shape check: UCB-ALP delay {:.0} s beats fixed {:.0} s and random {:.0} s",
        ucb.2, fixed.2, random.2
    );
    assert!(ucb.2 < fixed.2 && ucb.2 < random.2);
}
