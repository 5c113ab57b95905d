//! Design-choice ablations (DESIGN.md §7): quantify what each CrowdLearn
//! mechanism contributes by switching it off.
//!
//! * **ε = 0** (pure entropy ranking) — misses confidently-wrong deceptive
//!   images (paper §IV-A's motivation for ε-greedy).
//! * **No offloading** — crowd labels only retrain/reweight; the innate AI
//!   failures stay in the output.
//! * **No Hedge weight updates** — committee weights stay uniform.
//! * **No retraining** — models never see crowd labels.
//! * **ε-greedy incentive policy** instead of UCB-ALP.
//! * **Context-blind bandit** — one policy for all temporal contexts.
//! * **Labels-only CQC** — the questionnaire features are dropped, leaving
//!   the boosting model only the vote histogram (CQC degrades toward
//!   majority voting, §IV-C).

#![forbid(unsafe_code)]

use crowdlearn::{CalibratorConfig, CrowdLearnConfig, IncentivePolicyKind, QueryFeatures};
use crowdlearn_bench::{banner, Fixture};
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig, QueryResponse};
use crowdlearn_dataset::{DamageLabel, TemporalContext};
use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig};
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};

fn main() {
    banner(
        "Ablations: what each CrowdLearn mechanism buys",
        "DESIGN.md §7 — not a paper table; quantifies the design choices the paper argues for",
    );

    let fixture = Fixture::paper_default();
    let run = |config: CrowdLearnConfig| {
        let mut system =
            PipelinedSystem::new(&fixture.dataset, config, RuntimeConfig::sequential());
        system.run(&fixture.dataset, &fixture.stream).report
    };

    let full = run(CrowdLearnConfig::paper());
    println!(
        "{:<34} {:>9} {:>9} {:>12}",
        "variant", "accuracy", "F1", "crowd delay"
    );
    let fmt = |name: &str, r: &crowdlearn::SchemeReport| {
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
    fmt("full CrowdLearn", &full);

    let no_epsilon = run(CrowdLearnConfig::paper().with_epsilon(0.0));
    fmt("epsilon = 0 (pure entropy QSS)", &no_epsilon);

    let no_offload = run(
        CrowdLearnConfig::paper().with_calibration(CalibratorConfig {
            offload: false,
            ..CalibratorConfig::paper()
        }),
    );
    fmt("no crowd offloading", &no_offload);

    let no_hedge = run(
        CrowdLearnConfig::paper().with_calibration(CalibratorConfig {
            update_weights: false,
            ..CalibratorConfig::paper()
        }),
    );
    fmt("no Hedge weight updates", &no_hedge);

    let no_retrain = run(
        CrowdLearnConfig::paper().with_calibration(CalibratorConfig {
            retrain: false,
            ..CalibratorConfig::paper()
        }),
    );
    fmt("no model retraining", &no_retrain);

    let eps_policy = run(CrowdLearnConfig::paper().with_policy(IncentivePolicyKind::EpsilonGreedy));
    fmt("epsilon-greedy incentive policy", &eps_policy);

    println!();
    println!("CQC feature ablation (labels-only vs labels+questionnaire):");
    cqc_feature_ablation(&fixture);

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
    let gather = |platform: &mut Platform, images: &[crowdlearn_dataset::SyntheticImage]| {
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
