//! Cross-crate integration tests: the full closed loop, run by the event
//! runtime at an in-flight window of one, reproduces the paper's headline
//! orderings and keeps its books straight.

use crowdlearn::{CrowdLearnConfig, CrowdLearnSystem, Model, SchemeReport};
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{
    MetricsTap, PipelinedSystem, RuntimeConfig, RuntimeReport, RuntimeSnapshot,
};

fn fixture() -> (Dataset, SensingCycleStream) {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let stream = SensingCycleStream::paper(&dataset);
    (dataset, stream)
}

/// One paper-stream run under `config`, returning the run and the system
/// it leaves behind.
fn paper_run_with_system(config: CrowdLearnConfig) -> (RuntimeReport, PipelinedSystem) {
    let (dataset, stream) = fixture();
    let mut system = PipelinedSystem::new(&dataset, config, RuntimeConfig::sequential());
    let run = system.run(&dataset, &stream);
    (run, system)
}

fn paper_run(config: CrowdLearnConfig) -> SchemeReport {
    paper_run_with_system(config).0.report
}

/// Hybrid-AL around a DDM base model instead of the Ensemble.
fn hybrid_al_on_ddm() -> CrowdLearnConfig {
    CrowdLearnConfig {
        model: Model::Ddm,
        ..CrowdLearnConfig::hybrid_al()
    }
}

#[test]
fn table2_ordering_holds_end_to_end() {
    let crowdlearn = paper_run(CrowdLearnConfig::paper());
    let vgg_report = paper_run(CrowdLearnConfig::ai_only(Model::Vgg16));
    let bovw_report = paper_run(CrowdLearnConfig::ai_only(Model::Bovw));
    let ddm_report = paper_run(CrowdLearnConfig::ai_only(Model::Ddm));
    let ensemble_report = paper_run(CrowdLearnConfig::ai_only(Model::Ensemble));

    // The paper's central ordering: CrowdLearn leads everything; the AI-only
    // ladder is BoVW < VGG16 < DDM <= Ensemble.
    assert!(
        crowdlearn.accuracy() > ensemble_report.accuracy(),
        "CrowdLearn {} must beat Ensemble {}",
        crowdlearn.accuracy(),
        ensemble_report.accuracy()
    );
    assert!(ensemble_report.accuracy() > vgg_report.accuracy());
    assert!(ddm_report.accuracy() > vgg_report.accuracy());
    assert!(vgg_report.accuracy() > bovw_report.accuracy());
}

#[test]
fn crowdlearn_beats_both_hybrids_on_accuracy_and_delay() {
    let crowdlearn = paper_run(CrowdLearnConfig::paper());
    let para_report = paper_run(CrowdLearnConfig::hybrid_para());
    let al_report = paper_run(CrowdLearnConfig::hybrid_al());

    assert!(crowdlearn.accuracy() > para_report.accuracy());
    assert!(crowdlearn.accuracy() > al_report.accuracy());

    // And the adaptive incentive policy must be faster than both fixed ones
    // (Table III: ~35% reduction).
    let cl_delay = crowdlearn.mean_crowd_delay_secs().expect("queries issued");
    let para_delay = para_report.mean_crowd_delay_secs().expect("queries issued");
    let al_delay = al_report.mean_crowd_delay_secs().expect("queries issued");
    assert!(
        cl_delay < 0.85 * para_delay,
        "CrowdLearn delay {cl_delay} vs Hybrid-Para {para_delay}"
    );
    assert!(
        cl_delay < 0.85 * al_delay,
        "CrowdLearn delay {cl_delay} vs Hybrid-AL {al_delay}"
    );
}

#[test]
fn ai_only_reports_match_expert_accuracy_bands() {
    let report = paper_run(CrowdLearnConfig::ai_only(Model::Ddm));
    assert!(
        (report.accuracy() - 0.807).abs() < 0.05,
        "{}",
        report.accuracy()
    );
    assert!(report.mean_crowd_delay_secs().is_none());
    assert_eq!(report.spent_cents, 0);
}

#[test]
fn hybrid_al_improves_slightly_over_its_base_model() {
    let base_report = paper_run(CrowdLearnConfig::ai_only(Model::Ddm));
    let al_report = paper_run(hybrid_al_on_ddm());
    // Retraining with crowd labels buys a little accuracy, but cannot
    // exceed the architecture's ceiling (Table II: 0.823 vs 0.807). The
    // comparison carries realization variance: every retrain reshuffles
    // the simulated model's prediction noise, so individual runs move a
    // couple of points either way around the base model.
    assert!(
        al_report.accuracy() >= base_report.accuracy() - 0.045,
        "Hybrid-AL {} must not collapse below DDM {}",
        al_report.accuracy(),
        base_report.accuracy()
    );
    assert!(al_report.mean_crowd_delay_secs().is_some());
    assert_eq!(al_report.queries_issued, 200);
}

#[test]
fn hybrid_al_respects_budget() {
    let report = paper_run(hybrid_al_on_ddm().with_budget_cents(100.0));
    assert!(report.spent_cents <= 100);
}

#[test]
fn hybrid_para_lands_in_its_table2_band() {
    let report = paper_run(CrowdLearnConfig::hybrid_para());
    // Paper Table II: Hybrid-Para 0.797.
    assert!(
        (report.accuracy() - 0.797).abs() < 0.06,
        "Hybrid-Para accuracy {}",
        report.accuracy()
    );
}

#[test]
fn fixed_incentive_hybrids_are_slower_than_nothing_at_all() {
    // Sanity: hybrids actually incur crowd delay while AI-only does not.
    let report = paper_run(CrowdLearnConfig::hybrid_para());
    let crowd = report
        .mean_crowd_delay_secs()
        .expect("para queries the crowd");
    assert!(crowd > report.mean_algorithm_delay_secs());
}

#[test]
fn evaluation_spend_matches_report_and_budget() {
    let (run, pipelined) = paper_run_with_system(CrowdLearnConfig::paper());
    let (report, system) = (&run.report, pipelined.system());
    assert_eq!(u64::from(report.spent_cents > 0), 1);
    assert_eq!(report.spent_cents, system.evaluation_spent_cents());
    assert!(
        report.spent_cents as f64 + system.remaining_budget_cents()
            <= CrowdLearnConfig::paper().budget_cents + 1e-6
    );
}

#[test]
fn every_streamed_image_receives_exactly_one_final_label() {
    let (_, stream) = fixture();
    let (run, _) = paper_run_with_system(CrowdLearnConfig::paper());
    let mut seen = std::collections::BTreeSet::new();
    assert_eq!(run.outcomes.len(), stream.cycles().len());
    for (cycle, outcome) in stream.cycles().iter().zip(&run.outcomes) {
        assert_eq!(outcome.images.len(), cycle.image_ids.len());
        for img in &outcome.images {
            assert!(seen.insert(img.image), "duplicate label for {}", img.image);
            let probs = img.distribution.probs();
            assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
    assert_eq!(seen.len(), 400);
}

#[test]
fn full_runs_are_reproducible() {
    let a = paper_run(CrowdLearnConfig::paper());
    let b = paper_run(CrowdLearnConfig::paper());
    assert_eq!(a.confusion, b.confusion);
    assert_eq!(a.spent_cents, b.spent_cents);
    assert_eq!(a.scores, b.scores);
}

#[test]
fn paper_run_hits_table2_band() {
    let report = paper_run(CrowdLearnConfig::paper());
    // Paper Table II: CrowdLearn accuracy 0.877, F1 0.894. The
    // four-seed mean of this reproduction is 0.871 (the calibration
    // table of `crowdlearn-bench --bin experiments`); the band below
    // admits the per-seed spread around it.
    assert!(
        (report.accuracy() - 0.877).abs() < 0.062,
        "accuracy {} outside Table II band",
        report.accuracy()
    );
    assert!(
        report.macro_f1() > 0.82,
        "macro F1 {} too low",
        report.macro_f1()
    );
    assert_eq!(report.cycles, 40);
    assert_eq!(report.queries_issued, 200);
}

#[test]
fn budget_is_never_exceeded() {
    let report = paper_run(CrowdLearnConfig::paper().with_budget_cents(300.0));
    assert!(
        report.spent_cents as f64 <= 300.0 + 1e-9,
        "spent {} cents of 300",
        report.spent_cents
    );
}

#[test]
fn zero_queries_degrades_to_pure_committee() {
    let report = paper_run(CrowdLearnConfig::paper().with_queries_per_cycle(0));
    assert_eq!(report.queries_issued, 0);
    assert_eq!(report.spent_cents, 0);
    // Figure 9: at 0% query set CrowdLearn degrades to Ensemble-level
    // accuracy (~0.815).
    assert!(
        (report.accuracy() - 0.815).abs() < 0.06,
        "0-query accuracy {} should be ensemble-like",
        report.accuracy()
    );
}

#[test]
fn more_queries_help() {
    let low = paper_run(CrowdLearnConfig::paper().with_queries_per_cycle(1));
    let high = paper_run(CrowdLearnConfig::paper().with_queries_per_cycle(8));
    assert!(
        high.accuracy() > low.accuracy(),
        "8 queries ({}) must beat 1 query ({})",
        high.accuracy(),
        low.accuracy()
    );
}

#[test]
fn hedge_weights_favor_the_strongest_expert() {
    let (_, pipelined) = paper_run_with_system(CrowdLearnConfig::paper());
    let weights = pipelined.system().committee_weights();
    // Member order: VGG16, BoVW, DDM; DDM is the most accurate expert.
    assert!(
        weights[2] > weights[1],
        "DDM must out-weigh BoVW after a full run: {weights:?}"
    );
}

#[test]
fn impossible_deadline_disables_offloading_but_not_learning() {
    let strict = paper_run(CrowdLearnConfig::paper().with_offload_deadline_secs(Some(1.0)));
    let relaxed = paper_run(CrowdLearnConfig::paper());
    // With a 1-second deadline no crowd answer is actionable, so the
    // output degrades toward committee-only accuracy...
    assert!(strict.accuracy() < relaxed.accuracy());
    // ...but queries are still issued, paid for, and learned from.
    assert_eq!(strict.queries_issued, 200);
    assert!(strict.spent_cents > 0);
}

#[test]
fn generous_deadline_changes_nothing() {
    let generous = paper_run(CrowdLearnConfig::paper().with_offload_deadline_secs(Some(1e9)));
    let unlimited = paper_run(CrowdLearnConfig::paper());
    assert_eq!(generous.confusion, unlimited.confusion);
}

#[test]
fn per_cycle_outcomes_reconcile_with_the_report() {
    let (run, _) = paper_run_with_system(CrowdLearnConfig::paper());
    assert_eq!(run.outcomes.len(), 40);
    // The mean per-cycle accuracy equals the report's overall accuracy
    // (all cycles are the same size).
    let mean: f64 = run
        .outcomes
        .iter()
        .map(|o| {
            let correct = o.images.iter().filter(|i| i.predicted == i.truth).count();
            correct as f64 / o.images.len() as f64
        })
        .sum::<f64>()
        / 40.0;
    assert!((mean - run.report.accuracy()).abs() < 1e-9);
    // Spend pacing reconciles with the report.
    let spent: u64 = run.outcomes.iter().map(|o| o.spent_cents).sum();
    assert_eq!(spent, run.report.spent_cents);
}

#[test]
fn tiny_budget_still_produces_labels_for_every_image() {
    let report = paper_run(CrowdLearnConfig::paper().with_budget_cents(20.0));
    assert_eq!(report.confusion.total(), 400);
    assert!(report.spent_cents <= 20);
}

#[test]
fn state_codec_resumes_mid_run_identically() {
    let (dataset, stream) = fixture();
    let mut config = CrowdLearnConfig::paper();
    config.cqc_training_queries = 200;
    config.warmup_per_cell = 2;
    let mut system = PipelinedSystem::new(&dataset, config, RuntimeConfig::sequential());
    system.attach_metrics_tap(MetricsTap::new());
    while system.metrics_tap().map_or(0, MetricsTap::cycles_closed) < 8 {
        assert!(system.step(&dataset, &stream), "stream ended early");
    }

    let snapshot = system.snapshot().expect("checkpointable");
    let snapshot = RuntimeSnapshot::from_bytes(&snapshot.to_bytes()).expect("frame round trip");
    let mut resumed = PipelinedSystem::resume(&snapshot, &stream).expect("state round trip");
    let state = |s: &CrowdLearnSystem| {
        let mut bytes = Vec::new();
        s.encode_state(&mut bytes).expect("checkpointable");
        bytes
    };
    assert_eq!(state(system.system()), state(resumed.system()));

    let a = system.run(&dataset, &stream);
    let b = resumed.run(&dataset, &stream);
    for k in 8..16 {
        assert_eq!(
            a.outcomes[k], b.outcomes[k],
            "cycle {k} diverged after resume"
        );
    }
    let (system, resumed) = (system.system(), resumed.system());
    assert_eq!(
        system.remaining_budget_cents(),
        resumed.remaining_budget_cents()
    );
    assert_eq!(system.delay_observations(), resumed.delay_observations());
    assert_eq!(system.committee_weights(), resumed.committee_weights());
}
