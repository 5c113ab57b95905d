//! Tables I-III and the four-seed calibration of Table II.

use crowdlearn::{QualityController, SchemeReport};
use crowdlearn_bench::{banner, paper_reference, Fixture};
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig, QueryResponse};
use crowdlearn_dataset::{DamageLabel, SyntheticImage, TemporalContext};
use crowdlearn_metrics::{mcnemar_test, SummaryStats};
use crowdlearn_truth::{Aggregator, Annotation, DawidSkeneEm, MajorityVoting, WorkerFiltering};

const QUERIES_PER_CONTEXT: usize = 100;

/// **Table I**: aggregated label accuracy of CQC vs Voting vs TD-EM vs
/// Filtering, per temporal context and overall.
///
/// Workload: the same kind of crowd queries the live system issues — test
/// images submitted at mid incentives — grouped by the temporal context they
/// were answered in. CQC is trained on training-split responses exactly as
/// the live system trains it.
pub fn table1(fixture: &Fixture) {
    banner(
        "Table I: Aggregated Label Accuracy",
        "CQC 0.9350 overall, >= 5.75 points above the best alternative (Filtering 0.8775)",
    );

    let mut platform = Platform::new(PlatformConfig::paper().with_seed(0x7ab1e));

    // Train CQC on training-split responses (truth known), as in the system
    // bootstrap.
    let mut cqc = QualityController::paper();
    let train_examples: Vec<(QueryResponse, DamageLabel)> = (0..1120)
        .map(|i| {
            let img = &fixture.dataset.train()[i % fixture.dataset.train().len()];
            let ctx = TemporalContext::from_index(i % TemporalContext::COUNT);
            let level = IncentiveLevel::from_index((i / 3) % IncentiveLevel::COUNT);
            (platform.submit(img, level, ctx), img.truth())
        })
        .collect();
    cqc.train(&train_examples);

    // Evaluation responses per context over test images.
    let mut responses: Vec<Vec<(&SyntheticImage, QueryResponse)>> = Vec::new();
    for ctx in TemporalContext::ALL {
        let mut batch = Vec::with_capacity(QUERIES_PER_CONTEXT);
        for q in 0..QUERIES_PER_CONTEXT {
            let img = &fixture.dataset.test()
                [(q + ctx.index() * QUERIES_PER_CONTEXT) % fixture.dataset.test().len()];
            batch.push((img, platform.submit(img, IncentiveLevel::C6, ctx)));
        }
        responses.push(batch);
    }

    // Aggregation schemes. Filtering and TD-EM consume raw annotations.
    let accuracy_of = |scheme: &str, per_ctx: &dyn Fn(usize) -> f64| {
        let per: Vec<f64> = (0..TemporalContext::COUNT).map(per_ctx).collect();
        let overall = per.iter().sum::<f64>() / per.len() as f64;
        (scheme.to_owned(), per, overall)
    };

    let cqc_rows = accuracy_of("CQC", &|c| {
        let batch = &responses[c];
        batch
            .iter()
            .filter(|(img, resp)| cqc.truthful_label(resp) == img.truth())
            .count() as f64
            / batch.len() as f64
    });

    let aggregate_with = |aggregator: &mut dyn Aggregator, c: usize| -> f64 {
        let batch = &responses[c];
        let annotations: Vec<Annotation> = batch
            .iter()
            .enumerate()
            .flat_map(|(item, (_, resp))| {
                resp.responses
                    .iter()
                    .map(move |r| Annotation::new(r.worker, item, r.label.index()))
            })
            .collect();
        let estimates = aggregator.aggregate(&annotations, batch.len(), DamageLabel::COUNT);
        estimates
            .iter()
            .zip(batch)
            .filter(|(est, (img, _))| est.label() == img.truth().index())
            .count() as f64
            / batch.len() as f64
    };

    let voting_rows = accuracy_of("Voting", &|c| aggregate_with(&mut MajorityVoting, c));
    let tdem_rows = accuracy_of("TD-EM", &|c| {
        aggregate_with(&mut DawidSkeneEm::default(), c)
    });
    // Filtering needs worker history before it can blacklist anyone: give it
    // one ungraded pass over all four context batches (the live system would
    // have accumulated the same history during earlier cycles), then score.
    let mut filtering = WorkerFiltering::paper_default();
    for c in 0..TemporalContext::COUNT {
        let _ = aggregate_with(&mut filtering, c);
    }
    let blacklisted = filtering.blacklisted_count();
    let filtering_rows = accuracy_of("Filtering", &|c| aggregate_with(&mut filtering.clone(), c));

    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9}   (paper overall)",
        "Scheme", "Morning", "Afternoon", "Evening", "Midnight", "Overall"
    );
    let rows = [cqc_rows, voting_rows, tdem_rows, filtering_rows];
    for ((name, per, overall), (paper_name, paper_vals)) in
        rows.iter().zip(paper_reference::TABLE1.iter())
    {
        assert_eq!(name, paper_name);
        println!(
            "{:<10} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}   ({:.4})",
            name, per[0], per[1], per[2], per[3], overall, paper_vals[4]
        );
    }
    println!("(Filtering blacklisted {blacklisted} workers from its history pass)");

    let cqc_overall = rows[0].2;
    let best_other = rows[1..]
        .iter()
        .map(|r| r.2)
        .fold(f64::NEG_INFINITY, f64::max);
    println!();
    println!(
        "Shape check: CQC {:.3} vs best alternative {:.3} ({:+.2} points; paper reports +5.75)",
        cqc_overall,
        best_other,
        100.0 * (cqc_overall - best_other)
    );
    assert!(
        cqc_overall > best_other,
        "shape violation: CQC must lead Table I"
    );
}

/// **Table II**: classification Accuracy / Precision / Recall / F1 for all
/// seven schemes over the 40-cycle evaluation stream.
pub fn table2(schemes: &[SchemeReport]) {
    banner(
        "Table II: Classification Accuracy for All Schemes",
        "CrowdLearn 0.877 acc / 0.894 F1; +5.3% F1 over best baseline (Hybrid-AL)",
    );

    println!(
        "{:<12} {:>22} {:>22} {:>22} {:>22}",
        "Scheme", "Accuracy", "Precision", "Recall", "F1"
    );
    for (report, (name, (acc, prec, rec, f1))) in schemes.iter().zip(
        paper_reference::SCHEMES
            .iter()
            .zip(paper_reference::TABLE2.iter()),
    ) {
        println!(
            "{:<12} {:>22} {:>22} {:>22} {:>22}",
            name,
            format!("{:.3} (paper {:.3})", report.accuracy(), acc),
            format!(
                "{:.3} (paper {:.3})",
                report.confusion.macro_precision(),
                prec
            ),
            format!("{:.3} (paper {:.3})", report.confusion.macro_recall(), rec),
            format!("{:.3} (paper {:.3})", report.macro_f1(), f1),
        );
    }

    // Paired significance of CrowdLearn's lead over every baseline
    // (McNemar over the shared 400-image stream).
    println!();
    println!("McNemar vs CrowdLearn (same 400 test images):");
    let crowdlearn_correct = schemes[0].correctness();
    for (report, name) in schemes[1..].iter().zip(&paper_reference::SCHEMES[1..]) {
        let out = mcnemar_test(&crowdlearn_correct, &report.correctness());
        println!(
            "  vs {:<12} CrowdLearn-only wins {:>3}, {}-only wins {:>3}, p = {:.4} {}",
            name,
            out.a_only,
            name,
            out.b_only,
            out.p_value,
            if out.significant(0.05) {
                "(significant)"
            } else {
                ""
            }
        );
    }

    let crowdlearn_f1 = schemes[0].macro_f1();
    let best_baseline_f1 = schemes[1..]
        .iter()
        .map(|r| r.macro_f1())
        .fold(f64::NEG_INFINITY, f64::max);
    println!();
    println!(
        "Shape check: CrowdLearn F1 {:.3} vs best baseline F1 {:.3} ({:+.1}%; paper reports +5.3%)",
        crowdlearn_f1,
        best_baseline_f1,
        100.0 * (crowdlearn_f1 - best_baseline_f1) / best_baseline_f1
    );
    assert!(
        crowdlearn_f1 > best_baseline_f1,
        "shape violation: CrowdLearn must lead Table II"
    );
}

/// **Table III**: average algorithm delay and crowd delay per sensing cycle
/// for all seven schemes.
pub fn table3(schemes: &[SchemeReport]) {
    banner(
        "Table III: Average Delay (in seconds) per Sensing Cycle",
        "CrowdLearn crowd delay 342.77 s, ~35% below the fixed-incentive hybrids (527-589 s)",
    );

    println!(
        "{:<12} {:>26} {:>26}",
        "Scheme", "Algorithm delay", "Crowd delay"
    );
    for (report, (name, (paper_alg, paper_crowd))) in schemes.iter().zip(
        paper_reference::SCHEMES
            .iter()
            .zip(paper_reference::TABLE3.iter()),
    ) {
        let crowd = match (report.mean_crowd_delay_secs(), paper_crowd) {
            (Some(m), Some(p)) => format!("{m:.1} (paper {p:.1})"),
            (None, None) => "N/A (paper N/A)".to_owned(),
            (m, p) => format!("{m:?} (paper {p:?})"),
        };
        println!(
            "{:<12} {:>26} {:>26}",
            name,
            format!(
                "{:.1} (paper {:.1})",
                report.mean_algorithm_delay_secs(),
                paper_alg
            ),
            crowd
        );
    }

    let crowdlearn_delay = schemes[0]
        .mean_crowd_delay_secs()
        .expect("CrowdLearn queries");
    let para_delay = schemes[5].mean_crowd_delay_secs().expect("Para queries");
    let al_delay = schemes[6].mean_crowd_delay_secs().expect("AL queries");
    let fixed_mean = 0.5 * (para_delay + al_delay);
    println!();
    println!(
        "Shape check: CrowdLearn crowd delay {:.1} s vs fixed-incentive hybrids {:.1} s \
         ({:.0}% reduction; paper reports ~35%)",
        crowdlearn_delay,
        fixed_mean,
        100.0 * (1.0 - crowdlearn_delay / fixed_mean)
    );
    assert!(
        crowdlearn_delay < para_delay && crowdlearn_delay < al_delay,
        "shape violation: adaptive incentives must beat fixed incentives on delay"
    );
}

/// Multi-seed calibration: mean ± std of Table II accuracy across four
/// dataset/scheme seeds, so simulator constants can be tuned against means
/// instead of single-run noise. Seed 0 is the paper fixture's Table II run.
pub fn calibrate(schemes: &[SchemeReport]) {
    let mut acc: Vec<SummaryStats> = (0..7).map(|_| SummaryStats::new()).collect();
    let mut push = |reports: &[SchemeReport]| {
        for (stats, r) in acc.iter_mut().zip(reports) {
            stats.push(r.accuracy());
        }
    };
    push(schemes);
    for seed in 1..4 {
        push(&Fixture::paper(seed).run_all_schemes());
    }
    println!("{:<12} {:>8} {:>8}", "scheme", "mean", "std");
    for (name, stats) in paper_reference::SCHEMES.iter().zip(&acc) {
        println!(
            "{:<12} {:>8.3} {:>8.3}",
            name,
            stats.mean(),
            stats.std_dev()
        );
    }
}
