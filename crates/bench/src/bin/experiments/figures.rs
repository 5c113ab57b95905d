//! Figures 7-11: ROC, per-context delay, query-set size and budget sweeps.

use crowdlearn::baselines::{HybridAl, HybridConfig, HybridPara};
use crowdlearn::{CrowdLearnConfig, IncentivePolicyKind, SchemeReport};
use crowdlearn_bench::{banner, paper_reference, Fixture};
use crowdlearn_dataset::TemporalContext;
use crowdlearn_runtime::ParallelSweep;

use crate::BUDGETS_USD;

/// **Figure 7**: macro-average one-vs-rest ROC curves for all seven schemes,
/// printed as AUC plus a sampled curve.
pub fn fig7(schemes: &[SchemeReport]) {
    banner(
        "Figure 7: Macro-average ROC Curves for All Schemes",
        "CrowdLearn dominates across thresholds; ordering matches Table II",
    );

    println!(
        "{:<12} {:>7}   curve (TPR at FPR = 0.05/0.1/0.2/0.4)",
        "Scheme", "AUC"
    );
    let mut aucs = Vec::new();
    for (report, name) in schemes.iter().zip(paper_reference::SCHEMES.iter()) {
        let roc = report.roc();
        let samples: Vec<String> = [0.05, 0.1, 0.2, 0.4]
            .iter()
            .map(|&f| format!("{:.2}", roc.tpr_at(f)))
            .collect();
        println!("{:<12} {:>7.3}   {}", name, roc.auc(), samples.join(" / "));
        aucs.push(roc.auc());
    }

    let crowdlearn_auc = aucs[0];
    let best_other = aucs[1..].iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!();
    println!(
        "Shape check: CrowdLearn AUC {crowdlearn_auc:.3} vs best baseline {best_other:.3} \
         (paper: CrowdLearn 'continues to outperform other baselines when we tune the \
         classification thresholds')"
    );
    assert!(
        crowdlearn_auc > best_other,
        "shape violation: CrowdLearn must have the best ROC"
    );
    // BoVW must be the weakest curve, as in the figure.
    let bovw = aucs[2];
    assert!(
        aucs.iter().all(|&a| a >= bovw),
        "shape violation: BoVW must trail every other scheme"
    );
}

/// **Figure 8**: crowd delay at different temporal contexts for the CCMB
/// incentive policy (the paper configuration, so the Table II run) vs the
/// fixed-maximum and random baselines.
pub fn fig8(fixture: &Fixture, crowdlearn: &SchemeReport) {
    banner(
        "Figure 8: Crowd Delay at Different Temporal Contexts",
        "CCMB (CrowdLearn) lowest with least variation; fixed and random higher everywhere",
    );

    let with_policy = |kind| fixture.run_crowdlearn(CrowdLearnConfig::paper().with_policy(kind));
    let fixed = with_policy(IncentivePolicyKind::FixedMax);
    let random = with_policy(IncentivePolicyKind::Random);
    let policies = [
        ("CrowdLearn (CCMB)", crowdlearn),
        ("Fixed", &fixed),
        ("Random", &random),
    ];

    let rows: Vec<(&str, Vec<f64>, f64)> = policies
        .iter()
        .map(|&(name, report)| {
            let per_ctx = TemporalContext::ALL
                .iter()
                .map(|&c| report.mean_crowd_delay_in(c).unwrap_or(f64::NAN))
                .collect();
            (
                name,
                per_ctx,
                report.mean_crowd_delay_secs().unwrap_or(f64::NAN),
            )
        })
        .collect();

    println!(
        "{:<20} {:>9} {:>10} {:>9} {:>9} {:>9}",
        "Policy", "Morning", "Afternoon", "Evening", "Midnight", "Overall"
    );
    for (name, per_ctx, overall) in &rows {
        println!(
            "{:<20} {:>9.0} {:>10.0} {:>9.0} {:>9.0} {:>9.0}",
            name, per_ctx[0], per_ctx[1], per_ctx[2], per_ctx[3], overall
        );
    }

    let ccmb = rows[0].2;
    let fixed = rows[1].2;
    let random = rows[2].2;
    println!();
    println!(
        "Shape check: CCMB {ccmb:.0} s < fixed {fixed:.0} s and random {random:.0} s \
         (paper: 'IPD achieves the lowest delay with the least variations across contexts')"
    );
    assert!(
        ccmb < fixed && ccmb < random,
        "shape violation: CCMB must be fastest"
    );

    // CCMB should also have the least cross-context spread.
    let spread = |per: &Vec<f64>| {
        let max = per.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = per.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    };
    println!(
        "Cross-context spread: CCMB {:.0} s, fixed {:.0} s, random {:.0} s",
        spread(&rows[0].1),
        spread(&rows[1].1),
        spread(&rows[2].1)
    );
}

/// **Figure 9**: query-set size (0%..100% of each cycle) vs classification
/// F1 for CrowdLearn, Hybrid-AL, Hybrid-Para, and the Ensemble reference
/// line (the Table II Ensemble run: no crowd at all).
pub fn fig9(fixture: &Fixture, ensemble: &SchemeReport) {
    banner(
        "Figure 9: Size of Query Set vs. Classification Performance (macro F1)",
        "CrowdLearn grows with query size; Hybrid-AL/Para stay flat; 0% degrades to Ensemble",
    );

    let fractions: Vec<usize> = (0..=10).step_by(2).collect(); // images per cycle of 10
    let ensemble_f1 = ensemble.macro_f1();

    // Each sweep point is an independent seeded run over the shared
    // (immutable) fixture, so the parallel sweep reproduces the serial
    // loop's numbers exactly, in input order.
    let rows = ParallelSweep::auto().run(&fractions, |_, &q| {
        // At q = 0 the scaled budget is 0 too: CrowdLearn degrades to its
        // committee.
        let crowdlearn_f1 = fixture
            .run_crowdlearn(CrowdLearnConfig::paper().with_queries_per_cycle(q))
            .macro_f1();

        let hybrid_config = HybridConfig {
            queries_per_cycle: q,
            budget_cents: (200 * q.max(1)) as f64,
            horizon_queries: (40 * q.max(1)) as u64,
            ..HybridConfig::paper()
        };
        let al_f1 = if q == 0 {
            ensemble_f1
        } else {
            let mut al = HybridAl::new(Box::new(fixture.trained_ensemble(0)), hybrid_config);
            al.run(&fixture.dataset, &fixture.stream).macro_f1()
        };
        let para_f1 = if q == 0 {
            ensemble_f1
        } else {
            let mut para = HybridPara::new(Box::new(fixture.trained_ensemble(0)), hybrid_config);
            para.run(&fixture.dataset, &fixture.stream).macro_f1()
        };
        (crowdlearn_f1, al_f1, para_f1)
    });

    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "queries", "CrowdLearn", "Hybrid-AL", "Hybrid-Para", "Ensemble"
    );
    let mut crowdlearn_series = Vec::new();
    let mut al_series = Vec::new();
    let mut para_series = Vec::new();
    for (&q, &(crowdlearn_f1, al_f1, para_f1)) in fractions.iter().zip(&rows) {
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            format!("{}0%", q),
            crowdlearn_f1,
            al_f1,
            para_f1,
            ensemble_f1
        );
        crowdlearn_series.push(crowdlearn_f1);
        al_series.push(al_f1);
        para_series.push(para_f1);
    }

    let growth = crowdlearn_series.last().unwrap() - crowdlearn_series.first().unwrap();
    let al_growth = al_series.last().unwrap() - al_series.first().unwrap();
    let para_growth = para_series.last().unwrap() - para_series.first().unwrap();
    println!();
    println!(
        "Shape check: CrowdLearn grows {growth:+.3} from 0% to 100%; \
         Hybrid-AL {al_growth:+.3} and Hybrid-Para {para_growth:+.3} stay comparatively flat"
    );
    assert!(
        growth > 0.04,
        "CrowdLearn must improve substantially with queries"
    );
    assert!(
        growth > al_growth + 0.02 && growth > para_growth + 0.02,
        "shape violation: only CrowdLearn converts crowd labels into large gains"
    );
    assert!(
        (crowdlearn_series[0] - ensemble_f1).abs() < 0.05,
        "0% query set must degrade to Ensemble (paper §V-C3)"
    );
    assert!(
        crowdlearn_series.last().unwrap() > al_series.last().unwrap()
            && crowdlearn_series.last().unwrap() > para_series.last().unwrap(),
        "at 100% CrowdLearn's CQC must beat the baselines' majority voting"
    );
}

/// **Figure 10**: total crowd budget (2..40 USD) vs CrowdLearn's
/// classification F1 — rising sharply at low budgets, then plateauing.
pub fn fig10(sweep: &[SchemeReport]) {
    banner(
        "Figure 10: Budget vs. F1",
        "F1 poor at 2 USD, stable above ~6-8 USD (paper: +0.018 F1 from 8 to 40 USD)",
    );

    println!("{:<10} {:>8} {:>10}", "budget", "F1", "accuracy");
    for (&usd, report) in BUDGETS_USD.iter().zip(sweep) {
        println!(
            "{:<10} {:>8.3} {:>10.3}",
            format!("${usd:.0}"),
            report.macro_f1(),
            report.accuracy()
        );
    }

    let low = sweep[0].macro_f1();
    let knee = sweep[3].macro_f1(); // $8
    let high = sweep[6].macro_f1(); // $40
    println!();
    println!(
        "Shape check: $2 -> {low:.3}, $8 -> {knee:.3}, $40 -> {high:.3}; \
         plateau delta {:+.3} (paper reports +0.018 from $8 to $40)",
        high - knee
    );
    assert!(knee > low, "more budget must help below the knee");
    assert!(
        (high - knee).abs() < 0.03,
        "shape violation: F1 must plateau above a reasonable budget"
    );
}

/// **Figure 11**: total crowd budget (2..40 USD) vs CrowdLearn's crowd
/// response delay — falling sharply, then plateauing.
pub fn fig11(sweep: &[SchemeReport]) {
    banner(
        "Figure 11: Budget vs. Crowd Delay",
        "delay high at 2 USD, falls with budget, plateaus once the bandit can afford fast incentives",
    );

    let series: Vec<f64> = sweep
        .iter()
        .map(|report| report.mean_crowd_delay_secs().unwrap_or(f64::NAN))
        .collect();
    println!("{:<10} {:>14}", "budget", "crowd delay(s)");
    for (&usd, &delay) in BUDGETS_USD.iter().zip(&series) {
        println!("{:<10} {:>14.0}", format!("${usd:.0}"), delay);
    }

    let low_budget = series[0];
    let knee = series[4]; // $10
    let high_budget = series[6]; // $40
    println!();
    println!(
        "Shape check: $2 -> {low_budget:.0} s, $10 -> {knee:.0} s, $40 -> {high_budget:.0} s \
         (paper: delay falls then stabilizes above ~$6-8)"
    );
    assert!(
        low_budget > knee,
        "shape violation: delay must fall as the budget grows"
    );
    assert!(
        high_budget <= knee * 1.05,
        "shape violation: delay must not rise again at high budgets"
    );
}
