//! Regenerates **Figure 9**: query-set size (0%..100% of each cycle) vs
//! classification F1 for CrowdLearn, Hybrid-AL, Hybrid-Para, and the
//! Ensemble reference line.

#![forbid(unsafe_code)]

use crowdlearn::baselines::{run_ai_only, HybridAl, HybridConfig, HybridPara};
use crowdlearn::CrowdLearnConfig;
use crowdlearn_bench::{banner, Fixture};
use crowdlearn_runtime::{ParallelSweep, PipelinedSystem, RuntimeConfig};

fn main() {
    banner(
        "Figure 9: Size of Query Set vs. Classification Performance (macro F1)",
        "CrowdLearn grows with query size; Hybrid-AL/Para stay flat; 0% degrades to Ensemble",
    );

    let fixture = Fixture::paper_default();
    let fractions: Vec<usize> = (0..=10).step_by(2).collect(); // images per cycle of 10

    // Ensemble reference (no crowd at all).
    let mut ensemble = fixture.trained_ensemble(0);
    let ensemble_f1 = run_ai_only(&mut ensemble, &fixture.dataset, &fixture.stream).macro_f1();

    // Each sweep point is an independent seeded run over the shared
    // (immutable) fixture, so the parallel sweep reproduces the serial
    // loop's numbers exactly, in input order.
    let rows = ParallelSweep::auto().run(&fractions, |_, &q| {
        // At q = 0 the scaled budget is 0 too: CrowdLearn degrades to its
        // committee.
        let mut system = PipelinedSystem::new(
            &fixture.dataset,
            CrowdLearnConfig::paper().with_queries_per_cycle(q),
            RuntimeConfig::sequential(),
        );
        let crowdlearn_f1 = system
            .run(&fixture.dataset, &fixture.stream)
            .report
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
