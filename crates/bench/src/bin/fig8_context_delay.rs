//! Regenerates **Figure 8**: crowd delay at different temporal contexts for
//! the CCMB incentive policy vs the fixed-maximum and random baselines.

#![forbid(unsafe_code)]

use crowdlearn::{CrowdLearnConfig, IncentivePolicyKind};
use crowdlearn_bench::{banner, Fixture};
use crowdlearn_dataset::TemporalContext;
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};

fn main() {
    banner(
        "Figure 8: Crowd Delay at Different Temporal Contexts",
        "CCMB (CrowdLearn) lowest with least variation; fixed and random higher everywhere",
    );

    let fixture = Fixture::paper_default();
    let policies = [
        ("CrowdLearn (CCMB)", IncentivePolicyKind::UcbAlp),
        ("Fixed", IncentivePolicyKind::FixedMax),
        ("Random", IncentivePolicyKind::Random),
    ];

    let mut rows = Vec::new();
    for (name, kind) in policies {
        let mut system = PipelinedSystem::new(
            &fixture.dataset,
            CrowdLearnConfig::paper().with_policy(kind),
            RuntimeConfig::sequential(),
        );
        let report = system.run(&fixture.dataset, &fixture.stream).report;
        let per_ctx: Vec<f64> = TemporalContext::ALL
            .iter()
            .map(|&c| report.mean_crowd_delay_in(c).unwrap_or(f64::NAN))
            .collect();
        rows.push((
            name,
            per_ctx,
            report.mean_crowd_delay_secs().unwrap_or(f64::NAN),
        ));
    }

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
