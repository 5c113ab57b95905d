//! One-shot summary: runs the core evaluation workloads in-process and
//! prints a compact paper-vs-measured digest. For the full per-experiment
//! output (and the shape assertions), run the dedicated binaries listed in
//! EXPERIMENTS.md.

#![forbid(unsafe_code)]

use crowdlearn::CrowdLearnConfig;
use crowdlearn_bench::{banner, paper_reference, Fixture};
use crowdlearn_crowd::{PilotConfig, PilotStudy, Platform, PlatformConfig};
use crowdlearn_dataset::SyntheticImage;
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};

fn main() {
    banner(
        "CrowdLearn reproduction digest",
        "headline numbers from every evaluation axis; see EXPERIMENTS.md for details",
    );

    let fixture = Fixture::paper_default();

    // Tables II / III.
    println!("Running the seven Table II/III schemes...");
    let reports = fixture.run_all_schemes();
    println!();
    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>12} {:>8}",
        "Scheme", "acc", "F1", "AUC", "alg delay", "crowd"
    );
    for (report, (name, (paper_acc, _, _, _))) in reports.iter().zip(
        paper_reference::SCHEMES
            .iter()
            .zip(paper_reference::TABLE2.iter()),
    ) {
        println!(
            "{:<12} {:>8.3} {:>8.3} {:>10.3} {:>10.1} s {:>8}",
            name,
            report.accuracy(),
            report.macro_f1(),
            report.roc().auc(),
            report.mean_algorithm_delay_secs(),
            report
                .mean_crowd_delay_secs()
                .map(|d| format!("{d:.0} s"))
                .unwrap_or_else(|| "-".into()),
        );
        let _ = paper_acc;
    }

    // Pilot study (Figures 5-6).
    println!();
    println!("Pilot study (Figures 5-6):");
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(0xd16e57));
    let images: Vec<&SyntheticImage> = fixture.dataset.train().iter().take(80).collect();
    let pilot = PilotStudy::new(PilotConfig::paper()).run(&mut platform, &images);
    let quality = pilot.quality_by_incentive();
    println!(
        "  morning delay 1c -> 20c: {:.0} s -> {:.0} s; quality plateau ~{:.2}",
        pilot.delay_table()[0][0],
        pilot.delay_table()[0][6],
        quality[3..].iter().sum::<f64>() / 4.0
    );

    // Budget sweep endpoints (Figures 10-11).
    println!();
    println!("Budget sweep endpoints (Figures 10-11):");
    for usd in [2.0, 10.0, 40.0] {
        let mut system = PipelinedSystem::new(
            &fixture.dataset,
            CrowdLearnConfig::paper().with_budget_cents(usd * 100.0),
            RuntimeConfig::sequential(),
        );
        let report = system.run(&fixture.dataset, &fixture.stream).report;
        println!(
            "  ${usd:>4.0}: F1 {:.3}, crowd delay {:>5.0} s",
            report.macro_f1(),
            report.mean_crowd_delay_secs().unwrap_or(f64::NAN)
        );
    }

    // The headline claims.
    let crowdlearn = &reports[0];
    let best_baseline_f1 = reports[1..]
        .iter()
        .map(|r| r.macro_f1())
        .fold(f64::NEG_INFINITY, f64::max);
    let hybrid_delay = 0.5
        * (reports[5].mean_crowd_delay_secs().unwrap_or(f64::NAN)
            + reports[6].mean_crowd_delay_secs().unwrap_or(f64::NAN));
    println!();
    println!("Headline claims:");
    println!(
        "  CrowdLearn leads Table II by {:+.1}% F1 (paper +5.3%)",
        100.0 * (crowdlearn.macro_f1() - best_baseline_f1) / best_baseline_f1
    );
    println!(
        "  adaptive incentives cut crowd delay by {:.0}% vs fixed hybrids (paper ~35%)",
        100.0 * (1.0 - crowdlearn.mean_crowd_delay_secs().unwrap_or(f64::NAN) / hybrid_delay)
    );
}
