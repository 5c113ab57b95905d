//! Regenerates **Figure 10**: total crowd budget (2..40 USD) vs CrowdLearn's
//! classification F1 — rising sharply at low budgets, then plateauing.

#![forbid(unsafe_code)]

use crowdlearn::CrowdLearnConfig;
use crowdlearn_bench::{banner, Fixture};
use crowdlearn_runtime::{ParallelSweep, PipelinedSystem, RuntimeConfig};

fn main() {
    banner(
        "Figure 10: Budget vs. F1",
        "F1 poor at 2 USD, stable above ~6-8 USD (paper: +0.018 F1 from 8 to 40 USD)",
    );

    let fixture = Fixture::paper_default();
    let budgets_usd = [2.0, 4.0, 6.0, 8.0, 10.0, 20.0, 40.0];

    // One independent seeded run per budget point, executed across the
    // available cores; results land in input order with the serial numbers.
    let rows = ParallelSweep::auto().run(&budgets_usd, |_, &usd| {
        let mut system = PipelinedSystem::new(
            &fixture.dataset,
            CrowdLearnConfig::paper().with_budget_cents(usd * 100.0),
            RuntimeConfig::sequential(),
        );
        let report = system.run(&fixture.dataset, &fixture.stream).report;
        (report.macro_f1(), report.accuracy())
    });

    println!("{:<10} {:>8} {:>10}", "budget", "F1", "accuracy");
    let mut series = Vec::new();
    for (&usd, &(f1, accuracy)) in budgets_usd.iter().zip(&rows) {
        println!(
            "{:<10} {:>8.3} {:>10.3}",
            format!("${usd:.0}"),
            f1,
            accuracy
        );
        series.push(f1);
    }

    let low = series[0];
    let knee = series[3]; // $8
    let high = *series.last().unwrap(); // $40
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
