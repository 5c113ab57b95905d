//! Regenerates **Figure 11**: total crowd budget (2..40 USD) vs CrowdLearn's
//! crowd response delay — falling sharply, then plateauing.

#![forbid(unsafe_code)]

use crowdlearn::CrowdLearnConfig;
use crowdlearn_bench::{banner, Fixture};
use crowdlearn_runtime::{ParallelSweep, PipelinedSystem, RuntimeConfig};

fn main() {
    banner(
        "Figure 11: Budget vs. Crowd Delay",
        "delay high at 2 USD, falls with budget, plateaus once the bandit can afford fast incentives",
    );

    let fixture = Fixture::paper_default();
    let budgets_usd = [2.0, 4.0, 6.0, 8.0, 10.0, 20.0, 40.0];

    // One independent seeded run per budget point, executed across the
    // available cores; results land in input order with the serial numbers.
    let series = ParallelSweep::auto().run(&budgets_usd, |_, &usd| {
        let mut system = PipelinedSystem::new(
            &fixture.dataset,
            CrowdLearnConfig::paper().with_budget_cents(usd * 100.0),
            RuntimeConfig::sequential(),
        );
        let report = system.run(&fixture.dataset, &fixture.stream).report;
        report.mean_crowd_delay_secs().unwrap_or(f64::NAN)
    });

    println!("{:<10} {:>14}", "budget", "crowd delay(s)");
    for (&usd, &delay) in budgets_usd.iter().zip(&series) {
        println!("{:<10} {:>14.0}", format!("${usd:.0}"), delay);
    }

    let low_budget = series[0];
    let knee = series[4]; // $10
    let high_budget = *series.last().unwrap();
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
