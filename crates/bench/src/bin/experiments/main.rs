//! Regenerates every table and figure of the paper's evaluation (Section V),
//! the pilot-study figures (Section IV-B), the ablations, the four-seed
//! calibration and the event-runtime sections (pipelining, fleet
//! contention, adaptive window, outage degradation), in EXPERIMENTS.md
//! order.
//!
//! Each section prints its measured values next to the paper's and
//! `assert!`s the paper's shape claims, so a violated claim exits non-zero.
//! The work several sections share runs once: the paper fixture, the seven
//! Table II schemes, the Figures 10-11 budget sweep and the tapped window-4
//! runtime run. A section whose own configuration equals a shared run's
//! prints that run instead of repeating it (the
//! `reused_runs_have_the_shared_configuration` test pins each such pair). The output is deterministic and committed as
//! `crates/bench/experiments.txt`; CI diffs a fresh run against it.

#![forbid(unsafe_code)]

mod ablations;
mod figures;
mod pilot;
mod runtime;
mod tables;

use crowdlearn::{CrowdLearnConfig, SchemeReport};
use crowdlearn_bench::Fixture;
use crowdlearn_runtime::ParallelSweep;

/// The Figures 10-11 budget sweep, in USD.
const BUDGETS_USD: [f64; 7] = [2.0, 4.0, 6.0, 8.0, 10.0, 20.0, 40.0];

/// The sweep point whose configuration is `CrowdLearnConfig::paper()` ($10).
const PAPER_BUDGET_POINT: usize = 4;

/// The Table II row of the boosted Ensemble, the AI-only baseline.
const ENSEMBLE_ROW: usize = 4;

fn main() {
    let fixture = Fixture::paper_default();
    let schemes = fixture.run_all_schemes();
    let crowdlearn = &schemes[0];
    let sweep = budget_sweep(&fixture, crowdlearn);

    tables::table1(&fixture);
    tables::table2(&schemes);
    tables::table3(&schemes);
    pilot::fig5(&fixture);
    pilot::fig6(&fixture);
    figures::fig7(&schemes);
    figures::fig8(&fixture, crowdlearn);
    figures::fig9(&fixture, &schemes[ENSEMBLE_ROW]);
    figures::fig10(&sweep);
    figures::fig11(&sweep);
    ablations::ablations(&fixture, crowdlearn);
    ablations::drift();
    ablations::churn(&fixture);
    ablations::policies(&fixture);
    tables::calibrate(&schemes);
    let paper_runtime = runtime::makespan(&fixture);
    runtime::fleet();
    runtime::adaptive(&fixture);
    runtime::faults(&fixture, &paper_runtime, &schemes[ENSEMBLE_ROW]);
}

/// Runs CrowdLearn at every budget of [`BUDGETS_USD`], one independent
/// seeded run per point across the available cores (results land in input
/// order). The paper-budget point is the Table II run itself.
fn budget_sweep(fixture: &Fixture, crowdlearn: &SchemeReport) -> Vec<SchemeReport> {
    ParallelSweep::auto().run(&BUDGETS_USD, |i, &usd| {
        if i == PAPER_BUDGET_POINT {
            crowdlearn.clone()
        } else {
            fixture.run_crowdlearn(CrowdLearnConfig::paper().with_budget_cents(usd * 100.0))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdlearn::IncentivePolicyKind;
    use crowdlearn_bench::paper_reference;
    use crowdlearn_runtime::RuntimeConfig;

    /// The $10 sweep point and Figure 8's CCMB row print the Table II
    /// CrowdLearn run; both must ask for exactly its configuration. The
    /// makespan section's window-4 row and the faults section's fault-free
    /// run are one run, and the faults section's AI-only floor is the
    /// Table II Ensemble row.
    #[test]
    fn reused_runs_have_the_shared_configuration() {
        let paper = CrowdLearnConfig::paper();
        assert_eq!(
            CrowdLearnConfig::paper().with_budget_cents(BUDGETS_USD[PAPER_BUDGET_POINT] * 100.0),
            paper
        );
        assert_eq!(
            CrowdLearnConfig::paper().with_policy(IncentivePolicyKind::UcbAlp),
            paper
        );
        assert_eq!(
            RuntimeConfig::paper(),
            RuntimeConfig::paper().with_inflight_window(4)
        );
        assert_eq!(paper_reference::SCHEMES[ENSEMBLE_ROW], "Ensemble");
    }
}
