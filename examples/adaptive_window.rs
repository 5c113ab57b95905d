//! Adaptive in-flight window: watch the controller re-bet the pipeline
//! window live, next to the streamed delay quantiles it is acting on.
//!
//! ```text
//! cargo run --release --example adaptive_window
//! ```
//!
//! The crowd here is bimodal: morning/afternoon HITs take ~40 minutes,
//! evening/midnight HITs ~1 minute, and contexts rotate cycle by cycle.
//! A static window is the wrong bet half the day. With
//! `WindowPolicy::Adaptive` the driver consults the metrics tap at every
//! cycle close — no wall clock, no RNG — widening when the watched delay
//! percentile blows past the sensing cadence with cycles queued, and
//! narrowing back once fast contexts pull the percentile down and the
//! backlog drains.

use crowdlearn::{CrowdLearnConfig, CrowdLearnSystem};
use crowdlearn_crowd::{DelayModel, IncentiveLevel, Platform, PlatformConfig};
use crowdlearn_dataset::TemporalContext;
use crowdlearn_runtime::{PipelinedSystem, RunBound, RuntimeConfig, WindowPolicy};
use crowdlearn_suite::scenarios;

fn main() {
    let (dataset, stream) = scenarios::demo(7);

    // Bimodal diurnal crowd: slow days, fast nights.
    let delays = DelayModel::from_table(
        [
            [2400.0; IncentiveLevel::COUNT],
            [2400.0; IncentiveLevel::COUNT],
            [60.0; IncentiveLevel::COUNT],
            [60.0; IncentiveLevel::COUNT],
        ],
        0.15,
    );
    let platform = PlatformConfig::paper().with_delay_model(delays);

    let policy = WindowPolicy::adaptive(1, 6);
    println!("policy: {policy:?}\n");

    let system = CrowdLearnSystem::with_platform(
        &dataset,
        CrowdLearnConfig::paper(),
        Platform::new(platform),
    );
    let mut system =
        PipelinedSystem::from_system(system, RuntimeConfig::paper().with_window_policy(policy));

    // Drive the run in slices, polling the controller between them. The
    // adaptive policy auto-attaches a tap at start, so the quantiles it
    // watches are also ours to read.
    println!("    events |  virtual s | window | decision | p50 delay | p90 delay | in-flight");
    println!("   --------+------------+--------+----------+-----------+-----------+----------");
    let mut report = None;
    while report.is_none() {
        report = system.run_until(&dataset, &stream, RunBound::Events(40));
        let tap = system
            .metrics_tap()
            .or_else(|| report.as_ref().and_then(|r| r.metrics.as_ref()))
            .expect("adaptive runs attach a tap at start");
        let fmt_q = |q: f64| match tap.crowd_delay().quantile(q) {
            Some(v) => format!("{v:7.0} s"),
            None => "      — ".to_string(),
        };
        println!(
            "   {:7} | {:8.0} s | {:6} | {:>8} | {} | {} | {:9}",
            tap.records(),
            tap.last_at_secs(),
            system
                .effective_window()
                .map(|w| w.to_string())
                .unwrap_or_else(|| "—".to_string()),
            system
                .last_window_decision()
                .map(|d| format!("{d:?}"))
                .unwrap_or_else(|| "—".to_string()),
            fmt_q(0.5),
            fmt_q(0.9),
            tap.hits_in_flight(),
        );
    }
    let report = report.expect("loop exits with the report");

    // One trajectory entry per cycle close: the controller's full history.
    println!("\nwindow trajectory (one entry per cycle close):");
    println!("   {:?}", report.window_trajectory);
    let peak = report.window_trajectory.iter().max().copied().unwrap_or(0);
    println!(
        "\nmakespan {:.0} virtual s over {} cycles; window peaked at {peak}",
        report.makespan_secs,
        report.window_trajectory.len(),
    );

    let tap = report.metrics.as_ref().expect("tap rides the report");
    println!("\ncrowd delay by temporal context (what the controller saw):");
    for context in TemporalContext::ALL {
        let sketch = tap.crowd_delay_in(context);
        match sketch.quantile(0.9) {
            Some(p90) => println!("   {context:?}: n={}, p90 {p90:.0} s", sketch.len()),
            None => println!("   {context:?}: no queries"),
        }
    }

    // The trajectory covers every cycle and the controller really moved.
    assert_eq!(report.window_trajectory.len(), stream.cycles().len());
    assert!(peak > 1, "the bimodal crowd must drive the window open");
    println!("\ncontroller moved and the trajectory covers every cycle ✓");
}
