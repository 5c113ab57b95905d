//! Streaming metrics tap: watch the pipelined runtime live, between
//! `run_until` slices, and render a text dashboard from the tap's rolling
//! state and the run's crowd delays.
//!
//! ```text
//! cargo run --release --example metrics_tap
//! ```
//!
//! The end-of-run `RuntimeReport` shows delay and spend only after the
//! fact. The tap streams the same quantities *during* the run: the driver
//! feeds it one record per event-boundary transition, and the tap folds
//! them into counters, spend pacing against the budget ledger, and
//! occupancy gauges — all deterministic, all O(1) memory, and all carried
//! inside runtime snapshots. The crowd-delay quantiles are the run's own:
//! `PipelinedSystem::crowd_delay` live, the report's `query_delay` after.

use crowdlearn::CrowdLearnConfig;
use crowdlearn_dataset::TemporalContext;
use crowdlearn_runtime::{MetricsTap, PipelinedSystem, RunBound};
use crowdlearn_suite::scenarios;

fn main() {
    let (dataset, stream) = scenarios::demo(7);
    let runtime = scenarios::demo_runtime();

    let mut system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), runtime);
    system.attach_metrics_tap(MetricsTap::new());

    // Drive the run in slices, polling the tap between them — exactly what
    // a live dashboard (or an adaptive-window controller) would do.
    println!("    events |  virtual s | win | in-flight | p50 delay | p90 delay |  spent");
    println!("   --------+------------+-----+-----------+-----------+-----------+-------");
    let mut report = None;
    while report.is_none() {
        report = system.run_until(&dataset, &stream, RunBound::Events(40));
        let tap = system
            .metrics_tap()
            .or_else(|| report.as_ref().and_then(|r| r.metrics.as_ref()))
            .expect("tap attached for the whole run");
        let delay = system
            .crowd_delay()
            .or_else(|| report.as_ref().map(|r| r.report.query_delay.clone()))
            .expect("a running or finished execution");
        let fmt_q = |q: f64| match delay.quantile(q) {
            Some(v) => format!("{v:7.0} s"),
            None => "      — ".to_string(),
        };
        println!(
            "   {:7} | {:8.0} s | {:3} | {:9} | {} | {} | {:4} ¢",
            tap.records(),
            tap.last_at_secs(),
            tap.window_occupancy(),
            tap.hits_in_flight(),
            fmt_q(0.5),
            fmt_q(0.9),
            tap.spent_cents(),
        );
    }
    let report = report.expect("loop exits with the report");
    let tap = report.metrics.as_ref().expect("tap rides the report");

    // End-of-run dashboard: the run's crowd delays, per temporal context.
    println!("\ncrowd delay by temporal context (exact quantiles):");
    for context in TemporalContext::ALL {
        let delay = report.crowd_delay_in(context);
        match (delay.quantile(0.5), delay.quantile(0.9)) {
            (Some(p50), Some(p90)) => println!(
                "   {context:?}: n={}, p50 {p50:.0} s, p90 {p90:.0} s",
                delay.len()
            ),
            _ => println!("   {context:?}: no queries"),
        }
    }
    println!(
        "\nspend: {} ¢ over {:.0} virtual s ({:.1} ¢/h), budget left {:.0} ¢",
        tap.spent_cents(),
        tap.last_at_secs(),
        tap.spend_rate_cents_per_hour().unwrap_or(0.0),
        tap.remaining_budget_cents().unwrap_or(f64::NAN),
    );
    println!(
        "peaks: window {} cycles, {} HITs in flight, queue depth {}",
        tap.peak_window_occupancy(),
        tap.peak_hits_in_flight(),
        tap.peak_queue_depth(),
    );

    // The streamed view and the end-of-run report agree exactly.
    assert_eq!(tap.spent_cents(), report.report.spent_cents);
    assert_eq!(tap.hits_timed_out(), report.timeouts);
    assert_eq!(
        tap.hits_answered() + tap.late_answers(),
        report.report.query_delay.len() as u64
    );
    println!("\nstreamed totals match the end-of-run report ✓");
}
