//! Virtual-time makespan of the paper's 40-cycle run under the event-driven
//! runtime at increasing in-flight windows — window 1 being the paper's
//! blocking loop (every crowd answer awaited serially) and the sequential
//! baseline — plus the wall-clock overhead of the streaming metrics tap.
//!
//! Makespans are *virtual* seconds from the deterministic simulation — the
//! point is how much of the crowd latency the pipeline hides. Wall-clock
//! times are real (this crate is the D2 exemption) and feed
//! `BENCH_runtime.json` so CI tracks simulator throughput and tap overhead
//! run over run.

#![forbid(unsafe_code)]

use crowdlearn::CrowdLearnConfig;
use crowdlearn_bench::{banner, Fixture};
use crowdlearn_runtime::{MetricsTap, PipelinedSystem, RuntimeConfig, RuntimeReport};
use std::time::Instant;

/// One measured pipelined run: wall clock covers the event loop only (the
/// system boot is identical across windows and not what the bench tracks).
// The bench crate is the detlint D2 exemption: timing harnesses read the
// wall clock by design. clippy.toml mirrors D2 workspace-wide, so the
// exemption is restated here.
#[allow(clippy::disallowed_methods)]
fn timed_run(fixture: &Fixture, window: usize, tap: bool) -> (RuntimeReport, f64) {
    let mut system = PipelinedSystem::new(
        &fixture.dataset,
        CrowdLearnConfig::paper(),
        RuntimeConfig::paper().with_inflight_window(window),
    );
    if tap {
        system.attach_metrics_tap(MetricsTap::new());
    }
    let started = Instant::now();
    let run = system.run(&fixture.dataset, &fixture.stream);
    (run, started.elapsed().as_secs_f64())
}

fn main() {
    banner(
        "Pipelined runtime: virtual-time makespan, sequential vs pipelined",
        "cycle period 600 s; crowd waits overlap later cycles' inference and selection",
    );

    let fixture = Fixture::paper_default();

    let measured: Vec<(usize, RuntimeReport, f64)> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|window| {
            let (run, wall_secs) = timed_run(&fixture, window, false);
            (window, run, wall_secs)
        })
        .collect();
    // Window 1 is the blocking loop: each cycle waits for its predecessor
    // and serializes every crowd wait (`tests/golden.rs` pins it against a
    // stage-by-stage reference loop and its analytic makespan).
    let sequential = measured[0].1.makespan_secs;
    println!(
        "sequential (blocking loop): {:>9.0} s  (speedup 1.00x)",
        sequential
    );

    println!(
        "{:<28} {:>11} {:>9} {:>13} {:>8} {:>9}",
        "runtime", "makespan(s)", "speedup", "peak cycles", "events", "wall(ms)"
    );
    for (window, run, wall_secs) in &measured {
        println!(
            "{:<28} {:>11.0} {:>8.2}x {:>13} {:>8} {:>9.1}",
            format!("pipelined (window {window})"),
            run.makespan_secs,
            sequential / run.makespan_secs,
            run.peak_cycles_in_flight,
            run.events_processed,
            wall_secs * 1e3
        );
    }

    // Tap overhead: the same window-4 run with a streaming metrics tap
    // attached. The simulation must be bit-identical (the tap observes, it
    // never steers), and the wall-clock cost of feeding it should be noise.
    let (untapped_run, untapped_wall) = timed_run(&fixture, 4, false);
    let (tapped_run, tapped_wall) = timed_run(&fixture, 4, true);
    assert_eq!(
        tapped_run.outcomes, untapped_run.outcomes,
        "attaching a tap must not perturb the simulation"
    );
    let tap = tapped_run
        .metrics
        .as_ref()
        .expect("tapped run returns its tap");
    println!(
        "\ntap overhead (window 4): untapped {:.1} ms, tapped {:.1} ms \
         ({} records, p50 crowd delay {:.0} s)",
        untapped_wall * 1e3,
        tapped_wall * 1e3,
        tap.records(),
        tap.crowd_delay().median().unwrap_or(f64::NAN),
    );

    // Machine-readable summary for CI trend tracking. Wall-clock numbers
    // are recorded, not asserted — they flake with machine load; the
    // virtual-time shape checks below are the hard gates.
    let mut json = String::from("{\n  \"bench\": \"makespan\",\n");
    json.push_str(&format!(
        "  \"sequential_makespan_secs\": {sequential:.3},\n  \"windows\": [\n"
    ));
    for (i, (window, run, wall_secs)) in measured.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"window\": {window}, \"makespan_secs\": {:.3}, \"speedup\": {:.4}, \
             \"events\": {}, \"wall_ms\": {:.3}}}{}\n",
            run.makespan_secs,
            sequential / run.makespan_secs,
            run.events_processed,
            wall_secs * 1e3,
            if i + 1 < measured.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"tap_overhead\": {{\"window\": 4, \"untapped_wall_ms\": {:.3}, \
         \"tapped_wall_ms\": {:.3}, \"records\": {}}}\n}}\n",
        untapped_wall * 1e3,
        tapped_wall * 1e3,
        tap.records()
    ));
    std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
    println!("wrote BENCH_runtime.json");

    println!();
    println!(
        "Shape check: window 1 reproduces the blocking makespan ({sequential:.0} s), \
         wider windows hide crowd latency behind later cycles"
    );
    // Acceptance: the pipeline must beat the sequential system.
    for (window, run, _) in &measured[1..] {
        assert!(
            run.makespan_secs < sequential,
            "window-{window} makespan {} must beat sequential {sequential}",
            run.makespan_secs
        );
    }
}
