//! The traced run: per-layer metrics from spans recorded around calls
//! into each crate's public functions.

use crate::checks::{self, restore_primary};
use crate::e2e::Setup;
use crate::layers::{
    boot_parts, call_costs, decode_system, stage_replay, system_state, BootParts, Query,
};
use crate::out::{Metrics, Ops};
use crate::probe::{StepKind, TapCounters};
use crate::stats::{mean, quantile};
use crate::trace::{durations_by_name, now, root_secs, secs_since, uncovered_secs, Tracer};
use crate::workload::{Booted, Inputs, Report, Workload};
use crowdlearn_runtime::{PipelinedSystem, RunBound, RuntimeConfig, RuntimeSnapshot};
use std::collections::BTreeMap;

/// Most repetitions of one traced phase, bounding the spans kept.
const MAX_REPS: usize = 50;

/// Directory, relative to the working directory, the spans are written to.
const TRACE_DIR: &str = ".bench_trace";

/// Step durations, in seconds, by what each step did.
#[derive(Default)]
struct Steps {
    all: Vec<f64>,
    by_kind: BTreeMap<StepKind, Vec<f64>>,
}

/// Repeats `f` until `secs` pass, at least once and at most
/// [`MAX_REPS`] times, each repetition under a fresh run id.
fn repeat(t: &mut Tracer, secs: f64, mut f: impl FnMut(&mut Tracer)) {
    let started = now();
    let mut n = 0;
    while n == 0 || (n < MAX_REPS && secs_since(started) < secs) {
        t.next_run();
        f(t);
        n += 1;
    }
}

/// Restores a booted copy inside a `harness.restore` span.
fn restore(t: &mut Tracer, fleet: bool, bytes: &[u8], inputs: &Inputs) -> Booted {
    t.span("harness.restore", || {
        Booted::from_bytes(fleet, bytes, inputs)
    })
}

/// Runs `booted` to completion one step at a time, a span around each
/// step. Single systems classify each step by its tap-counter deltas and,
/// given `drill`, checkpoint through bytes every `drill` events with a
/// span around each codec call.
fn stepped_run(
    t: &mut Tracer,
    booted: Booted,
    inputs: &Inputs,
    drill: Option<u64>,
    steps: &mut Steps,
) -> Report {
    match booted {
        Booted::Single(mut sys) => {
            let (d, s) = (&inputs.datasets[0], &inputs.streams[0]);
            t.begin("runtime.run");
            let mut since_checkpoint = 0;
            loop {
                let before = sys.metrics_tap().map(TapCounters::read);
                t.begin("runtime.step");
                let more = sys.step(d, s);
                let secs = t.end();
                if !more {
                    break;
                }
                let after = sys.metrics_tap().map(TapCounters::read);
                let kind = match (before, after) {
                    (Some(b), Some(a)) => StepKind::classify(&b, &a),
                    _ => StepKind::Other,
                };
                steps.all.push(secs);
                steps.by_kind.entry(kind).or_default().push(secs);
                since_checkpoint += 1;
                if drill == Some(since_checkpoint) {
                    since_checkpoint = 0;
                    let snap = t.span("snapshot.encode", || sys.snapshot().expect("snapshots"));
                    let bytes = t.span("snapshot.to_bytes", || snap.to_bytes());
                    let snap = t.span("snapshot.from_bytes", || {
                        RuntimeSnapshot::from_bytes(&bytes).expect("frame validates")
                    });
                    sys = t.span("snapshot.resume", || {
                        Box::new(PipelinedSystem::resume(&snap, s).expect("resumes"))
                    });
                }
            }
            let report = sys.run_until(d, s, RunBound::Events(u64::MAX));
            t.end();
            Report::Single(Box::new(report.expect("a drained run reports")))
        }
        Booted::Fleet(mut fleet) => {
            t.begin("fleet.run");
            loop {
                t.begin("fleet.step");
                let more = fleet.step(&inputs.datasets, &inputs.streams);
                let secs = t.end();
                if !more {
                    break;
                }
                steps.all.push(secs);
            }
            let report = fleet.run_until(&inputs.datasets, &inputs.streams, RunBound::Events(0));
            t.end();
            Report::Fleet(report.expect("a drained fleet reports"))
        }
    }
}

/// The four core stages, in call order.
const STAGES: [&str; 4] = [
    "start_cycle",
    "post_next_query",
    "absorb_answer",
    "finalize_cycle",
];

fn us(v: &[f64], q: f64) -> f64 {
    quantile(v, q).map_or(f64::NAN, |x| x * 1e6)
}

/// Measures every per-layer metric of `workload` for about `seconds`.
pub fn measure(workload: Workload, seed: u64, seconds: f64, ops: &mut Ops) -> Metrics {
    let mut t = Tracer::new();
    let fleet_workload = workload == Workload::FleetContended;

    // Set-up, once, then the boot rebuilt part by part.
    t.begin("setup");
    let inputs = t.span("dataset.generate", || Inputs::generate(workload, seed));
    let booted = t.span("core.boot", || Booted::boot(workload, &inputs));
    let setup = t.span("harness.snapshot", || Setup {
        image: booted.to_bytes(),
        fleet: booted.is_fleet(),
        primary: checks::primary_bytes(&booted),
        inputs,
    });
    drop(booted);
    t.end();
    let inputs = &setup.inputs;
    let shard0 = inputs.first_shard();
    let mut parts: Option<BootParts> = None;
    for dataset in &inputs.datasets {
        let p = boot_parts(dataset, &mut t);
        parts.get_or_insert(p);
    }

    t.begin("checks");
    let (primary_report, fleet1_bytes) = checks::run_all(&setup.primary, inputs, ops);
    let reference = ops.run("reference run", || setup.restore().run(inputs));
    let fleet1_report = ops.run("one-shard fleet run", || {
        Booted::from_bytes(true, &fleet1_bytes, &shard0).run(&shard0)
    });
    t.end();
    let (Some(reference), Some(primary_report), Some(fleet1_report)) =
        (reference, primary_report, fleet1_report)
    else {
        return Metrics::default();
    };
    let fingerprint = reference.fingerprint();
    let drill = workload.drill_interval(reference.events());

    // The workload's own run, traced step by step, alternating with the
    // same run untraced: their difference is the tracing overhead.
    let mut run_steps = Steps::default();
    let (mut traced_secs, mut untraced_secs) = (Vec::new(), Vec::new());
    repeat(&mut t, seconds * 0.35, |t| {
        let booted = restore(t, setup.fleet, &setup.image, inputs);
        let started = now();
        let report = stepped_run(t, booted, inputs, drill, &mut run_steps);
        traced_secs.push(secs_since(started));
        ops.check("traced run equals the untraced run", || {
            report.fingerprint() == fingerprint
        });
        let booted = restore(t, setup.fleet, &setup.image, inputs);
        t.begin("harness.untraced_run");
        let started = now();
        let report = booted.run_workload(inputs, drill);
        untraced_secs.push(secs_since(started));
        t.end();
        ops.check("repetition equals the first run", || {
            report.fingerprint() == fingerprint
        });
    });

    // Runtime steps of the primary system (shard 0 of a fleet, run alone).
    let mut primary_steps = Steps::default();
    if fleet_workload {
        repeat(&mut t, seconds * 0.1, |t| {
            let booted = Booted::Single(t.span("harness.restore", || {
                Box::new(restore_primary(&setup.primary, &shard0))
            }));
            stepped_run(t, booted, &shard0, None, &mut primary_steps);
        });
    } else {
        primary_steps = std::mem::take(&mut run_steps);
    }

    // Fleet steps: the workload's fleet, and a one-shard fleet on shard 0.
    let mut fleet1_steps = Steps::default();
    repeat(&mut t, seconds * 0.1, |t| {
        let booted = restore(t, true, &fleet1_bytes, &shard0);
        stepped_run(t, booted, &shard0, None, &mut fleet1_steps);
    });
    let (fleet_steps, fleet_report) = if fleet_workload {
        (run_steps, &reference)
    } else {
        (
            Steps {
                all: fleet1_steps.all.clone(),
                by_kind: BTreeMap::new(),
            },
            &fleet1_report,
        )
    };

    // Stage replay at window 1, and the runtime at Static(1).
    let state = system_state(&restore_primary(&setup.primary, &shard0));
    let (d, s) = (&shard0.datasets[0], &shard0.streams[0]);
    let mut queries: Vec<Query> = Vec::new();
    let mut busy: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut static1_secs = Vec::new();
    repeat(&mut t, seconds * 0.25, |t| {
        let mut system = t.span("harness.restore", || decode_system(&state));
        let first = t.spans().len();
        t.begin("core.replay");
        let log = queries.is_empty().then_some(&mut queries);
        stage_replay(&mut system, d, s, Some(&mut *t), log);
        t.end();
        for (name, secs) in durations_by_name(&t.spans()[first..]) {
            busy.entry(name).or_default().push(secs.iter().sum());
        }
        let mut sys = t.span("harness.restore", || {
            PipelinedSystem::from_system(decode_system(&state), RuntimeConfig::sequential())
        });
        t.begin("runtime.static1");
        let started = now();
        sys.run(d, s);
        static1_secs.push(secs_since(started));
        t.end();
    });

    // Per-call costs of the committee, bandit, platform and CQC.
    t.begin("layers.calls");
    if let Some(parts) = parts.as_mut() {
        call_costs(parts, d, s, &queries, &mut t);
    }
    t.end();

    // Checkpoint codec on the paused primary and the paused fleet.
    let mut paused = restore_primary(&setup.primary, &shard0);
    paused.run_until(d, s, RunBound::Events(primary_report.events() / 2));
    let system_state_bytes = system_state(&paused).len();
    let (fleet_bytes, fleet_inputs, fleet_events) = if fleet_workload {
        (&setup.image, inputs, reference.events())
    } else {
        (&fleet1_bytes, &shard0, fleet1_report.events())
    };
    let mut paused_fleet = Booted::from_bytes(true, fleet_bytes, fleet_inputs);
    paused_fleet.advance(fleet_inputs, fleet_events / 2);
    repeat(&mut t, seconds * 0.1, |t| {
        t.begin("snapshot.round_trip");
        let snap = t.span("snapshot.encode", || paused.snapshot().expect("snapshots"));
        let bytes = t.span("snapshot.to_bytes", || snap.to_bytes());
        let snap = t.span("snapshot.from_bytes", || {
            RuntimeSnapshot::from_bytes(&bytes).expect("frame validates")
        });
        t.span("snapshot.resume", || {
            PipelinedSystem::resume(&snap, s).expect("resumes")
        });
        let bytes = t.span("snapshot.fleet_encode", || paused_fleet.to_bytes());
        t.span("snapshot.fleet_decode", || {
            Booted::from_bytes(true, &bytes, fleet_inputs)
        });
        t.end();
    });

    // Tap overhead: the primary's run with and without its tap.
    let (mut tapped, mut untapped) = (Vec::new(), Vec::new());
    repeat(&mut t, seconds * 0.1, |t| {
        for with_tap in [true, false] {
            let mut sys = t.span("harness.restore", || {
                restore_primary(&setup.primary, &shard0)
            });
            if !with_tap {
                sys.take_metrics_tap();
            }
            t.begin("runtime.tap_run");
            let started = now();
            sys.run(d, s);
            let secs = secs_since(started);
            t.end();
            if with_tap { &mut tapped } else { &mut untapped }.push(secs);
        }
    });

    let elapsed = t.elapsed_secs();
    let spans = t.spans();
    let by_name = durations_by_name(spans);
    let total = |name: &str| by_name.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let per_call = |name: &str, q: f64| by_name.get(name).map_or(f64::NAN, |v| us(v, q));
    let per_rep = |name: &str| {
        let n = by_name.get(name).map_or(0, Vec::len).max(1);
        uncovered_secs(spans, name) / n as f64
    };

    let mut m = Metrics::default();
    // Set-up layers.
    m.put("dataset.generate_s", total("dataset.generate"), "s");
    m.put("core.boot_s", total("core.boot"), "s");
    m.put("classifiers.train_s", total("classifiers.train"), "s");
    m.put("crowd.cqc_sample_s", total("crowd.cqc_sample"), "s");
    m.put("gbdt.cqc_fit_s", total("gbdt.cqc_fit"), "s");
    m.put("bandit.warmup_s", total("bandit.warmup"), "s");
    m.put("core.boot_rebuilt_s", total("core.boot_rebuilt"), "s");
    m.put(
        "core.boot.other_s",
        uncovered_secs(spans, "core.boot_rebuilt"),
        "s",
    );
    m.put("setup.other_s", uncovered_secs(spans, "setup"), "s");

    // Core stages, from the window-1 replay.
    for stage in STAGES {
        let name = format!("core.{stage}");
        m.put(format!("{name}_us"), per_call(&name, 0.5), "us");
        let per_replay = busy.get(name.as_str()).map_or(f64::NAN, |v| mean(v));
        m.put(format!("{name}_busy_s"), per_replay, "s");
    }
    let stage_busy: f64 = STAGES
        .iter()
        .map(|stage| {
            busy.get(format!("core.{stage}").as_str())
                .map_or(f64::NAN, |v| mean(v))
        })
        .sum();
    m.put("core.replay.other_s", per_rep("core.replay"), "s");
    m.put("runtime.static1_s", mean(&static1_secs), "s");
    m.put(
        "runtime.driver_self_s",
        mean(&static1_secs) - stage_busy,
        "s",
    );

    // Per-call costs below the stages.
    m.put("gbdt.cqc_infer_us", per_call("gbdt.cqc_infer", 0.5), "us");
    m.put("bandit.select_us", per_call("bandit.select", 0.5), "us");
    m.put("crowd.post_us", per_call("crowd.post", 0.5), "us");
    m.put(
        "classifiers.votes_batch_us",
        per_call("classifiers.votes_batch", 0.5),
        "us",
    );

    // Runtime steps and the workload's run.
    m.put("runtime.step_us_p50", us(&primary_steps.all, 0.5), "us");
    m.put("runtime.step_us_p99", us(&primary_steps.all, 0.99), "us");
    for kind in StepKind::ALL {
        let v = primary_steps.by_kind.get(&kind).map_or(0.0, |v| us(v, 0.5));
        m.put(format!("runtime.step_us.{}", kind.name()), v, "us");
    }
    m.put("runtime.run.other_s", per_rep("runtime.run"), "s");
    m.put(
        "runtime.events_per_s",
        reference.events() as f64 / mean(&untraced_secs),
        "1/s",
    );
    m.put(
        "metrics.tap_overhead_s",
        mean(&tapped) - mean(&untapped),
        "s",
    );
    m.put("trace.run_s", mean(&traced_secs), "s");
    m.put("trace.untraced_run_s", mean(&untraced_secs), "s");
    m.put(
        "trace.overhead_s",
        mean(&traced_secs) - mean(&untraced_secs),
        "s",
    );

    // Checkpoint codec.
    for op in ["encode", "to_bytes", "from_bytes", "resume"] {
        let name = format!("snapshot.{op}");
        m.put(format!("{name}_ms"), per_call(&name, 0.5) / 1e3, "ms");
    }
    m.put(
        "snapshot.fleet_encode_ms",
        per_call("snapshot.fleet_encode", 0.5) / 1e3,
        "ms",
    );
    m.put(
        "snapshot.fleet_decode_ms",
        per_call("snapshot.fleet_decode", 0.5) / 1e3,
        "ms",
    );
    let in_runs = |pick: &dyn Fn(&str) -> bool| -> f64 {
        spans
            .iter()
            .filter(|sp| sp.parent.is_some_and(|p| spans[p].name == "runtime.run"))
            .filter(|sp| pick(sp.name))
            .map(|sp| sp.secs())
            .sum()
    };
    m.put(
        "snapshot.drill_share",
        in_runs(&|n| n.starts_with("snapshot.")) / total("runtime.run"),
        "ratio",
    );
    m.put(
        "snapshot.system_state_bytes",
        system_state_bytes as f64,
        "bytes",
    );

    // Fleet scheduling.
    m.put("fleet.step_us_p50", us(&fleet_steps.all, 0.5), "us");
    m.put("fleet.step_us_p99", us(&fleet_steps.all, 0.99), "us");
    m.put(
        "fleet.scaling_ratio",
        us(&fleet_steps.all, 0.5) / us(&fleet1_steps.all, 0.5),
        "ratio",
    );
    m.put("fleet.run.other_s", per_rep("fleet.run"), "s");
    let (wait, posts) = match fleet_report {
        Report::Fleet(f) => (f.contention.total_wait_secs, f.contention.posts),
        Report::Single(_) => (f64::NAN, 0),
    };
    m.put("fleet.contention_wait_s", wait, "virtual_s");
    m.put("fleet.posts", posts as f64, "count");

    // Deterministic counts of the workload's run.
    let streams = reference.streams();
    let taps: Vec<_> = streams.iter().filter_map(|r| r.metrics.as_ref()).collect();
    let max = |f: &dyn Fn(&crowdlearn_runtime::RuntimeReport) -> usize| {
        streams.iter().map(|r| f(r)).max().unwrap_or(0) as f64
    };
    let sum = |f: &dyn Fn(&crowdlearn_runtime::RuntimeReport) -> u64| {
        streams.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    m.put("runtime.events", reference.events() as f64, "count");
    m.put(
        "runtime.peak_queue_depth",
        taps.iter().map(|t| t.peak_queue_depth()).max().unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "runtime.peak_hits_in_flight",
        max(&|r| r.peak_hits_in_flight),
        "count",
    );
    m.put(
        "runtime.peak_cycles_in_flight",
        max(&|r| r.peak_cycles_in_flight),
        "count",
    );
    m.put("runtime.timeouts", sum(&|r| r.timeouts), "count");
    m.put("runtime.reposts", sum(&|r| r.reposts), "count");
    m.put(
        "runtime.posts_rejected",
        sum(&|r| r.posts_rejected),
        "count",
    );
    m.put(
        "runtime.degraded_cycles",
        sum(&|r| r.degraded_cycles),
        "count",
    );
    let timely: u64 = taps.iter().map(|t| t.timely_answers()).sum();
    let paid: u64 = taps
        .iter()
        .map(|t| t.hits_posted() + t.hits_reposted())
        .sum();
    m.put(
        "crowd.answered_ratio",
        timely as f64 / paid.max(1) as f64,
        "ratio",
    );

    // Coverage of the traced time by spans.
    let covered = root_secs(spans);
    m.put("trace.coverage", covered / elapsed, "ratio");
    m.put("trace.other_s", elapsed - covered, "s");

    let path = std::path::Path::new(TRACE_DIR).join(format!("{}.tsv", workload.name()));
    let written =
        std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, t.to_tsv()));
    match written {
        Ok(()) => println!("  spans: {} written to {}", spans.len(), path.display()),
        Err(e) => ops.check(&format!("writing spans to {}: {e}", path.display()), || {
            false
        }),
    }
    m
}
