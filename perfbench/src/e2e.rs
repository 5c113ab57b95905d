//! The untraced run: end-to-end metrics with tracing off.

use crate::checks;
use crate::out::{peak_rss_mb, Metrics, Ops};
use crate::stats::{mean, median, quartiles, tail};
use crate::trace::{now, secs_since, timed};
use crate::workload::{Booted, Inputs, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Fewest samples of each timed operation, whatever the time budget.
const MIN_SAMPLES: usize = 5;

/// A workload booted from its seed, with its booted state as bytes.
pub struct Setup {
    /// The generated inputs.
    pub inputs: Inputs,
    /// The booted workload as snapshot bytes.
    pub image: Vec<u8>,
    /// Whether the workload is a fleet.
    pub fleet: bool,
    /// The primary system's snapshot bytes.
    pub primary: Vec<u8>,
}

impl Setup {
    /// Generates the inputs and boots, `reps` times; returns the last
    /// set-up and the seconds each took (bytes are taken untimed).
    pub fn repeated(workload: Workload, seed: u64, reps: usize) -> (Self, Vec<f64>) {
        let mut secs = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            drop(last.take());
            let ((inputs, booted), s) = timed(|| {
                let inputs = Inputs::generate(workload, seed);
                let booted = Booted::boot(workload, &inputs);
                (inputs, booted)
            });
            secs.push(s);
            last = Some((inputs, booted));
        }
        let (inputs, booted) = last.expect("at least one set-up");
        let setup = Setup {
            image: booted.to_bytes(),
            fleet: booted.is_fleet(),
            primary: checks::primary_bytes(&booted),
            inputs,
        };
        (setup, secs)
    }

    /// A fresh copy of the booted workload.
    pub fn restore(&self) -> Booted {
        Booted::from_bytes(self.fleet, &self.image, &self.inputs)
    }
}

/// Measures every end-to-end metric of `workload` for about `seconds`.
pub fn measure(workload: Workload, seed: u64, seconds: f64, ops: &mut Ops) -> Metrics {
    let (setup, setup_secs) = Setup::repeated(workload, seed, SETUP_REPS);
    let inputs = &setup.inputs;
    checks::run_all(&setup.primary, inputs, ops);

    // The uninterrupted reference every timed run must reproduce.
    let reference = ops.run("reference run", || setup.restore().run(inputs));
    let Some(reference) = reference else {
        return Metrics::default();
    };
    let fingerprint = reference.fingerprint();

    // Whole runs from the booted state (restores untimed), each followed
    // by one round trip of a mid-run checkpoint, so both sample the whole
    // measured window.
    let mut paused = setup.restore();
    paused.advance(inputs, reference.events() / 2);
    let drill = workload.drill_interval(reference.events());
    let run_check = if drill.is_some() {
        "checkpoint-drill run equals the uninterrupted run"
    } else {
        "repetition equals the first run"
    };
    let (mut run_secs, mut ckpt_secs, mut resume_secs) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<u8>> = None;
    let started = now();
    let mut attempts = 0;
    while attempts < MIN_SAMPLES || secs_since(started) < seconds {
        attempts += 1;
        let system = setup.restore();
        ops.check(run_check, || {
            let (report, secs) = timed(|| system.run_workload(inputs, drill));
            run_secs.push(secs);
            report.fingerprint() == fingerprint
        });
        ops.check("checkpoint round trip", || {
            let (bytes, ckpt) = timed(|| paused.to_bytes());
            let (resumed, resume) = timed(|| Booted::from_bytes(setup.fleet, &bytes, inputs));
            ckpt_secs.push(ckpt);
            resume_secs.push(resume);
            match &first {
                // The first resumed system must finish exactly like the
                // uninterrupted run; later round trips must repeat its bytes.
                None => {
                    let same = resumed.run(inputs).fingerprint() == fingerprint;
                    first = Some(bytes);
                    same
                }
                Some(first) => *first == bytes,
            }
        });
    }

    let snapshot_bytes = first.as_ref().map_or(0, Vec::len);
    println!(
        "  run_s: {} runs, median {:?}, quartiles {:?}, tail {:?}",
        run_secs.len(),
        median(&run_secs),
        quartiles(&run_secs),
        tail(&run_secs)
    );
    println!(
        "  checkpoint_s, resume_s: {} round trips, medians {:?}, {:?}; setup_s: median of {}",
        ckpt_secs.len(),
        median(&ckpt_secs),
        median(&resume_secs),
        setup_secs.len()
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_secs).unwrap_or(f64::NAN), "s");
    m.put("run_s", mean(&run_secs), "s");
    m.put("checkpoint_s", mean(&ckpt_secs), "s");
    m.put("resume_s", mean(&resume_secs), "s");
    m.put("snapshot_bytes", snapshot_bytes as f64, "bytes");
    m.put("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");
    m.put("virtual_makespan_s", reference.makespan_secs(), "virtual_s");
    m.put("accuracy", reference.accuracy(), "ratio");
    m
}
