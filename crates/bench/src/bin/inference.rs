//! Batch-vs-scalar committee inference: the sensing-cycle hot path
//! (`Committee::votes_batch` over a shared `EvidenceMatrix`) against the
//! per-image loop it replaced, across batch sizes.
//!
//! The batch path's contract is *bit-identity* (DESIGN.md "Batched committee
//! inference"), so the bench asserts equivalence before it times anything —
//! a speedup that changes a single probability bit is a bug, not a win.
//! Each batch size is timed as scalar/batch pairs that alternate which side
//! runs first, and the hard gate is the median per-pair speedup at the
//! paper's batch size: load that drifts during the run slows both halves of
//! a pair alike.

#![forbid(unsafe_code)]

use crowdlearn::Committee;
use crowdlearn_bench::{banner, Fixture};
use crowdlearn_classifiers::{profiles, ClassDistribution, Classifier};
use crowdlearn_dataset::SyntheticImage;
use crowdlearn_metrics::SummaryStats;
use std::time::Instant;

/// The paper's sensing-cycle batch size (`SensingCycleStream::paper`: 10
/// images per cycle) — the size the acceptance gate is pinned at.
const PAPER_BATCH_SIZE: usize = 10;

/// Speedup the batch path must deliver at the paper's batch size.
const REQUIRED_SPEEDUP: f64 = 1.5;

/// Images processed per timed measurement, whatever the batch size — keeps
/// every measurement's duration comparable and long enough to be stable.
const IMAGES_PER_MEASUREMENT: usize = 12_000;

/// Alternating scalar/batch measurement pairs per batch size.
const PAIRS: usize = 15;

fn committee(fixture: &Fixture) -> Committee {
    let members: Vec<Box<dyn Classifier>> = [profiles::vgg16, profiles::bovw, profiles::ddm]
        .into_iter()
        .map(|builder| Box::new(fixture.trained_expert(builder, 0)) as Box<dyn Classifier>)
        .collect();
    Committee::new(members, 0.6)
}

// The bench crate is the detlint D2 exemption: timing harnesses read the
// wall clock by design. clippy.toml mirrors D2 workspace-wide, so the
// exemption is restated here.
#[allow(clippy::disallowed_methods)]
fn timed<F: FnMut()>(mut body: F) -> f64 {
    let started = Instant::now();
    body();
    started.elapsed().as_secs_f64()
}

/// First quartile, median and third quartile of `samples`.
fn quartiles(samples: &SummaryStats) -> (f64, f64, f64) {
    let q = |p| samples.quantile(p).expect("PAIRS > 0");
    (q(0.25), q(0.5), q(0.75))
}

fn main() {
    banner(
        "Committee inference: batched evidence path vs per-image loop",
        "bit-identical votes; wall-clock per full committee over the batch",
    );

    let fixture = Fixture::paper_default();
    let committee = committee(&fixture);
    let test = fixture.dataset.test();

    println!("median of {PAIRS} alternating scalar/batch pairs per batch size");
    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>9} {:>17}",
        "batch size", "reps", "scalar(ms)", "batch(ms)", "speedup", "speedup q1-q3"
    );

    let mut paper_speedup = None;
    for batch_size in [1usize, 5, PAPER_BATCH_SIZE, 25, 50, 100, 200, 400] {
        let batch: Vec<&SyntheticImage> = test[..batch_size].iter().collect();

        // Equivalence gate: the batch path must reproduce the per-image
        // votes bit for bit before its speed means anything.
        let scalar_votes: Vec<Vec<ClassDistribution>> =
            batch.iter().map(|img| committee.votes(img)).collect();
        let batch_votes = committee.votes_batch(&batch);
        assert_eq!(batch_votes.len(), scalar_votes.len());
        for (b, s) in batch_votes.iter().zip(&scalar_votes) {
            assert_eq!(b.len(), s.len());
            for (bv, sv) in b.iter().zip(s) {
                for (pb, ps) in bv.probs().iter().zip(sv.probs()) {
                    assert_eq!(
                        pb.to_bits(),
                        ps.to_bits(),
                        "batch path diverged at batch size {batch_size}"
                    );
                }
            }
        }

        let reps = (IMAGES_PER_MEASUREMENT / batch_size).max(1);
        let mut scalar_ms = SummaryStats::new();
        let mut batch_ms = SummaryStats::new();
        let mut speedup = SummaryStats::new();
        let time_scalar = || {
            timed(|| {
                for _ in 0..reps {
                    for img in &batch {
                        std::hint::black_box(committee.votes(img));
                    }
                }
            })
        };
        let time_batch = || {
            timed(|| {
                for _ in 0..reps {
                    std::hint::black_box(committee.votes_batch(&batch));
                }
            })
        };
        for pair in 0..PAIRS {
            // Alternate which side runs first, so neither always inherits
            // the state the other leaves behind.
            let (scalar_secs, batch_secs) = if pair % 2 == 0 {
                let scalar_secs = time_scalar();
                (scalar_secs, time_batch())
            } else {
                let batch_secs = time_batch();
                (time_scalar(), batch_secs)
            };
            scalar_ms.push(scalar_secs * 1e3);
            batch_ms.push(batch_secs * 1e3);
            speedup.push(scalar_secs / batch_secs);
        }
        let (q1, median, q3) = quartiles(&speedup);
        println!(
            "{:<12} {:>6} {:>12.3} {:>12.3} {:>8.2}x {:>8.2}x-{:.2}x",
            batch_size,
            reps,
            quartiles(&scalar_ms).1,
            quartiles(&batch_ms).1,
            median,
            q1,
            q3,
        );
        if batch_size == PAPER_BATCH_SIZE {
            paper_speedup = Some(speedup);
        }
    }

    // Acceptance: the batch path must clearly beat the per-image loop at
    // the paper's batch size (>= 1.5x at 10 images per cycle).
    let paper = paper_speedup.expect("paper batch size is in the sweep");
    let (q1, median, q3) = quartiles(&paper);
    assert!(
        median >= REQUIRED_SPEEDUP,
        "batch path median speedup {median:.2}x (quartiles {q1:.2}x-{q3:.2}x, {} pairs) at \
         batch size {PAPER_BATCH_SIZE} is below the required {REQUIRED_SPEEDUP}x",
        paper.len()
    );
    println!(
        "\nShape check: median {median:.2}x (quartiles {q1:.2}x-{q3:.2}x, {} pairs) at the \
         paper's batch size ({PAPER_BATCH_SIZE}) — evidence gathered once per committee, \
         noise chains share hoisted prefixes",
        paper.len()
    );
}
