//! Earthquake response walkthrough: follow individual sensing cycles of a
//! simulated disaster event and watch the crowd-AI loop make decisions.
//!
//! ```text
//! cargo run --release --example earthquake_response
//! ```
//!
//! The scenario mirrors the paper's motivating deployment: imagery streams
//! in after an earthquake; an AI committee triages it; the most uncertain
//! images go to the crowd; CQC distills truthful labels; emergency-response
//! dispatch decisions are made from the merged output. The example prints a
//! per-cycle trace for the first few cycles — which images were escalated to
//! humans, what the committee believed, what the crowd corrected — then
//! summarizes how many dispatch decisions the crowd fixed over the whole
//! event.

use crowdlearn::CrowdLearnConfig;
use crowdlearn_dataset::DamageLabel;
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig};
use crowdlearn_suite::scenarios;

fn main() {
    let (dataset, stream) = scenarios::paper();
    let mut system = PipelinedSystem::new(
        &dataset,
        CrowdLearnConfig::paper(),
        RuntimeConfig::sequential(),
    );
    let run = system.run(&dataset, &stream);

    let mut dispatched_correctly = 0usize;
    let mut dispatched_total = 0usize;
    let mut crowd_fixed = 0usize;
    let mut crowd_broke = 0usize;

    for (cycle, outcome) in stream.iter().zip(&run.outcomes) {
        let verbose = cycle.index < 3;
        if verbose {
            println!(
                "--- cycle {} ({}), {} images, {} queried, crowd delay {} ---",
                cycle.index,
                cycle.context,
                outcome.images.len(),
                outcome.images.iter().filter(|i| i.queried).count(),
                outcome
                    .crowd_delay_secs
                    .map(|d| format!("{d:.0} s"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        for img in &outcome.images {
            let record = dataset.image(img.image).expect("image from this dataset");
            if verbose {
                println!(
                    "  {} [{}{}] truth={:<15} -> {:<15} {} {}",
                    img.image,
                    record.attribute(),
                    if record.is_ambiguous() {
                        ", ambiguous"
                    } else {
                        ""
                    },
                    record.truth().to_string(),
                    img.predicted.to_string(),
                    if img.queried { "(crowd)" } else { "(AI)" },
                    if img.predicted == img.truth {
                        "ok"
                    } else {
                        "WRONG"
                    },
                );
            }

            // Dispatch policy: severe damage sends a rescue team.
            let should_dispatch = record.truth() == DamageLabel::Severe;
            let dispatches = img.predicted == DamageLabel::Severe;
            dispatched_total += 1;
            dispatched_correctly += usize::from(should_dispatch == dispatches);
            if img.queried {
                // Would the AI alone have gotten it right?
                // (The committee vote before offloading is not stored in the
                // outcome, so compare against the queried flag: images the
                // crowd answered count as fixed when correct.)
                if img.predicted == img.truth {
                    crowd_fixed += 1;
                } else {
                    crowd_broke += 1;
                }
            }
        }
    }

    println!();
    println!("=== Event summary ({} cycles) ===", stream.cycles().len());
    println!(
        "dispatch decisions correct: {}/{} ({:.1}%)",
        dispatched_correctly,
        dispatched_total,
        100.0 * dispatched_correctly as f64 / dispatched_total as f64
    );
    println!(
        "crowd-answered images: {} correct, {} wrong",
        crowd_fixed, crowd_broke
    );
    println!(
        "remaining crowd budget: {:.0} cents",
        system.system().remaining_budget_cents()
    );
}
