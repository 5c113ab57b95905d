//! Query Set Selection (paper §IV-A, Algorithm 1).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// How QSS picks a cycle's query set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Selection {
    /// Algorithm 1: the highest-entropy remaining image with probability
    /// `1 - epsilon`, a uniformly random remaining one with probability
    /// `epsilon`. `epsilon: 0.0` is Hybrid-AL's top-entropy pick.
    Entropy {
        /// The exploration rate ε, in `[0, 1]`.
        epsilon: f64,
    },
    /// Hybrid-Para's independent sample: the cycle's images shuffled
    /// uniformly, then truncated. Entropies are ignored.
    Random,
}

impl Selection {
    /// The one validity rule, shared by [`QuerySetSelector::select`] and
    /// the snapshot decoder.
    pub fn check(&self) -> Result<(), &'static str> {
        match self {
            Selection::Entropy { epsilon } if !(0.0..=1.0).contains(epsilon) => {
                Err("epsilon must be in [0, 1]")
            }
            _ => Ok(()),
        }
    }

    /// The salt a system XORs into its seed for the selector's RNG, one per
    /// mode (at seed 0, `Random` reproduces the Hybrid-Para stream).
    pub fn seed_salt(&self) -> u64 {
        match self {
            Selection::Entropy { .. } => 0x9557,
            Selection::Random => 0x20cf,
        }
    }
}

impl Encode for Selection {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Selection::Entropy { epsilon } => {
                0u8.encode(out);
                epsilon.encode(out);
            }
            Selection::Random => {
                1u8.encode(out);
            }
        }
    }
}

impl Decode for Selection {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = u8::decode(r)?;
        let selection = match tag {
            0 => Selection::Entropy {
                epsilon: f64::decode(r)?,
            },
            1 => Selection::Random,
            _ => return Err(DecodeError::Invalid),
        };
        selection.check().map_err(|_| DecodeError::Invalid)?;
        Ok(selection)
    }
}

/// The query selector: a seeded RNG driving the [`Selection`] it is asked
/// to run.
///
/// Under [`Selection::Entropy`], given the committee entropy of every image
/// in a sensing cycle, the selector picks `Y` images for the crowd: with
/// probability `1 - ε` the highest-entropy remaining image (exploitation:
/// images the committee is uncertain about), and with probability `ε` a
/// uniformly random remaining image (exploration: catches images where
/// every expert is confidently wrong — fake images never rank high on
/// entropy).
///
/// # Example
///
/// ```
/// use crowdlearn::{QuerySetSelector, Selection};
///
/// let mut qss = QuerySetSelector::new(1);
/// let entropies = [0.1, 0.9, 0.5, 0.7];
/// let exploit = Selection::Entropy { epsilon: 0.0 }; // pure exploitation
/// let picked = qss.select(exploit, &entropies, 2);
/// assert_eq!(picked, vec![1, 3]); // the two highest entropies
/// ```
#[derive(Debug, Clone)]
pub struct QuerySetSelector {
    rng: StdRng,
}

impl QuerySetSelector {
    /// Creates a selector whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Selects up to `count` indices into `entropies` under `selection`.
    /// Picks are distinct; if `count >= entropies.len()` every index is
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`Selection::check`] if it rejects
    /// `selection`, or if any entropy is NaN.
    pub fn select(&mut self, selection: Selection, entropies: &[f64], count: usize) -> Vec<usize> {
        selection.check().unwrap_or_else(|e| panic!("{e}"));
        match selection {
            Selection::Entropy { epsilon } => self.by_entropy(epsilon, entropies, count),
            Selection::Random => {
                let mut sample: Vec<usize> = (0..entropies.len()).collect();
                sample.shuffle(&mut self.rng);
                sample.truncate(count);
                sample
            }
        }
    }

    /// Algorithm 1 over `entropies` at exploration rate `epsilon`.
    fn by_entropy(&mut self, epsilon: f64, entropies: &[f64], count: usize) -> Vec<usize> {
        assert!(
            entropies.iter().all(|e| !e.is_nan()),
            "entropies must not be NaN"
        );
        // Sorted list, highest entropy first (the paper's s_list).
        let mut s_list: Vec<usize> = (0..entropies.len()).collect();
        s_list.sort_by(|&a, &b| {
            entropies[b]
                .partial_cmp(&entropies[a])
                .expect("invariant: entropies are asserted non-NaN on entry")
        });
        let take = count.min(s_list.len());
        let mut output = Vec::with_capacity(take);
        for _ in 0..take {
            let pick = if self.rng.gen::<f64>() < epsilon {
                // Exploration: uniform over the remaining list.
                self.rng.gen_range(0..s_list.len())
            } else {
                // Exploitation: pop the highest-entropy remaining image.
                0
            };
            output.push(s_list.remove(pick));
        }
        output
    }
}

// Snapshot codec: the raw RNG words, so a resumed selector continues the
// exact random sequence of the live one. The selection mode is
// configuration and rides in the system's config.
impl Encode for QuerySetSelector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rng.state().encode(out);
    }
}

impl Decode for QuerySetSelector {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            rng: StdRng::from_state(<[u64; 4]>::decode(r)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(epsilon: f64) -> Selection {
        Selection::Entropy { epsilon }
    }

    #[test]
    fn snapshot_codec_resumes_the_random_sequence() {
        let mut live = QuerySetSelector::new(99);
        let entropies: Vec<f64> = (0..12).map(|i| f64::from(i) / 12.0).collect();
        for selection in [eps(0.4), Selection::Random] {
            for _ in 0..5 {
                live.select(selection, &entropies, 4);
            }
            let mut resumed = QuerySetSelector::from_bytes(&live.to_bytes()).expect("round trip");
            for _ in 0..10 {
                assert_eq!(
                    live.select(selection, &entropies, 4),
                    resumed.select(selection, &entropies, 4)
                );
            }
        }
    }

    #[test]
    fn snapshot_codec_rejects_bad_epsilon() {
        for selection in [eps(7.5), eps(-0.1), eps(f64::NAN)] {
            assert!(selection.check().is_err());
            assert!(matches!(
                Selection::from_bytes(&selection.to_bytes()),
                Err(DecodeError::Invalid)
            ));
        }
        for selection in [eps(0.0), eps(1.0), Selection::Random] {
            assert_eq!(Selection::from_bytes(&selection.to_bytes()), Ok(selection));
        }
    }

    #[test]
    fn random_selection_is_a_truncated_shuffle_of_distinct_indices() {
        let mut qss = QuerySetSelector::new(0x20cf);
        let entropies = [0.0; 10];
        let picked = qss.select(Selection::Random, &entropies, 5);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "{picked:?}");
        assert_eq!(qss.select(Selection::Random, &entropies, 20).len(), 10);
    }

    #[test]
    fn zero_epsilon_returns_top_entropy_order() {
        let sel = eps(0.0);
        let mut qss = QuerySetSelector::new(7);
        let entropies = [0.3, 1.0, 0.0, 0.8, 0.5];
        assert_eq!(qss.select(sel, &entropies, 3), vec![1, 3, 4]);
    }

    #[test]
    fn selections_are_distinct() {
        let sel = eps(0.5);
        let mut qss = QuerySetSelector::new(9);
        let entropies: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
        for _ in 0..50 {
            let picked = qss.select(sel, &entropies, 10);
            let mut sorted = picked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 10, "duplicates in {picked:?}");
        }
    }

    #[test]
    fn count_larger_than_pool_returns_everything() {
        let sel = eps(0.2);
        let mut qss = QuerySetSelector::new(3);
        let picked = qss.select(sel, &[0.5, 0.1], 10);
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn exploration_eventually_picks_low_entropy_images() {
        // Image 0 has the lowest entropy; with epsilon > 0 it must
        // eventually be selected even for count=1 — this is exactly how
        // confidently-wrong fakes get caught.
        let sel = eps(0.3);
        let mut qss = QuerySetSelector::new(11);
        let entropies = [0.01, 0.9, 0.8, 0.85, 0.95];
        let mut hit = 0;
        for _ in 0..300 {
            if qss.select(sel, &entropies, 1)[0] == 0 {
                hit += 1;
            }
        }
        // epsilon * 1/5 = 6% expected.
        assert!(hit > 5, "low-entropy image picked only {hit}/300 times");
    }

    #[test]
    fn pure_exploration_is_roughly_uniform() {
        let sel = eps(1.0);
        let mut qss = QuerySetSelector::new(13);
        let entropies = [0.0, 0.5, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[qss.select(sel, &entropies, 1)[0]] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 3000.0 - 1.0 / 3.0).abs() < 0.05, "{counts:?}");
        }
    }

    #[test]
    fn empty_input_returns_empty() {
        let sel = eps(0.2);
        let mut qss = QuerySetSelector::new(5);
        assert!(qss.select(sel, &[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0, 1]")]
    fn bad_epsilon_rejected() {
        QuerySetSelector::new(0).select(eps(-0.1), &[0.5], 1);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_entropy_rejected() {
        QuerySetSelector::new(0).select(eps(0.1), &[f64::NAN], 1);
    }
}
