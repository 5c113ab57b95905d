//! Simulated deep-learning damage-assessment (DDA) classifiers.
//!
//! The paper's committee consists of three published DDA models — VGG16
//! (Nguyen et al. 2017), BoVW (Bosch et al. 2007) and DDM (Li et al. 2018) —
//! plus a boosted Ensemble baseline. Training CNNs is out of reach for a pure
//! Rust reproduction (see DESIGN.md §2), so this crate provides *statistical
//! simulators* that preserve every property CrowdLearn interacts with:
//!
//! * a probabilistic class distribution per image (the "expert vote",
//!   Definition 6),
//! * classifier diversity: each expert weighs the three visual feature
//!   families differently, so they disagree on noisy images — the signal
//!   query-by-committee needs,
//! * an *innate flaw*: on deceptive images (fake / close-up / implicit) the
//!   visual evidence points at the wrong class and every feature-based
//!   expert confidently follows it, no matter how much it is retrained —
//!   the failure mode that motivates crowd offloading,
//! * a training curve: [`Classifier::retrain`] adds labeled samples, which
//!   shrinks prediction noise toward an architecture-specific floor
//!   (mirrors fine-tuning on more data),
//! * an execution-delay model calibrated to Table III.
//!
//! # Example
//!
//! ```
//! use crowdlearn_classifiers::{profiles, Classifier};
//! use crowdlearn_dataset::{Dataset, DatasetConfig, LabeledImage};
//!
//! let dataset = Dataset::generate(&DatasetConfig::paper());
//! let mut vgg = profiles::vgg16(1);
//! let train: Vec<_> = dataset.train().iter().cloned()
//!     .map(LabeledImage::ground_truth).collect();
//! vgg.retrain(&train);
//! let vote = vgg.predict(&dataset.test()[0]);
//! assert!((vote.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

//! Determinism: a simulation crate under `detlint` rules D1-D6 (DESIGN.md
//! "Determinism invariants") — BTree collections only, virtual time only,
//! seeded RNG only.
//!
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classifier;
mod distribution;
mod ensemble;
mod expert;
pub mod profiles;

pub use classifier::Classifier;
pub use distribution::ClassDistribution;
pub use ensemble::BoostedEnsemble;
pub use expert::{DelayProfile, ExpertProfile, LearnedState, SimulatedExpert};
