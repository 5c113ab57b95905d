//! Synthetic disaster-imagery dataset for the CrowdLearn reproduction.
//!
//! The paper evaluates on 960 labeled social-media images of the 2016 Ecuador
//! Earthquake (560 train / 400 test, balanced over three damage classes),
//! streamed over 40 sensing cycles of 10 images under four temporal contexts.
//! That dataset is not available, so this crate generates a statistical
//! equivalent that preserves the property CrowdLearn's design depends on: a
//! gap between what **low-level visual features** say about an image and what
//! its **high-level context** says.
//!
//! Every [`SyntheticImage`] carries:
//!
//! * a ground-truth [`DamageLabel`],
//! * a *visual-evidence* vector — the only thing the simulated AI classifiers
//!   can see (analogous to CNN features: color, layout, shapes),
//! * a *contextual-evidence* vector — what human annotators can additionally
//!   perceive (the "story behind the image"),
//! * an [`ImageAttribute`] marking the paper's Figure-1 failure modes: fake
//!   images, misleading close-ups, low-resolution shots, and implicit-damage
//!   scenes. For deceptive attributes the visual evidence points at a *wrong*
//!   class, which is exactly the failure AI-only pipelines cannot escape.
//!
//! [`DatasetConfig`] sets the split, the seed, family drift and three of the
//! four failure-mode rates; the close-up rate, the evidence scales and the
//! ambiguity band are its associated constants (for example
//! [`DatasetConfig::NOISE`] and [`DatasetConfig::AMBIGUITY_RATE`]), the one
//! tuning every experiment runs.
//!
//! # Example
//!
//! ```
//! use crowdlearn_dataset::{Dataset, DatasetConfig};
//!
//! let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(7));
//! assert_eq!(dataset.len(), 960);
//! assert_eq!(dataset.train().len(), 560);
//! assert_eq!(dataset.test().len(), 400);
//! ```

//! Determinism: a simulation crate under `detlint` rules D1-D6 (DESIGN.md
//! "Determinism invariants") — BTree collections only, virtual time only,
//! seeded RNG only.
//!
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod evidence;
mod generator;
mod image;
mod label;
mod stream;

pub use evidence::{EvidenceMatrix, MEANS_ROW};
pub use generator::{gaussian, visual_layout, Dataset, DatasetConfig};
pub use image::{ImageAttribute, ImageId, LabeledImage, SyntheticImage};
pub use label::DamageLabel;
pub use stream::{SensingCycle, SensingCycleStream, TemporalContext};
