//! A simulated black-box crowdsourcing platform (MTurk stand-in).
//!
//! The paper treats MTurk as a black box with three observed properties
//! (Section III-B): the requester cannot pick workers, workers are not
//! perfectly reliable, and the incentive→(delay, quality) relationship is
//! non-trivial, dynamic and context-dependent. This crate reproduces that
//! black box with a worker-population simulator calibrated against the
//! paper's pilot study:
//!
//! * **Delay** (Figure 5): response time falls steeply with incentive in the
//!   morning and afternoon, but is nearly flat across mid-range incentives
//!   in the evening and at midnight (night-owl workers take almost anything),
//!   with only the 1-cent and 20-cent extremes deviating.
//! * **Quality** (Figure 6): mean label accuracy sits around 0.8, is
//!   depressed at 1-2 cents, and does **not** significantly improve past
//!   4 cents (the Wilcoxon tests in the bench reproduce the paper's
//!   non-significant p-values).
//! * **Questionnaires** (Figure 3): besides a damage label, each worker
//!   answers fixed-form evidence questions (fake? close-up? low resolution?
//!   structural damage? people affected?) whose answers CQC mines.
//!
//! The entry point is [`Platform::submit`], which takes one image query at
//! an [`IncentiveLevel`] under a [`TemporalContext`] and returns the
//! responses of [`PlatformConfig::WORKERS_PER_QUERY`] (5) workers sampled
//! from an 80-worker pool. Costs are tracked in a
//! built-in ledger. [`PilotStudy`] reruns the paper's 7-incentive x
//! 4-context characterization grid.
//!
//! A modeling simplification, documented here once: the incentive level is
//! treated as the *per-query* cost (covering all of its worker assignments),
//! which keeps the bandit's action costs, the budget sweeps of Figures
//! 10-11, and the paper's "1 cent per task … 20 cents per task" budget
//! arithmetic mutually consistent.
//!
//! [`TemporalContext`]: crowdlearn_dataset::TemporalContext
//!
//! # Example
//!
//! ```
//! use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig};
//! use crowdlearn_dataset::{Dataset, DatasetConfig, TemporalContext};
//!
//! let dataset = Dataset::generate(&DatasetConfig::paper());
//! let mut platform = Platform::new(PlatformConfig::paper().with_seed(5));
//! let response = platform.submit(
//!     &dataset.test()[0],
//!     IncentiveLevel::C4,
//!     TemporalContext::Evening,
//! );
//! assert_eq!(response.responses.len(), 5);
//! assert!(response.completion_delay_secs > 0.0);
//! ```

//! Determinism: a simulation crate under `detlint` rules D1-D6 (DESIGN.md
//! "Determinism invariants") — BTree collections only, virtual time only,
//! seeded RNG only.
//!
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod incentive;
mod pilot;
mod platform;
mod quality;
mod questionnaire;
mod worker;

pub use delay::DelayModel;
pub use incentive::IncentiveLevel;
pub use pilot::{PilotCell, PilotConfig, PilotReport, PilotStudy};
pub use platform::{PendingHit, Platform, PlatformConfig, QueryResponse, WorkerResponse};
pub use quality::QualityModel;
pub use questionnaire::QuestionnaireAnswers;
pub use worker::{Worker, WorkerPool};

// Re-exported so downstream crates can build explicit workers
// ([`Worker::from_traits`]) without depending on `crowdlearn-truth`.
pub use crowdlearn_truth::WorkerId;
