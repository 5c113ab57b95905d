//! CrowdLearn: a crowd-AI hybrid system for deep-learning-based disaster
//! damage assessment — a full reproduction of the ICDCS 2019 paper.
//!
//! The system welds a committee of black-box AI classifiers to a black-box
//! crowdsourcing platform through four modules, run as a closed loop over
//! sensing cycles (paper Figure 4):
//!
//! 1. [`QuerySetSelector`] (**QSS**, §IV-A) — query-by-committee entropy
//!    (Eqs. 2-3) with ε-greedy exploration picks which images to send to the
//!    crowd, catching both *uncertain* images and images the committee is
//!    *confidently wrong* about.
//! 2. [`IncentivePolicy`] (**IPD**, §IV-B) — a constrained contextual bandit
//!    chooses the incentive for each query to minimize crowd response delay
//!    under a global budget (Eq. 4).
//! 3. [`QualityController`] (**CQC**, §IV-C) — a gradient-boosting model
//!    over worker labels *and* questionnaire evidence distills truthful
//!    labels from noisy crowd responses. It is fit once, with the one
//!    [`QualityController::CONFIG`], and scores a cycle's answers, kept as
//!    [`AnswerTally`]s, in one batched pass when the cycle closes.
//! 4. [`Calibrator`] (**MIC**, §IV-D) — the truthful labels drive three
//!    simultaneous calibration strategies: Hedge expert-weight updates from
//!    the symmetric-KL loss (Eq. 5), committee retraining, and crowd
//!    offloading (human labels replace AI labels on the query set).
//!
//! [`CrowdLearnSystem`] wires the modules together and exposes each cycle
//! as four reentrant stages (start, post, absorb, finalize); the
//! `crowdlearn-runtime` crate's `PipelinedSystem` drives them over a
//! stream (its crate docs show a full run). The evaluation's competitors
//! are configurations of the same system: [`CrowdLearnConfig::ai_only`],
//! [`CrowdLearnConfig::hybrid_al`] and [`CrowdLearnConfig::hybrid_para`].
//! [`SchemeReport`] is the common measurement output every experiment
//! consumes.

//! Determinism: a simulation crate under `detlint` rules D1-D6 (DESIGN.md
//! "Determinism invariants"), including D4 — library code must surface
//! errors or state its `expect` invariant, never panic mid-cycle.
//!
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
mod committee;
mod cqc;
mod ipd;
mod qss;
mod report;
mod system;

pub use calibration::{
    normalized_symmetric_kl, Calibrator, CalibratorConfig, Offload, QueriedImage, Retrain,
};
pub use committee::Committee;
pub use cqc::{AnswerTally, QualityController, QueryFeatures};
pub use ipd::{IncentivePolicy, PayoffNormalizer};
pub use qss::{QuerySetSelector, Selection};
pub use report::{CycleOutcome, SchemeReport};
pub use system::{
    CrowdLearnConfig, CrowdLearnSystem, CycleWork, IncentivePolicyKind, Model, PostedQuery,
};
