//! Evaluation metrics for the CrowdLearn reproduction.
//!
//! This crate implements every measurement primitive the paper's evaluation
//! (Section V) relies on:
//!
//! * [`ConfusionMatrix`] with accuracy and macro-averaged precision, recall
//!   and F1 — the headline numbers of Table II and Figures 9/10.
//! * [`RocCurve`] / [`macro_average_roc`] — the macro-average one-vs-rest
//!   ROC curves of Figure 7, with trapezoidal AUC.
//! * [`wilcoxon_signed_rank`] — the Wilcoxon signed-rank test the paper uses
//!   in Section IV-B to show that adjacent incentive levels do *not* produce
//!   significantly different label quality (Figure 6).
//! * [`SummaryStats`] — streaming mean/variance/percentile summaries used for
//!   every delay measurement (Table III, Figures 5, 8, 11).
//! * [`brier_score`] / [`CalibrationReport`] — probabilistic-forecast
//!   quality (Brier, reliability diagrams, ECE) for the schemes'
//!   class-probability outputs.
//! * [`bootstrap_paired_diff_ci`] — percentile-bootstrap confidence
//!   intervals on paired differences, to separate real scheme differences
//!   from run-to-run noise.
//! * [`mcnemar_test`] — paired-classifier significance on shared test items
//!   (the right test for Table II-style accuracy-gap claims).
//!
//! # Example
//!
//! ```
//! use crowdlearn_metrics::ConfusionMatrix;
//!
//! let mut cm = ConfusionMatrix::new(3);
//! for (truth, pred) in [(0, 0), (1, 1), (2, 2), (2, 1), (0, 0)] {
//!     cm.record(truth, pred);
//! }
//! assert_eq!(cm.total(), 5);
//! assert!((cm.accuracy() - 0.8).abs() < 1e-12);
//! assert!(cm.macro_f1() > 0.0);
//! ```

//! Determinism: `detlint`-checked (DESIGN.md "Determinism invariants") —
//! metric folds must not depend on any nondeterministic iteration order.
//!
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bootstrap;
mod confusion;
mod mcnemar;
mod probabilistic;
mod roc;
mod stats;
mod wilcoxon;

pub use bootstrap::{bootstrap_paired_diff_ci, ConfidenceInterval};
pub use confusion::{ClassReport, ConfusionMatrix};
pub use mcnemar::{mcnemar_test, McNemarOutcome};
pub use probabilistic::{brier_score, CalibrationBin, CalibrationReport};
pub use roc::{macro_average_roc, RocCurve, RocPoint};
pub use stats::{quantile_in_place, SummaryStats};
pub use wilcoxon::{wilcoxon_signed_rank, WilcoxonOutcome};
