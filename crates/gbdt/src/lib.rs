//! Multiclass gradient-boosted decision trees, built from scratch.
//!
//! The paper's Crowd Quality Control module trains "the state-of-art gradient
//! boosting model (XGBoost)" on worker labels plus questionnaire answers to
//! recover truthful labels. XGBoost itself is not available offline, so this
//! crate implements the same algorithm family:
//!
//! * second-order boosting with the softmax (multi-class log-loss)
//!   objective: per round one regression tree per class is fit to the
//!   gradient/hessian pairs `g = p - y`, `h = p (1 - p)`,
//! * exact greedy split finding with L2 leaf regularization (`lambda`),
//!   minimum-gain pruning (`gamma`) and minimum child hessian weight,
//! * shrinkage (`learning_rate`), row subsampling and per-tree column
//!   subsampling,
//! * gain-based feature importances.
//!
//! The datasets CQC sees are small (hundreds of rows, tens of features), so
//! exact greedy splitting is the right engineering choice. It uses XGBoost's
//! presorted column blocks (Chen & Guestrin, KDD 2016): each feature's
//! values are ranked once per fit, each round's row sample is counting-sorted
//! by rank once per feature, and every node is a segment of those sorted
//! buffers that a split partitions in place — a linear scan per feature per
//! node, with no per-node sorting or allocation. The scan visits rows in the
//! same order a per-node stable sort would, so every gradient sum, gain and
//! tie-break, and hence every tree, is bit-identical to sorting at each node.
//! Histogram splitting (`SplitMode::Histogram`) is the approximate
//! alternative for larger inputs; bucket sums add rows in a different order,
//! so its trees differ.
//!
//! # Example
//!
//! ```
//! use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig};
//!
//! // A linearly separable toy problem.
//! let rows = vec![vec![0.0], vec![0.2], vec![0.8], vec![1.0]];
//! let labels = vec![0, 0, 1, 1];
//! let model = GbdtClassifier::fit(&rows, &labels, 2, &GbdtConfig::small());
//! assert_eq!(model.predict(&[0.1]), 0);
//! assert_eq!(model.predict(&[0.9]), 1);
//! ```

//! Determinism: a simulation crate under `detlint` rules D1-D6 (DESIGN.md
//! "Determinism invariants") — BTree collections only, virtual time only,
//! seeded RNG only.
//!
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod tree;

pub use model::{GbdtClassifier, GbdtConfig, GbdtConfigError};
pub use tree::{RegressionTree, SplitMode};
