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
//! node, with no per-node sorting or allocation. The scan walks two columns
//! at a time in lockstep and finds value boundaries by rank. It visits each
//! column's rows in the same order a per-node stable sort would, so every
//! gradient sum, gain and tie-break, and hence every tree, is bit-identical
//! to sorting at each node.
//!
//! A round's per-class trees depend only on the scores the earlier rounds
//! left, and separate fits share nothing, so [`GbdtClassifier::fit_batch`]
//! grows the trees of several fits on one pool: the calling thread and up
//! to one scoped helper per further available CPU take trees from a queue,
//! each in its class's own scratch, with up to that many fits open at once.
//! `fit` is a batch of one. The calling thread draws every fit's row and
//! column samples in that fit's serial order, presorts them and takes the
//! softmax gradients, opening one fit's round while the helpers grow
//! another's, and sizes every buffer, so helpers neither draw nor allocate,
//! and each fit's trees are kept in class order: each model is the same
//! bytes whatever the thread count or the rest of the batch.
//!
//! A fitted model is compiled once into a table of per-feature prefix leaf
//! masks (QuickScorer; Lucchese et al., SIGIR 2015): each tree keeps a bit
//! per leaf, and for each feature and each count of that feature's split
//! thresholds at or below a value the table holds the AND of the "left
//! subtree gone" masks of those splits. Inference ANDs one such row per
//! feature, per block of 64 mask words, takes each tree's lowest set bit as
//! its exit leaf and adds the leaves in the order the trees were grown, so
//! predictions are bit-identical to walking the fit-time trees.
//! [`GbdtClassifier::predict_proba_batch_into`] scores a batch of rows in
//! passes that fetch each block's table and leaves once for all their rows,
//! each row's scores bit for bit its own;
//! [`GbdtClassifier::predict_proba_into`] is a batch of one. Neither
//! allocates. The snapshot
//! codec writes each feature's distinct thresholds once and each split as
//! a `u16` feature and a `u16` threshold rank, with no split gains or child
//! indices; the decoder rebuilds the table and rejects malformed structure
//! with `DecodeError::Invalid`.
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

mod compiled;
mod model;
mod tree;

pub use model::{FitJob, GbdtClassifier, GbdtConfig};
