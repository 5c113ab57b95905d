//! The boosting loop: softmax objective over per-class regression trees.

use crate::tree::{Presorted, RegressionTree, SplitMode, TreeGrower, TreeParams, MAX_BINS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// Hyperparameters of [`GbdtClassifier::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Boosting rounds (each round grows one tree per class).
    pub rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage applied to every leaf.
    pub learning_rate: f64,
    /// L2 regularization on leaf weights.
    pub lambda: f64,
    /// Minimum split gain (complexity penalty).
    pub gamma: f64,
    /// Minimum hessian mass per child.
    pub min_child_weight: f64,
    /// Row-subsampling fraction per round, in `(0, 1]`.
    pub subsample: f64,
    /// Column-subsampling fraction per tree, in `(0, 1]`.
    pub colsample: f64,
    /// How candidate split thresholds are enumerated.
    pub split_mode: SplitMode,
    /// Seed for the subsampling RNG.
    pub seed: u64,
}

impl GbdtConfig {
    /// A compact configuration suited to CQC's small tabular inputs.
    pub fn small() -> Self {
        Self {
            rounds: 60,
            max_depth: 4,
            learning_rate: 0.2,
            lambda: 1.0,
            gamma: 0.0,
            // Softmax hessians are at most 0.25 per row, so a whole-unit
            // child-weight floor would forbid splits on tiny datasets.
            min_child_weight: 0.1,
            subsample: 0.9,
            colsample: 0.9,
            split_mode: SplitMode::Exact,
            seed: 17,
        }
    }

    /// A histogram-split configuration for larger tabular inputs.
    pub fn histogram(bins: usize) -> Self {
        Self {
            split_mode: SplitMode::Histogram { bins },
            ..Self::small()
        }
    }

    /// Checks every hyperparameter: the one rule both
    /// [`GbdtClassifier::fit`] (which panics with the error's message) and
    /// the snapshot decoder (which reports `Invalid`) enforce.
    ///
    /// # Errors
    ///
    /// The first hyperparameter out of range, checked in field order.
    pub fn check(&self) -> Result<(), GbdtConfigError> {
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        let fraction = |x: f64| x > 0.0 && x <= 1.0;
        let bins_ok = match self.split_mode {
            SplitMode::Exact => true,
            SplitMode::Histogram { bins } => (2..=MAX_BINS).contains(&bins),
        };
        if self.rounds == 0 {
            Err(GbdtConfigError::NoRounds)
        } else if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            Err(GbdtConfigError::LearningRate)
        } else if !(non_negative(self.lambda) && non_negative(self.gamma)) {
            Err(GbdtConfigError::Regularizer)
        } else if !non_negative(self.min_child_weight) {
            Err(GbdtConfigError::MinChildWeight)
        } else if !fraction(self.subsample) {
            Err(GbdtConfigError::Subsample)
        } else if !fraction(self.colsample) {
            Err(GbdtConfigError::Colsample)
        } else if !bins_ok {
            Err(GbdtConfigError::HistogramBins)
        } else {
            Ok(())
        }
    }
}

/// Why a [`GbdtConfig`] is invalid (see [`GbdtConfig::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GbdtConfigError {
    /// `rounds` is zero.
    NoRounds,
    /// `learning_rate` is not finite and positive.
    LearningRate,
    /// `lambda` or `gamma` is negative or not finite.
    Regularizer,
    /// `min_child_weight` is negative or not finite.
    MinChildWeight,
    /// `subsample` is outside `(0, 1]`.
    Subsample,
    /// `colsample` is outside `(0, 1]`.
    Colsample,
    /// [`SplitMode::Histogram`] asks for fewer than 2 or more than 65 536
    /// bins.
    HistogramBins,
}

impl std::fmt::Display for GbdtConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GbdtConfigError::NoRounds => "need at least one boosting round",
            GbdtConfigError::LearningRate => "learning rate must be positive and finite",
            GbdtConfigError::Regularizer => "regularizers must be >= 0 and finite",
            GbdtConfigError::MinChildWeight => "min_child_weight must be >= 0 and finite",
            GbdtConfigError::Subsample => "subsample must be in (0, 1]",
            GbdtConfigError::Colsample => "colsample must be in (0, 1]",
            GbdtConfigError::HistogramBins => "histogram bins must be in 2..=65536",
        })
    }
}

impl std::error::Error for GbdtConfigError {}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// A trained multiclass gradient-boosting model.
///
/// See the crate docs for the objective; use [`GbdtClassifier::fit`] to train
/// and [`GbdtClassifier::predict_proba`] / [`GbdtClassifier::predict`] for
/// inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtClassifier {
    /// `trees[round][class]`.
    trees: Vec<Vec<RegressionTree>>,
    /// Per-class prior log-odds (from class frequencies).
    base_scores: Vec<f64>,
    classes: usize,
    features: usize,
    learning_rate: f64,
    importance: Vec<f64>,
}

impl GbdtClassifier {
    /// Trains with early stopping: after each boosting round the model is
    /// scored on the held-out `(val_rows, val_labels)` by multiclass
    /// log-loss, and training stops once `patience` rounds pass without an
    /// improvement; the returned model is truncated to the best round.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GbdtClassifier::fit`], plus if
    /// the validation set is empty/ragged or `patience == 0`.
    pub fn fit_with_validation(
        rows: &[Vec<f64>],
        labels: &[usize],
        val_rows: &[Vec<f64>],
        val_labels: &[usize],
        classes: usize,
        config: &GbdtConfig,
        patience: usize,
    ) -> Self {
        assert!(patience > 0, "patience must be positive");
        assert!(
            !val_rows.is_empty() && val_rows.len() == val_labels.len(),
            "validation set must be non-empty and consistent"
        );
        let mut model = Self::fit(rows, labels, classes, config);

        // Score the validation set incrementally, one round at a time.
        let mut scores: Vec<Vec<f64>> = vec![model.base_scores.clone(); val_rows.len()];
        let mut best_loss = f64::INFINITY;
        let mut best_round = 0usize;
        for round in 0..model.trees.len() {
            for (score, row) in scores.iter_mut().zip(val_rows) {
                for (class, tree) in model.trees[round].iter().enumerate() {
                    score[class] += model.learning_rate * tree.predict(row);
                }
            }
            let loss = log_loss_of_scores(&scores, val_labels);
            if loss < best_loss - 1e-9 {
                best_loss = loss;
                best_round = round + 1;
            } else if round + 1 - best_round >= patience {
                break;
            }
        }
        model.trees.truncate(best_round.max(1));
        model.importance = importance(&model.trees, model.features);
        model
    }

    /// Multiclass log-loss of this model on a labeled set (lower is better).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or inconsistent.
    pub fn log_loss(&self, rows: &[Vec<f64>], labels: &[usize]) -> f64 {
        assert!(
            !rows.is_empty() && rows.len() == labels.len(),
            "bad eval set"
        );
        let scores: Vec<Vec<f64>> = rows.iter().map(|r| self.decision_scores(r)).collect();
        log_loss_of_scores(&scores, labels)
    }

    /// Trains a model on dense rows.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or ragged, a label is `>= classes`, a
    /// feature is not finite, or [`GbdtConfig::check`] rejects the
    /// configuration (the panic message is the error's).
    pub fn fit(rows: &[Vec<f64>], labels: &[usize], classes: usize, config: &GbdtConfig) -> Self {
        if let Err(err) = config.check() {
            panic!("{err}");
        }
        assert!(!rows.is_empty(), "training set must be non-empty");
        assert_eq!(rows.len(), labels.len(), "one label per row");
        assert!(classes >= 2, "need at least two classes");
        let n_features = rows[0].len();
        assert!(n_features > 0, "rows must have at least one feature");
        for row in rows {
            assert_eq!(row.len(), n_features, "ragged feature rows");
            assert!(row.iter().all(|v| v.is_finite()), "features must be finite");
        }
        assert!(
            labels.iter().all(|&l| l < classes),
            "labels must be < classes"
        );

        Self::boost(
            rows,
            labels,
            classes,
            config,
            Presorted::new(rows, tree_params(config)),
        )
    }

    /// The boosting loop over validated inputs; `grower` fits the trees.
    fn boost(
        rows: &[Vec<f64>],
        labels: &[usize],
        classes: usize,
        config: &GbdtConfig,
        mut grower: impl TreeGrower,
    ) -> Self {
        let n = rows.len();
        let n_features = rows[0].len();
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Prior log-odds from class frequencies (Laplace smoothed).
        let mut counts = vec![1.0f64; classes];
        for &l in labels {
            counts[l] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let base_scores: Vec<f64> = counts.iter().map(|c| (c / total).ln()).collect();

        // Raw scores per (row, class).
        let mut scores: Vec<Vec<f64>> = vec![base_scores.clone(); n];

        let mut trees = Vec::with_capacity(config.rounds);
        let all_rows: Vec<usize> = (0..n).collect();
        let all_cols: Vec<usize> = (0..n_features).collect();

        for _ in 0..config.rounds {
            // Row subsample for this round.
            let rows_used: Vec<usize> = if config.subsample < 1.0 {
                let take = ((n as f64 * config.subsample).round() as usize).clamp(1, n);
                let mut shuffled = all_rows.clone();
                shuffled.shuffle(&mut rng);
                shuffled.truncate(take);
                shuffled
            } else {
                all_rows.clone()
            };
            grower.start_round(&rows_used);

            // Softmax probabilities for the current scores.
            let probs: Vec<Vec<f64>> = scores.iter().map(|s| softmax(s)).collect();

            let mut round_trees = Vec::with_capacity(classes);
            for class in 0..classes {
                let grad: Vec<f64> = (0..n)
                    .map(|i| probs[i][class] - if labels[i] == class { 1.0 } else { 0.0 })
                    .collect();
                let hess: Vec<f64> = (0..n)
                    .map(|i| (probs[i][class] * (1.0 - probs[i][class])).max(1e-6))
                    .collect();

                let cols_used: Vec<usize> = if config.colsample < 1.0 {
                    let take = ((n_features as f64 * config.colsample).round() as usize)
                        .clamp(1, n_features);
                    let mut shuffled = all_cols.clone();
                    shuffled.shuffle(&mut rng);
                    shuffled.truncate(take);
                    shuffled
                } else {
                    all_cols.clone()
                };

                let tree = grower.grow(&grad, &hess, &cols_used);
                // Update scores for all rows (not just the subsample).
                for (i, row) in rows.iter().enumerate() {
                    scores[i][class] += config.learning_rate * tree.predict(row);
                }
                round_trees.push(tree);
            }
            trees.push(round_trees);
        }

        Self {
            importance: importance(&trees, n_features),
            trees,
            base_scores,
            classes,
            features: n_features,
            learning_rate: config.learning_rate,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of input features the model expects.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Boosting rounds actually trained.
    pub fn rounds(&self) -> usize {
        self.trees.len()
    }

    /// Raw (pre-softmax) scores for one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.features()`.
    pub fn decision_scores(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.features, "feature arity mismatch");
        let mut scores = self.base_scores.clone();
        for round in &self.trees {
            for (class, tree) in round.iter().enumerate() {
                scores[class] += self.learning_rate * tree.predict(row);
            }
        }
        scores
    }

    /// Class-probability vector (softmax of the decision scores).
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        softmax(&self.decision_scores(row))
    }

    /// The most probable class.
    pub fn predict(&self, row: &[f64]) -> usize {
        let probs = self.predict_proba(row);
        probs
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite probabilities"))
            .map(|(i, _)| i)
            .expect("at least two classes")
    }

    /// Accuracy over a labeled evaluation set.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or mismatched.
    pub fn accuracy(&self, rows: &[Vec<f64>], labels: &[usize]) -> f64 {
        assert!(
            !rows.is_empty() && rows.len() == labels.len(),
            "bad eval set"
        );
        let correct = rows
            .iter()
            .zip(labels)
            .filter(|(row, &l)| self.predict(row) == l)
            .count();
        correct as f64 / rows.len() as f64
    }

    /// Total split gain accumulated per feature (unnormalized importances).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }
}

// ---------------------------------------------------------------------------
// Snapshot codecs (`serde::binary`): decoding re-checks the constructor
// invariants and reports `Invalid` instead of panicking.

impl Encode for GbdtConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rounds.encode(out);
        self.max_depth.encode(out);
        self.learning_rate.encode(out);
        self.lambda.encode(out);
        self.gamma.encode(out);
        self.min_child_weight.encode(out);
        self.subsample.encode(out);
        self.colsample.encode(out);
        self.split_mode.encode(out);
        self.seed.encode(out);
    }
}

impl Decode for GbdtConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let config = Self {
            rounds: usize::decode(r)?,
            max_depth: usize::decode(r)?,
            learning_rate: f64::decode(r)?,
            lambda: f64::decode(r)?,
            gamma: f64::decode(r)?,
            min_child_weight: f64::decode(r)?,
            subsample: f64::decode(r)?,
            colsample: f64::decode(r)?,
            split_mode: SplitMode::decode(r)?,
            seed: u64::decode(r)?,
        };
        config.check().map_err(|_| DecodeError::Invalid)?;
        Ok(config)
    }
}

impl Encode for GbdtClassifier {
    fn encode(&self, out: &mut Vec<u8>) {
        self.trees.encode(out);
        self.base_scores.encode(out);
        self.classes.encode(out);
        self.features.encode(out);
        self.learning_rate.encode(out);
        self.importance.encode(out);
    }
}

impl Decode for GbdtClassifier {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let trees = Vec::<Vec<RegressionTree>>::decode(r)?;
        let base_scores = Vec::<f64>::decode(r)?;
        let classes = usize::decode(r)?;
        let features = usize::decode(r)?;
        let learning_rate = f64::decode(r)?;
        let importance = Vec::<f64>::decode(r)?;
        let valid = classes >= 2
            && features > 0
            && base_scores.len() == classes
            && importance.len() == features
            && learning_rate.is_finite()
            && trees.iter().all(|round| round.len() == classes);
        if !valid {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            trees,
            base_scores,
            classes,
            features,
            learning_rate,
            importance,
        })
    }
}

/// The split-tree parameters of a boosting configuration.
fn tree_params(config: &GbdtConfig) -> TreeParams {
    TreeParams {
        max_depth: config.max_depth,
        lambda: config.lambda,
        gamma: config.gamma,
        min_child_weight: config.min_child_weight,
        split_mode: config.split_mode,
    }
}

/// Total split gain per feature over `trees`, accumulated round-major and
/// class-minor (the order [`GbdtClassifier::fit`] grows them in).
fn importance(trees: &[Vec<RegressionTree>], features: usize) -> Vec<f64> {
    let mut importance = vec![0.0; features];
    for tree in trees.iter().flatten() {
        tree.accumulate_importance(&mut importance);
    }
    importance
}

fn log_loss_of_scores(scores: &[Vec<f64>], labels: &[usize]) -> f64 {
    let mut total = 0.0;
    for (score, &label) in scores.iter().zip(labels) {
        let probs = softmax(score);
        total -= probs[label].max(1e-12).ln();
    }
    total / scores.len() as f64
}

fn softmax(scores: &[f64]) -> Vec<f64> {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::per_node_sort::{self, Stream};
    use proptest::prelude::*;

    /// Three Gaussian-ish blobs on a line, deterministic construction.
    fn blobs(n_per_class: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for i in 0..n_per_class {
                let jitter = ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
                rows.push(vec![c as f64 * 3.0 + jitter, (i % 7) as f64 / 7.0]);
                labels.push(c);
            }
        }
        (rows, labels)
    }

    #[test]
    fn learns_separable_blobs_perfectly() {
        let (rows, labels) = blobs(30);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        assert_eq!(model.accuracy(&rows, &labels), 1.0);
    }

    #[test]
    fn probabilities_are_normalized() {
        let (rows, labels) = blobs(10);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        for row in &rows {
            let p = model.predict_proba(row);
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|x| (0.0..=1.0).contains(x)));
        }
    }

    #[test]
    fn more_rounds_do_not_hurt_training_fit() {
        let (rows, labels) = blobs(20);
        let short = GbdtClassifier::fit(
            &rows,
            &labels,
            3,
            &GbdtConfig {
                rounds: 2,
                ..GbdtConfig::small()
            },
        );
        let long = GbdtClassifier::fit(
            &rows,
            &labels,
            3,
            &GbdtConfig {
                rounds: 40,
                ..GbdtConfig::small()
            },
        );
        assert!(long.accuracy(&rows, &labels) >= short.accuracy(&rows, &labels));
    }

    #[test]
    fn learns_xor() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let a = (i / 20) as f64;
            let b = ((i / 10) % 2) as f64;
            let noise = (i % 10) as f64 * 0.01;
            rows.push(vec![a + noise, b - noise]);
            labels.push((a as usize) ^ (b as usize));
        }
        let model = GbdtClassifier::fit(&rows, &labels, 2, &GbdtConfig::small());
        assert!(model.accuracy(&rows, &labels) > 0.95);
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, labels) = blobs(15);
        let a = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        let b = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        assert_eq!(a, b);
    }

    #[test]
    fn base_scores_reflect_class_imbalance() {
        // 90% class 0 with uninformative features: model should predict 0.
        let rows: Vec<Vec<f64>> = (0..100).map(|_| vec![0.5]).collect();
        let mut labels = vec![0usize; 90];
        labels.extend(vec![1usize; 10]);
        let model = GbdtClassifier::fit(&rows, &labels, 2, &GbdtConfig::small());
        assert_eq!(model.predict(&[0.5]), 0);
        let p = model.predict_proba(&[0.5]);
        assert!(p[0] > 0.7, "prior must dominate: {p:?}");
    }

    #[test]
    fn feature_importance_identifies_signal_feature() {
        let (rows, labels) = blobs(30);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        let imp = model.feature_importance();
        assert!(imp[0] > imp[1], "importances {imp:?}");
    }

    #[test]
    fn generalizes_to_held_out_points() {
        let (rows, labels) = blobs(40);
        let (train_r, test_r): (Vec<_>, Vec<_>) = rows
            .iter()
            .cloned()
            .enumerate()
            .partition(|(i, _)| i % 4 != 0);
        let (train_l, test_l): (Vec<_>, Vec<_>) = labels
            .iter()
            .copied()
            .enumerate()
            .partition(|(i, _)| i % 4 != 0);
        let train_rows: Vec<Vec<f64>> = train_r.into_iter().map(|(_, r)| r).collect();
        let train_labels: Vec<usize> = train_l.into_iter().map(|(_, l)| l).collect();
        let test_rows: Vec<Vec<f64>> = test_r.into_iter().map(|(_, r)| r).collect();
        let test_labels: Vec<usize> = test_l.into_iter().map(|(_, l)| l).collect();
        let model = GbdtClassifier::fit(&train_rows, &train_labels, 3, &GbdtConfig::small());
        assert!(model.accuracy(&test_rows, &test_labels) > 0.9);
    }

    #[test]
    fn histogram_mode_matches_exact_accuracy_on_blobs() {
        let (rows, labels) = blobs(40);
        let exact = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        let hist = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::histogram(32));
        let acc_exact = exact.accuracy(&rows, &labels);
        let acc_hist = hist.accuracy(&rows, &labels);
        assert!(
            acc_hist >= acc_exact - 0.05,
            "histogram {acc_hist} must track exact {acc_exact}"
        );
    }

    #[test]
    fn early_stopping_truncates_on_noise() {
        // Random labels: beyond a few rounds the model only memorizes, so
        // validation loss stops improving and early stopping must kick in
        // well before the configured 80 rounds.
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![((i * 37) % 97) as f64, ((i * 61) % 89) as f64])
            .collect();
        let labels: Vec<usize> = (0..120).map(|i| (i * 7 + i / 13) % 3).collect();
        let (train_r, val_r) = rows.split_at(80);
        let (train_l, val_l) = labels.split_at(80);
        let config = GbdtConfig {
            rounds: 80,
            ..GbdtConfig::small()
        };
        let model =
            GbdtClassifier::fit_with_validation(train_r, train_l, val_r, val_l, 3, &config, 5);
        assert!(model.rounds() < 80, "stopped at {} rounds", model.rounds());
        // And the truncated model's validation loss must be no worse than
        // the fully boosted one.
        let full = GbdtClassifier::fit(train_r, train_l, 3, &config);
        assert!(model.log_loss(val_r, val_l) <= full.log_loss(val_r, val_l) + 1e-9);
    }

    #[test]
    fn early_stopping_keeps_training_on_clean_data() {
        let (rows, labels) = blobs(40);
        let (train_r, val_r) = rows.split_at(90);
        let (train_l, val_l) = labels.split_at(90);
        let config = GbdtConfig {
            rounds: 30,
            ..GbdtConfig::small()
        };
        let model =
            GbdtClassifier::fit_with_validation(train_r, train_l, val_r, val_l, 3, &config, 10);
        assert!(model.accuracy(val_r, val_l) > 0.9);
    }

    #[test]
    fn log_loss_orders_models_sensibly() {
        let (rows, labels) = blobs(20);
        let short = GbdtClassifier::fit(
            &rows,
            &labels,
            3,
            &GbdtConfig {
                rounds: 1,
                ..GbdtConfig::small()
            },
        );
        let long = GbdtClassifier::fit(
            &rows,
            &labels,
            3,
            &GbdtConfig {
                rounds: 40,
                ..GbdtConfig::small()
            },
        );
        assert!(long.log_loss(&rows, &labels) < short.log_loss(&rows, &labels));
    }

    #[test]
    fn cloned_models_predict_identically() {
        let (rows, labels) = blobs(15);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        let clone = model.clone();
        assert_eq!(model, clone);
        for row in &rows {
            assert_eq!(model.predict_proba(row), clone.predict_proba(row));
        }
    }

    #[test]
    fn snapshot_codec_round_trips_a_trained_model() {
        let (rows, labels) = blobs(15);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        let restored = GbdtClassifier::from_bytes(&model.to_bytes()).expect("round trip");
        assert_eq!(model, restored);
        let config = GbdtConfig::histogram(32);
        assert_eq!(GbdtConfig::from_bytes(&config.to_bytes()), Ok(config));
    }

    #[test]
    fn early_stopped_model_equals_a_fit_of_its_kept_rounds() {
        // The noisy set from `early_stopping_truncates_on_noise`: RNG draws
        // are prefix-identical, so the truncated model, importances
        // included, is exactly a shorter fit.
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![((i * 37) % 97) as f64, ((i * 61) % 89) as f64])
            .collect();
        let labels: Vec<usize> = (0..120).map(|i| (i * 7 + i / 13) % 3).collect();
        let (train_r, val_r) = rows.split_at(80);
        let (train_l, val_l) = labels.split_at(80);
        let config = GbdtConfig {
            rounds: 80,
            ..GbdtConfig::small()
        };
        let model =
            GbdtClassifier::fit_with_validation(train_r, train_l, val_r, val_l, 3, &config, 5);
        assert!(model.rounds() < 80);
        let short = GbdtConfig {
            rounds: model.rounds(),
            ..config
        };
        assert_eq!(model, GbdtClassifier::fit(train_r, train_l, 3, &short));
    }

    #[test]
    fn check_agrees_with_the_snapshot_decoder() {
        let cases = [
            GbdtConfig {
                rounds: 0,
                ..GbdtConfig::small()
            },
            GbdtConfig {
                learning_rate: f64::INFINITY,
                ..GbdtConfig::small()
            },
            GbdtConfig {
                lambda: f64::INFINITY,
                ..GbdtConfig::small()
            },
            GbdtConfig {
                gamma: f64::NAN,
                ..GbdtConfig::small()
            },
            GbdtConfig {
                min_child_weight: f64::INFINITY,
                ..GbdtConfig::small()
            },
            GbdtConfig {
                subsample: 1.5,
                ..GbdtConfig::small()
            },
            GbdtConfig {
                colsample: 0.0,
                ..GbdtConfig::small()
            },
            GbdtConfig::histogram(0),
            GbdtConfig::histogram(1),
            GbdtConfig::histogram(MAX_BINS + 1),
            GbdtConfig::histogram(usize::MAX),
            GbdtConfig::histogram(2),
            GbdtConfig::histogram(MAX_BINS),
            GbdtConfig::small(),
        ];
        for config in cases {
            let decoded = GbdtConfig::from_bytes(&config.to_bytes());
            assert_eq!(
                config.check().is_ok(),
                decoded.is_ok(),
                "{config:?}: check {:?}, decode {decoded:?}",
                config.check()
            );
        }
        assert_eq!(
            GbdtConfig::histogram(usize::MAX).check(),
            Err(GbdtConfigError::HistogramBins)
        );
        assert_eq!(
            GbdtConfig {
                min_child_weight: f64::INFINITY,
                ..GbdtConfig::small()
            }
            .check(),
            Err(GbdtConfigError::MinChildWeight)
        );
    }

    #[test]
    #[should_panic(expected = "min_child_weight must be >= 0")]
    fn fit_rejects_an_infinite_min_child_weight() {
        let (rows, labels) = blobs(5);
        let config = GbdtConfig {
            min_child_weight: f64::INFINITY,
            ..GbdtConfig::small()
        };
        GbdtClassifier::fit(&rows, &labels, 3, &config);
    }

    #[test]
    #[should_panic(expected = "histogram bins must be in 2..=65536")]
    fn fit_rejects_a_one_bin_histogram() {
        let (rows, labels) = blobs(5);
        GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::histogram(1));
    }

    #[test]
    #[should_panic(expected = "patience must be positive")]
    fn zero_patience_rejected() {
        let (rows, labels) = blobs(5);
        GbdtClassifier::fit_with_validation(
            &rows,
            &labels,
            &rows,
            &labels,
            3,
            &GbdtConfig::small(),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "labels must be < classes")]
    fn rejects_out_of_range_labels() {
        GbdtClassifier::fit(&[vec![0.0]], &[5], 3, &GbdtConfig::small());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        GbdtClassifier::fit(
            &[vec![0.0], vec![0.0, 1.0]],
            &[0, 1],
            2,
            &GbdtConfig::small(),
        );
    }

    #[test]
    #[should_panic(expected = "feature arity mismatch")]
    fn rejects_wrong_arity_at_predict() {
        let (rows, labels) = blobs(5);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        model.predict(&[1.0, 2.0, 3.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// `fit` is byte-identical to the boosting loop driven by the
        /// per-node-sort oracle, across sizes, widths, class counts, depths,
        /// subsampling, tie-heavy or continuous features and both split
        /// modes.
        #[test]
        fn fit_matches_the_per_node_sort_oracle(
            seed in 0u64..u64::MAX,
            n in 5usize..600,
            width in 1usize..13,
            classes in 2usize..5,
            levels in 0usize..10,
            max_depth in 0usize..7,
        ) {
            let mut s = Stream(seed);
            let rows = s.features(n, width, levels);
            let labels: Vec<usize> = (0..n).map(|_| s.below(classes)).collect();
            let config = GbdtConfig {
                rounds: 1 + s.below(4),
                max_depth,
                min_child_weight: s.unit(),
                subsample: 0.5 + 0.5 * s.unit(),
                colsample: 0.3 + 0.7 * s.unit(),
                seed: s.next(),
                split_mode: if s.below(4) == 0 {
                    SplitMode::Histogram { bins: 2 + s.below(40) }
                } else {
                    SplitMode::Exact
                },
                ..GbdtConfig::small()
            };
            let fitted = GbdtClassifier::fit(&rows, &labels, classes, &config);
            let oracle = per_node_sort::Oracle::new(&rows, tree_params(&config));
            let oracle = GbdtClassifier::boost(&rows, &labels, classes, &config, oracle);
            prop_assert_eq!(fitted.to_bytes(), oracle.to_bytes());
        }
    }
}
