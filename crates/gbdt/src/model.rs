//! The boosting loop: softmax objective over per-class regression trees.

use crate::compiled::{Forest, LEAF, MAX_LEAVES};
use crate::tree::{Presorted, RegressionTree, TreeGrower, TreeParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};

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
    /// Seed for the subsampling RNG.
    pub seed: u64,
}

impl GbdtConfig {
    /// The deepest tree [`GbdtClassifier::fit`] grows: its `2^11` leaves
    /// fill the compiled form's widest leaf mask (DESIGN.md §6 "Compiled
    /// inference layout").
    pub const MAX_DEPTH: usize = MAX_LEAVES.ilog2() as usize;

    /// A compact configuration suited to CQC's small tabular inputs.
    pub const fn small() -> Self {
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
            seed: 17,
        }
    }

    /// The one validity rule, checked in field order: [`GbdtClassifier::fit`]
    /// panics with its message.
    pub fn check(&self) -> Result<(), &'static str> {
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        let fraction = |x: f64| x > 0.0 && x <= 1.0;
        if self.rounds == 0 {
            Err("need at least one boosting round")
        } else if self.max_depth > Self::MAX_DEPTH {
            Err("max_depth must be at most 11")
        } else if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            Err("learning rate must be positive and finite")
        } else if !(non_negative(self.lambda) && non_negative(self.gamma)) {
            Err("regularizers must be >= 0 and finite")
        } else if !non_negative(self.min_child_weight) {
            Err("min_child_weight must be >= 0 and finite")
        } else if !fraction(self.subsample) {
            Err("subsample must be in (0, 1]")
        } else if !fraction(self.colsample) {
            Err("colsample must be in (0, 1]")
        } else {
            Ok(())
        }
    }
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// A trained multiclass gradient-boosting model.
///
/// See the crate docs for the objective; use [`GbdtClassifier::fit`] to train
/// and [`GbdtClassifier::predict_proba`] / [`GbdtClassifier::predict`] for
/// inference. The trees are held compiled, as a table of per-feature prefix
/// leaf masks (DESIGN.md §6 "Compiled inference layout").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtClassifier {
    /// Tree `round * classes + class` adds to class `class`.
    forest: Forest,
    /// Per-class prior log-odds (from class frequencies).
    base_scores: Vec<f64>,
    classes: usize,
    features: usize,
    learning_rate: f64,
    importance: Vec<f64>,
}

/// A model as boosting leaves it: the fit-time trees, gains included, which
/// importances are summed from before the model compiles them.
struct Boosted {
    /// Tree `round * classes + class` adds to class `class`.
    trees: Vec<RegressionTree>,
    base_scores: Vec<f64>,
    classes: usize,
    features: usize,
    learning_rate: f64,
}

impl Boosted {
    /// Compiles the trees into the flat inference form.
    fn compile(self) -> GbdtClassifier {
        let preorder: Vec<(u16, f64)> = self
            .trees
            .iter()
            .flat_map(RegressionTree::preorder)
            .collect();
        GbdtClassifier {
            forest: Forest::from_preorder(&preorder, self.trees.len(), self.features).expect(
                "fitted trees are complete preorders with finite leaves, within MAX_DEPTH, \
                 and split a feature at most 65 536 ways",
            ),
            importance: importance(&self.trees, self.features),
            base_scores: self.base_scores,
            classes: self.classes,
            features: self.features,
            learning_rate: self.learning_rate,
        }
    }
}

impl GbdtClassifier {
    /// Trains a model on dense rows. Each round's per-class trees grow
    /// concurrently on up to one thread per class; the model is the same,
    /// bit for bit, whatever the thread count (DESIGN.md §6 "Parallel
    /// class trees").
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or ragged, rows have more than 65 535
    /// features, a label is `>= classes`, a feature is not finite,
    /// [`GbdtConfig::check`] rejects the configuration (the panic message
    /// is the check's), or the trees split one feature at more than 65 536
    /// distinct thresholds (possible only on more than 65 537 rows).
    pub fn fit(rows: &[Vec<f64>], labels: &[usize], classes: usize, config: &GbdtConfig) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::fit_trees(rows, labels, classes, config, workers.min(classes)).compile()
    }

    /// [`GbdtClassifier::fit`] up to the fit-time trees, on `workers`
    /// threads.
    fn fit_trees(
        rows: &[Vec<f64>],
        labels: &[usize],
        classes: usize,
        config: &GbdtConfig,
        workers: usize,
    ) -> Boosted {
        config.check().unwrap_or_else(|e| panic!("{e}"));
        assert!(!rows.is_empty(), "training set must be non-empty");
        assert_eq!(rows.len(), labels.len(), "one label per row");
        assert!(classes >= 2, "need at least two classes");
        let n_features = rows[0].len();
        assert!(n_features > 0, "rows must have at least one feature");
        // Feature ids travel as `u16`, with `u16::MAX` marking a leaf.
        assert!(
            n_features <= usize::from(LEAF),
            "rows must have at most 65535 features"
        );
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
            workers,
        )
    }

    /// The boosting loop over validated inputs: `grower` fits the trees,
    /// and each round's per-class trees are shared out among `workers`
    /// threads, the calling one and `workers - 1` scoped helpers.
    ///
    /// The calling thread draws each round's row sample and then every
    /// class's columns, in the order of growing the trees one by one, and
    /// allocates every buffer the workers fill; trees are kept in class
    /// order. So the model does not depend on `workers` or on which thread
    /// grows which tree. The draws are the fit's only use of the RNG, so
    /// the calling thread makes round `r + 1`'s, and presorts its sample,
    /// once it has grown a tree of round `r`, while the other workers grow
    /// the rest.
    fn boost<G: TreeGrower>(
        rows: &[Vec<f64>],
        labels: &[usize],
        classes: usize,
        config: &GbdtConfig,
        grower: G,
        workers: usize,
    ) -> Boosted {
        assert!(workers > 0, "need at least one worker");
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

        let take_rows = ((n as f64 * config.subsample).round() as usize).clamp(1, n);
        let take_cols =
            ((n_features as f64 * config.colsample).round() as usize).clamp(1, n_features);
        // One scratch per worker: a tree's buffers are free again once the
        // tree is credited.
        let mut scratches: Vec<G::Scratch> = (0..workers).map(|_| grower.scratch()).collect();
        let fits = base_scores.iter().map(|&base| ClassFit {
            columns: Vec::with_capacity(n_features),
            gh: vec![[0.0; 2]; n],
            scores: vec![base; n],
            tree: RegressionTree::default(),
        });
        let mut next = Draws {
            sample: grower.sample(),
            columns: vec![Vec::with_capacity(n_features); classes],
        };
        let pool = &Pool::new(grower, fits.collect(), config, take_rows);

        let mut trees = Vec::with_capacity(config.rounds * classes);
        let mut rows_used: Vec<usize> = Vec::with_capacity(n);
        // The row sample, then each class's columns in class order: the
        // draws of growing the trees one by one.
        let mut draw = |next: &mut Draws<G::Sample>| {
            rows_used.clear();
            rows_used.extend(0..n);
            if config.subsample < 1.0 {
                rows_used.shuffle(&mut rng);
                rows_used.truncate(take_rows);
            }
            pool.grower.presort(&mut next.sample, &rows_used);
            for columns in &mut next.columns {
                columns.clear();
                columns.extend(0..n_features);
                if config.colsample < 1.0 {
                    columns.shuffle(&mut rng);
                    columns.truncate(take_cols);
                }
            }
        };
        std::thread::scope(|scope| {
            let _close = Close(pool);
            let mut scratch = scratches.pop().expect("at least one worker");
            for helper in scratches {
                scope.spawn(move || pool.help(helper));
            }
            draw(&mut next);
            for round in 1..=config.rounds {
                pool.open(&mut next, labels);
                pool.work_one(&mut scratch);
                if round < config.rounds {
                    draw(&mut next);
                }
                pool.work(&mut scratch);
                pool.finish(&mut trees);
            }
        });

        Boosted {
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

    /// Boosting rounds trained.
    pub fn rounds(&self) -> usize {
        self.forest.trees() / self.classes
    }

    /// Raw (pre-softmax) scores for one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.features()`.
    pub fn decision_scores(&self, row: &[f64]) -> Vec<f64> {
        let mut scores = vec![0.0; self.classes];
        self.decision_scores_into(row, &mut scores);
        scores
    }

    /// [`GbdtClassifier::decision_scores`] written into `scores`, one a
    /// class.
    fn decision_scores_into(&self, row: &[f64], scores: &mut [f64]) {
        assert_eq!(row.len(), self.features, "feature arity mismatch");
        scores.copy_from_slice(&self.base_scores);
        self.forest.add_leaves(row, self.learning_rate, scores);
    }

    /// Class-probability vector (softmax of the decision scores).
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut probs = vec![0.0; self.classes];
        self.predict_proba_into(row, &mut probs);
        probs
    }

    /// [`GbdtClassifier::predict_proba`] written into `probs`, with no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.features()` or
    /// `probs.len() != self.classes()`.
    pub fn predict_proba_into(&self, row: &[f64], probs: &mut [f64]) {
        self.decision_scores_into(row, probs);
        softmax_in_place(probs);
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

impl Encode for GbdtClassifier {
    fn encode(&self, out: &mut Vec<u8>) {
        self.forest.encode(out);
        self.base_scores.encode(out);
        self.classes.encode(out);
        self.features.encode(out);
        self.learning_rate.encode(out);
        self.importance.encode(out);
    }
}

/// Besides the shapes, the decoder bounds every class's score by its base
/// score plus the learning rate times each tree's largest leaf: when that
/// bound is finite, so is every score `predict_proba` sums, and so are the
/// probabilities.
impl Decode for GbdtClassifier {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let forest = Forest::decode(r)?;
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
            && learning_rate > 0.0
            && forest.trees() % classes == 0
            && forest.features() == features;
        if !valid {
            return Err(DecodeError::Invalid);
        }
        let mut bounds: Vec<f64> = base_scores.iter().map(|s| s.abs()).collect();
        for (tree, leaf) in forest.leaf_bounds().enumerate() {
            bounds[tree % classes] += learning_rate * leaf;
        }
        if !bounds.iter().all(|b| b.is_finite()) {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            forest,
            base_scores,
            classes,
            features,
            learning_rate,
            importance,
        })
    }
}

/// What the threads of one fit share.
struct Pool<G: TreeGrower> {
    grower: G,
    /// The sample of the round in progress: swapped in by the calling
    /// thread between rounds, read by the workers during one.
    sample: RwLock<G::Sample>,
    round: Mutex<Round>,
    /// Helpers wait here for a round to open or the fit to close.
    opened: Condvar,
    /// The calling thread waits here for a round's last tree.
    finished: Condvar,
    learning_rate: f64,
    max_depth: usize,
    /// The rows a round samples.
    take_rows: usize,
}

/// The round in progress.
struct Round {
    /// One per class, `None` while a worker has it out.
    classes: Vec<Option<ClassFit>>,
    /// The cursor: the next class to hand out.
    next: usize,
    /// Classes whose round is grown and credited.
    done: usize,
    /// Rounds opened so far.
    opened: usize,
    /// Set when the fit ends, or when a helper panics.
    closed: bool,
}

/// One class's share of the fit: its score on every training row and, for
/// the round in progress, its columns, `[gradient, hessian]` pairs and
/// tree.
struct ClassFit {
    columns: Vec<usize>,
    gh: Vec<[f64; 2]>,
    scores: Vec<f64>,
    tree: RegressionTree,
}

/// A round's draws, made before it opens: its presorted row sample and
/// each class's columns.
struct Draws<S> {
    sample: S,
    columns: Vec<Vec<usize>>,
}

impl<G: TreeGrower> Pool<G> {
    fn new(grower: G, classes: Vec<ClassFit>, config: &GbdtConfig, take_rows: usize) -> Self {
        let (next, done) = (classes.len(), classes.len());
        Self {
            sample: RwLock::new(grower.sample()),
            grower,
            round: Mutex::new(Round {
                classes: classes.into_iter().map(Some).collect(),
                next,
                done,
                opened: 0,
                closed: false,
            }),
            opened: Condvar::new(),
            finished: Condvar::new(),
            learning_rate: config.learning_rate,
            max_depth: config.max_depth,
            take_rows,
        }
    }

    /// A panicking worker leaves `closed` set; the lock's poison adds
    /// nothing to that.
    fn lock(&self) -> MutexGuard<'_, Round> {
        self.round.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens the round `draws` holds, on the calling thread: swaps its
    /// sample and columns in (leaving the last round's buffers in `draws`
    /// to draw the next round into), reserves each class's tree, takes the
    /// softmax gradients of the scores the earlier rounds left, and wakes
    /// the helpers.
    fn open(&self, draws: &mut Draws<G::Sample>, labels: &[usize]) {
        let mut round = self.lock();
        std::mem::swap(
            &mut *self.sample.write().unwrap_or_else(PoisonError::into_inner),
            &mut draws.sample,
        );
        let mut fits: Vec<&mut ClassFit> = round
            .classes
            .iter_mut()
            .map(|fit| {
                fit.as_mut()
                    .expect("invariant: every class is in between rounds")
            })
            .collect();
        for (fit, columns) in fits.iter_mut().zip(&mut draws.columns) {
            std::mem::swap(&mut fit.columns, columns);
            fit.tree = RegressionTree::with_room(self.max_depth, self.take_rows);
        }
        let mut probs = vec![0.0; fits.len()];
        for (i, &label) in labels.iter().enumerate() {
            for (p, fit) in probs.iter_mut().zip(&fits) {
                *p = fit.scores[i];
            }
            softmax_in_place(&mut probs);
            for (class, (&p, fit)) in probs.iter().zip(&mut fits).enumerate() {
                fit.gh[i] = [
                    p - if label == class { 1.0 } else { 0.0 },
                    (p * (1.0 - p)).max(1e-6),
                ];
            }
        }
        round.next = 0;
        round.done = 0;
        round.opened += 1;
        drop(round);
        self.opened.notify_all();
    }

    /// Grows and credits the next class's tree in `scratch`, if the round
    /// has one left, and says whether it had. Allocates nothing: the
    /// calling thread sized every buffer.
    fn work_one(&self, scratch: &mut G::Scratch) -> bool {
        let mut round = self.lock();
        if round.next == round.classes.len() {
            return false;
        }
        let class = round.next;
        round.next += 1;
        let mut fit = round.classes[class]
            .take()
            .expect("invariant: the cursor hands out each class once a round");
        drop(round);

        let sample = self.sample.read().unwrap_or_else(PoisonError::into_inner);
        let grower = &self.grower;
        grower.grow(&sample, scratch, &mut fit.tree, &fit.gh, &fit.columns);
        grower.credit(
            &sample,
            scratch,
            &fit.tree,
            self.learning_rate,
            &mut fit.scores,
        );
        drop(sample);

        let mut round = self.lock();
        round.classes[class] = Some(fit);
        round.done += 1;
        if round.done == round.classes.len() {
            self.finished.notify_one();
        }
        true
    }

    /// [`Pool::work_one`] until the round has no class left.
    fn work(&self, scratch: &mut G::Scratch) {
        while self.work_one(scratch) {}
    }

    /// A helper thread's life: it blocks until a round opens, works it,
    /// and returns once the fit closes.
    fn help(&self, mut scratch: G::Scratch) {
        let _close = Close(self);
        let mut seen = 0;
        loop {
            let mut round = self.lock();
            while round.opened == seen && !round.closed {
                round = self
                    .opened
                    .wait(round)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if round.closed {
                return;
            }
            seen = round.opened;
            drop(round);
            self.work(&mut scratch);
        }
    }

    /// Waits until every class of the round is grown and credited, then
    /// moves the round's trees to `trees` in class order.
    ///
    /// # Panics
    ///
    /// Panics if a helper panicked.
    fn finish(&self, trees: &mut Vec<RegressionTree>) {
        let mut round = self.lock();
        while round.done < round.classes.len() {
            assert!(!round.closed, "a tree-growing helper panicked");
            round = self
                .finished
                .wait(round)
                .unwrap_or_else(PoisonError::into_inner);
        }
        trees.extend(round.classes.iter_mut().map(|fit| {
            let fit = fit
                .as_mut()
                .expect("invariant: every class is in after a round");
            std::mem::take(&mut fit.tree)
        }));
    }
}

/// Closes the fit when dropped, on return or on a panic, and wakes every
/// waiting thread, so that none waits forever for one that is gone.
struct Close<'a, G: TreeGrower>(&'a Pool<G>);

impl<G: TreeGrower> Drop for Close<'_, G> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.opened.notify_all();
        self.0.finished.notify_all();
    }
}

/// The split-tree parameters of a boosting configuration.
fn tree_params(config: &GbdtConfig) -> TreeParams {
    TreeParams {
        max_depth: config.max_depth,
        lambda: config.lambda,
        gamma: config.gamma,
        min_child_weight: config.min_child_weight,
    }
}

/// Total split gain per feature over `trees`, accumulated round-major and
/// class-minor (the order [`GbdtClassifier::fit`] keeps them in).
fn importance(trees: &[RegressionTree], features: usize) -> Vec<f64> {
    let mut importance = vec![0.0; features];
    for tree in trees {
        tree.accumulate_importance(&mut importance);
    }
    importance
}

fn softmax_in_place(scores: &mut [f64]) {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
    }
    let sum: f64 = scores.iter().sum();
    for s in scores {
        *s /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::per_node_sort::{self, Stream};
    use crate::tree::NodeBits;
    use proptest::prelude::*;

    impl Boosted {
        /// Every tree's [`RegressionTree::bits`] and the base scores' bits.
        fn bits(&self) -> (Vec<Vec<NodeBits>>, Vec<u64>) {
            let trees = self.trees.iter().map(RegressionTree::bits);
            let base = self.base_scores.iter().map(|b| b.to_bits());
            (trees.collect(), base.collect())
        }
    }

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
    fn every_worker_count_fits_the_same_bytes() {
        let mut s = Stream(0x5eed);
        for classes in 2..=4 {
            let rows = s.features(240, 6, 5);
            let labels: Vec<usize> = (0..240).map(|_| s.below(classes)).collect();
            let config = GbdtConfig {
                rounds: 12,
                subsample: 0.7,
                colsample: 0.6,
                ..GbdtConfig::small()
            };
            let bytes = |workers| {
                GbdtClassifier::fit_trees(&rows, &labels, classes, &config, workers)
                    .compile()
                    .to_bytes()
            };
            let one = bytes(1);
            for workers in 2..=4 {
                assert_eq!(bytes(workers), one, "{classes} classes, {workers} workers");
            }
        }
    }

    /// Grows no tree: a helper thread panics, and the calling thread
    /// waits in `grow` until one has.
    struct PanickingHelper(std::sync::atomic::AtomicBool);

    impl TreeGrower for PanickingHelper {
        type Scratch = ();
        type Sample = ();

        fn scratch(&self) {}

        fn sample(&self) {}

        fn presort(&self, _: &mut (), _: &[usize]) {}

        fn grow(&self, _: &(), _: &mut (), _: &mut RegressionTree, _: &[[f64; 2]], _: &[usize]) {
            use std::sync::atomic::Ordering;
            // Scoped helpers are unnamed; the test thread is not.
            if std::thread::current().name().is_none() {
                self.0.store(true, Ordering::SeqCst);
                panic!("helper fails");
            }
            while !self.0.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }

        fn credit(&self, _: &(), _: &(), _: &RegressionTree, _: f64, _: &mut [f64]) {}
    }

    #[test]
    #[should_panic(expected = "a tree-growing helper panicked")]
    fn a_panicking_helper_fails_the_fit_instead_of_hanging() {
        let (rows, labels) = blobs(5);
        let grower = PanickingHelper(false.into());
        GbdtClassifier::boost(&rows, &labels, 3, &GbdtConfig::small(), grower, 2);
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
        let config = GbdtConfig::small();
        let model = GbdtClassifier::fit(&rows, &labels, 3, &config);
        let restored = GbdtClassifier::from_bytes(&model.to_bytes()).expect("round trip");
        assert_eq!(model, restored);
        for row in &rows {
            let bits = |m: &GbdtClassifier| -> Vec<u64> {
                m.predict_proba(row).into_iter().map(f64::to_bits).collect()
            };
            assert_eq!(bits(&model), bits(&restored));
        }
    }

    #[test]
    fn check_rejects_each_invalid_setting() {
        let cases = [
            GbdtConfig {
                rounds: 0,
                ..GbdtConfig::small()
            },
            GbdtConfig {
                max_depth: GbdtConfig::MAX_DEPTH + 1,
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
        ];
        for config in cases {
            assert!(config.check().is_err(), "{config:?}");
        }
        assert_eq!(GbdtConfig::small().check(), Ok(()));
        assert_eq!(
            GbdtConfig {
                min_child_weight: f64::INFINITY,
                ..GbdtConfig::small()
            }
            .check(),
            Err("min_child_weight must be >= 0 and finite")
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

    /// Fits shaped like CQC's boot fit (150 rounds of three classes at
    /// depth 5 over eleven few-valued features, and the same at depth 6,
    /// two mask words a tree) compile to the table the previous builder
    /// compiles.
    #[test]
    fn boot_shaped_fits_compile_as_the_previous_builder_did() {
        for (seed, max_depth) in [(1, 5), (2, 5), (3, 6)] {
            let mut s = Stream(seed);
            let rows = s.features(300, 11, 5);
            let labels: Vec<usize> = (0..300).map(|_| s.below(3)).collect();
            let config = GbdtConfig {
                rounds: 150,
                max_depth,
                learning_rate: 0.12,
                ..GbdtConfig::small()
            };
            let model = GbdtClassifier::fit(&rows, &labels, 3, &config);
            assert_eq!(model.forest.trees(), 450);
            let rebuilt = model.forest.previous_rebuild();
            assert_eq!(rebuilt, Ok(model.forest.clone()), "seed {seed}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// `fit` is byte-identical to the boosting loop driven by the
        /// per-node-sort oracle, across sizes, widths, class counts, depths,
        /// worker counts, subsampling and tie-heavy or continuous features.
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
                ..GbdtConfig::small()
            };
            let fitted = GbdtClassifier::fit_trees(&rows, &labels, classes, &config, 1 + s.below(4));
            let oracle = per_node_sort::Oracle::new(&rows, tree_params(&config));
            let oracle =
                GbdtClassifier::boost(&rows, &labels, classes, &config, oracle, 1 + s.below(4));
            prop_assert_eq!(fitted.bits(), oracle.bits());
            prop_assert_eq!(fitted.compile().to_bytes(), oracle.compile().to_bytes());
        }

        /// The compiled mask table, and its copy through the wire form,
        /// score every row bit for bit as the fit-time trees do, summed in
        /// (round, class) order, on training rows, rows with signed zeros,
        /// rows sitting on thresholds and rows with NaN or infinite
        /// features, over forests of up to 160 trees, several blocks of
        /// the table; and the table equals the one the previous builder
        /// compiles.
        #[test]
        fn compiled_scores_match_the_fit_time_trees(
            seed in 0u64..u64::MAX,
            n in 5usize..200,
            width in 1usize..8,
            classes in 2usize..5,
            levels in 0usize..6,
            max_depth in 0usize..7,
        ) {
            let mut s = Stream(seed);
            let rows = s.features(n, width, levels);
            let labels: Vec<usize> = (0..n).map(|_| s.below(classes)).collect();
            let config = GbdtConfig {
                rounds: 1 + s.below(40),
                max_depth,
                ..GbdtConfig::small()
            };
            let boosted = GbdtClassifier::fit_trees(&rows, &labels, classes, &config, 1);
            let expected = |row: &[f64]| {
                let mut scores = boosted.base_scores.clone();
                for round in boosted.trees.chunks(classes) {
                    for (class, tree) in round.iter().enumerate() {
                        scores[class] += boosted.learning_rate * tree.predict(row);
                    }
                }
                scores
            };
            let mut probes = rows.clone();
            probes.extend(s.features(n, width, levels + 2));
            probes.extend(rows.iter().map(|row| {
                row.iter()
                    .map(|&v| match s.below(6) {
                        0 => f64::NAN,
                        1 => v + 0.5,
                        2 => f64::INFINITY,
                        3 => f64::NEG_INFINITY,
                        _ => v,
                    })
                    .collect()
            }));
            let want: Vec<Vec<f64>> = probes.iter().map(|row| expected(row)).collect();
            let model = boosted.compile();
            prop_assert_eq!(model.forest.previous_rebuild(), Ok(model.forest.clone()));
            let copy = GbdtClassifier::from_bytes(&model.to_bytes()).expect("round trip");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (row, want) in probes.iter().zip(want) {
                prop_assert_eq!(bits(&model.decision_scores(row)), bits(&want), "row {:?}", row);
                prop_assert_eq!(bits(&copy.decision_scores(row)), bits(&want), "copy, row {:?}", row);
            }
        }
    }
}
