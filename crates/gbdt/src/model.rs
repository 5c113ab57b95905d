//! The boosting loop: softmax objective over per-class regression trees.

use crate::compiled::{self, Forest, LEAF, MAX_LEAVES};
use crate::tree::{Presorted, RegressionTree, TreeGrower, TreeParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
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

/// One training set of [`GbdtClassifier::fit_batch`]: dense rows, a label
/// per row, the class count and the hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct FitJob<'a> {
    /// Feature rows, all of one width.
    pub rows: &'a [Vec<f64>],
    /// One label per row, each `< classes`.
    pub labels: &'a [usize],
    /// Number of classes.
    pub classes: usize,
    /// Hyperparameters.
    pub config: &'a GbdtConfig,
}

impl FitJob<'_> {
    /// Panics unless the job is one [`GbdtClassifier::fit`] accepts.
    fn check(&self) {
        let Self {
            rows,
            labels,
            classes,
            config,
        } = *self;
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
    }
}

impl GbdtClassifier {
    /// Trains a model on dense rows: [`GbdtClassifier::fit_batch`] of one
    /// job.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or ragged, rows have more than 65 535
    /// features, a label is `>= classes`, a feature is not finite,
    /// [`GbdtConfig::check`] rejects the configuration (the panic message
    /// is the check's), or the trees split one feature at more than 65 536
    /// distinct thresholds (possible only on more than 65 537 rows).
    pub fn fit(rows: &[Vec<f64>], labels: &[usize], classes: usize, config: &GbdtConfig) -> Self {
        let job = FitJob {
            rows,
            labels,
            classes,
            config,
        };
        let mut models = Self::fit_batch(&[job]);
        models.pop().expect("one model per job")
    }

    /// Trains one model per job, in job order. The jobs' per-class trees
    /// grow on one pool of up to one thread per available CPU, with up to
    /// that many fits open at once; each model is the same, bit for bit,
    /// as [`GbdtClassifier::fit`] of its job alone, whatever the thread
    /// count or the other jobs (DESIGN.md §6 "Parallel class trees").
    ///
    /// # Panics
    ///
    /// Panics, before any tree grows, if [`GbdtClassifier::fit`] would
    /// panic on a job.
    pub fn fit_batch(jobs: &[FitJob<'_>]) -> Vec<Self> {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let mut models = vec![None; jobs.len()];
        Self::fit_trees(jobs, workers, |job, boosted| {
            models[job] = Some(boosted.compile());
        });
        models
            .into_iter()
            .map(|model| model.expect("invariant: the batch fits every job"))
            .collect()
    }

    /// [`GbdtClassifier::fit_batch`] up to the fit-time trees, on at most
    /// `workers` threads: hands each job's trees to `done` as its fit ends.
    fn fit_trees<'a>(jobs: &[FitJob<'a>], workers: usize, done: impl FnMut(usize, Boosted)) {
        for job in jobs {
            job.check();
        }
        // No more workers than trees a round; one for an empty batch.
        let classes: usize = jobs.iter().map(|job| job.classes).sum();
        let grower = |job: &FitJob<'a>| Presorted::new(job.rows, tree_params(job.config));
        Self::boost(jobs, grower, workers.min(classes).max(1), done);
    }

    /// The boosting loop over validated jobs: `grower` fits each job's
    /// trees, and the trees of up to `workers` open fits are shared out
    /// among `workers` threads, the calling one and `workers - 1` scoped
    /// helpers. Each job's trees go to `done` as its fit ends, so that a
    /// batch holds at most `workers` fits' trees uncompiled.
    ///
    /// The calling thread does everything but grow and credit trees: it
    /// builds each fit's grower and buffers, draws each fit's row and
    /// column samples in the order of growing its trees one by one,
    /// presorts them, takes the softmax gradients that open each round,
    /// and moves each round's trees out in class order. So a model does
    /// not depend on `workers`, on the other jobs or on which thread grows
    /// which tree. Besides growing trees, the calling thread opens one
    /// fit's round and draws the next while the helpers grow another's.
    fn boost<'a, G: TreeGrower>(
        jobs: &[FitJob<'a>],
        grower: impl Fn(&FitJob<'a>) -> G,
        workers: usize,
        mut done: impl FnMut(usize, Boosted),
    ) {
        assert!(workers > 0, "need at least one worker");
        let slots = workers.min(jobs.len());
        let most_classes = jobs.iter().map(|job| job.classes).max().unwrap_or(0);
        let pool = &Pool::new(slots, slots * most_classes);
        std::thread::scope(|scope| {
            let _close = Close(pool);
            for _ in 1..workers {
                scope.spawn(|| pool.help());
            }
            let mut pending = jobs.iter().enumerate();
            let mut start = |slot: usize| {
                pending
                    .next()
                    .map(|(index, job)| Fit::start(pool, slot, index, job, grower(job)))
            };
            let mut fits: Vec<Option<Fit<'a, G>>> = (0..slots).map(&mut start).collect();
            loop {
                pool.collect(false, &mut fits);
                if let Some(fit) = fits.iter_mut().flatten().find(|fit| fit.round_back()) {
                    fit.finish_round();
                    if fit.opened < fit.config.rounds {
                        fit.open(pool);
                    } else {
                        let slot = fit.slot;
                        let fit = fits[slot].take().expect("the fit just finished");
                        done(fit.job, fit.into_boosted());
                        fits[slot] = start(slot);
                        if fits[slot].is_none() {
                            *pool.fits[slot]
                                .write()
                                .unwrap_or_else(PoisonError::into_inner) = None;
                        }
                    }
                } else if let Some(fit) = fits.iter_mut().flatten().find(|fit| fit.due_draw()) {
                    fit.draw(pool);
                } else if fits.iter().all(Option::is_none) {
                    break;
                } else if !pool.work_one() {
                    pool.collect(true, &mut fits);
                }
            }
        });
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

    /// Rows one scoring pass takes: [`GbdtClassifier::predict_proba_batch_into`]
    /// scores a longer batch in passes of this many rows.
    pub const BATCH: usize = compiled::BATCH;

    /// Raw (pre-softmax) scores for one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.features()`.
    pub fn decision_scores(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.features, "feature arity mismatch");
        let mut scores = vec![0.0; self.classes];
        self.decision_scores_into(row, &mut scores);
        scores
    }

    /// The decision scores of the whole rows `rows` holds back to back,
    /// written into `scores`, one run of [`GbdtClassifier::classes`] a row.
    fn decision_scores_into(&self, rows: &[f64], scores: &mut [f64]) {
        // `chunks_mut`, not `chunks_exact_mut`: no division on a batch of
        // one, and the kernel checks the runs are whole.
        for run in scores.chunks_mut(self.classes) {
            run.copy_from_slice(&self.base_scores);
        }
        self.forest
            .add_leaves(rows, self.classes, self.learning_rate, scores);
    }

    /// Class-probability vector (softmax of the decision scores).
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut probs = vec![0.0; self.classes];
        self.predict_proba_into(row, &mut probs);
        probs
    }

    /// [`GbdtClassifier::predict_proba`] written into `probs`, with no
    /// allocation: a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.features()` or
    /// `probs.len() != self.classes()`.
    pub fn predict_proba_into(&self, row: &[f64], probs: &mut [f64]) {
        assert_eq!(row.len(), self.features, "feature arity mismatch");
        self.predict_proba_batch_into(row, probs);
    }

    /// [`GbdtClassifier::predict_proba`] of every row of a batch, with no
    /// allocation: `rows` holds the rows back to back,
    /// [`GbdtClassifier::features`] values each, and `probs` receives one
    /// run of [`GbdtClassifier::classes`] probabilities a row, in order.
    /// Each row's probabilities are bit for bit those it gets alone; the
    /// batch shares the passes over the trees, [`GbdtClassifier::BATCH`]
    /// rows a pass.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not whole rows or `probs` is not one run of
    /// probabilities a row.
    pub fn predict_proba_batch_into(&self, rows: &[f64], probs: &mut [f64]) {
        self.decision_scores_into(rows, probs);
        for run in probs.chunks_mut(self.classes) {
            softmax_in_place(run);
        }
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

/// What the threads of one batch share.
struct Pool<G: TreeGrower> {
    /// Each slot's open fit, if any: the calling thread sets it between
    /// that fit's rounds, and the workers read it during one.
    fits: Vec<RwLock<Option<Shared<G>>>>,
    queue: Mutex<Queue<G::Scratch>>,
    /// Helpers wait here for a tree to grow or the batch to close.
    opened: Condvar,
    /// The calling thread waits here for a grown tree.
    returned: Condvar,
}

/// What the workers read of an open fit.
struct Shared<G: TreeGrower> {
    grower: G,
    /// The sample of the round in progress.
    sample: G::Sample,
    learning_rate: f64,
}

/// The trees between the calling thread and the workers. Both lists have
/// room for every class of every open fit, so no worker allocates.
struct Queue<S> {
    /// Trees no worker has taken yet, in the order their rounds opened.
    waiting: VecDeque<ClassFit<S>>,
    /// Trees grown and credited, for the calling thread to collect.
    grown: Vec<ClassFit<S>>,
    /// Set when the batch ends, or when a helper panics.
    closed: bool,
}

/// One class of an open fit: its score on every training row and, for the
/// round in progress, its columns, `[gradient, hessian]` pairs, tree and
/// the buffers the tree grows in.
struct ClassFit<S> {
    slot: usize,
    class: usize,
    columns: Vec<usize>,
    gh: Vec<[f64; 2]>,
    scores: Vec<f64>,
    tree: RegressionTree,
    scratch: S,
}

/// A round's draws, made before it opens: its presorted row sample and
/// each class's columns.
struct Draws<S> {
    sample: S,
    columns: Vec<Vec<usize>>,
}

/// An open fit as the calling thread keeps it.
struct Fit<'a, G: TreeGrower> {
    slot: usize,
    /// The job's index in the batch.
    job: usize,
    labels: &'a [usize],
    config: &'a GbdtConfig,
    features: usize,
    take_rows: usize,
    take_cols: usize,
    rng: StdRng,
    base_scores: Vec<f64>,
    /// Every class between rounds, in class order; during a round, the
    /// classes collected so far.
    classes: Vec<ClassFit<G::Scratch>>,
    /// The next round's draws, once `drawn`.
    next: Draws<G::Sample>,
    drawn: bool,
    rows_used: Vec<usize>,
    /// One row's class probabilities.
    probs: Vec<f64>,
    /// Rounds opened so far.
    opened: usize,
    /// Tree `round * classes + class` adds to class `class`.
    trees: Vec<RegressionTree>,
}

impl<'a, G: TreeGrower> Fit<'a, G> {
    /// Opens job `job` in `slot` on the calling thread: sizes every buffer
    /// the fit needs, draws its first round and opens it.
    fn start(pool: &Pool<G>, slot: usize, job: usize, spec: &FitJob<'a>, grower: G) -> Self {
        let FitJob {
            rows,
            labels,
            classes,
            config,
        } = *spec;
        let n = rows.len();
        let features = rows[0].len();
        // Prior log-odds from class frequencies (Laplace smoothed).
        let mut counts = vec![1.0f64; classes];
        for &l in labels {
            counts[l] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let base_scores: Vec<f64> = counts.iter().map(|c| (c / total).ln()).collect();
        let fits = base_scores
            .iter()
            .enumerate()
            .map(|(class, &base)| ClassFit {
                slot,
                class,
                columns: Vec::with_capacity(features),
                gh: vec![[0.0; 2]; n],
                scores: vec![base; n],
                tree: RegressionTree::default(),
                scratch: grower.scratch(),
            });
        let mut fit = Self {
            slot,
            job,
            labels,
            config,
            features,
            take_rows: ((n as f64 * config.subsample).round() as usize).clamp(1, n),
            take_cols: ((features as f64 * config.colsample).round() as usize).clamp(1, features),
            rng: StdRng::seed_from_u64(config.seed),
            classes: fits.collect(),
            base_scores,
            next: Draws {
                sample: grower.sample(),
                columns: vec![Vec::with_capacity(features); classes],
            },
            drawn: false,
            rows_used: Vec::with_capacity(n),
            probs: vec![0.0; classes],
            opened: 0,
            trees: Vec::with_capacity(config.rounds * classes),
        };
        *pool.fits[slot]
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Some(Shared {
            sample: grower.sample(),
            grower,
            learning_rate: config.learning_rate,
        });
        fit.open(pool);
        fit
    }

    /// Whether the round in progress has every class back.
    fn round_back(&self) -> bool {
        self.classes.len() == self.base_scores.len()
    }

    /// Whether the next round is still to draw.
    fn due_draw(&self) -> bool {
        !self.drawn && self.opened < self.config.rounds
    }

    /// Draws the next round: its row sample, presorted, then each class's
    /// columns in class order, the draws of growing the trees one by one.
    /// The draws are the fit's only use of its RNG.
    fn draw(&mut self, pool: &Pool<G>) {
        let config = self.config;
        self.rows_used.clear();
        self.rows_used.extend(0..self.labels.len());
        if config.subsample < 1.0 {
            self.rows_used.shuffle(&mut self.rng);
            self.rows_used.truncate(self.take_rows);
        }
        let shared = pool.fits[self.slot]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let shared = shared
            .as_ref()
            .expect("invariant: an open fit's slot is set");
        shared
            .grower
            .presort(&mut self.next.sample, &self.rows_used);
        for columns in &mut self.next.columns {
            columns.clear();
            columns.extend(0..self.features);
            if config.colsample < 1.0 {
                columns.shuffle(&mut self.rng);
                columns.truncate(self.take_cols);
            }
        }
        self.drawn = true;
    }

    /// Opens the next round, drawing it first if it is not drawn yet:
    /// swaps its sample and columns in (leaving the last round's buffers
    /// to draw the next round into), reserves each class's tree, takes the
    /// softmax gradients of the scores the earlier rounds left, and queues
    /// every class for the workers.
    fn open(&mut self, pool: &Pool<G>) {
        if !self.drawn {
            self.draw(pool);
        }
        {
            let mut shared = pool.fits[self.slot]
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let shared = shared
                .as_mut()
                .expect("invariant: an open fit's slot is set");
            std::mem::swap(&mut shared.sample, &mut self.next.sample);
        }
        for (fit, columns) in self.classes.iter_mut().zip(&mut self.next.columns) {
            std::mem::swap(&mut fit.columns, columns);
            fit.tree = RegressionTree::with_room(self.config.max_depth, self.take_rows);
        }
        let probs = &mut self.probs;
        for (i, &label) in self.labels.iter().enumerate() {
            for (p, fit) in probs.iter_mut().zip(&self.classes) {
                *p = fit.scores[i];
            }
            softmax_in_place(probs);
            for (class, (&p, fit)) in probs.iter().zip(&mut self.classes).enumerate() {
                fit.gh[i] = [
                    p - if label == class { 1.0 } else { 0.0 },
                    (p * (1.0 - p)).max(1e-6),
                ];
            }
        }
        self.drawn = false;
        self.opened += 1;
        pool.lock().waiting.extend(self.classes.drain(..));
        pool.opened.notify_all();
    }

    /// Moves the round's trees, back from the workers, to `trees` in class
    /// order.
    fn finish_round(&mut self) {
        self.classes.sort_unstable_by_key(|fit| fit.class);
        let trees = self
            .classes
            .iter_mut()
            .map(|fit| std::mem::take(&mut fit.tree));
        self.trees.extend(trees);
    }

    fn into_boosted(self) -> Boosted {
        Boosted {
            trees: self.trees,
            classes: self.base_scores.len(),
            base_scores: self.base_scores,
            features: self.features,
            learning_rate: self.config.learning_rate,
        }
    }
}

impl<G: TreeGrower> Pool<G> {
    /// A pool for `slots` open fits of at most `trees` classes in all.
    fn new(slots: usize, trees: usize) -> Self {
        Self {
            fits: (0..slots).map(|_| RwLock::new(None)).collect(),
            queue: Mutex::new(Queue {
                waiting: VecDeque::with_capacity(trees),
                grown: Vec::with_capacity(trees),
                closed: false,
            }),
            opened: Condvar::new(),
            returned: Condvar::new(),
        }
    }

    /// A panicking worker leaves `closed` set; the lock's poison adds
    /// nothing to that.
    fn lock(&self) -> MutexGuard<'_, Queue<G::Scratch>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Grows and credits `fit`'s tree, then returns it to the calling
    /// thread. Allocates nothing: the calling thread sized every buffer.
    fn grow(&self, mut fit: ClassFit<G::Scratch>) {
        {
            let shared = self.fits[fit.slot]
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            let shared = shared
                .as_ref()
                .expect("invariant: a queued tree's fit is open");
            let grower = &shared.grower;
            grower.grow(
                &shared.sample,
                &mut fit.scratch,
                &mut fit.tree,
                &fit.gh,
                &fit.columns,
            );
            grower.credit(
                &shared.sample,
                &fit.scratch,
                &fit.tree,
                shared.learning_rate,
                &mut fit.scores,
            );
        }
        self.lock().grown.push(fit);
        self.returned.notify_one();
    }

    /// Grows the first waiting tree, if any, and says whether there was
    /// one.
    fn work_one(&self) -> bool {
        let fit = self.lock().waiting.pop_front();
        fit.map(|fit| self.grow(fit)).is_some()
    }

    /// A helper thread's life: it blocks until a tree waits, grows it, and
    /// returns once the batch closes.
    fn help(&self) {
        let _close = Close(self);
        loop {
            let mut queue = self.lock();
            let fit = loop {
                if queue.closed {
                    return;
                }
                if let Some(fit) = queue.waiting.pop_front() {
                    break fit;
                }
                queue = self
                    .opened
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            };
            drop(queue);
            self.grow(fit);
        }
    }

    /// Moves every grown tree back to its fit; with `wait`, first waits
    /// until there is one.
    ///
    /// # Panics
    ///
    /// Panics if a helper panicked while the calling thread waits.
    fn collect(&self, wait: bool, fits: &mut [Option<Fit<'_, G>>]) {
        let mut queue = self.lock();
        while wait && queue.grown.is_empty() {
            assert!(!queue.closed, "a tree-growing helper panicked");
            queue = self
                .returned
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
        for fit in queue.grown.drain(..) {
            let open = fits[fit.slot].as_mut();
            open.expect("invariant: a grown tree's fit is open")
                .classes
                .push(fit);
        }
    }
}

/// Closes the batch when dropped, on return or on a panic, and wakes every
/// waiting thread, so that none waits forever for one that is gone.
struct Close<'a, G: TreeGrower>(&'a Pool<G>);

impl<G: TreeGrower> Drop for Close<'_, G> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.opened.notify_all();
        self.0.returned.notify_all();
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

    /// Each job's fit-time trees, in job order, from one batch on
    /// `workers` threads.
    fn batch(jobs: &[FitJob<'_>], workers: usize) -> Vec<Boosted> {
        let mut fits: Vec<Option<Boosted>> = jobs.iter().map(|_| None).collect();
        GbdtClassifier::fit_trees(jobs, workers, |job, boosted| fits[job] = Some(boosted));
        fits.into_iter().map(|fit| fit.expect("fitted")).collect()
    }

    /// One job's fit-time trees alone on `workers` threads.
    fn lone(
        rows: &[Vec<f64>],
        labels: &[usize],
        classes: usize,
        config: &GbdtConfig,
        workers: usize,
    ) -> Boosted {
        let job = FitJob {
            rows,
            labels,
            classes,
            config,
        };
        batch(&[job], workers).pop().expect("one job")
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
                lone(&rows, &labels, classes, &config, workers)
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
        let job = FitJob {
            rows: &rows,
            labels: &labels,
            classes: 3,
            config: &GbdtConfig::small(),
        };
        let grower = |_: &FitJob<'_>| PanickingHelper(false.into());
        GbdtClassifier::boost(&[job], grower, 2, |_, _| {});
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
            let fitted = lone(&rows, &labels, classes, &config, 1 + s.below(4));
            let job = FitJob { rows: &rows, labels: &labels, classes, config: &config };
            let oracle = |_: &FitJob<'_>| per_node_sort::Oracle::new(&rows, tree_params(&config));
            let mut oracle_fit = None;
            GbdtClassifier::boost(&[job], oracle, 1 + s.below(4), |_, boosted| oracle_fit = Some(boosted));
            let oracle = oracle_fit.expect("fitted");
            prop_assert_eq!(fitted.bits(), oracle.bits());
            prop_assert_eq!(fitted.compile().to_bytes(), oracle.compile().to_bytes());
        }

        /// A batch of jobs of different row counts, widths, class counts,
        /// samplings and seeds, on any worker count, fits each job the
        /// bytes it fits alone on one worker.
        #[test]
        fn a_batch_fits_each_job_as_it_fits_alone(
            seed in 0u64..u64::MAX,
            jobs in 1usize..5,
            workers in 1usize..5,
        ) {
            let mut s = Stream(seed);
            let sets: Vec<_> = (0..jobs)
                .map(|_| {
                    let n = 5 + s.below(300);
                    let classes = 2 + s.below(3);
                    let (width, levels) = (1 + s.below(8), s.below(8));
                    let rows = s.features(n, width, levels);
                    let labels: Vec<usize> = (0..n).map(|_| s.below(classes)).collect();
                    let config = GbdtConfig {
                        rounds: 1 + s.below(12),
                        max_depth: s.below(6),
                        subsample: 0.5 + 0.49 * s.unit(),
                        colsample: 0.3 + 0.69 * s.unit(),
                        seed: s.next(),
                        ..GbdtConfig::small()
                    };
                    (rows, labels, classes, config)
                })
                .collect();
            let jobs: Vec<FitJob<'_>> = sets
                .iter()
                .map(|(rows, labels, classes, config)| FitJob {
                    rows,
                    labels,
                    classes: *classes,
                    config,
                })
                .collect();
            let fits = batch(&jobs, workers);
            for (fit, job) in fits.into_iter().zip(&jobs) {
                let alone = lone(job.rows, job.labels, job.classes, job.config, 1);
                prop_assert_eq!(fit.bits(), alone.bits());
                prop_assert_eq!(fit.compile().to_bytes(), alone.compile().to_bytes());
            }
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
            let boosted = lone(&rows, &labels, classes, &config, 1);
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

        /// The batched kernel scores each row of a batch bit for bit as the
        /// fit-time trees score it alone, for every batch size from one to
        /// past [`GbdtClassifier::BATCH`] (so a pass of every width and a
        /// batch of several passes), over forests built as
        /// `compiled_scores_match_the_fit_time_trees` builds them but up to
        /// depth 8, so that some trees' masks take more than one word, on
        /// rows with NaN, signed-zero and infinite features; and its
        /// probabilities are those `predict_proba` gives each row alone.
        #[test]
        fn batched_scores_match_the_fit_time_trees_row_by_row(
            seed in 0u64..u64::MAX,
            n in 5usize..200,
            width in 1usize..8,
            classes in 2usize..5,
            levels in 0usize..6,
            max_depth in 0usize..9,
        ) {
            let mut s = Stream(seed);
            let rows = s.features(n, width, levels);
            let labels: Vec<usize> = (0..n).map(|_| s.below(classes)).collect();
            let config = GbdtConfig {
                rounds: 1 + s.below(40),
                max_depth,
                min_child_weight: 0.0,
                ..GbdtConfig::small()
            };
            let boosted = lone(&rows, &labels, classes, &config, 1);
            let expected = |row: &[f64]| {
                let mut scores = boosted.base_scores.clone();
                for round in boosted.trees.chunks(classes) {
                    for (class, tree) in round.iter().enumerate() {
                        scores[class] += boosted.learning_rate * tree.predict(row);
                    }
                }
                scores
            };
            let mut probes: Vec<Vec<f64>> = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&v| match s.below(8) {
                            0 => f64::NAN,
                            1 => 0.0,
                            2 => -0.0,
                            3 => f64::INFINITY,
                            4 => f64::NEG_INFINITY,
                            _ => v,
                        })
                        .collect()
                })
                .collect();
            probes.extend(rows);
            let want: Vec<Vec<f64>> = probes.iter().map(|row| expected(row)).collect();
            let model = boosted.compile();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for size in 1..=GbdtClassifier::BATCH * 2 + 1 {
                for (batch, want) in probes.chunks(size).zip(want.chunks(size)) {
                    let flat = batch.concat();
                    let mut scores = vec![0.0; batch.len() * classes];
                    model.decision_scores_into(&flat, &mut scores);
                    let mut probs = vec![0.0; batch.len() * classes];
                    model.predict_proba_batch_into(&flat, &mut probs);
                    let runs = scores.chunks(classes).zip(probs.chunks(classes));
                    for ((row, want), (scores, probs)) in batch.iter().zip(want).zip(runs) {
                        prop_assert_eq!(bits(scores), bits(want), "size {}, row {:?}", size, row);
                        prop_assert_eq!(
                            bits(probs),
                            bits(&model.predict_proba(row)),
                            "size {}, row {:?}",
                            size,
                            row
                        );
                    }
                }
            }
        }
    }
}
