//! Regression trees on gradient/hessian pairs (the XGBoost tree booster):
//! the fit-time form of a model's trees, which the model compiles into a
//! [`crate::compiled::Forest`] once boosting ends.

use crate::compiled::LEAF;

/// Parameters a single tree needs from the boosting configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TreeParams {
    pub max_depth: usize,
    pub lambda: f64,
    pub gamma: f64,
    pub min_child_weight: f64,
}

/// Grows a fit's trees round by round: `presort` prepares a round's row
/// sample, which the round's per-class trees share, then `grow` fits each
/// class's tree on it and `credit` adds that tree to the class's scores.
/// Every method takes `&self`: `grow` and `credit` work in a scratch of
/// their own and only read the round's [`TreeGrower::Sample`], so one
/// round's trees can grow on several threads at once while the next
/// round's sample is presorted into another. A grower is `Send` so that a
/// batch's pool can hold each open fit's grower where every thread reads
/// it.
pub(crate) trait TreeGrower: Send + Sync {
    /// One tree's working buffers.
    type Scratch: Send;
    /// One round's row sample, presorted.
    type Sample: Send + Sync;

    /// Buffers for one tree, sized for any round's sample, so that `grow`
    /// and `credit` allocate nothing.
    fn scratch(&self) -> Self::Scratch;

    /// An empty sample, sized for any round's.
    fn sample(&self) -> Self::Sample;

    /// Sets `sample` to the round's row sample: indices into the training
    /// rows, in subsample order.
    fn presort(&self, sample: &mut Self::Sample, rows_used: &[usize]);

    /// Fits one tree on `sample` to the `[gradient, hessian]` pairs `gh`,
    /// one per training row, into `tree` (empty, its room reserved by
    /// [`RegressionTree::with_room`]). `columns` restricts the candidate
    /// split features (column subsampling).
    fn grow(
        &self,
        sample: &Self::Sample,
        scratch: &mut Self::Scratch,
        tree: &mut RegressionTree,
        gh: &[[f64; 2]],
        columns: &[usize],
    );

    /// Adds `rate` times `tree`'s prediction to every training row's entry
    /// of `scores`; `tree` is the one `grow` just fit on `sample` in
    /// `scratch`.
    fn credit(
        &self,
        sample: &Self::Sample,
        scratch: &Self::Scratch,
        tree: &RegressionTree,
        rate: f64,
        scores: &mut [f64],
    );
}

/// How many columns the split scan walks in lockstep. Each column's
/// gradient sums are one chain of dependent adds; walking several columns
/// at once overlaps their latencies. Wider groups measured no faster on
/// CQC's fits (DESIGN.md §6 "Presorted exact split search").
const LANES: usize = 2;

/// The exact split search of one fit: every boundary between distinct
/// values of each feature is a candidate. Rows are presorted, one counting
/// sort per feature per boosting round, after which each node scans and
/// partitions its features' sorted segments in `O(n)` per feature. The
/// training features are laid out once per fit and are read-only from
/// then on; each round's presort is a [`Sample`] of its own, and each tree
/// grows in a [`Scratch`] of its own.
pub(crate) struct Presorted {
    params: TreeParams,
    /// `values[feature][row]`: a column-major copy of the features.
    values: Vec<Vec<f64>>,
    /// `ranks[feature][row]`: the value's dense rank among the feature's
    /// distinct values, where `==` values (so `-0.0` and `0.0`) share a
    /// rank.
    ranks: Vec<Vec<u32>>,
    /// Distinct values per feature.
    distinct: Vec<usize>,
}

/// One round's row sample, presorted.
pub(crate) struct Sample {
    /// The row sample in subsample order.
    rows: Vec<u32>,
    /// Per feature, the sample in `(value, subsample position)` order.
    sorted: Vec<Vec<u32>>,
    /// The rows outside the sample, ascending.
    unsampled: Vec<u32>,
    /// The counting sort's bucket cursors, one per distinct value and one
    /// more, for the feature with the most.
    cursors: Vec<usize>,
    /// Whether each training row is in the sample.
    sampled: Vec<bool>,
}

/// One tree's working buffers. Every node is a segment `[lo, hi)` of `rows`
/// and of each block of `sorted`; a split partitions all of them in place,
/// stably, so no node allocates or sorts.
pub(crate) struct Scratch {
    /// The round's sample; each node's segment is in subsample order.
    rows: Vec<u32>,
    /// One block of `rows.len()` per candidate column: block `k` holds each
    /// node's rows in `(value of columns[k], subsample position)` order.
    sorted: Vec<u32>,
    /// Which side of the split being applied each row goes to, by row id.
    goes_left: Vec<bool>,
    /// The stable partition's holding area for right-side rows.
    spill: Vec<u32>,
    /// Each leaf of the tree last grown: its segment of `rows` and weight.
    leaves: Vec<(usize, usize, f64)>,
}

impl Presorted {
    /// Lays out and ranks `features` (row-major, rectangular, finite).
    pub(crate) fn new(features: &[Vec<f64>], params: TreeParams) -> Self {
        let n = features.len();
        assert!(u32::try_from(n).is_ok(), "too many rows");
        let values: Vec<Vec<f64>> = (0..features[0].len())
            .map(|f| features.iter().map(|row| row[f]).collect())
            .collect();
        let (mut ranks, mut distinct) = (Vec::new(), Vec::new());
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for column in &values {
            order.clear();
            order.extend(0..n as u32);
            order.sort_unstable_by(|&a, &b| {
                column[a as usize]
                    .partial_cmp(&column[b as usize])
                    .expect("finite features")
            });
            let mut rank = vec![0u32; n];
            let mut next = 0u32;
            for w in order.windows(2) {
                next += u32::from(column[w[0] as usize] != column[w[1] as usize]);
                rank[w[1] as usize] = next;
            }
            ranks.push(rank);
            distinct.push(next as usize + 1);
        }
        Self {
            params,
            values,
            ranks,
            distinct,
        }
    }

    /// The number of training rows.
    fn rows(&self) -> usize {
        self.values[0].len()
    }
}

impl TreeGrower for Presorted {
    type Scratch = Scratch;
    type Sample = Sample;

    fn scratch(&self) -> Scratch {
        let n = self.rows();
        Scratch {
            rows: Vec::with_capacity(n),
            sorted: Vec::with_capacity(n * self.values.len()),
            goes_left: vec![false; n],
            spill: vec![0; n],
            leaves: Vec::with_capacity(RegressionTree::room(self.params.max_depth, n)),
        }
    }

    fn sample(&self) -> Sample {
        let n = self.rows();
        let most = self.distinct.iter().copied().max().unwrap_or(0);
        Sample {
            rows: Vec::with_capacity(n),
            sorted: self.values.iter().map(|_| Vec::with_capacity(n)).collect(),
            unsampled: Vec::with_capacity(n),
            cursors: vec![0; most + 1],
            sampled: vec![false; n],
        }
    }

    /// Counting-sorts the sample by rank, once per feature. The sort is
    /// stable, so rows with equal values keep their subsample order.
    fn presort(&self, sample: &mut Sample, rows_used: &[usize]) {
        sample.rows.clear();
        sample.rows.extend(rows_used.iter().map(|&r| r as u32));
        let ranked = self.ranks.iter().zip(&self.distinct);
        for ((rank, &distinct), order) in ranked.zip(&mut sample.sorted) {
            let next = &mut sample.cursors[..=distinct];
            next.fill(0);
            for &r in &sample.rows {
                next[rank[r as usize] as usize + 1] += 1;
            }
            for v in 1..distinct {
                next[v] += next[v - 1];
            }
            order.resize(sample.rows.len(), 0);
            for &r in &sample.rows {
                let slot = &mut next[rank[r as usize] as usize];
                order[*slot] = r;
                *slot += 1;
            }
        }
        sample.sampled.fill(false);
        for &r in &sample.rows {
            sample.sampled[r as usize] = true;
        }
        let sampled = &sample.sampled;
        sample.unsampled.clear();
        sample
            .unsampled
            .extend((0..sampled.len() as u32).filter(|&r| !sampled[r as usize]));
    }

    fn grow(
        &self,
        sample: &Sample,
        scratch: &mut Scratch,
        tree: &mut RegressionTree,
        gh: &[[f64; 2]],
        columns: &[usize],
    ) {
        let n = sample.rows.len();
        assert!(n > 0, "tree needs at least one row");
        scratch.rows.clear();
        scratch.rows.extend_from_slice(&sample.rows);
        scratch.sorted.clear();
        for &f in columns {
            scratch.sorted.extend_from_slice(&sample.sorted[f]);
        }
        scratch.leaves.clear();
        let mut builder = Builder {
            presorted: self,
            gh,
            columns,
            scratch,
            nodes: &mut tree.nodes,
        };
        builder.build(0, n, 0);
    }

    /// A sampled row's leaf is the segment it was partitioned into; only
    /// the rows outside the sample walk the tree.
    fn credit(
        &self,
        sample: &Sample,
        scratch: &Scratch,
        tree: &RegressionTree,
        rate: f64,
        scores: &mut [f64],
    ) {
        for &(lo, hi, weight) in &scratch.leaves {
            for &r in &scratch.rows[lo..hi] {
                scores[r as usize] += rate * weight;
            }
        }
        for &r in &sample.unsampled {
            let r = r as usize;
            scores[r] += rate * tree.walk(|f| self.values[f][r]);
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Gain of this split (used for feature importance).
        gain: f64,
        left: usize,
        right: usize,
    },
}

/// A depth-limited regression tree fit to `(gradient, hessian)` targets with
/// XGBoost-style structure scores.
///
/// Leaf weight: `-G / (H + lambda)`. Split gain:
/// `1/2 [ G_L^2/(H_L+λ) + G_R^2/(H_R+λ) - G^2/(H+λ) ] - γ`.
/// Splits are taken only when the gain is positive and both children carry
/// at least `min_child_weight` hessian mass.
///
/// `nodes` is in preorder: `build` reserves a split's slot, then builds its
/// left subtree, then its right one.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RegressionTree {
    nodes: Vec<Node>,
}

/// What scoring a split at one node needs: the node's sums and the
/// parameters.
struct NodeSums<'a> {
    params: &'a TreeParams,
    g_sum: f64,
    h_sum: f64,
    parent_score: f64,
}

impl NodeSums<'_> {
    /// The gain of the split sending hessian mass `hl` and gradient `gl`
    /// left, or `-inf` when a child carries less than `min_child_weight`.
    fn gain(&self, gl: f64, hl: f64) -> f64 {
        let params = self.params;
        let gr = self.g_sum - gl;
        let hr = self.h_sum - hl;
        if hl < params.min_child_weight || hr < params.min_child_weight {
            return f64::NEG_INFINITY;
        }
        0.5 * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - self.parent_score)
            - params.gamma
    }
}

/// One column's best split at a node: its gain, and the position in the
/// column's segment of the last row that goes left. A gain of `0.0` means
/// none yet, since only a positive gain splits.
#[derive(Debug, Clone, Copy)]
struct ColumnBest {
    gain: f64,
    at: usize,
}

impl ColumnBest {
    const NONE: Self = Self { gain: 0.0, at: 0 };
}

impl RegressionTree {
    /// An empty tree with room for every node a tree of at most
    /// `max_depth` grown on `rows` rows can have, so growing it never
    /// reallocates.
    pub(crate) fn with_room(max_depth: usize, rows: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(Self::room(max_depth, rows)),
        }
    }

    /// The most nodes such a tree has: a full binary tree of depth
    /// `max_depth` has `2^(max_depth+1) - 1`, and every leaf holds at least
    /// one row, so there are at most `2 * rows - 1`.
    pub(crate) fn room(max_depth: usize, rows: usize) -> usize {
        let full = u32::try_from(max_depth.saturating_add(1))
            .ok()
            .and_then(|shift| 1usize.checked_shl(shift))
            .map_or(usize::MAX, |nodes| nodes - 1);
        full.min(rows.saturating_mul(2).saturating_sub(1))
    }

    /// The weight of the leaf a row reaches, reading its features through
    /// `value`.
    fn walk(&self, value: impl Fn(usize) -> f64) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    idx = if value(*feature) < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The nodes in preorder as `(feature, threshold)` for a split and
    /// `(LEAF, weight)` for a leaf: what [`crate::compiled::Forest`] is
    /// built from.
    ///
    /// # Panics
    ///
    /// Panics if a split's feature does not fit a `u16` (`fit` caps the
    /// feature count at [`LEAF`], so every feature id is below it).
    pub(crate) fn preorder(&self) -> impl Iterator<Item = (u16, f64)> + '_ {
        self.nodes.iter().map(|node| match *node {
            Node::Leaf { weight } => (LEAF, weight),
            Node::Split {
                feature, threshold, ..
            } => (
                u16::try_from(feature).expect("fit caps the feature count at u16::MAX"),
                threshold,
            ),
        })
    }

    /// Accumulates each split's gain into `importance[feature]`.
    pub(crate) fn accumulate_importance(&self, importance: &mut [f64]) {
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                importance[*feature] += gain;
            }
        }
    }
}

/// Grows one tree in a [`Scratch`].
struct Builder<'a> {
    presorted: &'a Presorted,
    gh: &'a [[f64; 2]],
    columns: &'a [usize],
    scratch: &'a mut Scratch,
    nodes: &'a mut Vec<Node>,
}

impl Builder<'_> {
    /// Builds the subtree over segment `[lo, hi)`, returning its node index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let params = &self.presorted.params;
        // One pass in subsample order; `-0.0` is the start `f64`'s `Sum`
        // adds from, so each sum has the bits a `.sum()` over it has.
        let (mut g_sum, mut h_sum) = (-0.0, -0.0);
        for &r in &self.scratch.rows[lo..hi] {
            let [g, h] = self.gh[r as usize];
            g_sum += g;
            h_sum += h;
        }
        let lambda = params.lambda;
        let leaf = |builder: &mut Self| {
            let weight = -g_sum / (h_sum + lambda);
            builder.scratch.leaves.push((lo, hi, weight));
            builder.nodes.push(Node::Leaf { weight });
            builder.nodes.len() - 1
        };

        if depth >= params.max_depth || hi - lo < 2 {
            return leaf(self);
        }

        let sums = NodeSums {
            params,
            g_sum,
            h_sum,
            parent_score: g_sum * g_sum / (h_sum + lambda),
        };
        let Some((k, best)) = self.scan_sorted(lo, hi, &sums) else {
            return leaf(self);
        };

        // The split column's own block orders the segment by value, so the
        // rows that go left are a prefix of it.
        let n = self.scratch.rows.len();
        let feature = self.columns[k];
        let values = &self.presorted.values[feature];
        let own = &self.scratch.sorted[k * n + lo..k * n + hi];
        let value = |i: usize| values[own[i] as usize];
        let threshold = 0.5 * (value(best.at) + value(best.at + 1));
        let n_left = own.partition_point(|&r| values[r as usize] < threshold);
        if n_left == 0 || n_left == hi - lo {
            // Possible when `0.5 * (va + vb)` rounds onto `va`: fall back to
            // a leaf.
            return leaf(self);
        }
        let (left_rows, right_rows) = own.split_at(n_left);
        for &r in left_rows {
            self.scratch.goes_left[r as usize] = true;
        }
        for &r in right_rows {
            self.scratch.goes_left[r as usize] = false;
        }
        partition(
            &mut self.scratch.rows[lo..hi],
            &self.scratch.goes_left,
            &mut self.scratch.spill,
        );
        // Children at the depth limit are leaves and never scan. Partitioning
        // the split column's own block would leave it as it is.
        if depth + 1 < params.max_depth {
            for (j, block) in self.scratch.sorted.chunks_exact_mut(n).enumerate() {
                if j != k {
                    partition(
                        &mut block[lo..hi],
                        &self.scratch.goes_left,
                        &mut self.scratch.spill,
                    );
                }
            }
        }

        // Reserve this node's slot before recursing so child indices are
        // stable.
        let index = self.nodes.len();
        self.nodes.push(Node::Leaf { weight: 0.0 });
        let left = self.build(lo, lo + n_left, depth + 1);
        let right = self.build(lo + n_left, hi, depth + 1);
        self.nodes[index] = Node::Split {
            feature,
            threshold,
            gain: best.gain,
            left,
            right,
        };
        index
    }

    /// Exact search: the best split over the columns, as `(k, best)` for
    /// `columns[k]`. Columns are walked [`LANES`] at a time, then one at a
    /// time for the rest. Each keeps its first best, and the first column
    /// whose best is strictly greater than the earlier ones' wins: the
    /// split a one-by-one walk of every column keeps.
    fn scan_sorted(
        &self,
        lo: usize,
        hi: usize,
        sums: &NodeSums<'_>,
    ) -> Option<(usize, ColumnBest)> {
        let width = self.columns.len();
        let mut winner: Option<(usize, ColumnBest)> = None;
        let mut keep = |k: usize, best: ColumnBest| {
            if best.gain > winner.map_or(0.0, |(_, w)| w.gain) {
                winner = Some((k, best));
            }
        };
        let lockstep = width - width % LANES;
        for first in (0..lockstep).step_by(LANES) {
            let bests = self.scan_columns::<LANES>(first, lo, hi, sums);
            for (j, best) in bests.into_iter().enumerate() {
                keep(first + j, best);
            }
        }
        for k in lockstep..width {
            let [best] = self.scan_columns::<1>(k, lo, hi, sums);
            keep(k, best);
        }
        winner
    }

    /// Walks the segments of the `W` columns from `columns[first]` in
    /// lockstep, so each column's `gl`/`hl` accumulate in its
    /// `(value, subsample position)` order. A boundary between distinct
    /// values is where the rank changes; each column keeps its first
    /// strictly best one.
    // Position `i` and lane `j` index several arrays in step.
    #[allow(clippy::needless_range_loop)]
    fn scan_columns<const W: usize>(
        &self,
        first: usize,
        lo: usize,
        hi: usize,
        sums: &NodeSums<'_>,
    ) -> [ColumnBest; W] {
        let n = self.scratch.rows.len();
        let gh = self.gh;
        let blocks: [&[u32]; W] = std::array::from_fn(|j| {
            let k = first + j;
            &self.scratch.sorted[k * n + lo..k * n + hi]
        });
        let ranks: [&[u32]; W] =
            std::array::from_fn(|j| &self.presorted.ranks[self.columns[first + j]][..]);
        let mut row: [usize; W] = std::array::from_fn(|j| blocks[j][0] as usize);
        let mut rank: [u32; W] = std::array::from_fn(|j| ranks[j][row[j]]);
        let mut left = [[0.0f64; 2]; W];
        let mut best = [ColumnBest::NONE; W];
        for i in 1..hi - lo {
            for j in 0..W {
                let [g, h] = gh[row[j]];
                left[j][0] += g;
                left[j][1] += h;
                let next = blocks[j][i] as usize;
                let next_rank = ranks[j][next];
                if next_rank != rank[j] {
                    let gain = sums.gain(left[j][0], left[j][1]);
                    if gain > best[j].gain {
                        best[j] = ColumnBest { gain, at: i - 1 };
                    }
                }
                row[j] = next;
                rank[j] = next_rank;
            }
        }
        best
    }
}

/// Stable in-place partition of `segment` by `goes_left[row]`, using `spill`
/// for the right side. Branchless: every row is written to both sides and
/// only the matching cursor advances.
fn partition(segment: &mut [u32], goes_left: &[bool], spill: &mut [u32]) {
    let (mut left, mut right) = (0, 0);
    for i in 0..segment.len() {
        let r = segment[i];
        let l = goes_left[r as usize];
        segment[left] = r;
        spill[right] = r;
        left += usize::from(l);
        right += usize::from(!l);
    }
    segment[left..].copy_from_slice(&spill[..right]);
}

/// A node's fields as raw bits: see [`RegressionTree::bits`].
#[cfg(test)]
pub(crate) type NodeBits = (Option<usize>, u64, u64, usize, usize);

#[cfg(test)]
impl RegressionTree {
    /// The tree's raw prediction for one feature row.
    pub(crate) fn predict(&self, row: &[f64]) -> f64 {
        self.walk(|feature| row[feature])
    }

    /// Every field of every node as raw bits, gains included, for bitwise
    /// comparison (`==` on `f64` would equate `-0.0` and `0.0`): a split is
    /// `(Some(feature), threshold, gain, left, right)`, a leaf `(None,
    /// weight, 0, 0, 0)`.
    pub(crate) fn bits(&self) -> Vec<NodeBits> {
        let bits = |node: &Node| match *node {
            Node::Leaf { weight } => (None, weight.to_bits(), 0, 0, 0),
            Node::Split {
                feature,
                threshold,
                gain,
                left,
                right,
            } => (
                Some(feature),
                threshold.to_bits(),
                gain.to_bits(),
                left,
                right,
            ),
        };
        self.nodes.iter().map(bits).collect()
    }
}

/// The per-node-sort builder this crate used before presorting, kept
/// verbatim as a test oracle: presorted trees must match it bit for bit.
#[cfg(test)]
pub(crate) mod per_node_sort {
    use super::{Node, RegressionTree, TreeGrower, TreeParams};

    /// The oracle as a [`TreeGrower`], to drive whole fits.
    pub(crate) struct Oracle<'a> {
        features: &'a [Vec<f64>],
        params: TreeParams,
    }

    impl<'a> Oracle<'a> {
        pub(crate) fn new(features: &'a [Vec<f64>], params: TreeParams) -> Self {
            Self { features, params }
        }
    }

    /// Samples by copying the row sample, grows with no scratch and
    /// credits by walking every row.
    impl TreeGrower for Oracle<'_> {
        type Scratch = ();
        type Sample = Vec<usize>;

        fn scratch(&self) {}

        fn sample(&self) -> Vec<usize> {
            Vec::new()
        }

        fn presort(&self, sample: &mut Vec<usize>, rows_used: &[usize]) {
            sample.clear();
            sample.extend_from_slice(rows_used);
        }

        fn grow(
            &self,
            rows: &Vec<usize>,
            _: &mut (),
            tree: &mut RegressionTree,
            gh: &[[f64; 2]],
            columns: &[usize],
        ) {
            let (grad, hess): (Vec<f64>, Vec<f64>) = gh.iter().map(|&[g, h]| (g, h)).unzip();
            *tree = fit(self.features, &grad, &hess, rows, columns, &self.params);
        }

        fn credit(
            &self,
            _: &Vec<usize>,
            _: &(),
            tree: &RegressionTree,
            rate: f64,
            scores: &mut [f64],
        ) {
            for (score, row) in scores.iter_mut().zip(self.features) {
                *score += rate * tree.predict(row);
            }
        }
    }

    /// Fits a tree on `rows` (indices into `features`/`grad`/`hess`), sorting
    /// every candidate feature afresh at every node.
    pub(crate) fn fit(
        features: &[Vec<f64>],
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        columns: &[usize],
        params: &TreeParams,
    ) -> RegressionTree {
        assert!(!rows.is_empty(), "tree needs at least one row");
        let mut tree = RegressionTree { nodes: Vec::new() };
        build(&mut tree, features, grad, hess, rows, columns, params, 0);
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        tree: &mut RegressionTree,
        features: &[Vec<f64>],
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        columns: &[usize],
        params: &TreeParams,
        depth: usize,
    ) -> usize {
        let g_sum: f64 = rows.iter().map(|&r| grad[r]).sum();
        let h_sum: f64 = rows.iter().map(|&r| hess[r]).sum();

        let make_leaf = |tree: &mut RegressionTree| {
            let weight = -g_sum / (h_sum + params.lambda);
            tree.nodes.push(Node::Leaf { weight });
            tree.nodes.len() - 1
        };

        if depth >= params.max_depth || rows.len() < 2 {
            return make_leaf(tree);
        }

        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)

        let consider =
            |f: usize, threshold: f64, gl: f64, hl: f64, best: &mut Option<(usize, f64, f64)>| {
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    return;
                }
                let gain = 0.5
                    * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda)
                        - parent_score)
                    - params.gamma;
                if gain > 0.0 && best.is_none_or(|(_, _, bg)| gain > bg) {
                    *best = Some((f, threshold, gain));
                }
            };

        for &f in columns {
            let mut order: Vec<usize> = rows.to_vec();
            order.sort_by(|&a, &b| {
                features[a][f]
                    .partial_cmp(&features[b][f])
                    .expect("finite features")
            });
            let mut gl = 0.0;
            let mut hl = 0.0;
            for w in order.windows(2) {
                gl += grad[w[0]];
                hl += hess[w[0]];
                let (va, vb) = (features[w[0]][f], features[w[1]][f]);
                if va == vb {
                    continue; // cannot split between equal values
                }
                consider(f, 0.5 * (va + vb), gl, hl, &mut best);
            }
        }

        let Some((feature, threshold, gain)) = best else {
            return make_leaf(tree);
        };

        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
            .iter()
            .partition(|&&r| features[r][feature] < threshold);
        if left_rows.is_empty() || right_rows.is_empty() {
            return make_leaf(tree);
        }

        let index = tree.nodes.len();
        tree.nodes.push(Node::Leaf { weight: 0.0 });
        let left = build(
            tree,
            features,
            grad,
            hess,
            &left_rows,
            columns,
            params,
            depth + 1,
        );
        let right = build(
            tree,
            features,
            grad,
            hess,
            &right_rows,
            columns,
            params,
            depth + 1,
        );
        tree.nodes[index] = Node::Split {
            feature,
            threshold,
            gain,
            left,
            right,
        };
        index
    }

    /// A deterministic pseudo-random stream (SplitMix64) for oracle inputs.
    pub(crate) struct Stream(pub(crate) u64);

    impl Stream {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in `[0, 1)`.
        pub(crate) fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// `n` rows of `width` features. With `levels > 0` each feature
        /// takes one of `levels` values, zero as either `0.0` or `-0.0`
        /// (heavy ties); with `levels == 0` values are continuous.
        pub(crate) fn features(&mut self, n: usize, width: usize, levels: usize) -> Vec<Vec<f64>> {
            (0..n)
                .map(|_| {
                    (0..width)
                        .map(|_| match levels {
                            0 => self.unit() * 8.0 - 4.0,
                            k => match self.below(k) {
                                0 if self.below(2) == 0 => -0.0,
                                v => v as f64 - (k / 2) as f64,
                            },
                        })
                        .collect()
                })
                .collect()
        }

        /// A shuffled subset of `0..n` of size `take` (Fisher–Yates).
        pub(crate) fn sample(&mut self, n: usize, take: usize) -> Vec<usize> {
            let mut all: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                all.swap(i, self.below(i + 1));
            }
            all.truncate(take);
            all
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const PARAMS: TreeParams = TreeParams {
        max_depth: 4,
        lambda: 1.0,
        gamma: 0.0,
        min_child_weight: 1e-6,
    };

    /// Squared-error fitting reduces to grad = pred - target with hess = 1
    /// when starting from a zero prediction: grad = -target.
    fn fit_regression(
        features: &[Vec<f64>],
        targets: &[f64],
        params: &TreeParams,
    ) -> RegressionTree {
        let grad: Vec<f64> = targets.iter().map(|t| -t).collect();
        let hess = vec![1.0; targets.len()];
        let rows: Vec<usize> = (0..targets.len()).collect();
        let cols: Vec<usize> = (0..features[0].len()).collect();
        fit_rows(features, &grad, &hess, &rows, &cols, params)
    }

    /// `[grad[i], hess[i]]` pairs.
    fn interleave(grad: &[f64], hess: &[f64]) -> Vec<[f64; 2]> {
        grad.iter().zip(hess).map(|(&g, &h)| [g, h]).collect()
    }

    fn leaves(tree: &RegressionTree) -> usize {
        let is_leaf = |node: &&Node| matches!(node, Node::Leaf { .. });
        tree.nodes.iter().filter(is_leaf).count()
    }

    /// Presorts `features` and fits one tree on `rows`, as a boosting round
    /// would.
    fn fit_rows(
        features: &[Vec<f64>],
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        columns: &[usize],
        params: &TreeParams,
    ) -> RegressionTree {
        let grower = Presorted::new(features, *params);
        let mut sample = grower.sample();
        grower.presort(&mut sample, rows);
        let mut tree = RegressionTree::with_room(params.max_depth, rows.len());
        let room = tree.nodes.capacity();
        let gh = interleave(grad, hess);
        grower.grow(&sample, &mut grower.scratch(), &mut tree, &gh, columns);
        assert_eq!(tree.nodes.capacity(), room, "grow reallocated the nodes");
        tree
    }

    #[test]
    fn fits_a_step_function() {
        let features: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..10).map(|i| if i < 5 { -1.0 } else { 1.0 }).collect();
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert!(tree.predict(&[2.0]) < 0.0);
        assert!(tree.predict(&[8.0]) > 0.0);
    }

    #[test]
    fn constant_targets_produce_single_leaf() {
        let features: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let targets = vec![2.0; 6];
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert_eq!(leaves(&tree), 1);
        // Leaf weight shrunk by lambda: -(-12)/(6+1).
        assert!((tree.predict(&[3.0]) - 12.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_a_stump_root() {
        let features: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let targets = vec![-1.0, -1.0, 1.0, 1.0];
        let params = TreeParams {
            max_depth: 0,
            ..PARAMS
        };
        let tree = fit_regression(&features, &targets, &params);
        assert_eq!(tree.nodes.len(), 1);
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let features: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        // Almost-constant targets: the best split's gain is tiny.
        let targets = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.05];
        let strict = TreeParams {
            gamma: 10.0,
            ..PARAMS
        };
        let tree = fit_regression(&features, &targets, &strict);
        assert_eq!(leaves(&tree), 1, "high gamma must prune everything");
    }

    #[test]
    fn pure_xor_defeats_a_single_greedy_tree() {
        // Known property of greedy gain splitting: on perfectly balanced XOR
        // every first-level split has exactly zero gain, so the tree cannot
        // grow. (The *boosted* model handles noisy XOR — see the model
        // tests — because subsampling and residual fitting break the tie.)
        let features = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let targets = vec![-1.0, 1.0, 1.0, -1.0];
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert_eq!(leaves(&tree), 1);
    }

    #[test]
    fn xor_with_a_tilt_splits_to_depth_two() {
        // Break the gain tie with a slight class imbalance and the greedy
        // tree recovers the XOR structure.
        let features = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.1, 0.9],
        ];
        let targets = vec![-1.0, 1.0, 1.0, -1.0, 1.0];
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert!(tree.predict(&[0.0, 0.0]) < 0.0);
        assert!(tree.predict(&[0.0, 1.0]) > 0.0);
        assert!(tree.predict(&[1.0, 0.0]) > 0.0);
        assert!(tree.predict(&[1.0, 1.0]) < 0.0);
    }

    #[test]
    fn tied_feature_values_never_split_apart() {
        let features = vec![vec![1.0], vec![1.0], vec![1.0]];
        let targets = vec![-1.0, 0.0, 1.0];
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert_eq!(leaves(&tree), 1, "identical features cannot be split");
    }

    #[test]
    fn column_restriction_is_respected() {
        // Feature 0 is perfectly informative, feature 1 is noise; restrict
        // to feature 1 and verify feature 0 is never used.
        let features = vec![
            vec![0.0, 0.3],
            vec![0.0, 0.9],
            vec![1.0, 0.1],
            vec![1.0, 0.8],
        ];
        let grad = vec![1.0, 1.0, -1.0, -1.0];
        let hess = vec![1.0; 4];
        let tree = fit_rows(&features, &grad, &hess, &[0, 1, 2, 3], &[1], &PARAMS);
        let mut importance = vec![0.0; 2];
        tree.accumulate_importance(&mut importance);
        assert_eq!(importance[0], 0.0, "feature 0 was excluded");
    }

    #[test]
    fn importance_prefers_the_informative_feature() {
        let features: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i % 3) as f64 * 0.01])
            .collect();
        let targets: Vec<f64> = (0..20).map(|i| if i < 10 { -1.0 } else { 1.0 }).collect();
        let tree = fit_regression(&features, &targets, &PARAMS);
        let mut importance = vec![0.0; 2];
        tree.accumulate_importance(&mut importance);
        assert!(importance[0] > importance[1]);
    }

    #[test]
    fn ranks_are_dense_and_treat_signed_zeros_as_equal() {
        let features = vec![vec![2.5], vec![-0.0], vec![-1.0], vec![0.0], vec![2.5]];
        let grower = Presorted::new(&features, PARAMS);
        assert_eq!(grower.ranks, vec![vec![2, 1, 0, 1, 2]]);
        assert_eq!(grower.distinct, vec![3]);
        // Ties keep their subsample order.
        let mut sample = grower.sample();
        grower.presort(&mut sample, &[4, 3, 0, 1, 2]);
        assert_eq!(sample.sorted, vec![vec![2, 3, 1, 4, 0]]);
        assert_eq!(sample.unsampled, Vec::<u32>::new());
        grower.presort(&mut sample, &[3, 0]);
        assert_eq!(sample.sorted, vec![vec![3, 0]]);
        assert_eq!(sample.unsampled, vec![1, 2, 4]);
    }

    #[test]
    fn room_bounds_the_nodes_and_saturates() {
        assert_eq!(RegressionTree::room(0, 10), 1);
        assert_eq!(RegressionTree::room(5, 1_120), 63);
        assert_eq!(RegressionTree::room(5, 3), 5);
        assert_eq!(RegressionTree::room(63, 1 << 40), (1 << 41) - 1);
        assert_eq!(RegressionTree::room(64, 7), 13);
        assert_eq!(RegressionTree::room(usize::MAX, 7), 13);
    }

    #[test]
    fn partition_is_stable_on_both_sides() {
        let goes_left = [true, false, true, false, false, true];
        let mut segment = [5, 4, 3, 2, 1, 0];
        let mut spill = [0; 6];
        partition(&mut segment, &goes_left, &mut spill);
        assert_eq!(segment, [5, 2, 0, 4, 3, 1]);
    }

    /// Two identical columns tie on every gain, so the one earlier in
    /// `columns` must split, wherever the lockstep groups put the two: in
    /// one group, in two, or one of them in the remainder.
    #[test]
    fn the_earlier_of_two_identical_columns_wins_the_tie() {
        let features: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let step = f64::from(u8::from(i >= 20)) + (i % 3) as f64 * 0.1;
                vec![(i * 7 % 5) as f64, step, 1.0, step, (i % 2) as f64]
            })
            .collect();
        let grad: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { -1.0 }).collect();
        let hess = vec![1.0; 40];
        let rows: Vec<usize> = (0..40).collect();
        let mut s = per_node_sort::Stream(7);
        for width in 2..=5 {
            for _ in 0..12 {
                let mut columns = s.sample(5, 5);
                // Keep both copies, features 1 and 3, among the first `width`.
                columns.retain(|&f| f == 1 || f == 3);
                columns.extend(s.sample(5, 5).into_iter().filter(|&f| f != 1 && f != 3));
                columns.truncate(width);
                let order = s.sample(width, width);
                let columns: Vec<usize> = order.iter().map(|&i| columns[i]).collect();
                let first = *columns.iter().find(|&&f| f == 1 || f == 3).expect("a copy");
                let tree = fit_rows(&features, &grad, &hess, &rows, &columns, &PARAMS);
                let Node::Split { feature, .. } = tree.nodes[0] else {
                    panic!("the step splits the root: {columns:?}");
                };
                assert_eq!(feature, first, "columns {columns:?}");
                let oracle = per_node_sort::fit(&features, &grad, &hess, &rows, &columns, &PARAMS);
                assert_eq!(tree.bits(), oracle.bits(), "columns {columns:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Presorted trees are bit-identical, gains included, to the
        /// per-node-sort oracle for random rows, row-sample orders, column
        /// subsets and parameters, and crediting sampled rows by leaf
        /// segment adds the bits walking the tree would.
        #[test]
        fn presorted_trees_match_the_per_node_sort_oracle(
            seed in 0u64..u64::MAX,
            n in 1usize..300,
            width in 1usize..17,
            levels in 0usize..12,
            max_depth in 0usize..7,
        ) {
            let mut s = per_node_sort::Stream(seed);
            let features = s.features(n, width, levels);
            let grad: Vec<f64> = (0..n).map(|_| s.unit() * 2.0 - 1.0).collect();
            let hess: Vec<f64> = (0..n).map(|_| s.unit() * 0.25 + 1e-6).collect();
            let take = 1 + s.below(n);
            let rows = s.sample(n, take);
            let take = 1 + s.below(width);
            let columns = s.sample(width, take);
            let params = TreeParams {
                max_depth,
                lambda: s.unit() * 2.0,
                gamma: if s.below(3) == 0 { s.unit() * 0.05 } else { 0.0 },
                min_child_weight: if s.below(2) == 0 { s.unit() * 3.0 } else { 1e-6 },
            };
            let grower = Presorted::new(&features, params);
            let mut sample = grower.sample();
            grower.presort(&mut sample, &rows);
            let mut scratch = grower.scratch();
            let mut new = RegressionTree::with_room(max_depth, rows.len());
            let room = new.nodes.capacity();
            grower.grow(&sample, &mut scratch, &mut new, &interleave(&grad, &hess), &columns);
            prop_assert_eq!(new.nodes.capacity(), room);
            let old = per_node_sort::fit(&features, &grad, &hess, &rows, &columns, &params);
            prop_assert_eq!(new.bits(), old.bits());

            let mut credited = grad.clone();
            grower.credit(&sample, &scratch, &new, 0.3, &mut credited);
            let credited: Vec<u64> = credited.iter().map(|x| x.to_bits()).collect();
            let walked: Vec<u64> = grad
                .iter()
                .zip(&features)
                .map(|(g, row)| (g + 0.3 * new.predict(row)).to_bits())
                .collect();
            prop_assert_eq!(credited, walked);
        }
    }
}
