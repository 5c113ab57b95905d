//! Regression trees on gradient/hessian pairs (the XGBoost tree booster).

use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// How candidate split thresholds are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SplitMode {
    /// Consider every boundary between distinct values of each feature —
    /// optimal. Rows are presorted: one counting sort per feature per
    /// boosting round, after which each node scans and partitions its
    /// features' sorted segments in `O(n)` per feature. The right choice
    /// for CQC-sized data.
    #[default]
    Exact,
    /// Bucket each feature into equal-width bins over the node's value range
    /// and consider only bin edges — `O(n + bins)` per feature per node, the
    /// standard approximation for larger datasets (LightGBM/XGBoost `hist`).
    Histogram {
        /// Number of buckets per feature (at least 2, at most 65 536).
        bins: usize,
    },
}

/// Most buckets [`SplitMode::Histogram`] may ask for.
pub(crate) const MAX_BINS: usize = 1 << 16;

/// Parameters a single tree needs from the boosting configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TreeParams {
    pub max_depth: usize,
    pub lambda: f64,
    pub gamma: f64,
    pub min_child_weight: f64,
    pub split_mode: SplitMode,
}

/// Grows a fit's trees round by round: `start_round` sets the row sample
/// that the round's per-class trees share, then `grow` fits one tree on it.
pub(crate) trait TreeGrower {
    /// Sets the round's row sample: indices into the training rows, in
    /// subsample order.
    fn start_round(&mut self, rows_used: &[usize]);

    /// Fits one tree to `(grad, hess)` on the round's sample. `columns`
    /// restricts the candidate split features (column subsampling).
    fn grow(&mut self, grad: &[f64], hess: &[f64], columns: &[usize]) -> RegressionTree;
}

/// The split search of one fit: the training features laid out once, plus
/// buffers that every round and tree of the fit reuses.
pub(crate) struct Presorted {
    params: TreeParams,
    /// `values[feature][row]`: a column-major copy of the features.
    values: Vec<Vec<f64>>,
    /// `ranks[feature][row]`: the value's dense rank among the feature's
    /// distinct values, where `==` values (so `-0.0` and `0.0`) share a
    /// rank. Empty unless the split mode is [`SplitMode::Exact`].
    ranks: Vec<Vec<u32>>,
    /// Distinct values per ranked feature.
    distinct: Vec<usize>,
    /// The round's row sample in subsample order.
    sample: Vec<u32>,
    /// Per ranked feature, the round's sample in `(value, subsample
    /// position)` order.
    sample_sorted: Vec<Vec<u32>>,
    scratch: Scratch,
}

/// One tree's working buffers. Every node is a segment `[lo, hi)` of `rows`
/// and of each block of `sorted`; a split partitions all of them in place,
/// stably, so no node allocates or sorts.
#[derive(Default)]
struct Scratch {
    /// The round's sample; each node's segment is in subsample order.
    rows: Vec<u32>,
    /// One block of `rows.len()` per candidate column (exact mode only):
    /// block `k` holds each node's rows in `(value of columns[k], subsample
    /// position)` order.
    sorted: Vec<u32>,
    /// Which side of the split being applied each row goes to, by row id.
    goes_left: Vec<bool>,
    /// The stable partition's holding area for right-side rows.
    spill: Vec<u32>,
    /// Per-bucket gradient and hessian sums (histogram mode only).
    g_bins: Vec<f64>,
    h_bins: Vec<f64>,
}

impl Presorted {
    /// Lays out `features` (row-major, rectangular, finite) for
    /// `params.split_mode`.
    pub(crate) fn new(features: &[Vec<f64>], params: TreeParams) -> Self {
        let n = features.len();
        assert!(u32::try_from(n).is_ok(), "too many rows");
        let values: Vec<Vec<f64>> = (0..features[0].len())
            .map(|f| features.iter().map(|row| row[f]).collect())
            .collect();
        let (mut ranks, mut distinct) = (Vec::new(), Vec::new());
        if params.split_mode == SplitMode::Exact {
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
        }
        Self {
            params,
            sample_sorted: vec![Vec::new(); ranks.len()],
            values,
            ranks,
            distinct,
            sample: Vec::new(),
            scratch: Scratch::default(),
        }
    }
}

impl TreeGrower for Presorted {
    /// Counting-sorts the sample by rank, once per feature. The sort is
    /// stable, so rows with equal values keep their subsample order.
    fn start_round(&mut self, rows_used: &[usize]) {
        self.sample.clear();
        self.sample.extend(rows_used.iter().map(|&r| r as u32));
        let ranked = self.ranks.iter().zip(&self.distinct);
        for ((rank, &distinct), order) in ranked.zip(&mut self.sample_sorted) {
            let mut next = vec![0usize; distinct + 1];
            for &r in &self.sample {
                next[rank[r as usize] as usize + 1] += 1;
            }
            for v in 1..distinct {
                next[v] += next[v - 1];
            }
            order.resize(self.sample.len(), 0);
            for &r in &self.sample {
                let slot = &mut next[rank[r as usize] as usize];
                order[*slot] = r;
                *slot += 1;
            }
        }
    }

    fn grow(&mut self, grad: &[f64], hess: &[f64], columns: &[usize]) -> RegressionTree {
        let n = self.sample.len();
        assert!(n > 0, "tree needs at least one row");
        let scratch = &mut self.scratch;
        scratch.rows.clear();
        scratch.rows.extend_from_slice(&self.sample);
        scratch.sorted.clear();
        match self.params.split_mode {
            SplitMode::Exact => {
                for &f in columns {
                    scratch.sorted.extend_from_slice(&self.sample_sorted[f]);
                }
            }
            SplitMode::Histogram { bins } => {
                scratch.g_bins.resize(bins, 0.0);
                scratch.h_bins.resize(bins, 0.0);
            }
        }
        scratch.goes_left.resize(self.values[0].len(), false);
        scratch.spill.resize(n, 0);
        let mut builder = Builder {
            values: &self.values,
            grad,
            hess,
            columns,
            params: &self.params,
            scratch,
            nodes: Vec::new(),
        };
        builder.build(0, n, 0);
        RegressionTree {
            nodes: builder.nodes,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

/// The best split found so far at one node: `(feature, threshold, gain)`.
struct BestSplit<'a> {
    params: &'a TreeParams,
    g_sum: f64,
    h_sum: f64,
    parent_score: f64,
    best: Option<(usize, f64, f64)>,
}

impl BestSplit<'_> {
    /// Scores the split sending hessian mass `hl` and gradient `gl` left,
    /// and keeps it if it strictly beats the best so far.
    fn consider(&mut self, feature: usize, threshold: f64, gl: f64, hl: f64) {
        let params = self.params;
        let gr = self.g_sum - gl;
        let hr = self.h_sum - hl;
        if hl < params.min_child_weight || hr < params.min_child_weight {
            return;
        }
        let gain = 0.5
            * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - self.parent_score)
            - params.gamma;
        if gain > 0.0 && self.best.is_none_or(|(_, _, bg)| gain > bg) {
            self.best = Some((feature, threshold, gain));
        }
    }
}

impl RegressionTree {
    /// The tree's raw prediction for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than a feature index used by the tree.
    pub fn predict(&self, row: &[f64]) -> f64 {
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
                    idx = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Total number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
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
    values: &'a [Vec<f64>],
    grad: &'a [f64],
    hess: &'a [f64],
    columns: &'a [usize],
    params: &'a TreeParams,
    scratch: &'a mut Scratch,
    nodes: Vec<Node>,
}

impl Builder<'_> {
    /// Builds the subtree over segment `[lo, hi)`, returning its node index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let (grad, hess) = (self.grad, self.hess);
        let segment = &self.scratch.rows[lo..hi];
        let g_sum: f64 = segment.iter().map(|&r| grad[r as usize]).sum();
        let h_sum: f64 = segment.iter().map(|&r| hess[r as usize]).sum();
        let lambda = self.params.lambda;
        let leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                weight: -g_sum / (h_sum + lambda),
            });
            nodes.len() - 1
        };

        if depth >= self.params.max_depth || hi - lo < 2 {
            return leaf(&mut self.nodes);
        }

        let mut best = BestSplit {
            params: self.params,
            g_sum,
            h_sum,
            parent_score: g_sum * g_sum / (h_sum + lambda),
            best: None,
        };
        match self.params.split_mode {
            SplitMode::Exact => self.scan_sorted(lo, hi, &mut best),
            SplitMode::Histogram { bins } => self.scan_bins(lo, hi, bins, &mut best),
        }
        let Some((feature, threshold, gain)) = best.best else {
            return leaf(&mut self.nodes);
        };

        let values = &self.values[feature];
        let mut n_left = 0;
        for &r in &self.scratch.rows[lo..hi] {
            let left = values[r as usize] < threshold;
            self.scratch.goes_left[r as usize] = left;
            n_left += usize::from(left);
        }
        if n_left == 0 || n_left == hi - lo {
            // Possible under histogram splitting when a bin edge separates
            // no samples (e.g. empty leading bins), and under exact
            // splitting when `0.5 * (va + vb)` rounds onto `va`: fall back
            // to a leaf.
            return leaf(&mut self.nodes);
        }
        partition(
            &mut self.scratch.rows[lo..hi],
            &self.scratch.goes_left,
            &mut self.scratch.spill,
        );
        let n = self.scratch.rows.len();
        for block in self.scratch.sorted.chunks_exact_mut(n) {
            partition(
                &mut block[lo..hi],
                &self.scratch.goes_left,
                &mut self.scratch.spill,
            );
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
            gain,
            left,
            right,
        };
        index
    }

    /// Exact search: walks each column's sorted segment once, so `gl`/`hl`
    /// accumulate in `(value, subsample position)` order.
    fn scan_sorted(&self, lo: usize, hi: usize, best: &mut BestSplit<'_>) {
        let n = self.scratch.rows.len();
        for (k, &f) in self.columns.iter().enumerate() {
            let values = &self.values[f];
            let mut gl = 0.0;
            let mut hl = 0.0;
            for w in self.scratch.sorted[k * n + lo..k * n + hi].windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                gl += self.grad[a];
                hl += self.hess[a];
                let (va, vb) = (values[a], values[b]);
                if va == vb {
                    continue; // cannot split between equal values
                }
                best.consider(f, 0.5 * (va + vb), gl, hl);
            }
        }
    }

    /// Histogram search: buckets the segment's rows in subsample order.
    fn scan_bins(&mut self, lo: usize, hi: usize, bins: usize, best: &mut BestSplit<'_>) {
        for &f in self.columns {
            let values = &self.values[f];
            let segment = &self.scratch.rows[lo..hi];
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for &r in segment {
                min = min.min(values[r as usize]);
                max = max.max(values[r as usize]);
            }
            if (max - min).abs() < f64::EPSILON {
                continue; // constant feature at this node
            }
            let width = (max - min) / bins as f64;
            self.scratch.g_bins.fill(0.0);
            self.scratch.h_bins.fill(0.0);
            for &r in segment {
                let r = r as usize;
                let b = (((values[r] - min) / width) as usize).min(bins - 1);
                self.scratch.g_bins[b] += self.grad[r];
                self.scratch.h_bins[b] += self.hess[r];
            }
            let mut gl = 0.0;
            let mut hl = 0.0;
            for b in 0..bins - 1 {
                gl += self.scratch.g_bins[b];
                hl += self.scratch.h_bins[b];
                best.consider(f, min + width * (b + 1) as f64, gl, hl);
            }
        }
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

// ---------------------------------------------------------------------------
// Snapshot codecs (`serde::binary`).

impl Encode for SplitMode {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SplitMode::Exact => 0u8.encode(out),
            SplitMode::Histogram { bins } => {
                1u8.encode(out);
                bins.encode(out);
            }
        }
    }
}

impl Decode for SplitMode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(SplitMode::Exact),
            1 => Ok(SplitMode::Histogram {
                bins: usize::decode(r)?,
            }),
            _ => Err(DecodeError::Invalid),
        }
    }
}

impl Encode for Node {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Node::Leaf { weight } => {
                0u8.encode(out);
                weight.encode(out);
            }
            Node::Split {
                feature,
                threshold,
                gain,
                left,
                right,
            } => {
                1u8.encode(out);
                feature.encode(out);
                threshold.encode(out);
                gain.encode(out);
                left.encode(out);
                right.encode(out);
            }
        }
    }
}

impl Decode for Node {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Node::Leaf {
                weight: f64::decode(r)?,
            }),
            1 => Ok(Node::Split {
                feature: usize::decode(r)?,
                threshold: f64::decode(r)?,
                gain: f64::decode(r)?,
                left: usize::decode(r)?,
                right: usize::decode(r)?,
            }),
            _ => Err(DecodeError::Invalid),
        }
    }
}

impl Encode for RegressionTree {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nodes.encode(out);
    }
}

impl Decode for RegressionTree {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let nodes = Vec::<Node>::decode(r)?;
        if nodes.is_empty() {
            return Err(DecodeError::Invalid);
        }
        // `build` reserves a parent's slot before recursing, so children
        // always carry strictly larger indices; enforcing that here makes
        // `predict` provably terminating on decoded trees.
        for (idx, node) in nodes.iter().enumerate() {
            if let Node::Split { left, right, .. } = node {
                let valid =
                    *left > idx && *right > idx && *left < nodes.len() && *right < nodes.len();
                if !valid {
                    return Err(DecodeError::Invalid);
                }
            }
        }
        Ok(Self { nodes })
    }
}

/// The per-node-sort builder this crate used before presorting, kept
/// verbatim as a test oracle: presorted trees must match it byte for byte.
#[cfg(test)]
pub(crate) mod per_node_sort {
    use super::{Node, RegressionTree, SplitMode, TreeGrower, TreeParams};

    /// The oracle as a [`TreeGrower`], to drive whole fits.
    pub(crate) struct Oracle<'a> {
        features: &'a [Vec<f64>],
        params: TreeParams,
        rows: Vec<usize>,
    }

    impl<'a> Oracle<'a> {
        pub(crate) fn new(features: &'a [Vec<f64>], params: TreeParams) -> Self {
            Self {
                features,
                params,
                rows: Vec::new(),
            }
        }
    }

    impl TreeGrower for Oracle<'_> {
        fn start_round(&mut self, rows_used: &[usize]) {
            self.rows = rows_used.to_vec();
        }

        fn grow(&mut self, grad: &[f64], hess: &[f64], columns: &[usize]) -> RegressionTree {
            fit(self.features, grad, hess, &self.rows, columns, &self.params)
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
            match params.split_mode {
                SplitMode::Exact => {
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
                SplitMode::Histogram { bins } => {
                    let bins = bins.max(2);
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &r in rows {
                        lo = lo.min(features[r][f]);
                        hi = hi.max(features[r][f]);
                    }
                    if (hi - lo).abs() < f64::EPSILON {
                        continue; // constant feature at this node
                    }
                    let width = (hi - lo) / bins as f64;
                    let mut g_bins = vec![0.0f64; bins];
                    let mut h_bins = vec![0.0f64; bins];
                    for &r in rows {
                        let b = (((features[r][f] - lo) / width) as usize).min(bins - 1);
                        g_bins[b] += grad[r];
                        h_bins[b] += hess[r];
                    }
                    let mut gl = 0.0;
                    let mut hl = 0.0;
                    for b in 0..bins - 1 {
                        gl += g_bins[b];
                        hl += h_bins[b];
                        let threshold = lo + width * (b + 1) as f64;
                        consider(f, threshold, gl, hl, &mut best);
                    }
                }
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
        split_mode: SplitMode::Exact,
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
        let mut grower = Presorted::new(features, *params);
        grower.start_round(rows);
        grower.grow(grad, hess, columns)
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
        assert_eq!(tree.leaf_count(), 1);
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
        assert_eq!(tree.node_count(), 1);
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
        assert_eq!(tree.leaf_count(), 1, "high gamma must prune everything");
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
        assert_eq!(tree.leaf_count(), 1);
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
        assert_eq!(tree.leaf_count(), 1, "identical features cannot be split");
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
    fn histogram_splitting_matches_exact_on_a_step_function() {
        let features: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..40).map(|i| if i < 20 { -1.0 } else { 1.0 }).collect();
        let hist_params = TreeParams {
            split_mode: SplitMode::Histogram { bins: 8 },
            ..PARAMS
        };
        let exact = fit_regression(&features, &targets, &PARAMS);
        let hist = fit_regression(&features, &targets, &hist_params);
        for x in [3.0, 12.0, 27.0, 38.0] {
            assert_eq!(
                exact.predict(&[x]).signum(),
                hist.predict(&[x]).signum(),
                "disagreement at {x}"
            );
        }
    }

    #[test]
    fn histogram_with_few_bins_still_produces_a_valid_tree() {
        let features: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 7) as f64, i as f64]).collect();
        let targets: Vec<f64> = (0..30)
            .map(|i| if i % 7 < 3 { -1.0 } else { 1.0 })
            .collect();
        let params = TreeParams {
            split_mode: SplitMode::Histogram { bins: 2 },
            ..PARAMS
        };
        let tree = fit_regression(&features, &targets, &params);
        assert!(tree.leaf_count() >= 1);
        assert!(tree.predict(&[1.0, 0.0]).is_finite());
    }

    #[test]
    fn histogram_handles_constant_features() {
        let features = vec![vec![5.0], vec![5.0], vec![5.0], vec![5.0]];
        let targets = vec![-1.0, 1.0, -1.0, 1.0];
        let params = TreeParams {
            split_mode: SplitMode::Histogram { bins: 16 },
            ..PARAMS
        };
        let tree = fit_regression(&features, &targets, &params);
        assert_eq!(tree.leaf_count(), 1);
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
        let mut grower = Presorted::new(&features, PARAMS);
        assert_eq!(grower.ranks, vec![vec![2, 1, 0, 1, 2]]);
        assert_eq!(grower.distinct, vec![3]);
        // Ties keep their subsample order.
        grower.start_round(&[4, 3, 0, 1, 2]);
        assert_eq!(grower.sample_sorted, vec![vec![2, 3, 1, 4, 0]]);
        let histogram = TreeParams {
            split_mode: SplitMode::Histogram { bins: 4 },
            ..PARAMS
        };
        assert!(Presorted::new(&features, histogram).ranks.is_empty());
    }

    #[test]
    fn partition_is_stable_on_both_sides() {
        let goes_left = [true, false, true, false, false, true];
        let mut segment = [5, 4, 3, 2, 1, 0];
        let mut spill = [0; 6];
        partition(&mut segment, &goes_left, &mut spill);
        assert_eq!(segment, [5, 2, 0, 4, 3, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Presorted trees are byte-identical to the per-node-sort oracle
        /// for random rows, row-sample orders, column subsets and
        /// parameters, in both split modes.
        #[test]
        fn presorted_trees_match_the_per_node_sort_oracle(
            seed in 0u64..u64::MAX,
            n in 1usize..300,
            width in 1usize..10,
            levels in 0usize..12,
            max_depth in 0usize..7,
            histogram in 0usize..4,
        ) {
            let mut s = per_node_sort::Stream(seed);
            let features = s.features(n, width, levels);
            let grad: Vec<f64> = (0..n).map(|_| s.unit() * 2.0 - 1.0).collect();
            let hess: Vec<f64> = (0..n).map(|_| s.unit() * 0.25 + 1e-6).collect();
            let take = 1 + s.below(n);
            let rows = s.sample(n, take);
            let take = 1 + s.below(width);
            let columns = s.sample(width, take);
            let split_mode = if histogram == 0 {
                SplitMode::Histogram { bins: 2 + s.below(30) }
            } else {
                SplitMode::Exact
            };
            let params = TreeParams {
                max_depth,
                lambda: s.unit() * 2.0,
                gamma: if s.below(3) == 0 { s.unit() * 0.05 } else { 0.0 },
                min_child_weight: if s.below(2) == 0 { s.unit() * 3.0 } else { 1e-6 },
                split_mode,
            };
            let new = fit_rows(&features, &grad, &hess, &rows, &columns, &params);
            let old = per_node_sort::fit(&features, &grad, &hess, &rows, &columns, &params);
            prop_assert_eq!(new.to_bytes(), old.to_bytes());
        }
    }
}
