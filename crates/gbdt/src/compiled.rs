//! The compiled inference form of a fitted model: per-feature prefix leaf
//! masks in the manner of QuickScorer (Lucchese et al., SIGIR 2015).
//!
//! Every split compares one feature with one of that feature's *cuts*, the
//! sorted distinct thresholds the model splits it at; the wire form names a
//! split by its feature and the cut's rank. A row goes right at a split
//! exactly when the split's threshold is at or below the row's value (or
//! the value is NaN), and going right rules out every leaf of the split's
//! left subtree. Each tree has a bit mask of its leaves, bit `i` for its
//! `i`-th leaf from the left, and a row's exit leaf is the leftmost leaf
//! that no right-going split rules out. So the table holds, for each
//! feature and each number `q` of its cuts at or below a value, a *prefix
//! row*: the AND of the "left subtree gone" masks of every split on that
//! feature at one of those `q` cuts. Scoring a row ANDs one prefix row per
//! feature and reads each tree's lowest set bit.
//!
//! The rows are laid out per block of trees, as many as fill
//! [`BLOCK_WORDS`] mask words, with rows only for the cuts that block
//! splits on, so the table is at most two rows of 256 bytes a split however
//! many distinct thresholds the model has.

use serde::binary::{Decode, DecodeError, Encode, Reader};

/// The wire form's feature id of a leaf.
pub(crate) const LEAF: u16 = u16::MAX;

/// Mask words in one table row: a block holds `BLOCK_WORDS / words` trees
/// of `words` words each.
const BLOCK_WORDS: usize = 64;

/// Rows one scoring pass takes: [`Forest::add_leaves`] scores a longer
/// batch in passes of at most this many.
pub(crate) const BATCH: usize = 8;

/// The most leaves a tree may have: one row holds its mask.
pub(crate) const MAX_LEAVES: usize = 32 * BLOCK_WORDS;

/// One table row: the leaf masks of a block's trees, side by side.
type Row = [u32; BLOCK_WORDS];

/// The trees `trees.0..trees.1`, whose rows are the groups
/// `groups.0..groups.1`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Block {
    trees: (usize, usize),
    groups: (usize, usize),
}

/// One feature's rows in one block. The block splits the feature at the
/// `len` values `thresholds[cuts..cuts + len]`, ascending; row `rows + q`
/// is the AND of the masks of the block's splits at the first `q` of them,
/// so row `rows` is all ones.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Group {
    feature: usize,
    cuts: usize,
    len: usize,
    rows: usize,
}

/// A split as the table is built from it: its global cut id (its
/// feature's first id plus its rank) and the leaves `lo..hi` of its left
/// subtree.
#[derive(Debug, Clone, Copy)]
struct Split {
    cut: u32,
    lo: u16,
    hi: u16,
}

/// A model's trees, round-major and class-minor: their wire form and the
/// mask table built from it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Forest {
    /// Each feature's cuts, strictly ascending.
    cuts: Vec<Vec<f64>>,
    /// Every node's feature in preorder, [`LEAF`] for a leaf.
    nodes: Vec<u16>,
    /// Every split's rank among its feature's cuts, in preorder.
    ranks: Vec<u16>,
    /// Every leaf's weight in preorder: tree by tree, left to right.
    leaves: Vec<f64>,
    /// Where each tree's leaves start in `leaves`, then their end.
    leaf_starts: Vec<usize>,
    /// Mask words a tree: the most leaves a tree has over 32, rounded up.
    words: usize,
    blocks: Vec<Block>,
    groups: Vec<Group>,
    /// Every group's threshold values, group by group.
    thresholds: Vec<f64>,
    rows: Vec<Row>,
}

impl Forest {
    /// Compiles `trees` trees from their preorder `(feature, value)` nodes,
    /// a split's value being its threshold and a leaf's feature [`LEAF`]
    /// with its weight in `value`. Each of the `features` features' cuts
    /// are its distinct thresholds. `Invalid` where [`Forest::decode`]
    /// would refuse the result, or where a feature has more cuts than a
    /// `u16` rank reaches.
    pub(crate) fn from_preorder(
        preorder: &[(u16, f64)],
        trees: usize,
        features: usize,
    ) -> Result<Self, DecodeError> {
        let mut cuts = vec![Vec::new(); features];
        for &(feature, value) in preorder.iter().filter(|node| node.0 != LEAF) {
            let cuts = cuts.get_mut(usize::from(feature));
            cuts.ok_or(DecodeError::Invalid)?.push(value);
        }
        for cuts in &mut cuts {
            cuts.sort_unstable_by(f64::total_cmp);
            cuts.dedup_by(|later, earlier| later == earlier);
        }
        let nodes = preorder.iter().map(|node| node.0).collect();
        let mut ranks = Vec::new();
        let mut leaves = Vec::new();
        for &(feature, value) in preorder {
            if feature == LEAF {
                leaves.push(value);
            } else {
                let rank = cuts[usize::from(feature)].partition_point(|&t| t < value);
                ranks.push(u16::try_from(rank).map_err(|_| DecodeError::Invalid)?);
            }
        }
        Self::build(trees, cuts, nodes, ranks, leaves)
    }

    /// Checks a wire form and builds its table. `Invalid` if a feature's
    /// cuts are not finite and strictly ascending, there are more than
    /// 65 535 features, a split's feature or rank is out of range, a cut
    /// is used by no split, a split lacks a subtree, a tree has more than
    /// [`MAX_LEAVES`] leaves, nodes are left over after the last tree,
    /// there are more or fewer ranks than splits or weights than leaves, or
    /// a leaf weight is not finite.
    ///
    /// The lengths are checked once, up front. One pass over the nodes
    /// then finds every split's cut and left subtree ([`walk`]), one pass
    /// over the splits finds each block's cuts ([`Forest::block_cuts`]),
    /// and the table, allocated at its exact size, is written once, row
    /// after row ([`Forest::write_table`]).
    fn build(
        trees: usize,
        cuts: Vec<Vec<f64>>,
        nodes: Vec<u16>,
        ranks: Vec<u16>,
        leaves: Vec<f64>,
    ) -> Result<Self, DecodeError> {
        let ascending = |cuts: &Vec<f64>| {
            cuts.iter().all(|c| c.is_finite()) && cuts.windows(2).all(|w| w[0] < w[1])
        };
        let finite = leaves
            .iter()
            .fold(true, |finite, leaf| finite & leaf.is_finite());
        if cuts.len() > usize::from(LEAF) || !cuts.iter().all(ascending) || !finite {
            return Err(DecodeError::Invalid);
        }
        // At most 65 535 features of at most 65 536 cuts each fit `u32` ids.
        let mut first_cut = Vec::with_capacity(cuts.len() + 1);
        first_cut.push(0u32);
        for cuts in &cuts {
            let len = u32::try_from(cuts.len()).map_err(|_| DecodeError::Invalid)?;
            let next = first_cut[first_cut.len() - 1].checked_add(len);
            first_cut.push(next.ok_or(DecodeError::Invalid)?);
        }
        // Every node is a leaf or splits a listed feature (`LEAF + 1`
        // wraps to 0), each split has a rank and each leaf a weight, and
        // each tree has a leaf. Counting in `u16` lanes, a chunk at a time,
        // vectorizes.
        let (mut leaf_nodes, mut top) = (0, 0u16);
        for chunk in nodes.chunks(usize::from(u16::MAX)) {
            let mut chunk_leaves = 0u16;
            for &feature in chunk {
                chunk_leaves += u16::from(feature == LEAF);
                top = top.max(feature.wrapping_add(1));
            }
            leaf_nodes += usize::from(chunk_leaves);
        }
        if usize::from(top) > cuts.len()
            || nodes.len() - leaf_nodes != ranks.len()
            || leaf_nodes != leaves.len()
            || trees > leaf_nodes
        {
            return Err(DecodeError::Invalid);
        }
        let (splits, leaf_starts, most_leaves) = walk(trees, &nodes, &ranks, &first_cut)?;

        let words = usize::from(most_leaves.div_ceil(32));
        let mut forest = Self {
            cuts,
            nodes,
            ranks,
            leaves,
            leaf_starts,
            words,
            blocks: Vec::new(),
            groups: Vec::new(),
            thresholds: Vec::new(),
            rows: Vec::new(),
        };
        let block_cuts = forest.block_cuts(&splits, &first_cut)?;
        forest.write_table(&splits, &block_cuts, &first_cut);
        Ok(forest)
    }

    /// Each block's cuts, ascending, with their features. `Invalid` if a
    /// cut is used by no split.
    fn block_cuts(&self, splits: &[Split], first_cut: &[u32]) -> Result<BlockCuts, DecodeError> {
        let cut_count = first_cut[first_cut.len() - 1] as usize;
        let mut block_cuts = BlockCuts {
            cuts: Vec::new(),
            ends: Vec::new(),
            groups: 0,
            widest: 0,
        };
        // Whether the block at hand splits at each cut: false between blocks.
        let mut seen = vec![false; cut_count];
        let mut used = vec![false; cut_count];
        for trees in block_trees(self.trees(), self.words) {
            let start = block_cuts.cuts.len();
            for split in &splits[self.split_start(trees.0)..self.split_start(trees.1)] {
                if !std::mem::replace(&mut seen[split.cut as usize], true) {
                    block_cuts.cuts.push((split.cut, 0));
                }
            }
            let block = &mut block_cuts.cuts[start..];
            block.sort_unstable();
            let mut last = usize::MAX;
            for (cut, feature) in block {
                seen[*cut as usize] = false;
                used[*cut as usize] = true;
                *feature = first_cut.partition_point(|&first| first <= *cut) - 1;
                block_cuts.groups += usize::from(*feature != last);
                last = *feature;
            }
            block_cuts.widest = block_cuts.widest.max(block_cuts.cuts.len() - start);
            block_cuts.ends.push(block_cuts.cuts.len());
        }
        if used.contains(&false) {
            return Err(DecodeError::Invalid);
        }
        Ok(block_cuts)
    }

    /// Writes the table of `block_cuts`, each part allocated at its exact
    /// size. Per block, each cut first gets a row of its own, the AND of
    /// the masks of the block's splits at it; then the prefix rows are
    /// written once, in order: a group's first row is all ones, and each
    /// further row is its predecessor ANDed with its cut's own row.
    fn write_table(&mut self, splits: &[Split], block_cuts: &BlockCuts, first_cut: &[u32]) {
        self.blocks.reserve_exact(block_cuts.ends.len());
        self.groups.reserve_exact(block_cuts.groups);
        self.thresholds.reserve_exact(block_cuts.cuts.len());
        self.rows
            .reserve_exact(block_cuts.groups + block_cuts.cuts.len());
        // Each cut's own row in the block at hand, by its place there.
        let mut row_of = vec![0; first_cut[first_cut.len() - 1] as usize];
        let mut own = vec![[u32::MAX; BLOCK_WORDS]; block_cuts.widest];
        let bits = 32 * self.words;
        let mut start = 0;
        for (trees, &end) in block_trees(self.trees(), self.words).zip(&block_cuts.ends) {
            let block = &block_cuts.cuts[start..end];
            for (row, &(cut, _)) in block.iter().enumerate() {
                row_of[cut as usize] = row;
                own[row] = [u32::MAX; BLOCK_WORDS];
            }
            for tree in trees.0..trees.1 {
                let offset = (tree - trees.0) * bits;
                for split in &splits[self.split_start(tree)..self.split_start(tree + 1)] {
                    let (lo, hi) = (usize::from(split.lo), usize::from(split.hi));
                    clear_bits(
                        &mut own[row_of[split.cut as usize]],
                        offset + lo,
                        offset + hi,
                    );
                }
            }
            let first_group = self.groups.len();
            for (own, &(cut, feature)) in own.iter().zip(block) {
                let block_groups = &self.groups[first_group..];
                if block_groups
                    .last()
                    .is_none_or(|group| group.feature != feature)
                {
                    self.groups.push(Group {
                        feature,
                        cuts: self.thresholds.len(),
                        len: 0,
                        rows: self.rows.len(),
                    });
                    self.rows.push([u32::MAX; BLOCK_WORDS]);
                }
                let mut prefix = *own;
                for (word, previous) in prefix.iter_mut().zip(&self.rows[self.rows.len() - 1]) {
                    *word &= previous;
                }
                self.rows.push(prefix);
                let group = self.groups.len() - 1;
                self.groups[group].len += 1;
                let rank = (cut - first_cut[feature]) as usize;
                self.thresholds.push(self.cuts[feature][rank]);
            }
            self.blocks.push(Block {
                trees,
                groups: (first_group, self.groups.len()),
            });
            start = end;
        }
    }

    /// Where tree `tree`'s splits start in preorder: a tree of `n` leaves
    /// has `n - 1` splits.
    fn split_start(&self, tree: usize) -> usize {
        self.leaf_starts[tree] - tree
    }

    /// Number of trees.
    pub(crate) fn trees(&self) -> usize {
        self.leaf_starts.len() - 1
    }

    /// Number of features the cuts are listed for.
    pub(crate) fn features(&self) -> usize {
        self.cuts.len()
    }

    /// The largest leaf magnitude of each tree, in tree order.
    pub(crate) fn leaf_bounds(&self) -> impl Iterator<Item = f64> + '_ {
        self.leaf_starts.windows(2).map(|span| {
            self.leaves[span[0]..span[1]]
                .iter()
                .fold(0.0, |bound: f64, leaf| bound.max(leaf.abs()))
        })
    }

    /// Adds `scale * leaf` of every tree on each of a batch of rows to
    /// that row's scores: `rows` holds the rows back to back,
    /// [`Forest::features`] values each, and `scores` a run of `classes`
    /// scores a row, tree `t` adding to class `t % classes`. The batch is
    /// scored in passes of up to [`BATCH`] rows. Per block, each feature
    /// the block splits on picks, for each row, the prefix row of the
    /// block's cuts at or below the row's value, and the AND of a row's
    /// picks leaves each tree's exit leaf as its lowest set bit; then each
    /// tree's leaves are read once for all the pass's rows. So a block's
    /// table and leaves are fetched once a pass, not once a row. The rows'
    /// sums interleave, but each row's class sums run in tree order, so in
    /// round order, with the same multiply-then-add as the row alone: every
    /// score is bit for bit the row's own.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not whole rows or `scores` not one run of
    /// `classes` per row.
    pub(crate) fn add_leaves(&self, rows: &[f64], classes: usize, scale: f64, scores: &mut [f64]) {
        let width = self.features();
        let batch = rows.len() / width;
        assert!(
            batch * width == rows.len() && batch * classes == scores.len(),
            "one run of scores per whole row"
        );
        for at in (0..batch).step_by(BATCH) {
            let n = BATCH.min(batch - at);
            let rows = &rows[at * width..(at + n) * width];
            let scores = &mut scores[at * classes..(at + n) * classes];
            match n {
                1 => self.pass::<1>(rows, classes, scale, scores),
                2 => self.pass::<2>(rows, classes, scale, scores),
                3 => self.pass::<3>(rows, classes, scale, scores),
                4 => self.pass::<4>(rows, classes, scale, scores),
                5 => self.pass::<5>(rows, classes, scale, scores),
                6 => self.pass::<6>(rows, classes, scale, scores),
                7 => self.pass::<7>(rows, classes, scale, scores),
                _ => self.pass::<BATCH>(rows, classes, scale, scores),
            }
        }
    }

    /// One pass of [`Forest::add_leaves`] over its `N` rows, `N` at most
    /// [`BATCH`]: per block, each row's mask, then
    /// [`Forest::add_block_leaves`]. Both are kept out of line, so that a
    /// batch of one compiles to loops as tight as a kernel for one row.
    #[inline(never)]
    fn pass<const N: usize>(&self, rows: &[f64], classes: usize, scale: f64, scores: &mut [f64]) {
        let width = self.features();
        let mut masks = [[0u32; BLOCK_WORDS]; N];
        // The class of the block's first tree.
        let mut first = 0;
        for block in &self.blocks {
            let groups = &self.groups[block.groups.0..block.groups.1];
            for (at, mask) in masks.iter_mut().enumerate() {
                let row = &rows[at * width..(at + 1) * width];
                let mut own: Row = [u32::MAX; BLOCK_WORDS];
                for group in groups {
                    let x = row[group.feature];
                    let cuts = &self.thresholds[group.cuts..group.cuts + group.len];
                    // Cuts at or below `x`: all of them when `x` is NaN.
                    let above: usize = cuts.iter().map(|&t| usize::from(x < t)).sum();
                    let prefix = &self.rows[group.rows + group.len - above];
                    for (word, prefix) in own.iter_mut().zip(prefix) {
                        *word &= prefix;
                    }
                }
                *mask = own;
            }
            first = self.add_block_leaves(block, &masks, first, classes, scale, scores);
        }
    }

    /// Adds the exit leaf of each of `block`'s trees on each of the `N`
    /// rows `masks` holds, tree by tree and, per tree, row by row; `first`
    /// is the class of the block's first tree, and the class after its last
    /// is returned.
    #[inline(never)]
    fn add_block_leaves<const N: usize>(
        &self,
        block: &Block,
        masks: &[Row; N],
        first: usize,
        classes: usize,
        scale: f64,
        scores: &mut [f64],
    ) -> usize {
        let mut class = first;
        let mut words: [_; N] = std::array::from_fn(|at| masks[at].chunks_exact(self.words));
        for tree in block.trees.0..block.trees.1 {
            let start = self.leaf_starts[tree];
            for (at, words) in words.iter_mut().enumerate() {
                let mut leaf = start;
                for &word in words.next().expect("a tree's words") {
                    if word != 0 {
                        leaf += word.trailing_zeros() as usize;
                        break;
                    }
                    leaf += 32;
                }
                scores[at * classes + class] += scale * self.leaves[leaf];
            }
            class = if class + 1 == classes { 0 } else { class + 1 };
        }
        class
    }
}

/// Every split of `trees` trees in the preorder `nodes`, whose lengths
/// [`Forest::build`] has checked against `ranks`, with its cut id (see
/// `first_cut`, each feature's first id, then their end) and its left
/// subtree; where each tree's leaves start, then their end; and the most
/// leaves a tree has. `Invalid` if a rank is out of its feature's range, a
/// tree has more than [`MAX_LEAVES`] leaves, or the nodes are not exactly
/// `trees` whole trees.
fn walk(
    trees: usize,
    nodes: &[u16],
    ranks: &[u16],
    first_cut: &[u32],
) -> Result<(Vec<Split>, Vec<usize>, u16), DecodeError> {
    let blank = Split {
        cut: 0,
        lo: 0,
        hi: 0,
    };
    let mut splits = vec![blank; ranks.len()];
    let mut leaf_starts = Vec::with_capacity(trees + 1);
    leaf_starts.push(0);
    // The splits whose left subtree is still growing, `open` of them, as
    // `splits` indices. A tree with `MAX_LEAVES` open splits has too many
    // leaves, so the index wraps only in a tree that is refused.
    let mut stack = [0; MAX_LEAVES];
    let (mut open, mut split, mut count, mut most_leaves) = (0, 0, 0u16, 1);
    let mut invalid = false;
    for &feature in nodes {
        if feature != LEAF {
            let feature = usize::from(feature);
            let (first, end) = (first_cut[feature], first_cut[feature + 1]);
            let rank = u32::from(ranks[split]);
            invalid |= rank >= end - first;
            stack[open % MAX_LEAVES] = split;
            splits[split] = Split {
                cut: first.wrapping_add(rank),
                lo: count,
                hi: count,
            };
            split += 1;
            open += 1;
            continue;
        }
        // Past `MAX_LEAVES` the count may wrap, but the tree is refused.
        count = count.wrapping_add(1);
        invalid |= usize::from(count) > MAX_LEAVES;
        if open == 0 {
            leaf_starts.push(leaf_starts[leaf_starts.len() - 1] + usize::from(count));
            most_leaves = most_leaves.max(count);
            count = 0;
            continue;
        }
        // The split's left subtree ends here; its right one follows.
        open -= 1;
        splits[stack[open % MAX_LEAVES]].hi = count;
    }
    if invalid || leaf_starts.len() != trees + 1 || count != 0 || open != 0 {
        return Err(DecodeError::Invalid);
    }
    Ok((splits, leaf_starts, most_leaves))
}

/// The trees of each block, `first..end`: as many as fill
/// [`BLOCK_WORDS`] mask words of `words` words a tree.
fn block_trees(trees: usize, words: usize) -> impl Iterator<Item = (usize, usize)> {
    let per_block = BLOCK_WORDS / words;
    (0..trees)
        .step_by(per_block)
        .map(move |first| (first, trees.min(first + per_block)))
}

/// Each block's cuts, as [`Forest::block_cuts`] finds them.
struct BlockCuts {
    /// Every block's cuts with their features, block by block, each
    /// block's ascending.
    cuts: Vec<(u32, usize)>,
    /// Where each block's cuts end in `cuts`.
    ends: Vec<usize>,
    /// The table's groups: one per feature each block splits on.
    groups: usize,
    /// The most cuts one block splits at.
    widest: usize,
}

/// Clears bits `from..to` of `row`, where `from < to`: within one word for
/// a tree of one word, as every CQC tree is.
fn clear_bits(row: &mut Row, from: usize, to: usize) {
    let (first, last) = (from / 32, (to - 1) / 32);
    let head = u32::MAX << (from % 32);
    let tail = u32::MAX >> (31 - (to - 1) % 32);
    if first == last {
        row[first] &= !(head & tail);
    } else {
        row[first] &= !head;
        row[first + 1..last].fill(0);
        row[last] &= !tail;
    }
}

/// The next `len` items of `N` bytes each, in one take.
fn take_items<'a, const N: usize>(
    r: &mut Reader<'a>,
    len: usize,
) -> Result<&'a [[u8; N]], DecodeError> {
    let bytes = r.take(len.checked_mul(N).ok_or(DecodeError::Truncated)?)?;
    Ok(bytes.as_chunks::<N>().0)
}

/// The wire form: the tree count, each feature's cuts, then in preorder
/// every node's `u16` feature ([`LEAF`] for a leaf), every split's `u16`
/// rank and every leaf's `f64` weight, as three arrays: four bytes a split
/// and ten a leaf. The table is rebuilt on decode.
impl Encode for Forest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.trees().encode(out);
        self.cuts.encode(out);
        self.nodes.encode(out);
        self.ranks.encode(out);
        self.leaves.encode(out);
    }
}

impl Decode for Forest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let trees = usize::decode(r)?;
        let cuts = Vec::<Vec<f64>>::decode(r)?;
        // Each array is a `Vec`'s wire form, read in one take.
        let nodes = usize::decode(r).and_then(|len| take_items(r, len))?;
        let ranks = usize::decode(r).and_then(|len| take_items(r, len))?;
        let leaves = usize::decode(r).and_then(|len| take_items(r, len))?;
        Self::build(
            trees,
            cuts,
            nodes.iter().map(|b| u16::from_le_bytes(*b)).collect(),
            ranks.iter().map(|b| u16::from_le_bytes(*b)).collect(),
            leaves.iter().map(|b| f64::from_le_bytes(*b)).collect(),
        )
    }
}

/// The table builder this module used before the one-pass build, kept
/// verbatim (only its method names changed) as a test oracle: the one-pass
/// build must compile every wire form to an equal [`Forest`] and refuse
/// exactly the ones this refuses.
#[cfg(test)]
pub(crate) mod previous {
    use super::{Block, Forest, Group, Row, BLOCK_WORDS, LEAF, MAX_LEAVES};
    use serde::binary::{Decode, DecodeError, Reader};

    /// A split as the table is built from it: its global cut id (its
    /// feature's first id plus its rank) and the leaves `lo..hi` of its left
    /// subtree.
    #[derive(Debug, Clone, Copy)]
    struct Split {
        cut: u32,
        lo: u16,
        hi: u16,
    }

    impl Forest {
        /// Checks a wire form and builds its table. `Invalid` if a feature's
        /// cuts are not finite and strictly ascending, there are more than
        /// 65 535 features, a split's feature or rank is out of range, a cut
        /// is used by no split, a split lacks a subtree, a tree has more than
        /// [`MAX_LEAVES`] leaves, nodes are left over after the last tree,
        /// there are more or fewer ranks than splits or weights than leaves, or
        /// a leaf weight is not finite.
        pub(crate) fn previous_build(
            trees: usize,
            cuts: Vec<Vec<f64>>,
            nodes: Vec<u16>,
            ranks: Vec<u16>,
            leaves: Vec<f64>,
        ) -> Result<Self, DecodeError> {
            let ascending = |cuts: &Vec<f64>| {
                cuts.iter().all(|c| c.is_finite()) && cuts.windows(2).all(|w| w[0] < w[1])
            };
            if cuts.len() > usize::from(LEAF)
                || !cuts.iter().all(ascending)
                || !leaves.iter().all(|leaf| leaf.is_finite())
            {
                return Err(DecodeError::Invalid);
            }
            // At most 65 535 features of at most 65 536 cuts each fit `u32` ids.
            let mut first_cut = Vec::with_capacity(cuts.len() + 1);
            first_cut.push(0u32);
            for cuts in &cuts {
                let len = u32::try_from(cuts.len()).map_err(|_| DecodeError::Invalid)?;
                let next = first_cut[first_cut.len() - 1].checked_add(len);
                first_cut.push(next.ok_or(DecodeError::Invalid)?);
            }
            let mut used = vec![false; first_cut[cuts.len()] as usize];

            let mut splits = Vec::with_capacity(ranks.len().min(nodes.len()));
            let mut leaf_starts = Vec::with_capacity(trees.min(nodes.len()) + 1);
            leaf_starts.push(0);
            // Splits whose left subtree is still growing, as `splits` indices.
            let mut open = Vec::new();
            let (mut at, mut most_leaves) = (0, 1);
            for tree in 0..trees {
                let mut count = 0u16;
                loop {
                    let &feature = nodes.get(at).ok_or(DecodeError::Invalid)?;
                    at += 1;
                    if feature != LEAF {
                        let &rank = ranks.get(splits.len()).ok_or(DecodeError::Invalid)?;
                        let feature = usize::from(feature);
                        if usize::from(rank) >= cuts.get(feature).map_or(0, Vec::len) {
                            return Err(DecodeError::Invalid);
                        }
                        let cut = first_cut[feature] + u32::from(rank);
                        used[cut as usize] = true;
                        open.push(splits.len());
                        splits.push(Split {
                            cut,
                            lo: count,
                            hi: count,
                        });
                        continue;
                    }
                    count += 1;
                    if usize::from(count) > MAX_LEAVES {
                        return Err(DecodeError::Invalid);
                    }
                    // The split's left subtree ends here; its right one follows.
                    let Some(split) = open.pop() else {
                        break;
                    };
                    splits[split].hi = count;
                }
                most_leaves = most_leaves.max(usize::from(count));
                leaf_starts.push(leaf_starts[tree] + usize::from(count));
            }
            if at != nodes.len()
                || splits.len() != ranks.len()
                || leaf_starts[trees] != leaves.len()
                || used.contains(&false)
            {
                return Err(DecodeError::Invalid);
            }

            let words = most_leaves.div_ceil(32);
            let per_block = BLOCK_WORDS / words;
            let mut forest = Self {
                cuts,
                nodes,
                ranks,
                leaves,
                leaf_starts,
                words,
                blocks: Vec::with_capacity(trees.div_ceil(per_block)),
                groups: Vec::new(),
                thresholds: Vec::new(),
                rows: Vec::new(),
            };
            let mut scratch = BlockScratch {
                row_of: vec![usize::MAX; used.len()],
                cuts: Vec::new(),
            };
            for first in (0..trees).step_by(per_block) {
                let end = trees.min(first + per_block);
                forest.previous_add_block((first, end), &splits, &first_cut, &mut scratch);
            }
            Ok(forest)
        }

        /// Appends the block of trees `trees.0..trees.1`, whose splits are
        /// among `splits` (every split of the forest, in preorder).
        fn previous_add_block(
            &mut self,
            trees: (usize, usize),
            splits: &[Split],
            first_cut: &[u32],
            scratch: &mut BlockScratch,
        ) {
            // A tree of `n` leaves has `n - 1` splits.
            let split_start = |tree: usize| self.leaf_starts[tree] - tree;
            let block = &splits[split_start(trees.0)..split_start(trees.1)];
            let BlockScratch { row_of, cuts } = scratch;
            cuts.clear();
            for split in block {
                if row_of[split.cut as usize] == usize::MAX {
                    row_of[split.cut as usize] = 0;
                    cuts.push(split.cut);
                }
            }
            // Cut ids order by feature, then by rank.
            cuts.sort_unstable();
            let first_group = self.groups.len();
            let mut rows = self.rows.len();
            for &cut in cuts.iter() {
                let feature = first_cut.partition_point(|&first| first <= cut) - 1;
                let block_groups = &self.groups[first_group..];
                if block_groups
                    .last()
                    .is_none_or(|group| group.feature != feature)
                {
                    self.groups.push(Group {
                        feature,
                        cuts: self.thresholds.len(),
                        len: 0,
                        rows,
                    });
                    rows += 1;
                }
                let group = self.groups.len() - 1;
                self.groups[group].len += 1;
                self.thresholds
                    .push(self.cuts[feature][(cut - first_cut[feature]) as usize]);
                row_of[cut as usize] = rows;
                rows += 1;
            }
            self.rows.resize(rows, [u32::MAX; BLOCK_WORDS]);
            let bits = 32 * self.words;
            for tree in trees.0..trees.1 {
                let offset = (tree - trees.0) * bits;
                for split in &splits[split_start(tree)..split_start(tree + 1)] {
                    let row = &mut self.rows[row_of[split.cut as usize]];
                    clear_bits(
                        row,
                        offset + usize::from(split.lo),
                        offset + usize::from(split.hi),
                    );
                }
            }
            for group in &self.groups[first_group..] {
                for row in group.rows + 2..=group.rows + group.len {
                    let previous = self.rows[row - 1];
                    for (word, previous) in self.rows[row].iter_mut().zip(previous) {
                        *word &= previous;
                    }
                }
            }
            for &cut in cuts.iter() {
                row_of[cut as usize] = usize::MAX;
            }
            self.blocks.push(Block {
                trees,
                groups: (first_group, self.groups.len()),
            });
        }
    }

    /// What building one block needs beside the forest: each cut's row in the
    /// block (`usize::MAX` for a cut it does not split at, as every entry is
    /// between blocks), and the cuts it splits at.
    struct BlockScratch {
        row_of: Vec<usize>,
        cuts: Vec<u32>,
    }

    /// Clears bits `from..to` of `row`.
    fn clear_bits(row: &mut Row, from: usize, to: usize) {
        let first = from / 32;
        for (base, word) in (32 * first..)
            .step_by(32)
            .zip(&mut row[first..to.div_ceil(32)])
        {
            let (lo, hi) = (from.max(base) - base, to.min(base + 32) - base);
            // Bits `lo..hi` of the word, through `u64` so that `hi` may be 32.
            let bits = (u64::MAX << lo) & !(u64::MAX << hi);
            *word &= !u32::try_from(bits).unwrap_or(u32::MAX);
        }
    }

    impl Forest {
        /// The forest the previous builder compiles from this one's wire
        /// form.
        pub(crate) fn previous_rebuild(&self) -> Result<Forest, DecodeError> {
            Forest::previous_build(
                self.trees(),
                self.cuts.clone(),
                self.nodes.clone(),
                self.ranks.clone(),
                self.leaves.clone(),
            )
        }
    }

    /// [`Forest::decode`] through the previous builder.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Forest, DecodeError> {
        let trees = usize::decode(r)?;
        let cuts = Vec::<Vec<f64>>::decode(r)?;
        let nodes = usize::decode(r).and_then(|len| super::take_items(r, len))?;
        let ranks = usize::decode(r).and_then(|len| super::take_items(r, len))?;
        let leaves = usize::decode(r).and_then(|len| super::take_items(r, len))?;
        Forest::previous_build(
            trees,
            cuts,
            nodes.iter().map(|b| u16::from_le_bytes(*b)).collect(),
            ranks.iter().map(|b| u16::from_le_bytes(*b)).collect(),
            leaves.iter().map(|b| f64::from_le_bytes(*b)).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wire-form node: a split's feature and rank, or a leaf's weight.
    enum N {
        S(u16, u16),
        L(f64),
    }

    fn build(trees: usize, cuts: &[&[f64]], nodes: &[N]) -> Result<Forest, DecodeError> {
        let (mut ranks, mut leaves) = (Vec::new(), Vec::new());
        let nodes = nodes
            .iter()
            .map(|node| match *node {
                N::S(feature, rank) => {
                    ranks.push(rank);
                    feature
                }
                N::L(weight) => {
                    leaves.push(weight);
                    LEAF
                }
            })
            .collect();
        let cuts = cuts.iter().map(|cuts| cuts.to_vec()).collect();
        Forest::build(trees, cuts, nodes, ranks, leaves)
    }

    /// Two trees: a depth-2 split `x0 < 0.5 ? (x1 < 1.0 ? -1 : -2) : 3`
    /// and a single leaf 7.
    const PREORDER: [(u16, f64); 6] = [
        (0, 0.5),
        (1, 1.0),
        (LEAF, -1.0),
        (LEAF, -2.0),
        (LEAF, 3.0),
        (LEAF, 7.0),
    ];

    #[test]
    fn preorder_compiles_to_cuts_ranks_and_prefix_rows() {
        let forest = Forest::from_preorder(&PREORDER, 2, 2).expect("well formed");
        assert_eq!(forest.cuts, [vec![0.5], vec![1.0]]);
        assert_eq!(forest.nodes, [0, 1, LEAF, LEAF, LEAF, LEAF]);
        assert_eq!(forest.ranks, [0, 0]);
        assert_eq!(forest.leaves, [-1.0, -2.0, 3.0, 7.0]);
        assert_eq!(forest.leaf_starts, [0, 3, 4]);
        assert_eq!((forest.words, forest.blocks.len()), (1, 1));
        // Going right at `x0 < 0.5` rules out leaves 0 and 1 of tree 0, at
        // `x1 < 1.0` leaf 0; tree 1's mask sits in word 1.
        let row = |group: usize, q: usize| forest.rows[forest.groups[group].rows + q];
        assert_eq!((row(0, 0)[0], row(0, 1)[0]), (u32::MAX, !0b11));
        assert_eq!((row(1, 0)[0], row(1, 1)[0]), (u32::MAX, !0b1));
        assert_eq!(forest.leaf_bounds().collect::<Vec<_>>(), [3.0, 7.0]);
        let cases = [
            ([0.0, 0.0], -1.0),
            ([0.0, 1.0], -2.0),
            ([0.5, 0.0], 3.0),
            ([0.0, f64::NAN], -2.0),
            ([f64::NEG_INFINITY, f64::INFINITY], -2.0),
            ([f64::NAN, f64::NEG_INFINITY], 3.0),
        ];
        for (row, expected) in cases {
            let mut scores = [0.0, 0.0];
            forest.add_leaves(&row, 2, 1.0, &mut scores);
            assert_eq!(scores, [expected, 7.0], "{row:?}");
        }
        let bytes = forest.to_bytes();
        assert_eq!(Forest::from_bytes(&bytes), Ok(forest));
    }

    #[test]
    fn equal_thresholds_share_one_cut() {
        // `-0.0` and `0.0` compare equal, so they are one cut.
        let preorder = [
            (0, 0.0),
            (LEAF, 1.0),
            (LEAF, 2.0),
            (0, -0.0),
            (LEAF, 3.0),
            (LEAF, 4.0),
        ];
        let forest = Forest::from_preorder(&preorder, 2, 1).expect("well formed");
        assert_eq!(forest.cuts[0].len(), 1);
        assert_eq!(forest.ranks, [0, 0]);
    }

    /// `(name, trees, cuts, nodes)`.
    type Case<'a> = (&'a str, usize, &'a [&'a [f64]], &'a [N]);

    #[test]
    fn malformed_forests_are_invalid() {
        use N::{L, S};
        let stump = [S(0, 0), L(1.0), L(2.0)];
        let cases: [Case; 16] = [
            (
                "unsorted cuts",
                1,
                &[&[1.0, 0.5]],
                &[S(0, 0), L(1.0), S(0, 1), L(2.0), L(3.0)],
            ),
            (
                "a duplicated cut",
                1,
                &[&[0.5, 0.5]],
                &[S(0, 0), L(1.0), S(0, 1), L(2.0), L(3.0)],
            ),
            ("a NaN cut", 1, &[&[f64::NAN]], &stump),
            ("an infinite cut", 1, &[&[f64::INFINITY]], &stump),
            ("an unused cut", 1, &[&[0.5, 1.0]], &stump),
            (
                "a cut of a feature split nowhere",
                1,
                &[&[0.5], &[1.0]],
                &stump,
            ),
            (
                "a rank out of range",
                1,
                &[&[0.5]],
                &[S(0, 1), L(1.0), L(2.0)],
            ),
            (
                "a feature out of range",
                1,
                &[&[0.5]],
                &[S(1, 0), L(1.0), L(2.0)],
            ),
            (
                "a split with no right subtree",
                1,
                &[&[0.5]],
                &[S(0, 0), L(1.0)],
            ),
            (
                "a node after the last tree",
                1,
                &[&[0.5]],
                &[S(0, 0), L(1.0), L(2.0), L(3.0)],
            ),
            ("fewer trees than claimed", 2, &[&[0.5]], &stump),
            ("a NaN leaf", 1, &[&[0.5]], &[S(0, 0), L(f64::NAN), L(2.0)]),
            (
                "an infinite leaf",
                1,
                &[&[0.5]],
                &[S(0, 0), L(1.0), L(f64::INFINITY)],
            ),
            ("no nodes", 1, &[], &[]),
            (
                "a leaf that names a split feature",
                1,
                &[],
                &[S(LEAF - 1, 0)],
            ),
            ("a truncated tree", 2, &[&[0.5]], &[L(0.0), S(0, 0), L(1.0)]),
        ];
        for (name, trees, cuts, nodes) in cases {
            assert_eq!(
                build(trees, cuts, nodes),
                Err(DecodeError::Invalid),
                "{name}"
            );
        }
        let arrays = |ranks: Vec<u16>, leaves: Vec<f64>| {
            Forest::build(1, vec![vec![0.5]], vec![0, LEAF, LEAF], ranks, leaves)
        };
        assert!(arrays(vec![0], vec![1.0, 2.0]).is_ok());
        for (ranks, leaves) in [
            (vec![], vec![1.0, 2.0]),
            (vec![0, 0], vec![1.0, 2.0]),
            (vec![0], vec![1.0]),
            (vec![0], vec![1.0, 2.0, 3.0]),
        ] {
            let name = format!("ranks {ranks:?}, weights {leaves:?}");
            assert_eq!(arrays(ranks, leaves), Err(DecodeError::Invalid), "{name}");
        }
        assert!(build(0, &[], &[]).is_ok());
        assert!(build(1, &[&[0.5]], &stump).is_ok());
    }

    /// A left-leaning chain of `leaves - 1` splits on feature 0, rank `i`
    /// at depth `i`, with leaf weights `0..leaves` from the left.
    fn chain(leaves: usize) -> (Vec<f64>, Vec<N>) {
        let splits = leaves - 1;
        let cuts = (0..splits).map(|i| i as f64).collect();
        let mut nodes: Vec<N> = (0..splits).map(|i| N::S(0, i as u16)).collect();
        nodes.extend((0..leaves).map(|i| N::L(i as f64)));
        (cuts, nodes)
    }

    #[test]
    fn a_tree_over_the_leaf_width_is_invalid() {
        let (cuts, nodes) = chain(MAX_LEAVES);
        let forest = build(1, &[&cuts], &nodes).expect("as wide as a row");
        assert_eq!((forest.words, forest.blocks.len()), (BLOCK_WORDS, 1));
        // Left all the way down is leaf 0; right at the root is the last
        // leaf, bit 31 of word 63.
        for (x, leaf) in [(-1.0, 0), (0.5, MAX_LEAVES - 1), (f64::NAN, MAX_LEAVES - 1)] {
            let mut score = [0.0];
            forest.add_leaves(&[x], 1, 1.0, &mut score);
            assert_eq!(score, [leaf as f64], "x = {x}");
        }

        let (cuts, nodes) = chain(MAX_LEAVES + 1);
        assert_eq!(build(1, &[&cuts], &nodes), Err(DecodeError::Invalid));
    }

    /// A batch scores each of its rows bit for bit as the row scores alone,
    /// at every batch size up to past [`BATCH`]: over 70 trees of two mask
    /// words, three blocks, whose classes wrap mid-block.
    #[test]
    fn a_batch_scores_each_row_as_it_scores_alone() {
        let tree = |t: usize| {
            let splits = (0..39).map(|i| (0, f64::from(i)));
            let leaves = (0..40).map(move |i| (LEAF, f64::from(i) + 0.25 * t as f64));
            splits.chain(leaves)
        };
        let preorder: Vec<(u16, f64)> = (0..70).flat_map(tree).collect();
        let forest = Forest::from_preorder(&preorder, 70, 1).expect("well formed");
        assert_eq!((forest.words, forest.blocks.len()), (2, 3));
        let rows = [
            -1.0,
            0.0,
            -0.0,
            0.5,
            38.0,
            39.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            3.0,
            -2.5,
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for size in 1..=BATCH + 3 {
            for batch in rows.chunks(size) {
                let mut scores = vec![1.0; batch.len() * 3];
                forest.add_leaves(batch, 3, 0.5, &mut scores);
                for (&x, scores) in batch.iter().zip(scores.chunks(3)) {
                    let mut alone = [1.0; 3];
                    forest.add_leaves(&[x], 3, 0.5, &mut alone);
                    assert_eq!(bits(scores), bits(&alone), "size {size}, x = {x}");
                }
            }
        }
    }

    /// Both builders on `bytes`: what each decodes, and how many bytes each
    /// leaves unread.
    fn both(bytes: &[u8]) -> [(Result<Forest, DecodeError>, usize); 2] {
        let mut now = Reader::new(bytes);
        let mut before = Reader::new(bytes);
        let now = (Forest::decode(&mut now), now.remaining());
        let before = (previous::decode(&mut before), before.remaining());
        [now, before]
    }

    /// The one-pass build and the builder it replaced accept and refuse the
    /// same wire forms, and compile what they accept to equal tables: on
    /// every truncation and every single-byte change of small forests of
    /// one and of two mask words, of several blocks, and of every tree
    /// shape [`PREORDER`] and [`chain`] cover.
    #[test]
    fn the_one_pass_build_matches_the_previous_builder_on_every_mutant() {
        let (chain_cuts, chain_nodes) = chain(40);
        let forests = [
            Forest::from_preorder(&PREORDER, 2, 2).expect("well formed"),
            build(1, &[&chain_cuts], &chain_nodes).expect("two words a tree"),
            // 70 stumps, two blocks of one-word trees, over two features.
            Forest::from_preorder(
                &(0..70)
                    .flat_map(|i| {
                        [
                            ((i % 2) as u16, f64::from(i % 5)),
                            (LEAF, 1.0),
                            (LEAF, -1.0),
                        ]
                    })
                    .collect::<Vec<_>>(),
                70,
                2,
            )
            .expect("well formed"),
        ];
        let mut accepted = 0;
        for forest in forests {
            let bytes = forest.to_bytes();
            let [now, before] = both(&bytes);
            assert_eq!(now, (Ok(forest), 0));
            assert_eq!(before, now);
            for end in 0..bytes.len() {
                let [now, before] = both(&bytes[..end]);
                assert_eq!(now, before, "prefix of {end} bytes");
            }
            let mut mutant = bytes.clone();
            for at in 0..bytes.len() {
                for value in (0..=u8::MAX).filter(|&v| v != bytes[at]) {
                    mutant[at] = value;
                    let [now, before] = both(&mutant);
                    accepted += usize::from(now.0.is_ok());
                    assert_eq!(now, before, "byte {at} = {value:#04x}");
                }
                mutant[at] = bytes[at];
            }
        }
        // The sweep reaches accepted forests other than the originals.
        assert!(accepted > 100, "{accepted} mutants accepted");
    }

    /// However many distinct thresholds the trees split at, the table holds
    /// at most two rows a split: each split's own and its group's first.
    #[test]
    fn the_table_is_linear_in_the_splits() {
        for (trees, depth) in [(300, 5), (40, 7), (3, 11)] {
            // Full trees of `depth`, every split at a distinct threshold.
            let mut preorder = Vec::new();
            let mut next = 0.0;
            for _ in 0..trees {
                let mut stack = vec![0];
                while let Some(level) = stack.pop() {
                    if level == depth {
                        preorder.push((LEAF, next));
                    } else {
                        preorder.push(((level % 3) as u16, next));
                        stack.extend([level + 1, level + 1]);
                    }
                    next += 1.0;
                }
            }
            let splits = preorder.iter().filter(|n| n.0 != LEAF).count();
            let forest = Forest::from_preorder(&preorder, trees, 3).expect("well formed");
            assert!(
                forest.rows.len() <= 2 * splits,
                "{trees} trees of depth {depth}"
            );
            assert_eq!(forest.words, (1usize << depth).div_ceil(32));
        }
    }
}
