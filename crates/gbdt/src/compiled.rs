//! The compiled inference form of a fitted model: every tree in one flat
//! array, walked a fixed number of steps without branching.

use serde::binary::{Decode, DecodeError, Encode, Reader};

/// The wire form's feature id of a leaf.
pub(crate) const LEAF: u16 = u16::MAX;

/// Trees walked side by side, so their independent loads overlap.
const LANES: usize = 16;

/// One node of the flat array, 16 bytes. A split holds its threshold in
/// `value`, `left == 1` (its left child follows it in preorder) and in
/// `right` the offset from it to its right child. A leaf holds its weight
/// in `value` and `left == right == 0`, so a walk that reaches it stays
/// there; its `feature` is 0, which every row has.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatNode {
    value: f64,
    right: u32,
    feature: u16,
    left: u16,
}

/// Where a tree's root sits in the array, and the steps its deepest leaf
/// is from the root.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TreeSpan {
    root: u32,
    depth: u32,
}

/// A model's trees, round-major and class-minor, each in preorder in one
/// array.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Forest {
    nodes: Vec<FlatNode>,
    trees: Vec<TreeSpan>,
}

impl Forest {
    /// Rebuilds `trees` trees from their preorder `(feature, value)` nodes,
    /// a leaf's feature being [`LEAF`]: the right-child offsets and depths
    /// follow from the order. `Invalid` if a split lacks a subtree, nodes
    /// are left over after the last tree, a leaf weight is not finite, or
    /// the array outgrows `u32` offsets.
    pub(crate) fn from_preorder(
        preorder: &[(u16, f64)],
        trees: usize,
    ) -> Result<Self, DecodeError> {
        u32::try_from(preorder.len()).map_err(|_| DecodeError::Invalid)?;
        let mut nodes = Vec::with_capacity(preorder.len());
        let mut spans = Vec::with_capacity(trees.min(preorder.len()));
        // Splits whose right subtree is still to come, with their depths.
        let mut open: Vec<(usize, u32)> = Vec::new();
        for _ in 0..trees {
            let root = nodes.len();
            let (mut depth, mut deepest) = (0u32, 0u32);
            loop {
                let &(feature, value) = preorder.get(nodes.len()).ok_or(DecodeError::Invalid)?;
                if feature != LEAF {
                    open.push((nodes.len(), depth));
                    nodes.push(FlatNode {
                        value,
                        right: 0,
                        feature,
                        left: 1,
                    });
                    depth += 1;
                    continue;
                }
                if !value.is_finite() {
                    return Err(DecodeError::Invalid);
                }
                nodes.push(FlatNode {
                    value,
                    right: 0,
                    feature: 0,
                    left: 0,
                });
                deepest = deepest.max(depth);
                let Some((split, split_depth)) = open.pop() else {
                    break;
                };
                // The next node starts the split's right subtree.
                nodes[split].right = u32::try_from(nodes.len() - split).expect("length checked");
                depth = split_depth + 1;
            }
            spans.push(TreeSpan {
                root: u32::try_from(root).expect("length checked"),
                depth: deepest,
            });
        }
        if nodes.len() != preorder.len() {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            nodes,
            trees: spans,
        })
    }

    /// The nodes in preorder as `(feature, value)`, a leaf's feature being
    /// [`LEAF`]: the inverse of [`Forest::from_preorder`].
    fn preorder(&self) -> impl Iterator<Item = (u16, f64)> + '_ {
        self.nodes.iter().map(|node| match node.left {
            0 => (LEAF, node.value),
            _ => (node.feature, node.value),
        })
    }

    /// Number of trees.
    pub(crate) fn trees(&self) -> usize {
        self.trees.len()
    }

    /// Whether every split reads a feature below `features`.
    pub(crate) fn features_below(&self, features: usize) -> bool {
        self.nodes
            .iter()
            .all(|node| node.left == 0 || usize::from(node.feature) < features)
    }

    /// The largest leaf magnitude of each tree, in tree order.
    pub(crate) fn leaf_bounds(&self) -> impl Iterator<Item = f64> + '_ {
        let ends = self.trees.iter().skip(1).map(|t| t.root as usize);
        let ends = ends.chain(std::iter::once(self.nodes.len()));
        self.trees.iter().zip(ends).map(|(tree, end)| {
            self.nodes[tree.root as usize..end]
                .iter()
                .filter(|node| node.left == 0)
                .fold(0.0, |bound: f64, node| bound.max(node.value.abs()))
        })
    }

    /// Adds `scale * leaf` of every tree on `row` to
    /// `scores[tree % scores.len()]`, in tree order, which keeps each
    /// class's sum in round order. `LANES` trees walk side by side for
    /// their joint maximum depth; a leaf loops onto itself, so the extra
    /// steps are harmless and no step branches on the row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than a feature index used by a tree.
    pub(crate) fn add_leaves(&self, row: &[f64], scale: f64, scores: &mut [f64]) {
        let nodes = &self.nodes[..];
        let mut class = 0;
        for chunk in self.trees.chunks(LANES) {
            // Idle lanes of the last chunk walk node 0, a valid root.
            let mut at = [0usize; LANES];
            let mut depth = 0;
            for (at, tree) in at.iter_mut().zip(chunk) {
                *at = tree.root as usize;
                depth = depth.max(tree.depth);
            }
            for _ in 0..depth {
                for at in &mut at {
                    let node = nodes[*at];
                    let l = usize::from(row[usize::from(node.feature)] < node.value);
                    *at += (l * usize::from(node.left)) | ((1 - l) * node.right as usize);
                }
            }
            for &at in &at[..chunk.len()] {
                scores[class] += scale * nodes[at].value;
                class = if class + 1 == scores.len() {
                    0
                } else {
                    class + 1
                };
            }
        }
    }
}

/// The wire form: the tree count, then every node in preorder as a `u16`
/// feature id ([`LEAF`] for a leaf) and its threshold or weight — ten
/// bytes a node. Offsets and depths are rebuilt on decode.
impl Encode for Forest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.trees.len().encode(out);
        self.preorder().collect::<Vec<_>>().encode(out);
    }
}

impl Decode for Forest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let trees = usize::decode(r)?;
        let preorder = Vec::<(u16, f64)>::decode(r)?;
        Self::from_preorder(&preorder, trees)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn preorder_rebuilds_offsets_and_depths() {
        let forest = Forest::from_preorder(&PREORDER, 2).expect("well formed");
        let rights: Vec<u32> = forest.nodes.iter().map(|n| n.right).collect();
        assert_eq!(rights, [4, 2, 0, 0, 0, 0]);
        assert_eq!(
            forest.trees,
            [
                TreeSpan { root: 0, depth: 2 },
                TreeSpan { root: 5, depth: 0 }
            ]
        );
        assert_eq!(forest.preorder().collect::<Vec<_>>(), PREORDER);
        assert_eq!(forest.leaf_bounds().collect::<Vec<_>>(), [3.0, 7.0]);
        for (row, expected) in [([0.0, 0.0], -1.0), ([0.0, 1.0], -2.0), ([0.5, 0.0], 3.0)] {
            let mut scores = [0.0, 0.0];
            forest.add_leaves(&row, 1.0, &mut scores);
            assert_eq!(scores, [expected, 7.0]);
        }
    }

    #[test]
    fn malformed_preorders_are_invalid() {
        let cases: [(&[(u16, f64)], usize); 5] = [
            (&PREORDER[..4], 1),           // a split with no right subtree
            (&PREORDER, 1),                // a node after the last tree
            (&PREORDER, 3),                // fewer trees than claimed
            (&[(LEAF, f64::NAN)], 1),      // a non-finite leaf
            (&[(LEAF, f64::INFINITY)], 1), // a non-finite leaf
        ];
        for (preorder, trees) in cases {
            assert_eq!(
                Forest::from_preorder(preorder, trees),
                Err(DecodeError::Invalid),
                "{preorder:?} as {trees} trees"
            );
        }
        assert!(Forest::from_preorder(&[], 0).is_ok());
    }
}
