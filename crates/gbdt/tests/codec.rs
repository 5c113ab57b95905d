//! The model's wire form: its layout, the structures the decoder rejects,
//! and a sweep over every truncation and single-byte change of an encoded
//! model, none of which may panic, yield non-finite probabilities or decode
//! to a model that re-encodes differently.

use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig};
use serde::binary::{Decode, DecodeError, Encode};

/// The wire form's feature id of a leaf.
const LEAF: u16 = u16::MAX;

/// A node in preorder: a split's feature and cut rank, or a leaf's weight.
/// The wire carries every node's feature ([`LEAF`] for a leaf), then every
/// split's rank, then every leaf's weight.
#[derive(Clone, Copy)]
enum Node {
    Split(u16, u16),
    Leaf(f64),
}
use Node::{Leaf, Split};

/// A model's wire fields, in wire order.
struct Wire {
    trees: usize,
    cuts: Vec<Vec<f64>>,
    nodes: Vec<Node>,
    base_scores: Vec<f64>,
    classes: usize,
    features: usize,
    learning_rate: f64,
    importance: Vec<f64>,
}

impl Wire {
    /// Two classes over two features, one round: class 0's tree is
    /// `x1 < 0.5 ? -1 : 1`, class 1's a single leaf 0.25.
    fn stump() -> Self {
        Self {
            trees: 2,
            cuts: vec![vec![], vec![0.5]],
            nodes: vec![Split(1, 0), Leaf(-1.0), Leaf(1.0), Leaf(0.25)],
            base_scores: vec![-0.75, -0.625],
            classes: 2,
            features: 2,
            learning_rate: 0.5,
            importance: vec![0.0, 1.5],
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.trees.encode(&mut out);
        self.cuts.encode(&mut out);
        let (mut features, mut ranks, mut leaves) = (Vec::new(), Vec::new(), Vec::new());
        for node in &self.nodes {
            match *node {
                Split(feature, rank) => {
                    features.push(feature);
                    ranks.push(rank);
                }
                Leaf(weight) => {
                    features.push(LEAF);
                    leaves.push(weight);
                }
            }
        }
        features.encode(&mut out);
        ranks.encode(&mut out);
        leaves.encode(&mut out);
        self.base_scores.encode(&mut out);
        self.classes.encode(&mut out);
        self.features.encode(&mut out);
        self.learning_rate.encode(&mut out);
        self.importance.encode(&mut out);
        out
    }
}

#[test]
fn the_wire_form_is_cuts_then_ranked_splits_and_weighted_leaves() {
    let bytes = Wire::stump().bytes();
    // Counts and lengths are 8 bytes, a feature id or rank 2, a float 8:
    // a split costs 2 + 2 bytes and a leaf 2 + 8.
    assert_eq!(
        bytes.len(),
        8 + (8 + 8 + (8 + 8))
            + (8 + 4 * 2)
            + (8 + 2)
            + (8 + 3 * 8)
            + (8 + 16)
            + 8
            + 8
            + 8
            + (8 + 16)
    );
    let model = GbdtClassifier::from_bytes(&bytes).expect("well formed");
    assert_eq!(model.to_bytes(), bytes);
    assert_eq!(
        (model.classes(), model.features(), model.rounds()),
        (2, 2, 1)
    );
    assert_eq!(model.feature_importance(), [0.0, 1.5]);
    assert_eq!(model.decision_scores(&[9.0, 0.0]), [-1.25, -0.5]);
    assert_eq!(model.decision_scores(&[9.0, 0.5]), [-0.25, -0.5]);
    assert_eq!(model.decision_scores(&[9.0, f64::NAN]), [-0.25, -0.5]);
    assert_eq!(
        model.decision_scores(&[9.0, f64::NEG_INFINITY]),
        [-1.25, -0.5]
    );
}

#[test]
fn malformed_models_are_rejected() {
    let stump = Wire::stump;
    let cases: Vec<(&str, Wire)> = vec![
        (
            "a split with no right subtree",
            Wire {
                cuts: vec![vec![0.5], vec![0.5]],
                nodes: vec![Split(1, 0), Leaf(-1.0), Leaf(1.0), Split(0, 0), Leaf(0.25)],
                ..stump()
            },
        ),
        ("nodes left over after the last tree", {
            let mut wire = stump();
            wire.nodes.push(Leaf(0.0));
            wire
        }),
        (
            "fewer nodes than trees",
            Wire {
                trees: 4,
                ..stump()
            },
        ),
        (
            "cuts for more features than the model has",
            Wire {
                cuts: vec![vec![], vec![0.5], vec![]],
                ..stump()
            },
        ),
        ("feature >= features", {
            let mut wire = stump();
            wire.nodes[0] = Split(2, 0);
            wire
        }),
        ("a rank out of range", {
            let mut wire = stump();
            wire.nodes[0] = Split(1, 1);
            wire
        }),
        (
            "unsorted cuts",
            Wire {
                cuts: vec![vec![], vec![0.5, 0.25]],
                nodes: vec![
                    Split(1, 0),
                    Leaf(-1.0),
                    Split(1, 1),
                    Leaf(1.0),
                    Leaf(2.0),
                    Leaf(0.25),
                ],
                ..stump()
            },
        ),
        (
            "a duplicated cut",
            Wire {
                cuts: vec![vec![], vec![0.5, 0.5]],
                nodes: vec![
                    Split(1, 0),
                    Leaf(-1.0),
                    Split(1, 1),
                    Leaf(1.0),
                    Leaf(2.0),
                    Leaf(0.25),
                ],
                ..stump()
            },
        ),
        (
            "a non-finite cut",
            Wire {
                cuts: vec![vec![], vec![f64::INFINITY]],
                ..stump()
            },
        ),
        (
            "an unused cut",
            Wire {
                cuts: vec![vec![0.5], vec![0.5]],
                ..stump()
            },
        ),
        ("tree count not a multiple of classes", {
            let mut wire = stump();
            wire.trees = 3;
            wire.nodes.push(Leaf(0.0));
            wire
        }),
        (
            "NaN learning rate",
            Wire {
                learning_rate: f64::NAN,
                ..stump()
            },
        ),
        (
            "infinite learning rate",
            Wire {
                learning_rate: f64::INFINITY,
                ..stump()
            },
        ),
        (
            "negative learning rate",
            Wire {
                learning_rate: -0.5,
                ..stump()
            },
        ),
        ("a non-finite leaf", {
            let mut wire = stump();
            wire.nodes[3] = Leaf(f64::NAN);
            wire
        }),
        ("scores that can overflow", {
            let mut wire = stump();
            wire.learning_rate = f64::MAX;
            wire.nodes[2] = Leaf(2.0);
            wire
        }),
        (
            "a non-finite base score",
            Wire {
                base_scores: vec![0.0, f64::INFINITY],
                ..stump()
            },
        ),
        (
            "one class",
            Wire {
                trees: 4,
                classes: 1,
                base_scores: vec![0.0],
                ..stump()
            },
        ),
        (
            "importance of the wrong length",
            Wire {
                importance: vec![0.0],
                ..stump()
            },
        ),
    ];
    for (name, wire) in cases {
        assert_eq!(
            GbdtClassifier::from_bytes(&wire.bytes()),
            Err(DecodeError::Invalid),
            "{name}"
        );
    }
}

#[test]
fn every_truncation_and_byte_change_is_refused_or_predicts_finitely() {
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|i| vec![f64::from(i % 7) * 0.5, f64::from(i % 5) - 2.0])
        .collect();
    let labels: Vec<usize> = (0..60).map(|i| (i % 7 + i % 5) % 3).collect();
    let config = GbdtConfig {
        rounds: 3,
        max_depth: 2,
        ..GbdtConfig::small()
    };
    let bytes = GbdtClassifier::fit(&rows, &labels, 3, &config).to_bytes();
    let probes = [
        vec![0.0, 0.0],
        vec![-0.0, 1.0],
        vec![3.0, -2.0],
        vec![-1e300, 1e300],
        vec![f64::NAN, 0.5],
    ];
    for end in 0..bytes.len() {
        assert_eq!(
            GbdtClassifier::from_bytes(&bytes[..end]),
            Err(DecodeError::Truncated),
            "prefix of {end} bytes"
        );
    }
    let mut corrupt = bytes.clone();
    for at in 0..bytes.len() {
        for value in (0..=u8::MAX).filter(|&v| v != bytes[at]) {
            corrupt[at] = value;
            if let Ok(model) = GbdtClassifier::from_bytes(&corrupt) {
                // `features` must equal the importance vector's length, so
                // one changed byte cannot change the arity.
                assert_eq!(model.features(), 2, "byte {at} = {value:#04x}");
                // The wire form is canonical: what decodes re-encodes as is.
                assert_eq!(model.to_bytes(), corrupt, "byte {at} = {value:#04x}");
                for row in &probes {
                    let probs = model.predict_proba(row);
                    assert!(
                        probs.iter().all(|p| p.is_finite()),
                        "byte {at} = {value:#04x}: {probs:?} on {row:?}"
                    );
                    model.predict(row);
                }
            }
        }
        corrupt[at] = bytes[at];
    }
}
