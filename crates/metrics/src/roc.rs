//! One-vs-rest ROC curves and AUC, including the macro-averaging used for
//! Figure 7 of the paper ("Macro-average ROC Curves for All Schemes").

use serde::{Deserialize, Serialize};

/// One operating point on a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// False-positive rate at this threshold.
    pub fpr: f64,
    /// True-positive rate at this threshold.
    pub tpr: f64,
    /// Score threshold that produces this point (`>= threshold` is positive).
    pub threshold: f64,
}

/// A receiver-operating-characteristic curve with its trapezoidal AUC.
///
/// Build one from binary data with [`RocCurve::from_binary_scores`], or get a
/// multi-class macro-average via [`macro_average_roc`].
///
/// # Example
///
/// ```
/// use crowdlearn_metrics::RocCurve;
///
/// // A perfectly separating score.
/// let roc = RocCurve::from_binary_scores(&[0.9, 0.8, 0.2, 0.1], &[true, true, false, false]);
/// assert!((roc.auc() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RocCurve {
    points: Vec<RocPoint>,
    auc: f64,
}

impl RocCurve {
    /// Computes the ROC curve for binary labels given per-sample scores
    /// (higher score means "more positive").
    ///
    /// Ties in scores are handled by grouping: tied samples move the
    /// operating point together, which makes AUC equal to the
    /// Mann-Whitney U statistic with the standard 0.5 tie credit.
    ///
    /// Degenerate inputs (no positives or no negatives) return a two-point
    /// curve with AUC 0.5 so downstream macro-averaging stays finite.
    ///
    /// # Panics
    ///
    /// Panics if `scores` and `positives` have different lengths, or if any
    /// score is NaN.
    pub fn from_binary_scores(scores: &[f64], positives: &[bool]) -> Self {
        assert_eq!(
            scores.len(),
            positives.len(),
            "scores and labels must be the same length"
        );
        assert!(
            scores.iter().all(|s| !s.is_nan()),
            "ROC scores must not be NaN"
        );
        let pos_total = positives.iter().filter(|&&p| p).count() as f64;
        let neg_total = positives.len() as f64 - pos_total;
        if pos_total == 0.0 || neg_total == 0.0 {
            return Self {
                points: vec![
                    RocPoint {
                        fpr: 0.0,
                        tpr: 0.0,
                        threshold: f64::INFINITY,
                    },
                    RocPoint {
                        fpr: 1.0,
                        tpr: 1.0,
                        threshold: f64::NEG_INFINITY,
                    },
                ],
                auc: 0.5,
            };
        }

        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("no NaN scores"));

        let mut points = vec![RocPoint {
            fpr: 0.0,
            tpr: 0.0,
            threshold: f64::INFINITY,
        }];
        let mut tp = 0.0;
        let mut fp = 0.0;
        let mut i = 0;
        while i < order.len() {
            let threshold = scores[order[i]];
            // Consume the whole tie group at this threshold.
            while i < order.len() && scores[order[i]] == threshold {
                if positives[order[i]] {
                    tp += 1.0;
                } else {
                    fp += 1.0;
                }
                i += 1;
            }
            points.push(RocPoint {
                fpr: fp / neg_total,
                tpr: tp / pos_total,
                threshold,
            });
        }

        let auc = trapezoid_area(&points);
        Self { points, auc }
    }

    /// The operating points, ordered from (0,0) to (1,1).
    pub fn points(&self) -> &[RocPoint] {
        &self.points
    }

    /// Area under the curve (trapezoidal rule), in `[0, 1]`.
    pub fn auc(&self) -> f64 {
        self.auc
    }

    /// Interpolated true-positive rate at a given false-positive rate.
    ///
    /// Used to macro-average curves defined on different threshold grids.
    ///
    /// # Panics
    ///
    /// Panics if `fpr` is outside `[0, 1]`.
    pub fn tpr_at(&self, fpr: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fpr), "fpr must be within [0, 1]");
        let pts = &self.points;
        if fpr < pts[0].fpr {
            return pts[0].tpr;
        }
        // TPR is non-decreasing along the curve, so the upper envelope at a
        // vertical run is simply the last point reached at or before `fpr`.
        let mut best = pts[0].tpr;
        for w in pts.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b.fpr <= fpr {
                best = best.max(b.tpr);
            } else if a.fpr <= fpr {
                // Strictly inside a non-vertical segment: interpolate.
                let t = (fpr - a.fpr) / (b.fpr - a.fpr);
                best = best.max(a.tpr + t * (b.tpr - a.tpr));
                break;
            } else {
                break;
            }
        }
        best
    }
}

fn trapezoid_area(points: &[RocPoint]) -> f64 {
    points
        .windows(2)
        .map(|w| (w[1].fpr - w[0].fpr) * (w[1].tpr + w[0].tpr) / 2.0)
        .sum()
}

/// Macro-averaged one-vs-rest ROC curve over `K` classes (Figure 7).
///
/// `scores[i]` is the predicted probability distribution for sample `i` and
/// `truths[i]` its ground-truth class. For each class a binary one-vs-rest
/// curve is computed; the macro curve interpolates all per-class curves on a
/// shared FPR grid and averages their TPRs, which is the standard
/// "macro-average ROC" construction.
///
/// # Panics
///
/// Panics if inputs are empty, lengths mismatch, or any truth index is out of
/// range for its score vector.
pub fn macro_average_roc(scores: &[Vec<f64>], truths: &[usize], classes: usize) -> RocCurve {
    assert!(!scores.is_empty(), "need at least one sample");
    assert_eq!(scores.len(), truths.len(), "scores/truths length mismatch");
    assert!(classes > 0, "need at least one class");
    for (s, &t) in scores.iter().zip(truths) {
        assert_eq!(s.len(), classes, "every score vector must have K entries");
        assert!(t < classes, "truth label out of range");
    }

    let per_class: Vec<RocCurve> = (0..classes)
        .map(|c| {
            let class_scores: Vec<f64> = scores.iter().map(|s| s[c]).collect();
            let labels: Vec<bool> = truths.iter().map(|&t| t == c).collect();
            RocCurve::from_binary_scores(&class_scores, &labels)
        })
        .collect();

    // Shared FPR grid: union of all per-class FPR breakpoints.
    let mut grid: Vec<f64> = per_class
        .iter()
        .flat_map(|c| c.points().iter().map(|p| p.fpr))
        .collect();
    grid.push(0.0);
    grid.push(1.0);
    grid.sort_by(|a, b| a.partial_cmp(b).expect("fpr is finite"));
    grid.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    let points: Vec<RocPoint> = grid
        .iter()
        .map(|&fpr| {
            let tpr = per_class.iter().map(|c| c.tpr_at(fpr)).sum::<f64>() / classes as f64;
            RocPoint {
                fpr,
                tpr,
                threshold: f64::NAN,
            }
        })
        .collect();
    let auc = trapezoid_area(&points);
    RocCurve { points, auc }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_has_auc_one() {
        let roc = RocCurve::from_binary_scores(
            &[0.9, 0.8, 0.7, 0.2, 0.1],
            &[true, true, true, false, false],
        );
        assert!((roc.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_scores_have_auc_zero() {
        let roc = RocCurve::from_binary_scores(&[0.1, 0.9], &[true, false]);
        assert!(roc.auc().abs() < 1e-12);
    }

    #[test]
    fn random_constant_scores_have_auc_half() {
        let roc = RocCurve::from_binary_scores(&[0.5; 10], &[true, false].repeat(5));
        assert!((roc.auc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_single_class_returns_half() {
        let roc = RocCurve::from_binary_scores(&[0.3, 0.4], &[true, true]);
        assert!((roc.auc() - 0.5).abs() < 1e-12);
        assert_eq!(roc.points().len(), 2);
    }

    #[test]
    fn auc_matches_mann_whitney_with_ties() {
        // scores: pos {0.8, 0.5}, neg {0.5, 0.2}
        // Pairs: (0.8 vs 0.5)=1, (0.8 vs 0.2)=1, (0.5 vs 0.5)=0.5, (0.5 vs 0.2)=1
        // AUC = 3.5/4 = 0.875
        let roc = RocCurve::from_binary_scores(&[0.8, 0.5, 0.5, 0.2], &[true, true, false, false]);
        assert!((roc.auc() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn curve_starts_at_origin_and_ends_at_one_one() {
        let roc = RocCurve::from_binary_scores(&[0.9, 0.4, 0.6, 0.1], &[true, false, true, false]);
        let first = roc.points().first().unwrap();
        let last = roc.points().last().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn tpr_interpolation_is_monotone() {
        let roc = RocCurve::from_binary_scores(
            &[0.9, 0.8, 0.55, 0.5, 0.3, 0.2],
            &[true, false, true, false, true, false],
        );
        let mut prev = -1.0;
        for i in 0..=20 {
            let tpr = roc.tpr_at(i as f64 / 20.0);
            assert!(tpr >= prev - 1e-12, "TPR must be non-decreasing in FPR");
            prev = tpr;
        }
    }

    #[test]
    fn macro_roc_perfect_classifier() {
        let scores = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.9, 0.05, 0.05],
            vec![0.1, 0.8, 0.1],
            vec![0.2, 0.1, 0.7],
        ];
        let truths = vec![0, 1, 2, 0, 1, 2];
        let roc = macro_average_roc(&scores, &truths, 3);
        assert!((roc.auc() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn macro_roc_uniform_classifier_is_half() {
        let scores = vec![vec![1.0 / 3.0; 3]; 9];
        let truths = vec![0, 1, 2, 0, 1, 2, 0, 1, 2];
        let roc = macro_average_roc(&scores, &truths, 3);
        assert!((roc.auc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn better_classifier_has_larger_macro_auc() {
        let truths = vec![0, 1, 2, 0, 1, 2];
        let sharp: Vec<Vec<f64>> = truths
            .iter()
            .map(|&t| {
                let mut v = vec![0.1; 3];
                v[t] = 0.8;
                v
            })
            .collect();
        let mut noisy = sharp.clone();
        // Corrupt two samples.
        noisy[0] = vec![0.1, 0.8, 0.1];
        noisy[3] = vec![0.1, 0.1, 0.8];
        let auc_sharp = macro_average_roc(&sharp, &truths, 3).auc();
        let auc_noisy = macro_average_roc(&noisy, &truths, 3).auc();
        assert!(auc_sharp > auc_noisy);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn macro_roc_rejects_mismatched_lengths() {
        macro_average_roc(&[vec![1.0, 0.0]], &[0, 1], 2);
    }
}
