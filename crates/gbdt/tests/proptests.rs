//! Property-based tests on the gradient-boosting model.

use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig};
use proptest::prelude::*;

/// A random but learnable dataset: labels depend on feature 0's sign with
/// some per-case noise features appended.
fn learnable(rows: usize, noise_features: usize, jitter: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut features = Vec::with_capacity(rows);
    let mut labels = Vec::with_capacity(rows);
    for i in 0..rows {
        let x = (i as f64 / rows as f64) * 2.0 - 1.0;
        let mut row = vec![x];
        for j in 0..noise_features {
            row.push((((i as u64 + jitter) * 2654435761 + j as u64 * 97) % 1000) as f64 / 1000.0);
        }
        features.push(row);
        labels.push(usize::from(x >= 0.0));
    }
    (features, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Probabilities are always a valid distribution, for any trained model
    /// and any in-range query point.
    #[test]
    fn predictions_are_distributions(
        rows in 10usize..80,
        noise_features in 0usize..4,
        jitter in 0u64..1000,
        query in -2.0f64..2.0,
    ) {
        let (features, labels) = learnable(rows, noise_features, jitter);
        let model = GbdtClassifier::fit(
            &features,
            &labels,
            2,
            &GbdtConfig { rounds: 10, ..GbdtConfig::small() },
        );
        let mut point = vec![query];
        point.extend(std::iter::repeat_n(0.5, noise_features));
        let probs = model.predict_proba(&point);
        prop_assert_eq!(probs.len(), 2);
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    /// Training accuracy on a cleanly separable problem is always high.
    #[test]
    fn separable_problems_are_learned(
        rows in 20usize..100,
        jitter in 0u64..1000,
    ) {
        let (features, labels) = learnable(rows, 1, jitter);
        let model = GbdtClassifier::fit(
            &features,
            &labels,
            2,
            &GbdtConfig { rounds: 20, ..GbdtConfig::small() },
        );
        prop_assert!(model.accuracy(&features, &labels) > 0.9);
    }

    /// Fitting is deterministic in the config seed.
    #[test]
    fn fit_is_deterministic(jitter in 0u64..1000, seed in 0u64..1000) {
        let (features, labels) = learnable(40, 2, jitter);
        let config = GbdtConfig { seed, rounds: 8, ..GbdtConfig::small() };
        let a = GbdtClassifier::fit(&features, &labels, 2, &config);
        let b = GbdtClassifier::fit(&features, &labels, 2, &config);
        prop_assert_eq!(a, b);
    }

    /// Feature importances are non-negative and the informative feature
    /// dominates once there is enough data.
    #[test]
    fn importances_are_sane(jitter in 0u64..1000) {
        let (features, labels) = learnable(80, 2, jitter);
        let model = GbdtClassifier::fit(&features, &labels, 2, &GbdtConfig::small());
        let imp = model.feature_importance();
        prop_assert!(imp.iter().all(|i| *i >= 0.0));
        prop_assert!(imp[0] >= imp[1] && imp[0] >= imp[2], "importances {imp:?}");
    }
}
