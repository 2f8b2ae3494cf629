//! Property-based tests for the evaluation metrics.

#![deny(clippy::unwrap_used)]

use eval::{auc, precision_recall, Cdf};
use proptest::prelude::*;

proptest! {
    /// AUC is always in [0, 1], and flipping the score order flips the AUC
    /// around 0.5.
    #[test]
    fn auc_is_bounded_and_antisymmetric(
        scores in proptest::collection::vec(0.0f64..1.0, 2..64),
        labels in proptest::collection::vec(any::<bool>(), 2..64),
    ) {
        let n = scores.len().min(labels.len());
        let scores = &scores[..n];
        let labels = &labels[..n];
        let a = auc(scores, labels);
        prop_assert!((0.0..=1.0).contains(&a));
        let flipped: Vec<f64> = scores.iter().map(|s| -s).collect();
        let b = auc(&flipped, labels);
        prop_assert!((a + b - 1.0).abs() < 1e-9, "a={a} b={b}");
    }

    /// Adding a constant to every score never changes the AUC.
    #[test]
    fn auc_is_translation_invariant(
        scores in proptest::collection::vec(0.0f64..1.0, 4..32),
        labels in proptest::collection::vec(any::<bool>(), 4..32),
        shift in -5.0f64..5.0,
    ) {
        let n = scores.len().min(labels.len());
        let scores = &scores[..n];
        let labels = &labels[..n];
        let shifted: Vec<f64> = scores.iter().map(|s| s + shift).collect();
        prop_assert!((auc(scores, labels) - auc(&shifted, labels)).abs() < 1e-9);
    }

    /// Precision and recall coincide whenever declared == actual count.
    #[test]
    fn protocol_precision_equals_recall(
        is_fake in proptest::collection::vec(any::<bool>(), 1..64),
        pick in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let n = is_fake.len().min(pick.len());
        let is_fake = &is_fake[..n];
        let actual = is_fake.iter().filter(|&&f| f).count();
        // Declare exactly `actual` suspects (arbitrary subset).
        let mut suspects: Vec<usize> =
            (0..n).filter(|&i| pick[i]).take(actual).collect();
        let mut i = 0;
        while suspects.len() < actual {
            if !suspects.contains(&i) {
                suspects.push(i);
            }
            i += 1;
        }
        let pr = precision_recall(&suspects, is_fake);
        prop_assert_eq!(pr.declared, pr.actual);
        prop_assert!((pr.precision() - pr.recall()).abs() < 1e-12);
    }

    /// A CDF is monotone nondecreasing and hits 1 at its max sample.
    #[test]
    fn cdf_is_monotone(samples in proptest::collection::vec(-100.0f64..100.0, 1..64)) {
        let cdf = Cdf::from_samples(samples.clone());
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut last = 0.0;
        let steps = 16;
        for i in 0..=steps {
            let x = lo + (hi - lo) * i as f64 / steps as f64;
            let y = cdf.eval(x);
            prop_assert!(y >= last - 1e-12, "CDF decreased at {x}");
            last = y;
        }
        prop_assert_eq!(cdf.eval(hi), 1.0);
        prop_assert_eq!(cdf.eval(lo - 1.0), 0.0);
    }

    /// quantile() inverts eval(): eval(quantile(q)) >= q.
    #[test]
    fn quantile_inverts_eval(
        samples in proptest::collection::vec(-50.0f64..50.0, 1..40),
        q in 0.01f64..1.0,
    ) {
        let cdf = Cdf::from_samples(samples);
        let x = cdf.quantile(q);
        prop_assert!(cdf.eval(x) >= q - 1e-12);
    }
}

proptest! {
    /// The trapezoid-rule area under `roc_curve` equals `auc` when scores
    /// are unique (no ties to smear).
    #[test]
    fn roc_area_matches_auc(
        base in proptest::collection::vec(0.0f64..1.0, 4..48),
        labels in proptest::collection::vec(any::<bool>(), 4..48),
    ) {
        let n = base.len().min(labels.len());
        // De-duplicate scores deterministically by adding a per-index
        // epsilon far above f64 noise but below the data scale.
        let scores: Vec<f64> = base[..n]
            .iter()
            .enumerate()
            .map(|(i, s)| s + i as f64 * 1e-7)
            .collect();
        let labels = &labels[..n];
        let n_pos = labels.iter().filter(|&&p| p).count();
        if n_pos == 0 || n_pos == n {
            return Ok(());
        }
        let curve = eval::roc_curve(&scores, labels);
        let mut area = 0.0;
        for w in curve.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            area += (x1 - x0) * (y0 + y1) / 2.0;
        }
        // roc_curve flags LOW scores as positive; auc() measures the
        // probability a positive scores low. They agree.
        prop_assert!((area - eval::auc(&scores, labels)).abs() < 1e-9,
            "area {area} vs auc {}", eval::auc(&scores, labels));
    }
}
