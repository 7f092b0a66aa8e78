//! Effectiveness metrics: accuracy, ROC AUC, F1, R².

use sgnn_dense::stats::argmax;
use sgnn_dense::DMat;

/// Classification accuracy of `logits` rows against `labels`, restricted to
/// `idx` (logits are indexed by the same node ids as `labels`).
pub fn accuracy(logits: &DMat, labels: &[u32], idx: &[u32]) -> f64 {
    if idx.is_empty() {
        return 0.0;
    }
    let correct = idx
        .iter()
        .filter(|&&i| argmax(logits.row(i as usize)) as u32 == labels[i as usize])
        .count();
    correct as f64 / idx.len() as f64
}

/// Binary ROC AUC from per-node scores (higher = class 1), restricted to
/// `idx`. Ties are handled by midranks.
pub fn roc_auc(scores: &[f64], labels: &[u32], idx: &[u32]) -> f64 {
    let pairs: Vec<(f64, u32)> = idx
        .iter()
        .map(|&i| (scores[i as usize], labels[i as usize]))
        .collect();
    auc_from_pairs(pairs)
}

/// Binary ROC AUC from parallel score/label arrays (labels ∈ {0.0, 1.0}),
/// used by link prediction.
pub fn roc_auc_pairs(scores: &[f64], labels: &[f32]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "one label per score");
    let pairs: Vec<(f64, u32)> = scores
        .iter()
        .zip(labels)
        .map(|(&s, &l)| (s, u32::from(l > 0.5)))
        .collect();
    auc_from_pairs(pairs)
}

fn auc_from_pairs(mut pairs: Vec<(f64, u32)>) -> f64 {
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let n_pos = pairs.iter().filter(|p| p.1 == 1).count();
    let n_neg = pairs.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Sum of positive midranks.
    let mut rank_sum = 0.0f64;
    let mut i = 0usize;
    while i < pairs.len() {
        let mut j = i;
        while j + 1 < pairs.len() && pairs[j + 1].0 == pairs[i].0 {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for p in &pairs[i..=j] {
            if p.1 == 1 {
                rank_sum += midrank;
            }
        }
        i = j + 1;
    }
    (rank_sum - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

/// Binary class-1 scores from 2-class logits (`logit₁ − logit₀`, monotone in
/// the softmax probability of class 1).
pub fn binary_scores(logits: &DMat) -> Vec<f64> {
    assert!(logits.cols() >= 2, "binary scores need two logits");
    (0..logits.rows())
        .map(|r| (logits.get(r, 1) - logits.get(r, 0)) as f64)
        .collect()
}

/// Coefficient of determination `R²` of `pred` against `target` (column-
/// stacked, `f64` accumulation); 1 is perfect, 0 is predicting the mean.
pub(crate) fn r2_score(pred: &DMat, target: &DMat) -> f64 {
    assert_eq!(pred.shape(), target.shape(), "R² shape mismatch");
    let n = target.len() as f64;
    let mean: f64 = target.data().iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (&p, &t) in pred.data().iter().zip(target.data()) {
        ss_res += ((p - t) as f64).powi(2);
        ss_tot += (t as f64 - mean).powi(2);
    }
    if ss_tot == 0.0 {
        return if ss_res == 0.0 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = DMat::from_vec(3, 2, vec![2.0, 1.0, 0.0, 3.0, 5.0, 4.0]);
        let labels = [0, 1, 1];
        assert_eq!(accuracy(&logits, &labels, &[0, 1, 2]), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &labels, &[0, 1]), 1.0);
    }

    #[test]
    fn perfect_auc_and_random_auc() {
        let scores = vec![0.9, 0.8, 0.2, 0.1];
        let labels = [1, 1, 0, 0];
        let idx = [0, 1, 2, 3];
        assert!((roc_auc(&scores, &labels, &idx) - 1.0).abs() < 1e-12);
        let anti = vec![0.1, 0.2, 0.8, 0.9];
        assert!((roc_auc(&anti, &labels, &idx) - 0.0).abs() < 1e-12);
        let tied = vec![0.5, 0.5, 0.5, 0.5];
        assert!((roc_auc(&tied, &labels, &idx) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(roc_auc(&[0.1, 0.9], &[1, 1], &[0, 1]), 0.5);
    }

    #[test]
    fn r2_perfect_and_mean() {
        let t = DMat::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        assert!((r2_score(&t, &t) - 1.0).abs() < 1e-12);
        let mean = DMat::filled(1, 4, 2.5);
        assert!(r2_score(&mean, &t).abs() < 1e-12);
    }

    #[test]
    fn binary_scores_monotone_in_class1() {
        let logits = DMat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let s = binary_scores(&logits);
        assert!(s[0] > s[1]);
    }
}
