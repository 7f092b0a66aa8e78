//! Stratified train/validation/test splits.
//!
//! The paper uses random 60%/20%/20% splits for datasets without predefined
//! ones; stratification keeps every class represented in the training set,
//! which matters for the high-variance small-split analysis of Figure 4.

use rand::rngs::SmallRng;
use sgnn_dense::rng as drng;

/// Node-index splits.
#[derive(Clone, Debug, Default)]
pub struct Splits {
    pub train: Vec<u32>,
    pub valid: Vec<u32>,
    pub test: Vec<u32>,
}

impl Splits {
    /// Stratified split with the given train/valid fractions (the rest is
    /// test). Within every class, nodes are shuffled and sliced.
    pub(crate) fn stratified(
        labels: &[u32],
        train_frac: f64,
        valid_frac: f64,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(train_frac > 0.0 && valid_frac >= 0.0 && train_frac + valid_frac < 1.0);
        let classes = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut by_class = vec![Vec::new(); classes];
        for (i, &y) in labels.iter().enumerate() {
            by_class[y as usize].push(i as u32);
        }
        let mut out = Splits::default();
        for mut members in by_class {
            drng::shuffle(&mut members, rng);
            let nt = ((members.len() as f64) * train_frac).round() as usize;
            let nv = ((members.len() as f64) * valid_frac).round() as usize;
            let nv_end = (nt + nv).min(members.len());
            out.train
                .extend_from_slice(&members[..nt.min(members.len())]);
            out.valid
                .extend_from_slice(&members[nt.min(members.len())..nv_end]);
            out.test.extend_from_slice(&members[nv_end..]);
        }
        // Deterministic downstream iteration order.
        out.train.sort_unstable();
        out.valid.sort_unstable();
        out.test.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_respected_and_disjoint() {
        let labels: Vec<u32> = (0..1000).map(|i| (i % 4) as u32).collect();
        let s = Splits::stratified(&labels, 0.6, 0.2, &mut drng::seeded(0));
        assert_eq!(s.train.len() + s.valid.len() + s.test.len(), 1000);
        assert!((s.train.len() as f64 - 600.0).abs() <= 4.0);
        assert!((s.valid.len() as f64 - 200.0).abs() <= 4.0);
        let mut all: Vec<u32> = s
            .train
            .iter()
            .chain(&s.valid)
            .chain(&s.test)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000, "splits must be disjoint");
    }

    #[test]
    fn every_class_in_train() {
        let labels: Vec<u32> = (0..90).map(|i| (i % 9) as u32).collect();
        let s = Splits::stratified(&labels, 0.6, 0.2, &mut drng::seeded(3));
        for c in 0..9u32 {
            assert!(
                s.train.iter().any(|&i| labels[i as usize] == c),
                "class {c} missing"
            );
        }
    }
}
