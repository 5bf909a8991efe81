//! Online phase classification from interval BBVs.
//!
//! The paper's prior work (Sherwood et al., "Phase tracking and
//! prediction") classifies phases *during execution* with a table of
//! past phase signatures: each finished interval's vector is compared
//! against the stored signatures and either matched (same phase id) or
//! installed as a new phase. The paper uses an idealized offline
//! version of this classifier as the BBV baseline; this module provides
//! the online version, so the repository covers both.
//!
//! # Examples
//!
//! ```
//! use spm_bbv::OnlineClassifier;
//!
//! let mut c = OnlineClassifier::new(0.5, 16);
//! let a = c.classify(&[1.0, 0.0]);
//! let b = c.classify(&[0.0, 1.0]);
//! assert_ne!(a, b, "distinct code footprints get distinct phases");
//! assert_eq!(c.classify(&[0.95, 0.05]), a, "similar vectors match");
//! assert_eq!(c.num_phases(), 2);
//! ```

use crate::projection::manhattan;

/// Online signature-table phase classifier.
///
/// Vectors are expected normalized (summing to 1, as
/// [`BbvBuilder::take`](crate::BbvBuilder::take) produces), so the
/// Manhattan distance between two intervals lies in `[0, 2]`; the
/// matching `threshold` is in the same unit. Matched signatures are
/// updated with an exponential moving average so phases can drift
/// slowly, as the hardware proposals do.
#[derive(Debug, Clone)]
pub struct OnlineClassifier {
    threshold: f64,
    max_phases: usize,
    /// `(signature, matches)` per known phase.
    signatures: Vec<(Vec<f64>, u64)>,
    /// EMA weight given to the incoming vector on a match.
    alpha: f64,
}

impl OnlineClassifier {
    /// Creates a classifier with the given match threshold (Manhattan
    /// distance on normalized vectors, `0.0..=2.0`) and signature-table
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `max_phases` is zero.
    pub fn new(threshold: f64, max_phases: usize) -> Self {
        assert!(max_phases > 0, "need at least one signature slot");
        Self {
            threshold,
            max_phases,
            signatures: Vec::new(),
            alpha: 0.25,
        }
    }

    /// Number of phases discovered so far.
    pub fn num_phases(&self) -> usize {
        self.signatures.len()
    }

    /// Classifies one interval vector, returning its phase id (stable
    /// across calls). When the table is full and nothing matches, the
    /// nearest signature is reused rather than evicted — the bounded-
    /// table behaviour of the hardware proposals.
    pub fn classify(&mut self, bbv: &[f64]) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (i, (sig, _)) in self.signatures.iter().enumerate() {
            let d = manhattan(sig, bbv);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        match best {
            Some((i, d)) if d <= self.threshold || self.signatures.len() >= self.max_phases => {
                let (sig, matches) = &mut self.signatures[i];
                for (s, &x) in sig.iter_mut().zip(bbv) {
                    *s = (1.0 - self.alpha) * *s + self.alpha * x;
                }
                *matches += 1;
                i
            }
            _ => {
                self.signatures.push((bbv.to_vec(), 1));
                self.signatures.len() - 1
            }
        }
    }

    /// How many intervals matched each phase so far.
    pub fn phase_counts(&self) -> Vec<u64> {
        self.signatures.iter().map(|(_, n)| *n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_ids_for_recurring_phases() {
        let mut c = OnlineClassifier::new(0.5, 8);
        let a = vec![0.9, 0.1, 0.0];
        let b = vec![0.0, 0.1, 0.9];
        let seq = [&a, &b, &a, &b, &a];
        let ids: Vec<usize> = seq.iter().map(|v| c.classify(v)).collect();
        assert_eq!(ids, vec![0, 1, 0, 1, 0]);
        assert_eq!(c.phase_counts(), vec![3, 2]);
    }

    #[test]
    fn threshold_zero_splits_everything() {
        let mut c = OnlineClassifier::new(0.0, 64);
        for i in 0..10 {
            let v = vec![1.0 - i as f64 * 0.01, i as f64 * 0.01];
            c.classify(&v);
        }
        assert_eq!(c.num_phases(), 10);
    }

    #[test]
    fn loose_threshold_merges_everything() {
        let mut c = OnlineClassifier::new(2.0, 64);
        for i in 0..10 {
            let v = vec![1.0 - i as f64 * 0.05, i as f64 * 0.05];
            assert_eq!(c.classify(&v), 0);
        }
        assert_eq!(c.num_phases(), 1);
    }

    #[test]
    fn full_table_reuses_nearest() {
        let mut c = OnlineClassifier::new(0.01, 2);
        assert_eq!(c.classify(&[1.0, 0.0]), 0);
        assert_eq!(c.classify(&[0.0, 1.0]), 1);
        // Table full; a third distinct vector maps to the nearest slot.
        let id = c.classify(&[0.6, 0.4]);
        assert!(id < 2);
        assert_eq!(c.num_phases(), 2);
    }

    #[test]
    fn ema_tracks_drift() {
        // A phase that drifts slowly stays one phase.
        let mut c = OnlineClassifier::new(0.3, 8);
        let mut id_set = std::collections::HashSet::new();
        for i in 0..20 {
            let x = i as f64 * 0.01;
            id_set.insert(c.classify(&[1.0 - x, x]));
        }
        assert_eq!(id_set.len(), 1, "drift within threshold stays one phase");
    }

    #[test]
    #[should_panic(expected = "signature slot")]
    fn zero_capacity_panics() {
        let _ = OnlineClassifier::new(0.5, 0);
    }
}
