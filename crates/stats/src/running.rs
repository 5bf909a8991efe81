//! Unweighted streaming statistics (Welford's algorithm).

/// Numerically stable streaming accumulator for count, mean, variance,
/// minimum, and maximum of a sequence of samples.
///
/// This is the accumulator attached to every call-loop graph edge: the
/// profiler pushes one hierarchical instruction count per edge traversal
/// and the marker-selection algorithm later reads the mean, maximum, and
/// coefficient of variation.
///
/// # Examples
///
/// ```
/// use spm_stats::Running;
///
/// let mut acc = Running::new();
/// acc.push(10.0);
/// acc.push(20.0);
/// assert_eq!(acc.count(), 2);
/// assert_eq!(acc.mean(), 15.0);
/// assert_eq!(acc.max(), 20.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Decomposes the accumulator into its raw state
    /// `(count, mean, m2, min, max)` for serialization; inverse of
    /// [`from_parts`](Self::from_parts).
    pub fn into_parts(self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Reassembles an accumulator from raw state produced by
    /// [`into_parts`](Self::into_parts). The fields are taken verbatim;
    /// passing inconsistent values yields an accumulator that reports
    /// them verbatim too.
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        if count == 0 {
            Self::new()
        } else {
            Self {
                count,
                mean,
                m2,
                min,
                max,
            }
        }
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &Running) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Smallest sample; `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Population variance (dividing by `n`); `0.0` for fewer than two
    /// samples.
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn population_stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation: population stddev divided by mean, the
    /// paper's per-edge and per-phase variability metric. Returns `0.0`
    /// when the mean is zero (a zero-mean edge carries no behaviour to
    /// vary).
    pub fn cov(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            0.0
        } else {
            self.population_stddev() / mean.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_stats(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_accumulator_is_all_zero() {
        let acc = Running::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.min(), 0.0);
        assert_eq!(acc.max(), 0.0);
        assert_eq!(acc.population_stddev(), 0.0);
        assert_eq!(acc.cov(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut acc = Running::new();
        acc.push(42.0);
        assert_eq!(acc.mean(), 42.0);
        assert_eq!(acc.min(), 42.0);
        assert_eq!(acc.max(), 42.0);
        assert_eq!(acc.population_variance(), 0.0);
    }

    #[test]
    fn zero_mean_cov_is_zero() {
        let mut acc = Running::new();
        acc.push(-1.0);
        acc.push(1.0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.cov(), 0.0);
    }

    #[test]
    fn merge_empty_cases() {
        let mut a = Running::new();
        let b = Running::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);

        let mut c = Running::new();
        c.push(3.0);
        let mut d = Running::new();
        d.merge(&c);
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.count(), 1);
    }

    proptest! {
        #[test]
        fn matches_naive_computation(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut acc = Running::new();
            for &x in &xs {
                acc.push(x);
            }
            let (mean, var) = naive_stats(&xs);
            prop_assert!((acc.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((acc.population_variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
            prop_assert_eq!(acc.count(), xs.len() as u64);
        }

        #[test]
        fn merge_equals_sequential(
            xs in proptest::collection::vec(-1e6f64..1e6, 0..100),
            ys in proptest::collection::vec(-1e6f64..1e6, 0..100),
        ) {
            let mut merged = Running::new();
            let mut left = Running::new();
            let mut right = Running::new();
            for &x in &xs {
                merged.push(x);
                left.push(x);
            }
            for &y in &ys {
                merged.push(y);
                right.push(y);
            }
            left.merge(&right);
            prop_assert_eq!(left.count(), merged.count());
            prop_assert!((left.mean() - merged.mean()).abs() < 1e-6 * (1.0 + merged.mean().abs()));
            prop_assert!(
                (left.population_variance() - merged.population_variance()).abs()
                    < 1e-3 * (1.0 + merged.population_variance().abs())
            );
        }

        #[test]
        fn min_max_bound_all_samples(xs in proptest::collection::vec(-1e9f64..1e9, 1..100)) {
            let mut acc = Running::new();
            for &x in &xs {
                acc.push(x);
            }
            for &x in &xs {
                prop_assert!(acc.min() <= x);
                prop_assert!(acc.max() >= x);
            }
        }
    }
}
