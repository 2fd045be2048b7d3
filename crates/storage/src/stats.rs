//! Column statistics: the equi-width histogram.
//!
//! Statistics serve two masters in this reproduction:
//!
//! 1. the cost model of the Moa optimizer (cardinality and selectivity
//!    estimation — the paper's Step 3), and
//! 2. the Donjerkovic–Ramakrishnan probabilistic top-N, which picks a score
//!    cutoff from a histogram such that at least N tuples survive with the
//!    requested confidence.

use crate::error::{Result, StorageError};

/// Equi-width histogram over `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiWidthHistogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    total: u64,
}

impl EquiWidthHistogram {
    /// Build with `buckets` equal-width buckets. NaNs are ignored.
    pub fn build(values: &[f64], buckets: usize) -> Result<EquiWidthHistogram> {
        if buckets == 0 {
            return Err(StorageError::InvalidArgument(
                "bucket count must be positive".into(),
            ));
        }
        let mut present = values.iter().copied().filter(|v| !v.is_nan());
        let first = present.next().ok_or(StorageError::Empty)?;
        let (min, max) = present.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v)));
        let mut counts = vec![0u64; buckets];
        let width = (max - min).max(f64::MIN_POSITIVE);
        let mut total = 0u64;
        for &v in values {
            if v.is_nan() {
                continue;
            }
            let b = (((v - min) / width) * buckets as f64) as usize;
            counts[b.min(buckets - 1)] += 1;
            total += 1;
        }
        Ok(EquiWidthHistogram {
            min,
            max,
            counts,
            total,
        })
    }

    /// Total number of values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Estimate how many values are `>= x`, assuming uniform spread inside
    /// each bucket.
    pub fn estimate_count_ge(&self, x: f64) -> f64 {
        if x <= self.min {
            return self.total as f64;
        }
        if x > self.max {
            return 0.0;
        }
        let buckets = self.counts.len() as f64;
        let width = (self.max - self.min).max(f64::MIN_POSITIVE) / buckets;
        let pos = (x - self.min) / width;
        let idx = (pos as usize).min(self.counts.len() - 1);
        let frac_into = pos - idx as f64;
        let partial = self.counts[idx] as f64 * (1.0 - frac_into).clamp(0.0, 1.0);
        let above: u64 = self.counts[idx + 1..].iter().sum();
        partial + above as f64
    }

    /// Estimate the fraction of values in `[lo, hi]`.
    pub fn estimate_selectivity(&self, lo: f64, hi: f64) -> f64 {
        if self.total == 0 || hi < lo {
            return 0.0;
        }
        let ge_lo = self.estimate_count_ge(lo);
        // `>= hi` counts as `> hi`: a single point carries no mass under the
        // uniform-spread assumption.
        let gt_hi = self.estimate_count_ge(hi);
        ((ge_lo - gt_hi) / self.total as f64).clamp(0.0, 1.0)
    }

    /// Smallest cutoff `c` such that the estimated number of values `>= c`
    /// is at least `n`, i.e. scanning values `>= c` is expected to yield at
    /// least `n` survivors. Returns `min` when `n` exceeds the population.
    pub fn cutoff_for_at_least(&self, n: usize) -> f64 {
        if n as u64 >= self.total {
            return self.min;
        }
        // Walk buckets from the top, accumulating counts.
        let buckets = self.counts.len();
        let width = (self.max - self.min).max(f64::MIN_POSITIVE) / buckets as f64;
        let mut acc = 0u64;
        for i in (0..buckets).rev() {
            let c = self.counts[i];
            if acc + c >= n as u64 {
                // Interpolate inside bucket i: need (n - acc) values from it.
                let need = (n as u64 - acc) as f64;
                let frac = if c == 0 { 0.0 } else { need / c as f64 };
                let hi_edge = self.min + width * (i as f64 + 1.0);
                return (hi_edge - frac * width).max(self.min);
            }
            acc += c;
        }
        self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_width_skips_nan_and_rejects_all_nan() {
        let h = EquiWidthHistogram::build(&[f64::NAN, 2.0, 4.0], 2).unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.estimate_count_ge(3.0), 1.0);
        assert_eq!(
            EquiWidthHistogram::build(&[f64::NAN, f64::NAN], 4),
            Err(StorageError::Empty)
        );
    }

    #[test]
    fn equi_width_counts() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let h = EquiWidthHistogram::build(&values, 10).unwrap();
        assert_eq!(h.total(), 100);
        assert_eq!(h.buckets(), 10);
        // ~50 values are >= 50.
        let est = h.estimate_count_ge(50.0);
        assert!((est - 50.0).abs() <= 11.0, "est={est}");
    }

    #[test]
    fn equi_width_extremes() {
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        let h = EquiWidthHistogram::build(&values, 4).unwrap();
        assert_eq!(h.estimate_count_ge(-5.0), 10.0);
        assert_eq!(h.estimate_count_ge(100.0), 0.0);
    }

    #[test]
    fn equi_width_selectivity() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let h = EquiWidthHistogram::build(&values, 50).unwrap();
        let sel = h.estimate_selectivity(250.0, 750.0);
        assert!((sel - 0.5).abs() < 0.05, "sel={sel}");
        assert_eq!(h.estimate_selectivity(10.0, 5.0), 0.0);
    }

    #[test]
    fn cutoff_yields_enough_survivors() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let h = EquiWidthHistogram::build(&values, 100).unwrap();
        for n in [1usize, 10, 100, 500] {
            let c = h.cutoff_for_at_least(n);
            let actual = values.iter().filter(|&&v| v >= c).count();
            assert!(
                actual >= n,
                "cutoff {c} for n={n} yields only {actual} survivors"
            );
        }
    }

    #[test]
    fn cutoff_for_huge_n_is_min() {
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        let h = EquiWidthHistogram::build(&values, 4).unwrap();
        assert_eq!(h.cutoff_for_at_least(10_000), 0.0);
    }

    #[test]
    fn histograms_reject_zero_buckets_and_empty() {
        assert!(EquiWidthHistogram::build(&[1.0], 0).is_err());
        assert!(EquiWidthHistogram::build(&[], 4).is_err());
    }

    #[test]
    fn constant_distribution() {
        let values = vec![5.0; 64];
        let h = EquiWidthHistogram::build(&values, 8).unwrap();
        assert_eq!(h.estimate_count_ge(5.0), 64.0);
        assert_eq!(h.estimate_count_ge(5.1), 0.0);
    }
}
