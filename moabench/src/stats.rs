//! Order statistics over small sample sets.

/// Sort ascending (total order, so a NaN cannot panic the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` percent of the samples at or below it. 0.0 when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the middle sample, or the mean of the two middle ones. 0.0
/// when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A solo sample: µs per call, and the calls timed together that it
/// stands for. Quantiles are over calls, so a group of eight hits weighs
/// eight times a miss timed alone.
pub type Sample = (f64, u32);

/// Sort samples by latency.
pub fn sorted_samples(mut v: Vec<Sample>) -> Vec<Sample> {
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    v
}

fn calls(samples: &[Sample]) -> u64 {
    samples.iter().map(|&(_, n)| u64::from(n)).sum()
}

/// Call rank of the `q`-th percentile among `total` calls, from 1.
fn rank(q: f64, total: u64) -> u64 {
    (((q / 100.0) * total as f64).ceil() as u64).clamp(1, total)
}

/// Nearest-rank percentile over the calls of latency-sorted samples.
pub fn call_percentile(sorted: &[Sample], q: f64) -> f64 {
    smoothed(sorted, q, 0.0)
}

/// A quantile read as the mean latency of the calls within 2.5
/// percentile ranks either side of `q`. Where a latency distribution is
/// sparse — between the cheap and the dear query classes of one stream,
/// or far out in a tail — a single order statistic jumps with the exact
/// make-up of the stream; the local mean moves smoothly.
pub fn smoothed_percentile(sorted: &[Sample], q: f64) -> f64 {
    smoothed(sorted, q, 2.5)
}

fn smoothed(sorted: &[Sample], q: f64, half_width: f64) -> f64 {
    let total = calls(sorted);
    if total == 0 {
        return 0.0;
    }
    let lo = rank((q - half_width).max(0.0), total);
    let hi = rank((q + half_width).min(100.0), total).max(lo);
    let (mut seen, mut sum) = (0u64, 0.0);
    for &(us, n) in sorted {
        // This sample holds call ranks seen + 1 ..= seen + n.
        let (from, to) = ((seen + 1).max(lo), (seen + u64::from(n)).min(hi));
        if from <= to {
            sum += us * (to - from + 1) as f64;
        }
        seen += u64::from(n);
        if seen >= hi {
            break;
        }
    }
    sum / (hi - lo + 1) as f64
}

/// Cut `samples` into `segments` equal-count runs (a remainder is
/// dropped from the end) and take each run's smoothed `q`-th percentile.
pub fn segment_percentiles(samples: &[Sample], segments: usize, q: f64) -> Vec<f64> {
    let len = samples.len() / segments.max(1);
    if len == 0 {
        return Vec::new();
    }
    samples
        .chunks_exact(len)
        .map(|seg| smoothed_percentile(&sorted_samples(seg.to_vec()), q))
        .collect()
}

/// The median of [`segment_percentiles`]. A quantile read this way needs
/// a slow spell to cover half the segments before it moves.
pub fn segment_percentile_median(samples: &[Sample], segments: usize, q: f64) -> f64 {
    median(&segment_percentiles(samples, segments, q))
}

/// (max − min) / median: how far apart repeats of one measurement lie.
pub fn spread(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match (s.first(), s.last()) {
        (Some(lo), Some(hi)) if median(&s) > 0.0 => (hi - lo) / median(&s),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_arrays() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn single_calls(v: &[f64]) -> Vec<Sample> {
        v.iter().map(|&us| (us, 1)).collect()
    }

    #[test]
    fn smoothed_percentile_averages_the_ranks_around_q() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let v = single_calls(&v);
        // Ranks 95..=105 of 200 around the median, 185..=195 around p95.
        assert_eq!(smoothed_percentile(&v, 50.0), 100.0);
        assert_eq!(smoothed_percentile(&v, 95.0), 190.0);
        // The window is clipped at the ends, not wrapped.
        assert_eq!(smoothed_percentile(&v, 100.0), 197.5);
        assert_eq!(smoothed_percentile(&[(7.0, 1)], 95.0), 7.0);
        assert_eq!(smoothed_percentile(&[], 95.0), 0.0);
        // One wild order statistic inside the window moves it a little;
        // it would move the plain percentile all the way.
        let mut w = v.clone();
        w[189].0 = 1000.0;
        let w = sorted_samples(w);
        assert!(smoothed_percentile(&w, 95.0) < 275.0);
        assert_eq!(call_percentile(&w, 100.0), 1000.0);
    }

    #[test]
    fn a_group_weighs_as_many_calls_as_it_timed() {
        // 80 hits timed eight at a time and 20 misses timed alone: the
        // median call is a hit although the misses are two samples in
        // three, and p95 is a miss.
        let mut v: Vec<Sample> = vec![(1.0, 8); 10];
        v.extend((0..20).map(|i| (100.0 + f64::from(i), 1)));
        assert_eq!(call_percentile(&v, 50.0), 1.0);
        assert_eq!(call_percentile(&v, 80.0), 1.0);
        assert_eq!(call_percentile(&v, 81.0), 100.0);
        assert_eq!(call_percentile(&v, 95.0), 114.0);
        assert_eq!(smoothed_percentile(&v, 50.0), 1.0);
        // Ranks 78..=83: three hits and the three cheapest misses.
        assert_eq!(
            smoothed_percentile(&v, 80.5),
            (3.0 + 100.0 + 101.0 + 102.0) / 6.0
        );
        // The same calls one by one read the same.
        let flat: Vec<Sample> = v
            .iter()
            .flat_map(|&(us, n)| std::iter::repeat_n((us, 1), n as usize))
            .collect();
        for q in [50.0, 80.5, 95.0] {
            assert_eq!(smoothed_percentile(&v, q), smoothed_percentile(&flat, q));
        }
    }

    #[test]
    fn segment_median_ignores_one_bad_segment() {
        // Three segments of forty samples; the middle one is all slow.
        let mut v = vec![(1.0, 1); 120];
        for x in &mut v[40..80] {
            x.0 = 100.0;
        }
        assert_eq!(segment_percentile_median(&v, 3, 95.0), 1.0);
        // The pooled p95 would have reported the slow spell.
        assert_eq!(call_percentile(&sorted_samples(v.clone()), 95.0), 100.0);
        // A remainder that does not fill a segment is dropped.
        v.push((1e9, 1));
        assert_eq!(segment_percentile_median(&v, 3, 95.0), 1.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(spread(&[]), 0.0);
    }
}
