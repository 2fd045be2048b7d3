//! Retrieval effectiveness metrics.
//!
//! The paper reports *relative* answer-quality changes ("quality dropped
//! more than 30%"); we provide average precision against qrels and
//! ranking overlap against a reference run (the unfragmented ranking),
//! which is how the degradation of the unsafe strategy is quantified.

use std::collections::HashSet;

/// (Non-interpolated) average precision of a ranking. Returns `None` when
/// the relevant set is empty (the query is skipped, TREC-style).
pub fn average_precision(ranking: &[u32], relevant: &HashSet<u32>) -> Option<f64> {
    if relevant.is_empty() {
        return None;
    }
    let mut hits = 0usize;
    let mut sum = 0.0f64;
    for (i, d) in ranking.iter().enumerate() {
        if relevant.contains(d) {
            hits += 1;
            sum += hits as f64 / (i + 1) as f64;
        }
    }
    Some(sum / relevant.len() as f64)
}

/// Mean of the present values (queries without judgments are skipped).
/// Returns `None` when no value is present.
pub fn mean_of(values: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values.into_iter().flatten() {
        sum += v;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Overlap at `k`: the fraction of the reference's top-`k` that the other
/// ranking's top-`k` retains. Normalized by the reference prefix actually
/// available (`min(k, a.len())`), so comparing a ranking against itself is
/// always 1.0 even when fewer than `k` documents match. Returns `None` for
/// `k == 0` or an empty reference.
pub fn overlap_at(a: &[u32], b: &[u32], k: usize) -> Option<f64> {
    if k == 0 || a.is_empty() {
        return None;
    }
    let sa: HashSet<u32> = a.iter().take(k).copied().collect();
    let hits = b.iter().take(k).filter(|d| sa.contains(d)).count();
    Some(hits as f64 / sa.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(ids: &[u32]) -> HashSet<u32> {
        ids.iter().copied().collect()
    }

    #[test]
    fn average_precision_textbook_example() {
        // Relevant docs at ranks 1, 3, 5 out of 5; |rel| = 3.
        let ranking = vec![10, 20, 30, 40, 50];
        let relevant = rel(&[10, 30, 50]);
        let expect = (1.0 / 1.0 + 2.0 / 3.0 + 3.0 / 5.0) / 3.0;
        let got = average_precision(&ranking, &relevant).unwrap();
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn average_precision_perfect_and_empty() {
        let relevant = rel(&[1, 2]);
        assert_eq!(average_precision(&[1, 2, 3], &relevant), Some(1.0));
        assert_eq!(average_precision(&[3, 4], &relevant), Some(0.0));
        assert_eq!(average_precision(&[1], &rel(&[])), None);
    }

    #[test]
    fn unranked_relevant_docs_lower_ap() {
        let relevant = rel(&[1, 2, 99]);
        let ap = average_precision(&[1, 2], &relevant).unwrap();
        assert!((ap - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_skips_missing() {
        assert_eq!(mean_of([Some(1.0), None, Some(3.0)]), Some(2.0));
        assert_eq!(mean_of([None, None]), None);
        assert_eq!(mean_of([]), None);
    }

    #[test]
    fn overlap_symmetric_prefix_intersection() {
        let a = vec![1, 2, 3, 4];
        let b = vec![3, 2, 9, 1];
        assert_eq!(overlap_at(&a, &b, 3), Some(2.0 / 3.0));
        assert_eq!(overlap_at(&a, &b, 4), Some(0.75));
        assert_eq!(overlap_at(&a, &a, 4), Some(1.0));
        assert_eq!(overlap_at(&a, &b, 0), None);
    }

    #[test]
    fn overlap_short_rankings_self_compare_to_one() {
        // Fewer matches than k: self-overlap still 1.0.
        let a = vec![7, 9];
        assert_eq!(overlap_at(&a, &a, 20), Some(1.0));
        assert_eq!(overlap_at(&[], &a, 20), None);
        // And a disjoint other ranking scores 0.
        assert_eq!(overlap_at(&a, &[1, 2], 20), Some(0.0));
    }
}
