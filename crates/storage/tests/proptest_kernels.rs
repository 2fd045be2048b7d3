//! Property-based test of the sparse index: a lookup never loses a match.

use proptest::prelude::*;

use moa_storage::SparseIndex;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // A narrow value domain, so runs of equal values often straddle
    // block boundaries: the case where a lookup could start too late.
    #[test]
    fn sparse_index_agrees_with_select(
        mut values in proptest::collection::vec(0u32..100, 0..300),
        block in 1usize..64,
        lo in 0u32..110, span in 0u32..30,
    ) {
        values.sort_unstable();
        let hi = lo.saturating_add(span);
        let idx = SparseIndex::build(&values, block).unwrap();
        let range = idx.lookup_range(lo, hi);
        prop_assert!(range.start <= range.end && range.end <= values.len());
        let matches = |positions: std::ops::Range<usize>| -> Vec<usize> {
            positions.filter(|&i| (lo..=hi).contains(&values[i])).collect()
        };
        prop_assert_eq!(matches(range.clone()), matches(0..values.len()));
    }
}
