//! Non-dense (sparse) indexes.
//!
//! The paper's Step 1 proposes "a non-dense index in the system to speed up
//! processing the large fragment". A [`SparseIndex`] stores the first value
//! of each fixed-size block of a sorted `u32` column; a range lookup
//! binary-searches those anchors and returns the positions of the covering
//! blocks, so the caller scans those instead of the whole column.

use std::ops::Range;

use crate::error::{Result, StorageError};

/// A sparse index over a sorted `u32` column: one anchor per `block_size`
/// values.
#[derive(Debug, Clone)]
pub struct SparseIndex {
    /// First value of each block; block `i` starts at `i * block_size`.
    anchors: Vec<u32>,
    block_size: usize,
    len: usize,
}

impl SparseIndex {
    /// Build a sparse index with the given block size over an ascending
    /// column.
    pub fn build(column: &[u32], block_size: usize) -> Result<SparseIndex> {
        if block_size == 0 {
            return Err(StorageError::InvalidArgument(
                "block_size must be positive".into(),
            ));
        }
        if column.windows(2).any(|w| w[0] > w[1]) {
            return Err(StorageError::NotSorted);
        }
        Ok(SparseIndex {
            anchors: column.iter().copied().step_by(block_size).collect(),
            block_size,
            len: column.len(),
        })
    }

    /// Number of anchors (blocks).
    pub fn blocks(&self) -> usize {
        self.anchors.len()
    }

    /// Conservative position range whose values may lie in `[lo, hi]`.
    ///
    /// The range starts at the last block whose anchor is `< lo` (runs of
    /// anchors equal to `lo` may all hold matches, so none is skipped) and
    /// ends at the first block whose anchor is `> hi` — so a subsequent
    /// scan touches only the covering blocks. It is empty when no block
    /// can hold a match.
    pub fn lookup_range(&self, lo: u32, hi: u32) -> Range<usize> {
        let start_block = self.anchors.partition_point(|&a| a < lo).saturating_sub(1);
        let end_block = self.anchors.partition_point(|&a| a <= hi);
        let start = start_block * self.block_size;
        if end_block <= start_block {
            return start..start;
        }
        start..(end_block * self.block_size).min(self.len)
    }

    /// The configured block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn even_column(n: u32) -> Vec<u32> {
        (0..n).map(|i| i * 2).collect()
    }

    #[test]
    fn build_requires_sorted() {
        assert!(matches!(
            SparseIndex::build(&[3, 1], 4),
            Err(StorageError::NotSorted)
        ));
    }

    #[test]
    fn build_rejects_zero_block() {
        assert!(SparseIndex::build(&even_column(10), 0).is_err());
    }

    #[test]
    fn block_count() {
        let idx = SparseIndex::build(&even_column(10), 4).unwrap();
        assert_eq!(idx.blocks(), 3); // 4 + 4 + 2
    }

    #[test]
    fn lookup_agrees_with_full_select() {
        let column = even_column(100); // values 0,2,..,198
        let idx = SparseIndex::build(&column, 8).unwrap();
        for (lo, hi) in [(0u32, 10u32), (13, 57), (150, 300), (201, 250), (0, 198)] {
            let hits = |positions: std::ops::Range<usize>| -> Vec<usize> {
                positions
                    .filter(|&i| (lo..=hi).contains(&column[i]))
                    .collect()
            };
            let range = idx.lookup_range(lo, hi);
            assert_eq!(hits(range), hits(0..column.len()), "range {lo}..={hi}");
        }
    }

    #[test]
    fn lookup_touches_few_blocks() {
        let idx = SparseIndex::build(&even_column(1000), 10).unwrap();
        let range = idx.lookup_range(500, 510);
        assert!(range.len() <= 30, "covers {range:?}");
    }

    #[test]
    fn empty_bat_lookup() {
        let idx = SparseIndex::build(&[], 4).unwrap();
        assert_eq!(idx.blocks(), 0);
        assert_eq!(idx.lookup_range(1, 2), 0..0);
    }

    #[test]
    fn range_below_and_above_all_values() {
        let column = [10, 20, 30, 40];
        let idx = SparseIndex::build(&column, 2).unwrap();
        for (lo, hi) in [(0, 5), (41, 99)] {
            let range = idx.lookup_range(lo, hi);
            assert!(
                column[range.clone()].iter().all(|v| !(lo..=hi).contains(v)),
                "{lo}..={hi} covers {range:?}"
            );
        }
    }
}
