//! Binary Association Tables.
//!
//! A [`Bat`] is the MonetDB-style storage primitive: a sequence of BUNs
//! (binary units), each a pair of a head object id (`u32`) and a typed tail
//! value. It is the data model of a MonetDB-style column kernel; no query
//! path in this workspace builds one, and the kernel operations that once
//! ran over BATs are gone.
//!
//! The head is either *void* (a dense, ascending oid sequence starting at a
//! base — stored implicitly, occupying no memory) or *materialized* (an
//! explicit oid vector). Properties such as tail sortedness are computed at
//! construction and kept on the BAT, so [`Bat::sorted_range`] can binary
//! search a sorted tail.

use crate::column::{Column, ColumnType, Scalar};
use crate::error::{Result, StorageError};

/// The head (left) column of a BAT.
#[derive(Debug, Clone, PartialEq)]
pub enum Head {
    /// Dense ascending oids `base, base+1, …` stored implicitly.
    Void {
        /// First oid of the sequence.
        base: u32,
    },
    /// Explicitly materialized oids.
    Oids(Vec<u32>),
}

/// Cheap-to-check physical properties used by the optimizer and kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Props {
    /// Tail values are non-decreasing.
    pub tail_sorted_asc: bool,
    /// Tail values are non-increasing.
    pub tail_sorted_desc: bool,
    /// Head is a dense void sequence.
    pub head_dense: bool,
}

/// A Binary Association Table: aligned (head oid, tail value) pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Bat {
    head: Head,
    tail: Column,
    props: Props,
}

impl Bat {
    /// Build a BAT with a dense void head starting at oid 0.
    pub fn dense(tail: Column) -> Bat {
        Bat::dense_from(0, tail)
    }

    /// Build a BAT with a dense void head starting at `base`.
    pub fn dense_from(base: u32, tail: Column) -> Bat {
        let mut props = Props {
            head_dense: true,
            ..Props::default()
        };
        compute_sortedness(&tail, &mut props);
        Bat {
            head: Head::Void { base },
            tail,
            props,
        }
    }

    /// Build a BAT with materialized head oids; lengths must match.
    pub fn new(head: Vec<u32>, tail: Column) -> Result<Bat> {
        if head.len() != tail.len() {
            return Err(StorageError::LengthMismatch {
                left: head.len(),
                right: tail.len(),
            });
        }
        let mut props = Props::default();
        compute_sortedness(&tail, &mut props);
        Ok(Bat {
            head: Head::Oids(head),
            tail,
            props,
        })
    }

    /// Number of BUNs.
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// Whether the BAT holds no BUNs.
    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// The tail column.
    pub fn tail(&self) -> &Column {
        &self.tail
    }

    /// The tail column type.
    pub fn tail_type(&self) -> ColumnType {
        self.tail.ty()
    }

    /// The head.
    pub fn head(&self) -> &Head {
        &self.head
    }

    /// Physical properties.
    pub fn props(&self) -> Props {
        self.props
    }

    /// The head oid at `pos`.
    pub fn head_oid(&self, pos: usize) -> Result<u32> {
        if pos >= self.len() {
            return Err(StorageError::OutOfBounds {
                pos,
                len: self.len(),
            });
        }
        Ok(match &self.head {
            Head::Void { base } => base + pos as u32,
            Head::Oids(v) => v[pos],
        })
    }

    /// The tail value at `pos`.
    pub fn tail_value(&self, pos: usize) -> Result<Scalar> {
        self.tail.get(pos)
    }

    /// Materialize the head oids into a vector.
    pub fn head_oids(&self) -> Vec<u32> {
        match &self.head {
            Head::Void { base } => (0..self.len() as u32).map(|i| base + i).collect(),
            Head::Oids(v) => v.clone(),
        }
    }

    /// Iterate BUNs as `(oid, scalar)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Scalar)> + '_ {
        (0..self.len()).map(move |i| {
            let oid = match &self.head {
                Head::Void { base } => base + i as u32,
                Head::Oids(v) => v[i],
            };
            // Positions are in range by construction.
            (oid, self.tail.get(i).expect("in-range position"))
        })
    }

    /// Positional projection: build a new BAT from the BUNs at `positions`.
    pub fn gather(&self, positions: &[usize]) -> Result<Bat> {
        let tail = self.tail.gather(positions)?;
        let head = match &self.head {
            Head::Void { base } => Head::Oids(positions.iter().map(|&p| base + p as u32).collect()),
            Head::Oids(v) => Head::Oids(positions.iter().map(|&p| v[p]).collect()),
        };
        let mut props = Props::default();
        compute_sortedness(&tail, &mut props);
        Ok(Bat { head, tail, props })
    }

    /// Contiguous positional slice `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> Result<Bat> {
        let tail = self.tail.slice(start, end)?;
        let head = match &self.head {
            Head::Void { base } => Head::Void {
                base: base + start as u32,
            },
            Head::Oids(v) => Head::Oids(v[start..end].to_vec()),
        };
        let mut props = Props {
            head_dense: matches!(head, Head::Void { .. }),
            ..Props::default()
        };
        compute_sortedness(&tail, &mut props);
        Ok(Bat { head, tail, props })
    }

    /// MonetDB `reverse`: swap head and tail. Requires a `u32` tail (which
    /// becomes the new head). The old head is materialized into the new tail.
    pub fn reverse(&self) -> Result<Bat> {
        let new_head = self.tail.as_u32()?.to_vec();
        let new_tail = Column::U32(self.head_oids());
        Bat::new(new_head, new_tail)
    }

    /// MonetDB `mirror`: a BAT mapping each head oid to itself.
    pub fn mirror(&self) -> Bat {
        let oids = self.head_oids();
        Bat::new(oids.clone(), Column::U32(oids)).expect("equal lengths")
    }

    /// Payload bytes (tail plus materialized head); void heads are free.
    pub fn byte_size(&self) -> usize {
        let head_bytes = match &self.head {
            Head::Void { .. } => 0,
            Head::Oids(v) => v.len() * std::mem::size_of::<u32>(),
        };
        head_bytes + self.tail.byte_size()
    }

    /// Binary-search the position range `[lo_pos, hi_pos)` of tail values in
    /// `[lo, hi]`. Requires an ascending-sorted tail.
    pub fn sorted_range(&self, lo: &Scalar, hi: &Scalar) -> Result<(usize, usize)> {
        if !self.props.tail_sorted_asc {
            return Err(StorageError::NotSorted);
        }
        let n = self.len();
        let cmp_at = |pos: usize, bound: &Scalar| -> std::cmp::Ordering {
            // Types are validated by the first comparison; a mismatch makes
            // partition_point see Ordering::Less uniformly, caught below.
            self.tail
                .get(pos)
                .ok()
                .and_then(|v| v.total_cmp(bound).ok())
                .unwrap_or(std::cmp::Ordering::Less)
        };
        if n > 0 {
            // Validate bound types eagerly for a clean error.
            self.tail.get(0)?.total_cmp(lo)?;
            self.tail.get(0)?.total_cmp(hi)?;
        }
        let start = partition_point(n, |p| cmp_at(p, lo) == std::cmp::Ordering::Less);
        let end = partition_point(n, |p| cmp_at(p, hi) != std::cmp::Ordering::Greater);
        Ok((start, end.max(start)))
    }
}

/// Generic partition point over positions `0..n`.
fn partition_point(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn compute_sortedness(tail: &Column, props: &mut Props) {
    props.tail_sorted_asc = tail.is_sorted_asc();
    props.tail_sorted_desc = match tail {
        Column::U32(v) => v.windows(2).all(|w| w[0] >= w[1]),
        Column::U64(v) => v.windows(2).all(|w| w[0] >= w[1]),
        Column::F64(v) => v
            .windows(2)
            .all(|w| w[0].total_cmp(&w[1]) != std::cmp::Ordering::Less),
        Column::Str(v) => v.windows(2).all(|w| w[0] >= w[1]),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bat_u32(v: Vec<u32>) -> Bat {
        Bat::dense(Column::from(v))
    }

    #[test]
    fn dense_head_oids() {
        let b = bat_u32(vec![5, 6, 7]);
        assert_eq!(b.head_oids(), vec![0, 1, 2]);
        assert_eq!(b.head_oid(2).unwrap(), 2);
        assert!(b.props().head_dense);
    }

    #[test]
    fn dense_from_base() {
        let b = Bat::dense_from(100, Column::from(vec![1u32, 2]));
        assert_eq!(b.head_oids(), vec![100, 101]);
    }

    #[test]
    fn new_length_mismatch() {
        let r = Bat::new(vec![1, 2], Column::from(vec![1u32]));
        assert!(matches!(r, Err(StorageError::LengthMismatch { .. })));
    }

    #[test]
    fn sortedness_props() {
        assert!(bat_u32(vec![1, 2, 3]).props().tail_sorted_asc);
        assert!(bat_u32(vec![3, 2, 1]).props().tail_sorted_desc);
        let both = bat_u32(vec![2, 2]);
        assert!(both.props().tail_sorted_asc && both.props().tail_sorted_desc);
        let neither = bat_u32(vec![1, 3, 2]);
        assert!(!neither.props().tail_sorted_asc && !neither.props().tail_sorted_desc);
    }

    #[test]
    fn iter_yields_pairs() {
        let b = Bat::new(vec![9, 8], Column::from(vec![1.0f64, 2.0])).unwrap();
        let pairs: Vec<_> = b.iter().collect();
        assert_eq!(pairs[0], (9, Scalar::F64(1.0)));
        assert_eq!(pairs[1], (8, Scalar::F64(2.0)));
    }

    #[test]
    fn gather_and_slice() {
        let b = bat_u32(vec![10, 20, 30, 40]);
        let g = b.gather(&[2, 0]).unwrap();
        assert_eq!(g.head_oids(), vec![2, 0]);
        assert_eq!(g.tail().as_u32().unwrap(), &[30, 10]);

        let s = b.slice(1, 3).unwrap();
        assert_eq!(s.head_oids(), vec![1, 2]);
        assert_eq!(s.tail().as_u32().unwrap(), &[20, 30]);
        assert!(s.props().head_dense);
    }

    #[test]
    fn reverse_swaps_columns() {
        let b = Bat::new(vec![1, 2], Column::from(vec![10u32, 20])).unwrap();
        let r = b.reverse().unwrap();
        assert_eq!(r.head_oids(), vec![10, 20]);
        assert_eq!(r.tail().as_u32().unwrap(), &[1, 2]);
    }

    #[test]
    fn reverse_requires_u32_tail() {
        let b = Bat::dense(Column::from(vec![1.0f64]));
        assert!(b.reverse().is_err());
    }

    #[test]
    fn mirror_maps_oids_to_themselves() {
        let b = Bat::new(vec![3, 5], Column::from(vec![0.0f64, 1.0])).unwrap();
        let m = b.mirror();
        assert_eq!(m.head_oids(), vec![3, 5]);
        assert_eq!(m.tail().as_u32().unwrap(), &[3, 5]);
    }

    #[test]
    fn sorted_range_binary_search() {
        let b = bat_u32(vec![1, 3, 3, 5, 9]);
        let (s, e) = b.sorted_range(&Scalar::U32(3), &Scalar::U32(5)).unwrap();
        assert_eq!((s, e), (1, 4));
        let (s, e) = b.sorted_range(&Scalar::U32(6), &Scalar::U32(8)).unwrap();
        assert_eq!(s, e); // empty range
        let (s, e) = b.sorted_range(&Scalar::U32(0), &Scalar::U32(100)).unwrap();
        assert_eq!((s, e), (0, 5));
    }

    #[test]
    fn sorted_range_rejects_unsorted() {
        let b = bat_u32(vec![5, 1]);
        assert!(matches!(
            b.sorted_range(&Scalar::U32(0), &Scalar::U32(9)),
            Err(StorageError::NotSorted)
        ));
    }

    #[test]
    fn sorted_range_rejects_bound_type_mismatch() {
        let b = bat_u32(vec![1, 2]);
        assert!(b
            .sorted_range(&Scalar::F64(0.0), &Scalar::F64(1.0))
            .is_err());
    }

    #[test]
    fn byte_size_void_head_is_free() {
        let dense = bat_u32(vec![1, 2, 3, 4]);
        let mat = Bat::new(vec![0, 1, 2, 3], Column::from(vec![1u32, 2, 3, 4])).unwrap();
        assert_eq!(dense.byte_size(), 16);
        assert_eq!(mat.byte_size(), 32);
    }

    #[test]
    fn out_of_bounds_access() {
        let b = bat_u32(vec![1]);
        assert!(b.head_oid(1).is_err());
        assert!(b.tail_value(1).is_err());
    }
}
