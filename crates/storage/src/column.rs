//! Typed column vectors: the tail storage of a BAT.
//!
//! A [`Column`] is a densely packed, homogeneously typed vector. Columns are
//! deliberately simple: typed accessors, positional gather and slice, and
//! sortedness checks.

use std::fmt;

use crate::error::{Result, StorageError};

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 32-bit unsigned integers (object ids, term ids, term frequencies).
    U32,
    /// 64-bit unsigned integers (counters, volumes).
    U64,
    /// 64-bit floats (scores, probabilities).
    F64,
    /// UTF-8 strings (terms, names).
    Str,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::U32 => "u32",
            ColumnType::U64 => "u64",
            ColumnType::F64 => "f64",
            ColumnType::Str => "str",
        };
        f.write_str(s)
    }
}

/// A single value held by a column.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A `u32` value.
    U32(u32),
    /// A `u64` value.
    U64(u64),
    /// An `f64` value.
    F64(f64),
    /// A string value.
    Str(String),
}

impl Scalar {
    /// The column type this scalar belongs to.
    pub fn ty(&self) -> ColumnType {
        match self {
            Scalar::U32(_) => ColumnType::U32,
            Scalar::U64(_) => ColumnType::U64,
            Scalar::F64(_) => ColumnType::F64,
            Scalar::Str(_) => ColumnType::Str,
        }
    }

    /// Total order over scalars of the same type. `f64` uses `total_cmp`,
    /// so NaN sorts after all other values and comparisons never panic.
    pub fn total_cmp(&self, other: &Scalar) -> Result<std::cmp::Ordering> {
        match (self, other) {
            (Scalar::U32(a), Scalar::U32(b)) => Ok(a.cmp(b)),
            (Scalar::U64(a), Scalar::U64(b)) => Ok(a.cmp(b)),
            (Scalar::F64(a), Scalar::F64(b)) => Ok(a.total_cmp(b)),
            (Scalar::Str(a), Scalar::Str(b)) => Ok(a.cmp(b)),
            _ => Err(StorageError::TypeMismatch {
                expected: self.ty(),
                found: other.ty(),
            }),
        }
    }

    /// Interpret the scalar as `f64` when it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::U32(v) => Some(f64::from(*v)),
            Scalar::U64(v) => Some(*v as f64),
            Scalar::F64(v) => Some(*v),
            Scalar::Str(_) => None,
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::U32(v) => write!(f, "{v}"),
            Scalar::U64(v) => write!(f, "{v}"),
            Scalar::F64(v) => write!(f, "{v}"),
            Scalar::Str(v) => write!(f, "{v:?}"),
        }
    }
}

impl From<u32> for Scalar {
    fn from(v: u32) -> Self {
        Scalar::U32(v)
    }
}
impl From<u64> for Scalar {
    fn from(v: u64) -> Self {
        Scalar::U64(v)
    }
}
impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::F64(v)
    }
}
impl From<&str> for Scalar {
    fn from(v: &str) -> Self {
        Scalar::Str(v.to_owned())
    }
}
impl From<String> for Scalar {
    fn from(v: String) -> Self {
        Scalar::Str(v)
    }
}

/// A typed, densely packed vector of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// `u32` values.
    U32(Vec<u32>),
    /// `u64` values.
    U64(Vec<u64>),
    /// `f64` values.
    F64(Vec<f64>),
    /// String values.
    Str(Vec<String>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn empty(ty: ColumnType) -> Self {
        match ty {
            ColumnType::U32 => Column::U32(Vec::new()),
            ColumnType::U64 => Column::U64(Vec::new()),
            ColumnType::F64 => Column::F64(Vec::new()),
            ColumnType::Str => Column::Str(Vec::new()),
        }
    }

    /// Create an empty column with reserved capacity.
    pub fn with_capacity(ty: ColumnType, cap: usize) -> Self {
        match ty {
            ColumnType::U32 => Column::U32(Vec::with_capacity(cap)),
            ColumnType::U64 => Column::U64(Vec::with_capacity(cap)),
            ColumnType::F64 => Column::F64(Vec::with_capacity(cap)),
            ColumnType::Str => Column::Str(Vec::with_capacity(cap)),
        }
    }

    /// The type of this column.
    pub fn ty(&self) -> ColumnType {
        match self {
            Column::U32(_) => ColumnType::U32,
            Column::U64(_) => ColumnType::U64,
            Column::F64(_) => ColumnType::F64,
            Column::Str(_) => ColumnType::Str,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::U32(v) => v.len(),
            Column::U64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the value at `pos`.
    pub fn get(&self, pos: usize) -> Result<Scalar> {
        if pos >= self.len() {
            return Err(StorageError::OutOfBounds {
                pos,
                len: self.len(),
            });
        }
        Ok(match self {
            Column::U32(v) => Scalar::U32(v[pos]),
            Column::U64(v) => Scalar::U64(v[pos]),
            Column::F64(v) => Scalar::F64(v[pos]),
            Column::Str(v) => Scalar::Str(v[pos].clone()),
        })
    }

    /// Append a scalar; the scalar type must match the column type.
    pub fn push(&mut self, value: Scalar) -> Result<()> {
        match (self, value) {
            (Column::U32(v), Scalar::U32(x)) => v.push(x),
            (Column::U64(v), Scalar::U64(x)) => v.push(x),
            (Column::F64(v), Scalar::F64(x)) => v.push(x),
            (Column::Str(v), Scalar::Str(x)) => v.push(x),
            (col, _) => {
                return Err(StorageError::ScalarType { expected: col.ty() });
            }
        }
        Ok(())
    }

    /// Borrow as `&[u32]`, failing on other types.
    pub fn as_u32(&self) -> Result<&[u32]> {
        match self {
            Column::U32(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: ColumnType::U32,
                found: other.ty(),
            }),
        }
    }

    /// Borrow as `&[u64]`, failing on other types.
    pub fn as_u64(&self) -> Result<&[u64]> {
        match self {
            Column::U64(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: ColumnType::U64,
                found: other.ty(),
            }),
        }
    }

    /// Borrow as `&[f64]`, failing on other types.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            Column::F64(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: ColumnType::F64,
                found: other.ty(),
            }),
        }
    }

    /// Borrow as `&[String]`, failing on other types.
    pub fn as_str(&self) -> Result<&[String]> {
        match self {
            Column::Str(v) => Ok(v),
            other => Err(StorageError::TypeMismatch {
                expected: ColumnType::Str,
                found: other.ty(),
            }),
        }
    }

    /// Gather `positions` into a new column (positional projection).
    pub fn gather(&self, positions: &[usize]) -> Result<Column> {
        for &p in positions {
            if p >= self.len() {
                return Err(StorageError::OutOfBounds {
                    pos: p,
                    len: self.len(),
                });
            }
        }
        Ok(match self {
            Column::U32(v) => Column::U32(positions.iter().map(|&p| v[p]).collect()),
            Column::U64(v) => Column::U64(positions.iter().map(|&p| v[p]).collect()),
            Column::F64(v) => Column::F64(positions.iter().map(|&p| v[p]).collect()),
            Column::Str(v) => Column::Str(positions.iter().map(|&p| v[p].clone()).collect()),
        })
    }

    /// Take a contiguous slice `[start, end)` as a new column.
    pub fn slice(&self, start: usize, end: usize) -> Result<Column> {
        if start > end || end > self.len() {
            return Err(StorageError::OutOfBounds {
                pos: end,
                len: self.len(),
            });
        }
        Ok(match self {
            Column::U32(v) => Column::U32(v[start..end].to_vec()),
            Column::U64(v) => Column::U64(v[start..end].to_vec()),
            Column::F64(v) => Column::F64(v[start..end].to_vec()),
            Column::Str(v) => Column::Str(v[start..end].to_vec()),
        })
    }

    /// Whether values are non-decreasing under the total order.
    pub fn is_sorted_asc(&self) -> bool {
        match self {
            Column::U32(v) => v.windows(2).all(|w| w[0] <= w[1]),
            Column::U64(v) => v.windows(2).all(|w| w[0] <= w[1]),
            Column::F64(v) => v
                .windows(2)
                .all(|w| w[0].total_cmp(&w[1]) != std::cmp::Ordering::Greater),
            Column::Str(v) => v.windows(2).all(|w| w[0] <= w[1]),
        }
    }

    /// Heap size in bytes of the packed payload (used by the cost model and
    /// by the fragmentation volume accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            Column::U32(v) => v.len() * std::mem::size_of::<u32>(),
            Column::U64(v) => v.len() * std::mem::size_of::<u64>(),
            Column::F64(v) => v.len() * std::mem::size_of::<f64>(),
            Column::Str(v) => v
                .iter()
                .map(|s| s.len() + std::mem::size_of::<String>())
                .sum(),
        }
    }
}

impl From<Vec<u32>> for Column {
    fn from(v: Vec<u32>) -> Self {
        Column::U32(v)
    }
}
impl From<Vec<u64>> for Column {
    fn from(v: Vec<u64>) -> Self {
        Column::U64(v)
    }
}
impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::F64(v)
    }
}
impl From<Vec<String>> for Column {
    fn from(v: Vec<String>) -> Self {
        Column::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut c = Column::empty(ColumnType::U32);
        c.push(Scalar::U32(7)).unwrap();
        c.push(Scalar::U32(9)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).unwrap(), Scalar::U32(9));
    }

    #[test]
    fn push_wrong_type_fails() {
        let mut c = Column::empty(ColumnType::U32);
        let err = c.push(Scalar::F64(1.0)).unwrap_err();
        assert_eq!(
            err,
            StorageError::ScalarType {
                expected: ColumnType::U32
            }
        );
    }

    #[test]
    fn get_out_of_bounds() {
        let c = Column::from(vec![1u32]);
        assert!(matches!(
            c.get(3),
            Err(StorageError::OutOfBounds { pos: 3, len: 1 })
        ));
    }

    #[test]
    fn gather_projects_positions() {
        let c = Column::from(vec![10u32, 20, 30, 40]);
        let g = c.gather(&[3, 0, 0]).unwrap();
        assert_eq!(g, Column::from(vec![40u32, 10, 10]));
    }

    #[test]
    fn gather_out_of_bounds() {
        let c = Column::from(vec![1.0f64]);
        assert!(c.gather(&[1]).is_err());
    }

    #[test]
    fn slice_bounds() {
        let c = Column::from(vec![1u32, 2, 3, 4]);
        assert_eq!(c.slice(1, 3).unwrap(), Column::from(vec![2u32, 3]));
        assert!(c.slice(3, 2).is_err());
        assert!(c.slice(0, 5).is_err());
    }

    #[test]
    fn sortedness_checks() {
        assert!(Column::from(vec![1u32, 1, 2]).is_sorted_asc());
        assert!(!Column::from(vec![2u32, 1]).is_sorted_asc());
        assert!(Column::from(vec![1.0f64, f64::NAN]).is_sorted_asc());
        assert!(Column::from(Vec::<u32>::new()).is_sorted_asc());
    }

    #[test]
    fn scalar_total_cmp_numeric_and_mismatch() {
        use std::cmp::Ordering;
        assert_eq!(
            Scalar::F64(1.0).total_cmp(&Scalar::F64(2.0)).unwrap(),
            Ordering::Less
        );
        assert!(Scalar::U32(1).total_cmp(&Scalar::F64(1.0)).is_err());
    }

    #[test]
    fn scalar_as_f64() {
        assert_eq!(Scalar::U32(3).as_f64(), Some(3.0));
        assert_eq!(Scalar::U64(4).as_f64(), Some(4.0));
        assert_eq!(Scalar::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn byte_size_counts_payload() {
        assert_eq!(Column::from(vec![0u32; 8]).byte_size(), 32);
        assert_eq!(Column::from(vec![0.0f64; 8]).byte_size(), 64);
    }

    #[test]
    fn typed_accessors() {
        let c = Column::from(vec![1.5f64, 2.5]);
        assert_eq!(c.as_f64().unwrap(), &[1.5, 2.5]);
        assert!(c.as_u32().is_err());
        assert!(c.as_u64().is_err());
        assert!(c.as_str().is_err());
    }
}
