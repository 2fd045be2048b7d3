//! Error types for the storage kernels.

use std::fmt;

use crate::column::ColumnType;

/// Errors produced by the storage kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An operation received a column of the wrong type.
    TypeMismatch {
        /// The type the operation required.
        expected: ColumnType,
        /// The type that was actually supplied.
        found: ColumnType,
    },
    /// Two columns that must be aligned have different lengths.
    LengthMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
    /// A positional access was outside the BAT.
    OutOfBounds {
        /// The requested position.
        pos: usize,
        /// The number of BUNs in the BAT.
        len: usize,
    },
    /// An operation that requires a sorted column received an unsorted one.
    NotSorted,
    /// An operation that requires a non-empty input received an empty one.
    Empty,
    /// A scalar of the wrong variant was supplied (e.g. pushing a string
    /// into a numeric column).
    ScalarType {
        /// The column type of the target.
        expected: ColumnType,
    },
    /// Invalid argument (with human-readable context).
    InvalidArgument(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            StorageError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            StorageError::OutOfBounds { pos, len } => {
                write!(f, "position {pos} out of bounds for BAT of {len} BUNs")
            }
            StorageError::NotSorted => write!(f, "operation requires a sorted column"),
            StorageError::Empty => write!(f, "operation requires a non-empty input"),
            StorageError::ScalarType { expected } => {
                write!(f, "scalar does not match column type {expected}")
            }
            StorageError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenient result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_type_mismatch() {
        let e = StorageError::TypeMismatch {
            expected: ColumnType::U32,
            found: ColumnType::F64,
        };
        assert_eq!(e.to_string(), "type mismatch: expected u32, found f64");
    }

    #[test]
    fn display_out_of_bounds() {
        let e = StorageError::OutOfBounds { pos: 7, len: 3 };
        assert_eq!(e.to_string(), "position 7 out of bounds for BAT of 3 BUNs");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&StorageError::Empty);
    }
}
