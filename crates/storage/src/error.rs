//! Error types for the storage kernels.

use std::fmt;

/// Errors produced by the storage kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An operation that requires a sorted column received an unsorted one.
    NotSorted,
    /// An operation that requires a non-empty input received an empty one.
    Empty,
    /// Invalid argument (with human-readable context).
    InvalidArgument(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotSorted => write!(f, "operation requires a sorted column"),
            StorageError::Empty => write!(f, "operation requires a non-empty input"),
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
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&StorageError::Empty);
    }
}
