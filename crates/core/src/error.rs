//! Error types for the algebra layer.

use std::fmt;

use crate::expr::ExtensionId;

/// Errors produced by type checking, optimization or evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A type error (with human-readable context).
    Type(String),
    /// An operator unknown to its extension.
    UnknownOp {
        /// The extension addressed.
        ext: ExtensionId,
        /// The unknown operator name.
        op: String,
    },
    /// Wrong number of arguments for an operator.
    Arity {
        /// The extension addressed.
        ext: ExtensionId,
        /// The operator.
        op: String,
        /// Arguments required.
        expected: usize,
        /// Arguments supplied.
        found: usize,
    },
    /// A free variable with no binding in the environment.
    UnboundVar(String),
    /// The MM extension was used without an attached IR runtime.
    NoIrRuntime,
    /// Error from the IR engine.
    Ir(moa_ir::IrError),
    /// Any other runtime error.
    Runtime(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Type(msg) => write!(f, "type error: {msg}"),
            CoreError::UnknownOp { ext, op } => write!(f, "unknown operator {ext:?}.{op}"),
            CoreError::Arity {
                ext,
                op,
                expected,
                found,
            } => write!(f, "{ext:?}.{op} expects {expected} arguments, got {found}"),
            CoreError::UnboundVar(name) => write!(f, "unbound variable: {name}"),
            CoreError::NoIrRuntime => {
                write!(f, "MMRANK operators require an attached IR runtime")
            }
            CoreError::Ir(e) => write!(f, "IR error: {e}"),
            CoreError::Runtime(msg) => write!(f, "runtime error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Ir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<moa_ir::IrError> for CoreError {
    fn from(e: moa_ir::IrError) -> Self {
        CoreError::Ir(e)
    }
}

/// Result alias for algebra operations.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::Type("bad".into()).to_string().contains("bad"));
        let e = CoreError::UnknownOp {
            ext: ExtensionId::List,
            op: "frobnicate".into(),
        };
        assert!(e.to_string().contains("frobnicate"));
        let e = CoreError::Arity {
            ext: ExtensionId::Bag,
            op: "select".into(),
            expected: 3,
            found: 1,
        };
        assert!(e.to_string().contains("expects 3"));
        assert!(CoreError::NoIrRuntime.to_string().contains("IR runtime"));
    }

    #[test]
    fn conversions_chain_sources() {
        use std::error::Error;
        let e: CoreError = moa_ir::IrError::UnknownTerm(3).into();
        assert!(e.source().is_some());
        assert!(CoreError::UnboundVar("x".into()).source().is_none());
    }
}
