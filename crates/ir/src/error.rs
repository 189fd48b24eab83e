//! IR construction and validation errors.

use std::error::Error;
use std::fmt;

/// Error produced while building or validating a computational graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IrError {
    /// A reshape target shape does not preserve the element count.
    ReshapeNumelMismatch {
        /// Elements in the input shape.
        from: u64,
        /// Elements in the requested output shape.
        to: u64,
    },
    /// A permutation is not a bijection over `0..rank`.
    InvalidPermutation {
        /// The offending permutation.
        perm: Vec<usize>,
        /// The expected rank.
        rank: usize,
    },
    /// Two operand shapes cannot be broadcast together.
    BroadcastMismatch {
        /// Left shape rendered as text.
        lhs: String,
        /// Right shape rendered as text.
        rhs: String,
    },
    /// An axis index is out of range for the operand rank.
    AxisOutOfRange {
        /// The requested axis.
        axis: usize,
        /// The operand rank.
        rank: usize,
    },
    /// Generic shape error with a human-readable explanation.
    Shape(String),
    /// Reference to a tensor that does not exist in the graph.
    UnknownTensor(u32),
    /// The graph contains a cycle (should be impossible via the builder).
    Cyclic,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::ReshapeNumelMismatch { from, to } => {
                write!(f, "reshape changes element count from {from} to {to}")
            }
            IrError::InvalidPermutation { perm, rank } => {
                write!(f, "permutation {perm:?} is not a bijection over 0..{rank}")
            }
            IrError::BroadcastMismatch { lhs, rhs } => {
                write!(f, "shapes {lhs} and {rhs} cannot be broadcast together")
            }
            IrError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            IrError::Shape(msg) => write!(f, "shape error: {msg}"),
            IrError::UnknownTensor(id) => write!(f, "unknown tensor id {id}"),
            IrError::Cyclic => write!(f, "graph contains a cycle"),
        }
    }
}

impl Error for IrError {}

/// Error produced while importing an external graph description
/// (see [`crate::import`]).
///
/// Every malformed input — truncated files, unknown operators, dangling
/// tensor references, cycles, dtype mismatches, bad initializers —
/// surfaces as one of these variants; the importer never panics on
/// untrusted input.
#[derive(Clone, Debug, PartialEq)]
pub enum ImportError {
    /// The input is not well-formed JSON (byte offset of the failure).
    Parse {
        /// Byte offset where parsing failed.
        offset: usize,
        /// What the parser expected or found.
        msg: String,
    },
    /// A required field is absent.
    MissingField {
        /// The object missing the field (`"graph"`, `"tensor"`, `"op"`).
        object: &'static str,
        /// The field name.
        field: &'static str,
    },
    /// A field holds a value of the wrong type or out-of-range content.
    BadField {
        /// The offending field.
        field: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An operator kind the importer does not know.
    UnknownOp(String),
    /// A dtype string the importer does not know.
    UnknownDType(String),
    /// An edge references a tensor name that is never defined
    /// (dangling edge id).
    UnknownTensor(String),
    /// Two tensors (declared or op outputs) share a name.
    DuplicateTensor(String),
    /// The op dependency graph contains a cycle.
    Cycle(String),
    /// Operands of one operator disagree on element type.
    DTypeMismatch {
        /// The operator kind.
        op: String,
        /// First operand type seen.
        lhs: String,
        /// Conflicting operand type.
        rhs: String,
    },
    /// An initializer's length does not match its tensor's shape.
    BadInit {
        /// The tensor name.
        tensor: String,
        /// Elements the shape requires.
        expected: u64,
        /// Elements the initializer provided.
        got: usize,
    },
    /// An op declared the wrong number of outputs for its kind.
    ArityMismatch {
        /// The operator kind.
        op: String,
        /// Outputs the operator produces.
        expected: usize,
        /// Outputs the description declared.
        got: usize,
    },
    /// Shape inference rejected the operator (wraps [`IrError`]).
    Graph(IrError),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Parse { offset, msg } => {
                write!(f, "JSON parse error at byte {offset}: {msg}")
            }
            ImportError::MissingField { object, field } => {
                write!(f, "{object} is missing required field `{field}`")
            }
            ImportError::BadField { field, expected } => {
                write!(f, "field `{field}`: expected {expected}")
            }
            ImportError::UnknownOp(kind) => write!(f, "unknown operator kind `{kind}`"),
            ImportError::UnknownDType(d) => write!(f, "unknown dtype `{d}`"),
            ImportError::UnknownTensor(name) => {
                write!(f, "reference to undefined tensor `{name}`")
            }
            ImportError::DuplicateTensor(name) => {
                write!(f, "tensor name `{name}` defined more than once")
            }
            ImportError::Cycle(detail) => write!(f, "op dependencies contain a cycle: {detail}"),
            ImportError::DTypeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: operand dtypes disagree ({lhs} vs {rhs})")
            }
            ImportError::BadInit { tensor, expected, got } => {
                write!(f, "tensor `{tensor}`: initializer has {got} values, shape needs {expected}")
            }
            ImportError::ArityMismatch { op, expected, got } => {
                write!(f, "{op}: declares {got} outputs, operator produces {expected}")
            }
            ImportError::Graph(e) => write!(f, "shape inference rejected the graph: {e}"),
        }
    }
}

impl Error for ImportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ImportError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for ImportError {
    fn from(e: IrError) -> Self {
        ImportError::Graph(e)
    }
}

impl From<smartmem_json::JsonError> for ImportError {
    fn from(e: smartmem_json::JsonError) -> Self {
        ImportError::Parse { offset: e.offset, msg: e.msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = IrError::ReshapeNumelMismatch { from: 8, to: 9 };
        assert!(e.to_string().contains("8"));
        let e = IrError::AxisOutOfRange { axis: 5, rank: 3 };
        assert!(e.to_string().contains("axis 5"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err<E: std::error::Error + Send + Sync>(_e: E) {}
        takes_err(IrError::Cyclic);
    }
}
