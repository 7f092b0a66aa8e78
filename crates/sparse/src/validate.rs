//! Typed structural validation of sparse inputs.
//!
//! Construction paths like `Coo::into_csr`
//! produce well-formed matrices by design, but data that enters the system
//! from outside (edge lists, generated datasets, deserialized artifacts)
//! gets checked once at the load boundary instead of panicking deep inside a
//! kernel. [`ValidationError`] names the first violated invariant precisely
//! enough to debug the offending input.

use std::fmt;

/// First structural invariant a sparse input violates.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// `indptr` must hold exactly `rows + 1` entries.
    IndptrLength { expected: usize, got: usize },
    /// `indptr` must be non-decreasing; first offending row boundary.
    IndptrNotMonotone { row: usize },
    /// The final `indptr` entry must equal `nnz`.
    IndptrEnd { expected: usize, got: usize },
    /// A stored column index is `>= cols`.
    ColumnOutOfBounds { row: usize, col: u32, cols: usize },
    /// A row's column indices are not strictly increasing (unsorted or
    /// duplicated).
    ColumnsNotSortedUnique { row: usize },
    /// A stored value is NaN or infinite.
    NonFiniteValue { row: usize, col: u32 },
    /// A COO triplet's indices exceed the declared shape.
    EntryOutOfBounds {
        index: usize,
        row: u32,
        col: u32,
        rows: usize,
        cols: usize,
    },
    /// A COO triplet's value is NaN or infinite.
    NonFiniteEntry { index: usize, row: u32, col: u32 },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::IndptrLength { expected, got } => {
                write!(f, "indptr has {got} entries, expected {expected}")
            }
            Self::IndptrNotMonotone { row } => {
                write!(f, "indptr decreases at row {row}")
            }
            Self::IndptrEnd { expected, got } => {
                write!(f, "indptr ends at {got}, expected nnz = {expected}")
            }
            Self::ColumnOutOfBounds { row, col, cols } => {
                write!(f, "row {row} stores column {col} >= cols {cols}")
            }
            Self::ColumnsNotSortedUnique { row } => {
                write!(f, "row {row} has unsorted or duplicate column indices")
            }
            Self::NonFiniteValue { row, col } => {
                write!(f, "non-finite value at ({row}, {col})")
            }
            Self::EntryOutOfBounds {
                index,
                row,
                col,
                rows,
                cols,
            } => {
                write!(
                    f,
                    "triplet #{index} = ({row}, {col}) outside declared shape {rows}x{cols}"
                )
            }
            Self::NonFiniteEntry { index, row, col } => {
                write!(
                    f,
                    "triplet #{index} at ({row}, {col}) has a non-finite value"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}
