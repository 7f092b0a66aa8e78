//! Dataset-level validation, run once per generated graph.
//!
//! [`Dataset::validate`](crate::csbm::Dataset::validate) combines the
//! structural checks of `sgnn_sparse::validate` (applied to the adjacency)
//! with the invariants the training stack assumes: finite features with one
//! row per node, labels inside `[0, num_classes)`, and pairwise-disjoint
//! in-bounds splits. [`crate::registry::DatasetSpec::generate`] calls it on
//! every load so a bad graph fails at the boundary with a typed error
//! instead of corrupting a training run.

use std::fmt;

use sgnn_obs as obs;

use crate::csbm::Dataset;
use crate::splits::Splits;

/// Datasets that passed the once-per-load validation gate.
static DATA_VALIDATED: obs::Counter = obs::Counter::new("data.validated");

/// First invariant a dataset violates.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum ValidationError {
    /// The adjacency matrix is structurally broken.
    Graph(sgnn_sparse::validate::ValidationError),
    /// The feature matrix must have one row per node.
    FeatureRows { nodes: usize, got: usize },
    /// A feature entry is NaN or infinite.
    NonFiniteFeature { row: usize, col: usize },
    /// There must be exactly one label per node.
    LabelCount { nodes: usize, got: usize },
    /// A label is `>= num_classes`.
    LabelOutOfRange {
        node: usize,
        label: u32,
        classes: usize,
    },
    /// A split references a node index `>= nodes`.
    SplitIndexOutOfBounds {
        split: &'static str,
        index: u32,
        nodes: usize,
    },
    /// A node appears in more than one split.
    SplitsOverlap { node: u32 },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Graph(e) => write!(f, "adjacency: {e}"),
            Self::FeatureRows { nodes, got } => {
                write!(f, "feature matrix has {got} rows for {nodes} nodes")
            }
            Self::NonFiniteFeature { row, col } => {
                write!(f, "non-finite feature at ({row}, {col})")
            }
            Self::LabelCount { nodes, got } => {
                write!(f, "{got} labels for {nodes} nodes")
            }
            Self::LabelOutOfRange {
                node,
                label,
                classes,
            } => {
                write!(f, "node {node} has label {label} >= {classes} classes")
            }
            Self::SplitIndexOutOfBounds {
                split,
                index,
                nodes,
            } => {
                write!(f, "{split} split references node {index} >= {nodes}")
            }
            Self::SplitsOverlap { node } => {
                write!(f, "node {node} appears in more than one split")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<sgnn_sparse::validate::ValidationError> for ValidationError {
    fn from(e: sgnn_sparse::validate::ValidationError) -> Self {
        Self::Graph(e)
    }
}

fn check_split(name: &'static str, idx: &[u32], marks: &mut [u8]) -> Result<(), ValidationError> {
    for &i in idx {
        let Some(mark) = marks.get_mut(i as usize) else {
            return Err(ValidationError::SplitIndexOutOfBounds {
                split: name,
                index: i,
                nodes: marks.len(),
            });
        };
        if *mark != 0 {
            return Err(ValidationError::SplitsOverlap { node: i });
        }
        *mark = 1;
    }
    Ok(())
}

impl Dataset {
    /// Checks every invariant the training stack assumes. Returns the first
    /// violation; see [`ValidationError`] for the catalogue.
    pub(crate) fn validate(&self) -> Result<(), ValidationError> {
        let n = self.nodes();
        self.graph.adjacency().validate()?;
        if self.features.rows() != n {
            return Err(ValidationError::FeatureRows {
                nodes: n,
                got: self.features.rows(),
            });
        }
        for r in 0..n {
            if let Some(c) = self.features.row(r).iter().position(|v| !v.is_finite()) {
                return Err(ValidationError::NonFiniteFeature { row: r, col: c });
            }
        }
        if self.labels.len() != n {
            return Err(ValidationError::LabelCount {
                nodes: n,
                got: self.labels.len(),
            });
        }
        for (node, &label) in self.labels.iter().enumerate() {
            if (label as usize) >= self.num_classes {
                return Err(ValidationError::LabelOutOfRange {
                    node,
                    label,
                    classes: self.num_classes,
                });
            }
        }
        let Splits { train, valid, test } = &self.splits;
        let mut marks = vec![0u8; n];
        check_split("train", train, &mut marks)?;
        check_split("valid", valid, &mut marks)?;
        check_split("test", test, &mut marks)?;
        DATA_VALIDATED.incr();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{dataset_spec, GenScale};

    fn tiny() -> Dataset {
        dataset_spec("cora").unwrap().generate(GenScale::Tiny, 0)
    }

    #[test]
    fn generated_datasets_pass() {
        assert_eq!(tiny().validate(), Ok(()));
    }

    #[test]
    fn non_finite_feature_is_rejected_with_its_position() {
        let mut d = tiny();
        d.features.set(3, 2, f32::NAN);
        assert_eq!(
            d.validate(),
            Err(ValidationError::NonFiniteFeature { row: 3, col: 2 })
        );
    }

    #[test]
    fn out_of_range_label_is_rejected() {
        let mut d = tiny();
        let classes = d.num_classes;
        d.labels[7] = classes as u32;
        assert_eq!(
            d.validate(),
            Err(ValidationError::LabelOutOfRange {
                node: 7,
                label: classes as u32,
                classes,
            })
        );
    }

    #[test]
    fn wrong_label_count_is_rejected() {
        let mut d = tiny();
        let n = d.nodes();
        d.labels.pop();
        assert_eq!(
            d.validate(),
            Err(ValidationError::LabelCount {
                nodes: n,
                got: n - 1
            })
        );
    }

    #[test]
    fn overlapping_splits_are_rejected() {
        let mut d = tiny();
        let stolen = d.splits.train[0];
        d.splits.test.push(stolen);
        assert_eq!(
            d.validate(),
            Err(ValidationError::SplitsOverlap { node: stolen })
        );
    }

    #[test]
    fn split_index_past_the_graph_is_rejected() {
        let mut d = tiny();
        let n = d.nodes();
        d.splits.valid.push(n as u32);
        assert_eq!(
            d.validate(),
            Err(ValidationError::SplitIndexOutOfBounds {
                split: "valid",
                index: n as u32,
                nodes: n,
            })
        );
    }
}
