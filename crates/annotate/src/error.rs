//! Typed errors for the annotation substrate.

use std::fmt;

/// Failures in annotation-side training.
#[derive(Debug, Clone, PartialEq)]
pub enum AnnotateError {
    /// The training corpus (or its training split) contained no images.
    EmptyCorpus,
    /// Inputs and labels differ in length, or a label is neither 0 nor 1.
    MalformedTrainingSet,
    /// CNN training produced a non-finite epoch loss (NaN learning
    /// rate, exploding gradients…); the resulting network is unusable.
    TrainingDiverged {
        /// The first non-finite epoch loss observed.
        loss: f64,
        /// Epochs completed when divergence was detected.
        epochs: usize,
    },
}

impl fmt::Display for AnnotateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyCorpus => write!(f, "training corpus is empty"),
            Self::MalformedTrainingSet => {
                write!(f, "training inputs and 0/1 labels do not pair up")
            }
            Self::TrainingDiverged { loss, epochs } => write!(
                f,
                "CNN training diverged (loss {loss} within {epochs} epochs)"
            ),
        }
    }
}

impl std::error::Error for AnnotateError {}
