//! Error handling for the in-situ analysis library.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while configuring or running an in-situ analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A temporal or spatial range was empty or malformed.
    InvalidRange {
        /// Human readable description of the offending range.
        what: String,
    },
    /// A model or trainer hyper-parameter was out of its valid domain.
    InvalidHyperParameter {
        /// The parameter name.
        name: &'static str,
        /// Human readable description of the constraint that was violated.
        what: String,
    },
    /// An analysis specification was incomplete (e.g. missing provider).
    IncompleteSpec {
        /// Which part of the specification is missing.
        missing: &'static str,
    },
    /// A mini-batch or history did not contain enough samples for the
    /// requested operation.
    NotEnoughData {
        /// How many samples were available.
        available: usize,
        /// How many samples were required.
        required: usize,
    },
    /// Prediction was requested before the model had been trained.
    ModelNotTrained,
    /// An engine handle (region or analysis id) did not refer to a live
    /// entity of this engine.
    UnknownHandle {
        /// What kind of handle was presented ("region", "analysis").
        what: &'static str,
        /// The raw index carried by the handle.
        index: usize,
    },
    /// A region or analysis was registered under a name that is already
    /// taken within its scope.
    DuplicateName {
        /// What kind of entity was being added ("region", "analysis").
        what: &'static str,
        /// The offending name.
        name: String,
    },
    /// A feature could not be derived from the available curve.
    FeatureNotFound {
        /// Human readable description of what was being extracted.
        what: String,
    },
    /// A snapshot byte stream is structurally invalid: bad magic, a torn or
    /// truncated section, a checksum mismatch, trailing bytes, or an
    /// internally inconsistent payload. Restore fails closed — the engine is
    /// left untouched.
    SnapshotCorrupt {
        /// Human readable description of the structural violation.
        what: String,
    },
    /// A snapshot was written by a format version this build does not read.
    SnapshotVersion {
        /// The version recorded in the snapshot header.
        found: u32,
        /// The (single) version this build supports.
        supported: u32,
    },
    /// A structurally valid snapshot does not fit the engine it is being
    /// restored into (different region/analysis layout, model order, a
    /// retired store backend, ...).
    SnapshotMismatch {
        /// Human readable description of the disagreement.
        what: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidRange { what } => write!(f, "invalid range: {what}"),
            Error::InvalidHyperParameter { name, what } => {
                write!(f, "invalid hyper-parameter `{name}`: {what}")
            }
            Error::IncompleteSpec { missing } => {
                write!(f, "incomplete analysis specification: missing {missing}")
            }
            Error::NotEnoughData {
                available,
                required,
            } => write!(
                f,
                "not enough data: {available} samples available, {required} required"
            ),
            Error::ModelNotTrained => write!(f, "model has not been trained yet"),
            Error::UnknownHandle { what, index } => {
                write!(f, "unknown {what} handle (index {index})")
            }
            Error::DuplicateName { what, name } => {
                write!(f, "duplicate {what} name `{name}`")
            }
            Error::FeatureNotFound { what } => write!(f, "feature not found: {what}"),
            Error::SnapshotCorrupt { what } => write!(f, "corrupt snapshot: {what}"),
            Error::SnapshotVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            Error::SnapshotMismatch { what } => {
                write!(f, "snapshot does not fit this engine: {what}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::NotEnoughData {
            available: 3,
            required: 10,
        };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("10"));
        assert_eq!(
            Error::ModelNotTrained.to_string(),
            "model has not been trained yet"
        );
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }
}
