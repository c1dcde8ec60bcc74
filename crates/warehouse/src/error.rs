//! Error type of the warehouse layer.

use dwc_core::CoreError;
use dwc_relalg::{AttrSet, RelName, RelalgError};
use std::fmt;

/// Convenience alias.
pub type Result<T, E = WarehouseError> = std::result::Result<T, E>;

/// Errors raised by the warehouse layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WarehouseError {
    /// Substrate error.
    Relalg(RelalgError),
    /// Complement-layer error.
    Core(CoreError),
    /// An update touches a relation that is not a base relation of the
    /// warehouse's catalog.
    UpdateOutsideSources(RelName),
    /// The maintained state diverged from `W(u(d))` — the correctness
    /// criterion of Theorem 4.1 failed for the named stored relation.
    /// (Reaching this indicates a bug; it is checked in debug builds and
    /// by the test suites.)
    CorrectnessViolation(RelName),
    /// A query references a relation that is neither a base relation nor
    /// a warehouse view.
    UnknownQueryRelation(RelName),
    /// A report's delta carries a header that does not match the
    /// relation's catalog schema.
    ReportHeaderMismatch {
        /// The reported relation.
        relation: RelName,
        /// The schema header the catalog declares.
        expected: AttrSet,
        /// The header the report carried.
        got: AttrSet,
    },
    /// A report's delta violates the normalization contract of
    /// [`dwc_relalg::Delta::normalize`] (e.g. a tuple both inserted and
    /// deleted) — the signature of a corrupted or forged report.
    MalformedReport {
        /// The reported relation.
        relation: RelName,
        /// What exactly is malformed.
        detail: String,
    },
    /// An envelope arrived for an epoch older than the one the ingest
    /// cursor is tracking (a stale retransmission from before a source
    /// restart).
    StaleEpoch {
        /// Identifier of the reporting source.
        source: String,
        /// The epoch the cursor is at.
        current: u64,
        /// The stale epoch the envelope carried.
        got: u64,
    },
    /// A sequence gap that cannot be repaired from the available report
    /// log: the channel lost a report for good.
    UnfillableGap {
        /// Identifier of the reporting source.
        source: String,
        /// The first missing sequence number.
        missing: u64,
    },
    /// The bounded reorder buffer overflowed while waiting for a gap to
    /// fill; the ingestor demands recovery before accepting more.
    ReorderWindowOverflow {
        /// Identifier of the reporting source.
        source: String,
        /// The sequence number the cursor is blocked on.
        waiting_for: u64,
    },
    /// A stored relation has no definition in the augmented warehouse —
    /// the spec/augmentation bookkeeping is inconsistent.
    MissingDefinition(RelName),
    /// The static analyzer rejected the warehouse specification before
    /// any relation was materialized (see `WarehouseSpec::verify_static`).
    SpecRejected {
        /// Rendered diagnostics, one per line, most severe first.
        diagnostics: Vec<String>,
    },
    /// An error restored from a durable snapshot (see
    /// [`crate::storage`]). Snapshots persist quarantine errors in
    /// rendered form, so the original typed variant is no longer
    /// recoverable — only its message survives the round trip.
    Restored {
        /// The rendered message of the original error.
        message: String,
    },
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::Relalg(e) => write!(f, "{e}"),
            WarehouseError::Core(e) => write!(f, "{e}"),
            WarehouseError::UpdateOutsideSources(r) => {
                write!(f, "update touches `{r}`, which is not a source relation")
            }
            WarehouseError::CorrectnessViolation(r) => {
                write!(f, "maintained state diverged from W(u(d)) at `{r}`")
            }
            WarehouseError::UnknownQueryRelation(r) => {
                write!(f, "query references unknown relation `{r}`")
            }
            WarehouseError::ReportHeaderMismatch { relation, expected, got } => {
                write!(
                    f,
                    "report for `{relation}` carries header {got}, schema declares {expected}"
                )
            }
            WarehouseError::MalformedReport { relation, detail } => {
                write!(f, "malformed report for `{relation}`: {detail}")
            }
            WarehouseError::StaleEpoch { source, current, got } => {
                write!(f, "stale epoch {got} from source `{source}` (cursor at epoch {current})")
            }
            WarehouseError::UnfillableGap { source, missing } => {
                write!(f, "sequence {missing} from source `{source}` is lost for good")
            }
            WarehouseError::ReorderWindowOverflow { source, waiting_for } => {
                write!(
                    f,
                    "reorder window overflowed waiting for sequence {waiting_for} from source `{source}`"
                )
            }
            WarehouseError::MissingDefinition(r) => {
                write!(f, "stored relation `{r}` has no definition")
            }
            WarehouseError::SpecRejected { diagnostics } => {
                write!(f, "warehouse spec rejected by static analysis")?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            WarehouseError::Restored { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for WarehouseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WarehouseError::Relalg(e) => Some(e),
            WarehouseError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelalgError> for WarehouseError {
    fn from(e: RelalgError) -> Self {
        WarehouseError::Relalg(e)
    }
}

impl From<CoreError> for WarehouseError {
    fn from(e: CoreError) -> Self {
        WarehouseError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        use std::error::Error;
        let e: WarehouseError = RelalgError::UnknownRelation(RelName::new("X")).into();
        assert!(e.source().is_some());
        let e: WarehouseError = CoreError::UnknownBase(RelName::new("X")).into();
        assert!(e.to_string().contains("X"));
        let e = WarehouseError::UpdateOutsideSources(RelName::new("V"));
        assert!(e.to_string().contains("not a source relation"));
        assert!(e.source().is_none());
    }

    #[test]
    fn ingest_variants_display() {
        let e = WarehouseError::ReportHeaderMismatch {
            relation: RelName::new("Sale"),
            expected: AttrSet::from_names(&["item", "clerk"]),
            got: AttrSet::from_names(&["item"]),
        };
        assert!(e.to_string().contains("Sale"));
        let e = WarehouseError::MalformedReport {
            relation: RelName::new("Sale"),
            detail: "insert and delete overlap".into(),
        };
        assert!(e.to_string().contains("malformed"));
        let e = WarehouseError::StaleEpoch { source: "paris".into(), current: 3, got: 1 };
        assert!(e.to_string().contains("stale epoch 1"));
        let e = WarehouseError::UnfillableGap { source: "paris".into(), missing: 7 };
        assert!(e.to_string().contains("7"));
        let e =
            WarehouseError::ReorderWindowOverflow { source: "paris".into(), waiting_for: 2 };
        assert!(e.to_string().contains("waiting for sequence 2"));
    }
}
