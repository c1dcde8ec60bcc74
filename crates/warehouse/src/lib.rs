#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # dwc-warehouse — query- and update-independent warehouses
//!
//! Sections 3–5 of *Complements for Data Warehouses* (Laurent,
//! Lechtenbörger, Spyratos, Vossen; ICDE 1999) on top of the complement
//! machinery of [`dwc_core`]:
//!
//! * [`spec`] — warehouse specifications `V` over a catalog `D`, and
//!   augmentation `W = V ∪ C` with a complement (Step 1 of the paper's
//!   algorithm),
//! * [`rewrite`] — query translation `Q̄ = Q ∘ W⁻¹` (Theorem 3.1, the
//!   commuting diagram of Figure 2),
//! * [`delta`] — incremental delta rules for relational algebra under
//!   set semantics (insertions *and* deletions),
//! * [`incremental`] — maintenance expressions over warehouse views only
//!   (Example 4.1): delta rules with base references substituted by
//!   inverse expressions,
//! * [`maintain`] — applying translated updates and the correctness
//!   criterion `w' = W(u(d))` (Theorem 4.1, Figure 3),
//! * [`planner`] — the adaptive maintenance policy: per-report strategy
//!   choice via the static cost planner of `dwc-analyze` (Theorem 4.1
//!   makes every strategy converge, so the choice is purely cost),
//! * [`integrator`] — the decoupled-source architecture of Figure 1:
//!   sources report deltas, the integrator maintains the warehouse; all
//!   source accesses are accounted, making "independence" measurable,
//! * [`channel`] — sequenced report envelopes (source id, epoch,
//!   per-source sequence number) and the sending half that logs every
//!   emitted envelope for retransmission,
//! * [`ingest`] — the fault-tolerant receiving end: idempotent dedup,
//!   bounded reordering, typed quarantine, and source-free gap recovery
//!   through the `W ∘ u ∘ W⁻¹` reconstruction fallback,
//! * [`storage`] — crash-consistent durability: a checksummed
//!   write-ahead log of applied envelopes, atomic snapshots of the full
//!   warehouse image (views, complements, sequencing cursors,
//!   quarantine, counters), and `Recovery::open` replaying the WAL
//!   through the idempotent ingestion path,
//! * [`baselines`] — the comparison points: full recomputation with
//!   source access, and maintenance expressions evaluated against the
//!   sources (the approach the paper contrasts with),
//! * [`independence`] — σ-views are update-independent without any
//!   complement but not query-independent (end of Section 4), a
//!   state-pair refuter for query independence, and a static
//!   self-maintainability analysis per update class.
//!
//! ## Quick example
//!
//! ```
//! use dwc_relalg::{rel, Catalog, DbState, RaExpr, Update};
//! use dwc_warehouse::WarehouseSpec;
//!
//! let mut catalog = Catalog::new();
//! catalog.add_schema("Sale", &["item", "clerk"])?;
//! catalog.add_schema_with_key("Emp", &["clerk", "age"], &["clerk"])?;
//!
//! // V = {Sold}; augmentation computes the complement and inverse.
//! let warehouse = WarehouseSpec::parse(catalog, &[("Sold", "Sale join Emp")])?
//!     .augment()?;
//!
//! let mut db = DbState::new();
//! db.insert_relation("Sale", rel! { ["item", "clerk"] => ("PC", "John") });
//! db.insert_relation("Emp", rel! { ["clerk", "age"] => ("John", 25), ("Paula", 32) });
//! let mut state = warehouse.materialize(&db)?; // W(d) = (V(d), C(d))
//!
//! // A source update, maintained from the report alone (Theorem 4.1).
//! let report = Update::inserting("Sale", rel! { ["item", "clerk"] => ("Mac", "Paula") })
//!     .normalize(&db)?;
//! state = warehouse.maintain(&state, &report)?;
//!
//! // A source query, answered at the warehouse (Theorem 3.1).
//! let q = RaExpr::parse("pi[clerk](Sale) union pi[clerk](Emp)")?;
//! let answer = warehouse.answer_at_warehouse(&q, &state)?;
//! assert_eq!(answer.len(), 2); // John and Paula
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod baselines;
pub mod channel;
pub mod delta;
pub mod error;
pub mod incremental;
pub mod independence;
pub mod ingest;
pub mod integrator;
pub mod maintain;
pub mod planner;
pub mod rewrite;
pub mod server;
pub mod spec;
pub mod storage;
#[cfg(test)]
pub(crate) mod testutil;

pub use channel::{Envelope, SequencedSource, SourceId};
pub use error::{Result, WarehouseError};
pub use ingest::{
    DiscardedEntry, IngestConfig, IngestOutcome, IngestStats, IngestingIntegrator,
    QuarantineEntry, SequencingStatus,
};
pub use server::{
    Ack, AckOutcome, BatchPolicy, QueryClient, ServerCore, ServerError, ServerStats,
    SessionGrant, SessionId,
};
pub use planner::{AdaptivePolicy, PolicyMode, PolicyStats};
pub use spec::{AugmentedWarehouse, WarehouseSpec};
pub use storage::{
    DurabilityConfig, DurableWarehouse, ErrorClass, FsMedium, MediumError, Recovery,
    RecoveryReport, StorageError, StorageMedium, StorageStats,
};
