//! Fault-tolerant ingestion: the receiving end of an unreliable channel.
//!
//! The plain [`Integrator`] assumes every report arrives exactly once,
//! in order, well-formed. [`IngestingIntegrator`] drops that assumption
//! and restores it *behind* the integrator:
//!
//! * **Idempotence** — replayed envelopes (sequence already applied, or
//!   already parked) are skipped, so at-least-once delivery is safe.
//! * **Reordering** — early envelopes wait in a bounded per-source
//!   reorder window and apply the moment the gap before them fills.
//! * **Quarantine** — malformed reports (unknown relations, header
//!   mismatches, normalization violations, stale epochs) are rejected
//!   with typed [`WarehouseError`]s into an inspectable quarantine log.
//!   Nothing panics; nothing applies partially.
//! * **Recovery** — when a gap cannot fill from the stream (the window
//!   overflows, or the stream ends short), [`IngestingIntegrator::recover_from_log`]
//!   replays the missing reports from the source's outbox, composes them
//!   with everything parked behind them, and rebuilds the affected views
//!   **source-free** through the `W ∘ u ∘ W⁻¹` pipeline
//!   ([`Integrator::recover_by_reconstruction`]). With
//!   [`IngestConfig::verify_invariants`] on, every applied report is
//!   additionally checked against the Theorem 4.1 criterion
//!   `w' = W(u(W⁻¹(w)))`, and a failed check heals the same way.
//!
//! * **One pass per slice** — envelopes arrive in slices (a group
//!   commit's batch, a replayed run of the WAL, or just one). Every
//!   sequencing decision above is taken per envelope, but the reports a
//!   slice puts in sequence are maintained together, in one pass over
//!   their net delta ([`IngestingIntegrator::offer_batch`]); Theorem 4.1
//!   holds for an arbitrary update, so how a stream is sliced never
//!   shows in the state. Sequencing only collects the slice's reports —
//!   borrowed from its envelopes, never cloned — and the net is folded
//!   from all of them in one step ([`Update::net`]) before the pass, so
//!   a slice costs its pass plus work linear (up to a sort) in the
//!   tuples it reports.
//!
//! Every decision is counted in [`IngestStats`], the channel-side
//! sibling of [`crate::integrator::SourceStats`].

use crate::channel::{Envelope, SourceId};
use crate::error::{Result, WarehouseError};
use crate::integrator::{Integrator, IntegratorStats};
use dwc_relalg::{DbState, RaExpr, Relation, Update};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Tuning of the ingestion layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestConfig {
    /// Maximum number of out-of-order reports parked per source while a
    /// sequence gap waits to fill; one more forces recovery.
    pub reorder_window: usize,
    /// Check the Theorem 4.1 correctness criterion after every applied
    /// report by also evaluating the (source-free) reconstruction
    /// pipeline, and adopt the reconstructed state when the incremental
    /// result diverges. Expensive — a full re-materialization per report
    /// — but turns silent corruption into a counted, healed event.
    pub verify_invariants: bool,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig { reorder_window: 32, verify_invariants: false }
    }
}

impl IngestConfig {
    /// The trust-nothing configuration: small window, every report
    /// cross-checked against `W(u(W⁻¹(w)))`.
    pub fn paranoid() -> IngestConfig {
        IngestConfig { reorder_window: 8, verify_invariants: true }
    }
}

/// Cumulative ingestion statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Envelopes offered to the ingestor.
    pub delivered: usize,
    /// Reports applied to the warehouse, in sequence (including reports
    /// consumed by gap recovery).
    pub applied: usize,
    /// Envelopes skipped idempotently (replays of applied or parked
    /// sequences).
    pub duplicates: usize,
    /// Envelopes parked out of order in the reorder window.
    pub buffered: usize,
    /// Envelopes rejected into quarantine.
    pub quarantined: usize,
    /// Sequence gaps observed (transitions from in-order to waiting).
    pub gaps_detected: usize,
    /// Recoveries through the `W ∘ u ∘ W⁻¹` reconstruction fallback
    /// (gap repairs and adopted invariant-check results).
    pub recoveries: usize,
    /// Theorem 4.1 invariant checks that failed and were healed.
    pub invariant_failures: usize,
    /// Maintenance passes committed: one per non-empty report offered
    /// alone, one per slice (or replay group) whose net delta is
    /// non-empty. A runtime counter of how the stream was sliced — not
    /// persisted in snapshots, so after recovery it counts the replay's
    /// passes.
    pub passes: usize,
    /// Slices rolled back and re-run one report per pass (the coalesced
    /// pass failed, or the reports would not compose). A runtime counter
    /// like `passes`.
    pub fallbacks: usize,
}

/// What [`IngestingIntegrator::offer`] did with one envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Applied in sequence; the count includes parked successors drained
    /// by this envelope.
    Applied(usize),
    /// Already seen — skipped idempotently.
    Duplicate,
    /// Out of order — parked in the reorder window.
    Buffered,
    /// Rejected into quarantine with a typed error. The sequence number
    /// is *not* consumed: a pristine retransmission (or gap recovery)
    /// can still fill it.
    Quarantined(WarehouseError),
    /// The reorder window is full (or the epoch stream is wedged): the
    /// gap cannot fill from the stream alone. The caller should invoke
    /// [`IngestingIntegrator::recover_from_log`].
    NeedsRecovery(WarehouseError),
}

/// Per-source ingestion cursor.
#[derive(Clone, Debug, Default)]
pub(crate) struct Cursor {
    pub(crate) epoch: u64,
    pub(crate) next_seq: u64,
    /// Out-of-order reports parked by sequence number.
    pub(crate) pending: BTreeMap<u64, Update>,
}

/// The in-sequence reports a coalescing slice has accepted but not yet
/// maintained. Sequencing only collects them; once the whole slice is
/// sequenced, [`IngestingIntegrator::offer_coalesced`] folds them into
/// their net delta in one step ([`Update::net`]).
struct Accepted<'a> {
    /// The reports in sequence order: borrowed from the slice's
    /// envelopes, owned only when a parked successor drained out of the
    /// reorder window.
    reports: Vec<Cow<'a, Update>>,
    /// The non-empty reports among them — what
    /// [`IntegratorStats::updates_processed`] counts.
    counted: usize,
    /// Their tuples — what [`IntegratorStats::delta_tuples`] counts.
    tuples: usize,
}

impl<'a> Accepted<'a> {
    fn push(&mut self, report: Cow<'a, Update>) {
        self.counted += usize::from(!report.is_empty());
        self.tuples += report.len();
        self.reports.push(report);
    }
}

/// The sequencing state a slice may have advanced, as it was before.
struct Checkpoint {
    cursors: BTreeMap<SourceId, Option<Cursor>>,
    stats: IngestStats,
    quarantined: usize,
}

/// One rejected envelope with the typed error that rejected it.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineEntry {
    /// The envelope as it arrived from the channel.
    pub envelope: Envelope,
    /// Why it was rejected. After a snapshot round trip this is the
    /// rendered-form [`WarehouseError::Restored`] variant.
    pub error: WarehouseError,
}

/// A quarantined envelope an operator discarded, with the stated reason.
#[derive(Clone, Debug, PartialEq)]
pub struct DiscardedEntry {
    /// The discarded quarantine entry.
    pub entry: QuarantineEntry,
    /// The operator-supplied reason for discarding it.
    pub reason: String,
}

/// A read-only view of one source's sequencing cursor — what a durable
/// snapshot persists and what an operator inspects after recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SequencingStatus {
    /// The source the cursor tracks.
    pub source: SourceId,
    /// The epoch the cursor is at.
    pub epoch: u64,
    /// The next in-order sequence number the cursor waits for.
    pub next_seq: u64,
    /// Sequence numbers parked out of order in the reorder window.
    pub parked: Vec<u64>,
}

/// An [`Integrator`] hardened against channel faults; see the module
/// docs for the fault model.
#[derive(Clone, Debug)]
pub struct IngestingIntegrator {
    integ: Integrator,
    cursors: BTreeMap<SourceId, Cursor>,
    quarantine: Vec<QuarantineEntry>,
    discarded: Vec<DiscardedEntry>,
    config: IngestConfig,
    stats: IngestStats,
}

impl IngestingIntegrator {
    /// Wraps a loaded integrator. Re-runs the static analyzer over the
    /// integrator's specification ([`crate::spec::WarehouseSpec::verify_static`])
    /// before accepting the configuration: an ingestor is a long-lived
    /// service, and a spec that was mutated or deserialized since
    /// augmentation must not start consuming reports.
    pub fn new(integ: Integrator, config: IngestConfig) -> Result<IngestingIntegrator> {
        integ.warehouse().spec().verify_static()?;
        Ok(IngestingIntegrator {
            integ,
            cursors: BTreeMap::new(),
            quarantine: Vec::new(),
            discarded: Vec::new(),
            config,
            stats: IngestStats::default(),
        })
    }

    /// Rebuilds an ingestor from snapshot state (see [`crate::storage`]):
    /// every field is restored verbatim so a WAL replay continues exactly
    /// where the snapshotted process stopped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore(
        integ: Integrator,
        cursors: BTreeMap<SourceId, Cursor>,
        quarantine: Vec<QuarantineEntry>,
        discarded: Vec<DiscardedEntry>,
        config: IngestConfig,
        stats: IngestStats,
    ) -> IngestingIntegrator {
        IngestingIntegrator { integ, cursors, quarantine, discarded, config, stats }
    }

    /// The raw per-source cursors — read by the snapshot writer.
    pub(crate) fn cursors(&self) -> &BTreeMap<SourceId, Cursor> {
        &self.cursors
    }

    /// Offers one envelope from the channel: the one-element case of
    /// [`IngestingIntegrator::offer_batch`].
    pub fn offer(&mut self, envelope: &Envelope) -> IngestOutcome {
        self.offer_batch(std::slice::from_ref(envelope))
            .pop()
            .expect("one outcome per envelope") // lint:allow expect -- offer_batch returns exactly one outcome per envelope offered
    }

    /// Offers a slice of envelopes in arrival order. Infallible at the
    /// call site: every failure mode is a typed [`IngestOutcome`] (one
    /// per envelope), recorded in the stats and (for rejects) the
    /// quarantine log.
    ///
    /// Sequencing — dedup, validation, epochs, the reorder window,
    /// quarantine — is decided per envelope exactly as if each were
    /// offered alone, but the slice's in-sequence reports are maintained
    /// together: folded in one step into their net delta
    /// ([`Update::net`]) and run through **one** maintenance pass (none
    /// when everything cancels). Theorem 4.1 holds for an
    /// arbitrary update, so the pass lands on the state the per-report
    /// passes would have reached. If the composition shows a malformed
    /// stream, or the pass fails, the slice is rolled back and re-run one
    /// report per pass, so a bad report is quarantined under its own
    /// sequence number and its neighbours still apply. Paranoid mode
    /// ([`IngestConfig::verify_invariants`]) observes every report on
    /// its own and always takes that route.
    pub fn offer_batch(&mut self, envelopes: &[Envelope]) -> Vec<IngestOutcome> {
        if !self.config.verify_invariants {
            let undo = self.checkpoint(envelopes);
            if let Some(outcomes) = self.offer_coalesced(envelopes) {
                return outcomes;
            }
            self.rollback(undo);
            self.stats.fallbacks += 1;
        }
        envelopes.iter().map(|e| self.sequence(e, None)).collect()
    }

    /// Sequences the whole slice, collecting its in-sequence reports,
    /// folds them into one net delta and maintains that once. `None` —
    /// with cursors, counters and quarantine possibly advanced, the
    /// warehouse state not — when the slice has to go one report per
    /// pass instead: the reports would not fold, or the pass failed.
    fn offer_coalesced(&mut self, envelopes: &[Envelope]) -> Option<Vec<IngestOutcome>> {
        let mut accepted =
            Accepted { reports: Vec::with_capacity(envelopes.len()), counted: 0, tuples: 0 };
        let outcomes =
            envelopes.iter().map(|e| self.sequence(e, Some(&mut accepted))).collect();
        let net = Update::net(accepted.reports.iter().map(|r| r.as_ref())).ok().flatten()?;
        self.maintain(&net, accepted.counted, accepted.tuples).ok()?;
        Some(outcomes)
    }

    /// What [`IngestingIntegrator::rollback`] needs to undo a slice's
    /// sequencing: the cursors of the sources it names (absent ones as
    /// `None`), the counters, and the quarantine length.
    fn checkpoint(&self, envelopes: &[Envelope]) -> Checkpoint {
        let mut cursors = BTreeMap::new();
        for e in envelopes {
            if !cursors.contains_key(&e.source) {
                cursors.insert(e.source.clone(), self.cursors.get(&e.source).cloned());
            }
        }
        Checkpoint { cursors, stats: self.stats, quarantined: self.quarantine.len() }
    }

    fn rollback(&mut self, undo: Checkpoint) {
        for (source, cursor) in undo.cursors {
            match cursor {
                Some(c) => self.cursors.insert(source, c),
                None => self.cursors.remove(&source),
            };
        }
        self.stats = undo.stats;
        self.quarantine.truncate(undo.quarantined);
    }

    fn sequence<'a>(
        &mut self,
        envelope: &'a Envelope,
        accepted: Option<&mut Accepted<'a>>,
    ) -> IngestOutcome {
        self.stats.delivered += 1;
        // The cursor is taken out and put back in place: no map node
        // is freed and re-allocated per envelope.
        let mut cursor = match self.cursors.get_mut(&envelope.source) {
            Some(cursor) => std::mem::take(cursor),
            None => Cursor::default(),
        };
        let outcome = self.sequence_at(&mut cursor, envelope, accepted);
        match self.cursors.get_mut(&envelope.source) {
            Some(slot) => *slot = cursor,
            None => {
                self.cursors.insert(envelope.source.clone(), cursor);
            }
        }
        outcome
    }

    fn sequence_at<'a>(
        &mut self,
        cursor: &mut Cursor,
        envelope: &'a Envelope,
        mut accepted: Option<&mut Accepted<'a>>,
    ) -> IngestOutcome {
        // An older epoch is a stale replay from before the source's
        // sequencer restarted.
        if envelope.epoch < cursor.epoch {
            return self.reject(
                envelope,
                WarehouseError::StaleEpoch {
                    source: envelope.source.to_string(),
                    current: cursor.epoch,
                    got: envelope.epoch,
                },
            );
        }
        // Idempotent dedup within the current epoch: applied or parked.
        if envelope.epoch == cursor.epoch
            && (envelope.seq < cursor.next_seq || cursor.pending.contains_key(&envelope.seq))
        {
            self.stats.duplicates += 1;
            return IngestOutcome::Duplicate;
        }
        // Malformed reports never touch warehouse state or sequencing —
        // including the epoch cursor. Validation must precede the epoch
        // transition below: a *corrupt* envelope claiming a future epoch
        // would otherwise wedge the cursor past the genuine stream, and
        // every pristine retransmission or quarantine requeue would then
        // bounce as stale.
        if let Err(e) = self.validate(&envelope.report) {
            return self.reject(envelope, e);
        }
        // A (valid) newer epoch supersedes the cursor: the source's
        // sequencer restarted.
        if envelope.epoch > cursor.epoch {
            *cursor = Cursor { epoch: envelope.epoch, next_seq: 0, pending: BTreeMap::new() };
        }
        if envelope.seq > cursor.next_seq {
            // A gap: park the early report, bounded by the window.
            if cursor.pending.len() >= self.config.reorder_window {
                return IngestOutcome::NeedsRecovery(WarehouseError::ReorderWindowOverflow {
                    source: envelope.source.to_string(),
                    waiting_for: cursor.next_seq,
                });
            }
            if cursor.pending.is_empty() {
                self.stats.gaps_detected += 1;
            }
            cursor.pending.insert(envelope.seq, envelope.report.clone());
            self.stats.buffered += 1;
            return IngestOutcome::Buffered;
        }
        // In sequence: apply (or, in a coalescing slice, accept for the
        // slice's one pass), then drain every parked successor that
        // became contiguous.
        let mut applied = 0;
        let mut report = Cow::Borrowed(&envelope.report);
        loop {
            if let Some(accepted) = accepted.as_deref_mut() {
                accepted.push(report);
            } else if let Err(e) = self.apply_one(&report) {
                // The report is well-formed but failed evaluation; park
                // it in quarantine without consuming its sequence so
                // recovery (or an operator) can deal with it.
                let failed = Envelope {
                    source: envelope.source.clone(),
                    epoch: cursor.epoch,
                    seq: cursor.next_seq,
                    report: report.into_owned(),
                };
                let outcome = self.reject(&failed, e);
                // A failing *successor* is quarantined under its own
                // sequence number; the offered envelope itself applied.
                return if applied > 0 { IngestOutcome::Applied(applied) } else { outcome };
            }
            applied += 1;
            self.stats.applied += 1;
            cursor.next_seq += 1;
            match cursor.pending.remove(&cursor.next_seq) {
                Some(next) => report = Cow::Owned(next),
                None => break,
            }
        }
        IngestOutcome::Applied(applied)
    }

    /// Applies one in-sequence report, optionally cross-checked against
    /// the Theorem 4.1 criterion `w' = W(u(W⁻¹(w)))`.
    fn apply_one(&mut self, report: &Update) -> Result<()> {
        if self.config.verify_invariants {
            self.apply_verified(report)
        } else {
            self.maintain(report, usize::from(!report.is_empty()), report.len())
        }
    }

    /// One maintenance pass over `net` (none when it is empty): the
    /// cancelled composition of `reports` non-empty reports carrying
    /// `tuples` tuples between them (a lone report is its own net). The
    /// integrator's counters advance by what was *reported*, not by the
    /// one pass over `|net|` tuples, so they do not depend on how a
    /// stream was sliced or on how replay grouped it.
    fn maintain(&mut self, net: &Update, reports: usize, tuples: usize) -> Result<()> {
        let before = self.integ.stats();
        if !net.is_empty() {
            self.integ.on_report(net)?;
            self.stats.passes += 1;
        }
        self.integ.restore_stats(IntegratorStats {
            updates_processed: before.updates_processed + reports,
            delta_tuples: before.delta_tuples + tuples,
            ..self.integ.stats()
        });
        Ok(())
    }

    /// Paranoid mode: one report, cross-checked against the source-free
    /// oracle and healed by adopting it when the incremental result
    /// diverges.
    fn apply_verified(&mut self, report: &Update) -> Result<()> {
        let expected = self
            .integ
            .warehouse()
            .maintain_by_reconstruction(self.integ.state(), report)?;
        self.integ.on_report(report)?;
        if self.integ.state() != &expected {
            self.stats.invariant_failures += 1;
            self.stats.recoveries += 1;
            self.integ.force_state(expected);
        }
        Ok(())
    }

    /// Structural validation of a report against the warehouse catalog:
    /// known relations, schema headers, normalization shape, and no
    /// header mismatch recorded while the report was composed
    /// ([`Update::check_valid`]). State-free, allocation-free on a valid
    /// report, and run before any sequencing decision.
    fn validate(&self, report: &Update) -> Result<()> {
        report.check_valid()?;
        let catalog = self.integ.warehouse().catalog();
        for (name, delta) in report.iter() {
            if !catalog.contains(name) {
                return Err(WarehouseError::UpdateOutsideSources(name));
            }
            let schema = catalog.schema(name)?;
            if delta.inserted().attrs() != schema.attrs() {
                return Err(WarehouseError::ReportHeaderMismatch {
                    relation: name,
                    expected: schema.attrs().clone(),
                    got: delta.inserted().attrs().clone(),
                });
            }
            let overlap = delta.inserted().intersection_len(delta.deleted())?;
            if overlap > 0 {
                return Err(WarehouseError::MalformedReport {
                    relation: name,
                    detail: format!(
                        "{overlap} tuple(s) both inserted and deleted — not a normalized report"
                    ),
                });
            }
        }
        Ok(())
    }

    fn reject(&mut self, envelope: &Envelope, error: WarehouseError) -> IngestOutcome {
        self.stats.quarantined += 1;
        self.quarantine
            .push(QuarantineEntry { envelope: envelope.clone(), error: error.clone() });
        IngestOutcome::Quarantined(error)
    }

    /// The sequence numbers (current epoch) the cursor still waits for:
    /// every hole at or above `next_seq`, up to the highest parked
    /// report. Empty means the source is fully drained *as far as the
    /// ingestor can know* — trailing channel drops are only visible to
    /// [`IngestingIntegrator::recover_from_log`], which also consults
    /// the log's horizon.
    pub fn missing_seqs(&self, source: &SourceId) -> Vec<u64> {
        let Some(cursor) = self.cursors.get(source) else {
            return Vec::new();
        };
        match cursor.pending.keys().next_back() {
            None => Vec::new(),
            Some(&hi) => {
                (cursor.next_seq..=hi).filter(|s| !cursor.pending.contains_key(s)).collect()
            }
        }
    }

    /// Repairs sequence gaps from the source's outbox log: every report
    /// from the cursor position to the log's horizon is taken from the
    /// reorder buffer or the log, validated, composed into one update,
    /// and applied through the source-free reconstruction fallback.
    /// Returns the number of reports recovered (0 if nothing is
    /// missing). On any error — a sequence absent from the log
    /// ([`WarehouseError::UnfillableGap`]), a log entry that fails
    /// validation — the warehouse state and the cursor are untouched.
    pub fn recover_from_log(&mut self, source: &SourceId, log: &[Envelope]) -> Result<usize> {
        let mut cursor = self.cursors.remove(source).unwrap_or_default();
        let result = self.recover_at(source, &mut cursor, log);
        self.cursors.insert(source.clone(), cursor);
        result
    }

    fn recover_at(
        &mut self,
        source: &SourceId,
        cursor: &mut Cursor,
        log: &[Envelope],
    ) -> Result<usize> {
        let in_epoch =
            |e: &&Envelope| e.source == *source && e.epoch == cursor.epoch;
        let log_hi = log.iter().filter(in_epoch).map(|e| e.seq).max();
        let pending_hi = cursor.pending.keys().next_back().copied();
        let hi = match (pending_hi, log_hi) {
            (Some(p), Some(l)) => p.max(l),
            (Some(p), None) => p,
            (None, Some(l)) => l,
            (None, None) => return Ok(0),
        };
        if hi < cursor.next_seq {
            return Ok(0);
        }
        // Gather read-only first: failure must not consume anything.
        let mut reports: Vec<&Update> = Vec::with_capacity((hi - cursor.next_seq + 1) as usize);
        for seq in cursor.next_seq..=hi {
            let report = cursor.pending.get(&seq).or_else(|| {
                log.iter().find(|e| in_epoch(e) && e.seq == seq).map(|e| &e.report)
            });
            match report {
                Some(r) => reports.push(r),
                None => {
                    return Err(WarehouseError::UnfillableGap {
                        source: source.to_string(),
                        missing: seq,
                    })
                }
            }
        }
        for r in &reports {
            self.validate(r)?;
        }
        // Sequential composition of the whole backlog into one update —
        // exact because `Update::with` composes per-relation deltas in
        // application order.
        let mut composed = Update::new();
        for r in &reports {
            for (name, delta) in r.iter() {
                composed = composed.with(name, delta.clone());
            }
        }
        let count = reports.len();
        // The composed update is generally *not* normalized with respect
        // to the current state, which is exactly what the reconstruction
        // pipeline tolerates and the incremental plans do not.
        self.integ.recover_by_reconstruction(&composed)?;
        cursor.pending.clear();
        cursor.next_seq = hi + 1;
        self.stats.applied += count;
        self.stats.recoveries += 1;
        Ok(count)
    }

    /// The current materialized warehouse state.
    pub fn state(&self) -> &DbState {
        self.integ.state()
    }

    /// Answers a source query at the warehouse (query independence).
    pub fn answer(&mut self, q: &RaExpr) -> Result<Relation> {
        self.integ.answer(q)
    }

    /// The wrapped integrator.
    pub fn integrator(&self) -> &Integrator {
        &self.integ
    }

    /// Mutable access to the wrapped integrator — for corruption
    /// injection in chaos tests and operator interventions.
    pub fn integrator_mut(&mut self) -> &mut Integrator {
        &mut self.integ
    }

    /// The ingestion counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// The wrapped integrator's counters.
    pub fn integrator_stats(&self) -> IntegratorStats {
        self.integ.stats()
    }

    /// The quarantine log: every rejected envelope with its typed error,
    /// oldest first.
    pub fn quarantine(&self) -> &[QuarantineEntry] {
        &self.quarantine
    }

    /// Re-offers the quarantined envelope at `index` through the normal
    /// ingestion path and removes it from quarantine — the operator move
    /// after fixing whatever rejected it (e.g. a source that re-keyed a
    /// relation, or a gap recovery that advanced the cursor past a
    /// transiently-failing report). Returns `None` when the index is out
    /// of range. Note a re-offer can land straight back in quarantine
    /// (as a *new* entry) if the report is still bad.
    pub fn requeue_quarantined(&mut self, index: usize) -> Option<IngestOutcome> {
        if index >= self.quarantine.len() {
            return None;
        }
        let entry = self.quarantine.remove(index);
        // The original rejection already counted this envelope; the
        // requeue is a fresh channel offer and counts again.
        Some(self.offer(&entry.envelope))
    }

    /// Drains the whole quarantine in **sequence order** — sorted by
    /// `(source, epoch, seq)` — re-offering every entry through the
    /// normal ingestion path, and returns each envelope with its fresh
    /// outcome, in the order offered. Arrival order is the wrong
    /// requeue order: entries are logged in rejection order, and
    /// re-offering a later sequence of a source before an earlier one
    /// parks it again (or, past the reorder window, demands recovery);
    /// sorted re-entry lets contiguous sequences apply directly. Each
    /// drained entry is offered exactly once — still-bad envelopes land
    /// back in quarantine as new entries, with no fixpoint loop.
    pub fn requeue_all_quarantined(&mut self) -> Vec<(Envelope, IngestOutcome)> {
        let mut entries = std::mem::take(&mut self.quarantine);
        entries.sort_by(|a, b| {
            (&a.envelope.source, a.envelope.epoch, a.envelope.seq)
                .cmp(&(&b.envelope.source, b.envelope.epoch, b.envelope.seq))
        });
        entries
            .into_iter()
            .map(|e| {
                let outcome = self.offer(&e.envelope);
                (e.envelope, outcome)
            })
            .collect()
    }

    /// Permanently discards the quarantined envelope at `index`,
    /// recording the operator's reason in the discard log. Returns the
    /// discarded entry, or `None` when the index is out of range.
    pub fn discard_quarantined(
        &mut self,
        index: usize,
        reason: impl Into<String>,
    ) -> Option<&DiscardedEntry> {
        if index >= self.quarantine.len() {
            return None;
        }
        let entry = self.quarantine.remove(index);
        self.discarded.push(DiscardedEntry { entry, reason: reason.into() });
        self.discarded.last()
    }

    /// The discard log: every quarantined envelope an operator dropped,
    /// with the stated reason, oldest first.
    pub fn discarded(&self) -> &[DiscardedEntry] {
        &self.discarded
    }

    /// Read-only sequencing status of every source the ingestor has
    /// heard from — the dedup/reorder windows a durable snapshot must
    /// capture for recovery to stay idempotent.
    pub fn sequencing(&self) -> Vec<SequencingStatus> {
        self.cursors
            .iter()
            .map(|(source, c)| SequencingStatus {
                source: source.clone(),
                epoch: c.epoch,
                next_seq: c.next_seq,
                parked: c.pending.keys().copied().collect(),
            })
            .collect()
    }

    /// The configuration in effect.
    pub fn config(&self) -> IngestConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::SequencedSource;
    use crate::integrator::SourceSite;
    use crate::testutil::{fig1_spec, fig1_state};
    use dwc_relalg::rel;

    fn setup(config: IngestConfig) -> (SequencedSource, IngestingIntegrator) {
        let spec = fig1_spec();
        let catalog = spec.catalog().clone();
        let aug = spec.augment().unwrap();
        let site = SourceSite::new(catalog, fig1_state()).unwrap();
        let integ = Integrator::initial_load(aug, &site).unwrap();
        (SequencedSource::new("fig1", site), IngestingIntegrator::new(integ, config).unwrap())
    }

    fn sale_insert(src: &mut SequencedSource, item: &str, clerk: &str) -> Envelope {
        src.apply_update(&Update::inserting(
            "Sale",
            rel! { ["item", "clerk"] => (item, clerk) },
        ))
        .unwrap()
    }

    fn oracle(src: &SequencedSource, ing: &IngestingIntegrator) -> DbState {
        ing.integrator().warehouse().materialize(src.oracle_state()).unwrap()
    }

    #[test]
    fn in_order_stream_applies_exactly() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        for i in 0..5 {
            let env = sale_insert(&mut src, &format!("item{i}"), "Mary");
            assert_eq!(ing.offer(&env), IngestOutcome::Applied(1));
        }
        assert_eq!(ing.state(), &oracle(&src, &ing));
        assert_eq!(ing.stats().applied, 5);
        assert_eq!(ing.stats().recoveries, 0);
    }

    #[test]
    fn duplicates_are_idempotent_and_reorders_park() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let envs: Vec<Envelope> =
            (0..4).map(|i| sale_insert(&mut src, &format!("item{i}"), "John")).collect();
        assert_eq!(ing.offer(&envs[0]), IngestOutcome::Applied(1));
        assert_eq!(ing.offer(&envs[2]), IngestOutcome::Buffered);
        assert_eq!(ing.offer(&envs[2]), IngestOutcome::Duplicate); // parked replay
        assert_eq!(ing.offer(&envs[0]), IngestOutcome::Duplicate); // applied replay
        assert_eq!(ing.offer(&envs[1]), IngestOutcome::Applied(2)); // fills the gap
        assert_eq!(ing.offer(&envs[3]), IngestOutcome::Applied(1));
        assert_eq!(ing.state(), &oracle(&src, &ing));
        let s = ing.stats();
        assert_eq!((s.applied, s.duplicates, s.buffered, s.gaps_detected), (4, 2, 1, 1));
        assert!(ing.missing_seqs(src.id()).is_empty());
    }

    #[test]
    fn window_overflow_demands_recovery_and_log_replay_heals() {
        let (mut src, mut ing) =
            setup(IngestConfig { reorder_window: 2, verify_invariants: false });
        let envs: Vec<Envelope> =
            (0..5).map(|i| sale_insert(&mut src, &format!("item{i}"), "Mary")).collect();
        assert_eq!(ing.offer(&envs[0]), IngestOutcome::Applied(1));
        // Drop seq 1; 2 and 3 park, 4 overflows the window.
        assert_eq!(ing.offer(&envs[2]), IngestOutcome::Buffered);
        assert_eq!(ing.offer(&envs[3]), IngestOutcome::Buffered);
        let outcome = ing.offer(&envs[4]);
        assert!(
            matches!(
                outcome,
                IngestOutcome::NeedsRecovery(WarehouseError::ReorderWindowOverflow { .. })
            ),
            "got {outcome:?}"
        );
        assert_eq!(ing.missing_seqs(src.id()), vec![1]);
        let recovered = ing.recover_from_log(src.id(), src.outbox()).unwrap();
        assert_eq!(recovered, 4); // seqs 1..=4
        assert_eq!(ing.state(), &oracle(&src, &ing));
        assert_eq!(ing.stats().recoveries, 1);
        assert!(ing.missing_seqs(src.id()).is_empty());
        // And the stream continues normally afterwards.
        let env = sale_insert(&mut src, "item5", "Mary");
        assert_eq!(ing.offer(&env), IngestOutcome::Applied(1));
        assert_eq!(ing.state(), &oracle(&src, &ing));
    }

    #[test]
    fn trailing_drops_recovered_from_log_horizon() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let envs: Vec<Envelope> =
            (0..3).map(|i| sale_insert(&mut src, &format!("item{i}"), "John")).collect();
        ing.offer(&envs[0]);
        // seqs 1 and 2 are lost in flight; nothing is parked, so only
        // the log knows they exist.
        assert!(ing.missing_seqs(src.id()).is_empty());
        let recovered = ing.recover_from_log(src.id(), src.outbox()).unwrap();
        assert_eq!(recovered, 2);
        assert_eq!(ing.state(), &oracle(&src, &ing));
    }

    #[test]
    fn recovery_with_incomplete_log_is_a_typed_error() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let envs: Vec<Envelope> =
            (0..3).map(|i| sale_insert(&mut src, &format!("item{i}"), "Mary")).collect();
        ing.offer(&envs[0]);
        ing.offer(&envs[2]);
        let before = ing.state().clone();
        // A log that lost seq 1 for good.
        let holey: Vec<Envelope> = vec![envs[0].clone(), envs[2].clone()];
        let err = ing.recover_from_log(src.id(), &holey).unwrap_err();
        assert!(matches!(err, WarehouseError::UnfillableGap { missing: 1, .. }));
        assert_eq!(ing.state(), &before, "failed recovery must not touch state");
        // The full log still heals.
        ing.recover_from_log(src.id(), src.outbox()).unwrap();
        assert_eq!(ing.state(), &oracle(&src, &ing));
    }

    #[test]
    fn malformed_reports_quarantine_without_consuming_sequence() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let good = sale_insert(&mut src, "Mac", "Paula");
        // A corrupted copy of the same envelope: retargeted at a ghost
        // relation.
        let mut corrupt = good.clone();
        corrupt.report = Update::inserting("Ghost", rel! { ["x"] => (1,) });
        let outcome = ing.offer(&corrupt);
        assert!(matches!(
            outcome,
            IngestOutcome::Quarantined(WarehouseError::UpdateOutsideSources(_))
        ));
        assert_eq!(ing.quarantine().len(), 1);
        // The pristine retransmission still fills seq 0.
        assert_eq!(ing.offer(&good), IngestOutcome::Applied(1));
        assert_eq!(ing.state(), &oracle(&src, &ing));
    }

    #[test]
    fn quarantine_drain_requeue_and_discard() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let good0 = sale_insert(&mut src, "Mac", "Paula");
        let good1 = sale_insert(&mut src, "Modem", "John");
        // Two corrupt copies: a ghost relation and a header mismatch.
        let mut ghost = good0.clone();
        ghost.report = Update::inserting("Ghost", rel! { ["x"] => (1,) });
        let mut narrow = good1.clone();
        narrow.report = Update::inserting("Sale", rel! { ["item"] => ("Mac",) });
        assert!(matches!(ing.offer(&ghost), IngestOutcome::Quarantined(_)));
        assert!(matches!(ing.offer(&narrow), IngestOutcome::Quarantined(_)));
        assert_eq!(ing.quarantine().len(), 2);
        assert_eq!(ing.quarantine()[0].envelope, ghost);
        assert!(matches!(
            ing.quarantine()[0].error,
            WarehouseError::UpdateOutsideSources(_)
        ));

        // Out-of-range indices are None, not panics.
        assert_eq!(ing.requeue_quarantined(5), None);
        assert!(ing.discard_quarantined(5, "nope").is_none());

        // Discard the ghost with a reason; it moves to the discard log.
        let d = ing.discard_quarantined(0, "relation does not exist").unwrap();
        assert_eq!(d.reason, "relation does not exist");
        assert_eq!(ing.quarantine().len(), 1);
        assert_eq!(ing.discarded().len(), 1);
        assert_eq!(ing.discarded()[0].entry.envelope, ghost);

        // Requeueing the still-bad envelope re-quarantines it as a new
        // entry (the quarantine length is unchanged: one out, one in).
        let outcome = ing.requeue_quarantined(0).unwrap();
        assert!(matches!(outcome, IngestOutcome::Quarantined(_)));
        assert_eq!(ing.quarantine().len(), 1);

        // The pristine retransmissions still apply: no sequence was
        // consumed by any of the above.
        assert_eq!(ing.offer(&good0), IngestOutcome::Applied(1));
        assert_eq!(ing.offer(&good1), IngestOutcome::Applied(1));
        assert_eq!(ing.state(), &oracle(&src, &ing));

        // Requeueing a now-valid duplicate drains it from quarantine.
        let outcome = ing.requeue_quarantined(0).unwrap();
        assert!(matches!(
            outcome,
            IngestOutcome::Duplicate | IngestOutcome::Quarantined(_)
        ));
        // Sequencing inspection sees the drained cursor.
        let seq = ing.sequencing();
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].source, *src.id());
        assert_eq!(seq[0].next_seq, 2);
        assert!(seq[0].parked.is_empty());
    }

    #[test]
    fn corrupt_future_epoch_never_wedges_the_cursor() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let good0 = sale_insert(&mut src, "Mac", "Paula");
        let good1 = sale_insert(&mut src, "Modem", "John");
        assert_eq!(ing.offer(&good0), IngestOutcome::Applied(1));
        // A corrupted copy of good1 that *also* claims a future epoch.
        // Validation must reject it before the epoch transition: were
        // the cursor bumped first, every genuine epoch-0 envelope —
        // including the pristine retransmission below — would bounce
        // as stale and the source would be wedged for good.
        let mut corrupt = good1.clone();
        corrupt.epoch = 5;
        corrupt.report = Update::inserting("Ghost", rel! { ["x"] => (1,) });
        assert!(matches!(ing.offer(&corrupt), IngestOutcome::Quarantined(_)));
        assert_eq!(ing.sequencing()[0].epoch, 0, "cursor epoch must not move");
        // The pristine retransmission still applies in its epoch.
        assert_eq!(ing.offer(&good1), IngestOutcome::Applied(1));
        assert_eq!(ing.state(), &oracle(&src, &ing));
        // And a *valid* future-epoch envelope still supersedes normally.
        src.begin_epoch();
        let next = sale_insert(&mut src, "Printer", "Mary");
        assert_eq!((next.epoch, next.seq), (1, 0));
        assert_eq!(ing.offer(&next), IngestOutcome::Applied(1));
        assert_eq!(ing.sequencing()[0].epoch, 1);
    }

    #[test]
    fn requeue_all_reenters_in_sequence_order() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let goods: Vec<Envelope> =
            (0..3).map(|i| sale_insert(&mut src, &format!("item{i}"), "Mary")).collect();
        // Corrupt copies arrive in scrambled order 2, 0, 1 and all
        // quarantine (validation precedes any sequencing decision).
        for i in [2usize, 0, 1] {
            let mut corrupt = goods[i].clone();
            corrupt.report = Update::inserting("Ghost", rel! { ["x"] => (i as i64,) });
            assert!(matches!(ing.offer(&corrupt), IngestOutcome::Quarantined(_)));
        }
        let arrival: Vec<u64> = ing.quarantine().iter().map(|q| q.envelope.seq).collect();
        assert_eq!(arrival, vec![2, 0, 1]);
        // The bulk requeue drains in (source, epoch, seq) order, so the
        // re-offers — and the re-quarantined entries they produce — come
        // back sequence-sorted, not arrival-sorted.
        let outcomes = ing.requeue_all_quarantined();
        let offered: Vec<u64> = outcomes.iter().map(|(e, _)| e.seq).collect();
        assert_eq!(offered, vec![0, 1, 2]);
        assert!(outcomes.iter().all(|(_, o)| matches!(o, IngestOutcome::Quarantined(_))));
        let requeued: Vec<u64> = ing.quarantine().iter().map(|q| q.envelope.seq).collect();
        assert_eq!(requeued, vec![0, 1, 2]);
        // Pristine retransmissions are unaffected throughout.
        for g in &goods {
            assert_eq!(ing.offer(g), IngestOutcome::Applied(1));
        }
        assert_eq!(ing.state(), &oracle(&src, &ing));
    }

    #[test]
    fn stale_epochs_are_quarantined() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let old = sale_insert(&mut src, "Mac", "Paula");
        src.begin_epoch();
        let new = sale_insert(&mut src, "Modem", "John");
        assert_eq!((new.epoch, new.seq), (1, 0));
        // The new epoch supersedes the cursor...
        assert_eq!(ing.offer(&new), IngestOutcome::Applied(1));
        // ...and the pre-restart envelope is rejected as stale.
        let outcome = ing.offer(&old);
        assert!(matches!(
            outcome,
            IngestOutcome::Quarantined(WarehouseError::StaleEpoch { current: 1, got: 0, .. })
        ));
    }

    #[test]
    fn paranoid_mode_heals_tampered_state_by_reconstruction() {
        let (mut src, mut ing) = setup(IngestConfig::paranoid());
        // Tamper: smuggle a joinable tuple into the C_Sale complement,
        // pushing the warehouse state outside the image of W — exactly
        // what the Theorem 4.1 check exists to catch.
        let mut tampered = ing.state().clone();
        let c_sale = tampered.relation(dwc_relalg::RelName::new("C_Sale")).unwrap();
        let extra = c_sale
            .union(&rel! { ["item", "clerk"] => ("Widget", "Mary") })
            .unwrap();
        tampered.insert_relation("C_Sale", extra);
        ing.integrator_mut().force_state(tampered);

        let env = sale_insert(&mut src, "Mac", "John");
        assert_eq!(ing.offer(&env), IngestOutcome::Applied(1));
        assert_eq!(ing.stats().invariant_failures, 1);
        assert_eq!(ing.stats().recoveries, 1);
        // The healed state is self-consistent: it round-trips through
        // W⁻¹ and W.
        let aug = ing.integrator().warehouse().clone();
        let roundtrip =
            aug.materialize(&aug.reconstruct_sources(ing.state()).unwrap()).unwrap();
        assert_eq!(ing.state(), &roundtrip);
    }

    #[test]
    fn paranoid_mode_is_silent_on_healthy_streams() {
        let (mut src, mut ing) = setup(IngestConfig::paranoid());
        for i in 0..4 {
            let env = sale_insert(&mut src, &format!("item{i}"), "Paula");
            assert_eq!(ing.offer(&env), IngestOutcome::Applied(1));
        }
        assert_eq!(ing.stats().invariant_failures, 0);
        assert_eq!(ing.stats().recoveries, 0);
        assert_eq!(ing.state(), &oracle(&src, &ing));
    }

    /// A report [`Update::with`] was handed a second `Sale` delta over
    /// the wrong header: it kept the first delta and recorded the
    /// mismatch, which only [`Update::apply`] used to report.
    fn poisoned(mut envelope: Envelope) -> Envelope {
        envelope.report = envelope
            .report
            .with("Sale", dwc_relalg::Delta::insert_only(rel! { ["other"] => (1,) }));
        envelope
    }

    #[test]
    fn poisoned_report_is_quarantined_before_sequencing() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let good = sale_insert(&mut src, "Mac", "Paula");
        let before = ing.state().clone();
        let outcome = ing.offer(&poisoned(good.clone()));
        assert!(
            matches!(
                outcome,
                IngestOutcome::Quarantined(WarehouseError::Relalg(
                    dwc_relalg::RelalgError::HeaderMismatch { .. }
                ))
            ),
            "{outcome:?}"
        );
        assert_eq!(ing.state(), &before, "a rejected report must not move the state");
        assert_eq!((ing.stats().applied, ing.stats().passes), (0, 0));
        // Its sequence number was not consumed.
        assert_eq!(ing.offer(&good), IngestOutcome::Applied(1));
        assert_eq!(ing.state(), &oracle(&src, &ing));
    }

    /// A parked successor whose pass fails is quarantined under its own
    /// sequence number, and the envelope that drained it still reports
    /// its own application. The successor is well-formed: it touches
    /// `Dept`, whose stored view was tampered to a wrong header, while a
    /// `Sale` report's pass never reads that view.
    #[test]
    fn failing_parked_successor_does_not_unapply_the_offered_envelope() {
        let mut catalog = crate::testutil::fig1_catalog();
        catalog.add_schema("Dept", &["dept"]).unwrap();
        let aug = crate::spec::WarehouseSpec::parse(
            catalog,
            &[("Sold", "Sale join Emp"), ("Depts", "Dept")],
        )
        .unwrap()
        .augment()
        .unwrap();
        let mut db = fig1_state();
        db.insert_relation("Dept", rel! { ["dept"] => ("Toys",) });
        let mut state = aug.materialize(&db).unwrap();
        state.insert_relation("Depts", rel! { ["zzz"] => (1,) });
        let integ = Integrator::from_state(aug, state, crate::integrator::IntegratorConfig).unwrap();
        let mut ing = IngestingIntegrator::new(integ, IngestConfig::default()).unwrap();
        let envelope = |seq, report| Envelope { source: SourceId::new("s"), epoch: 0, seq, report };
        let first =
            envelope(0, Update::inserting("Sale", rel! { ["item", "clerk"] => ("Mac", "Paula") }));
        let second = envelope(1, Update::inserting("Dept", rel! { ["dept"] => ("Tools",) }));
        assert_eq!(ing.offer(&second), IngestOutcome::Buffered);
        // Seq 0 applies and drains seq 1, whose maintenance fails: the
        // successor is quarantined under its own sequence number, and
        // the offered envelope — applied, sequence consumed — says so.
        assert_eq!(ing.offer(&first), IngestOutcome::Applied(1));
        assert_eq!(ing.sequencing()[0].next_seq, 1);
        assert_eq!(ing.quarantine().len(), 1);
        assert_eq!(ing.quarantine()[0].envelope, second);
        assert_eq!(ing.stats().applied, 1);
        assert_eq!(ing.offer(&first), IngestOutcome::Duplicate);
        // The slice's one pass over both reports failed; that is what
        // sent them one per pass.
        assert_eq!(ing.stats().fallbacks, 1);
    }

    #[test]
    fn slices_run_one_pass_over_their_net_delta() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let envs: Vec<Envelope> =
            (0..10).map(|i| sale_insert(&mut src, &format!("item{i}"), "Mary")).collect();
        for slice in envs.chunks(4) {
            let outcomes = ing.offer_batch(slice);
            assert!(outcomes.iter().all(|o| *o == IngestOutcome::Applied(1)));
        }
        assert_eq!(ing.state(), &oracle(&src, &ing));
        let p = ing.stats();
        assert_eq!((p.passes, p.fallbacks), (3, 0)); // ⌈10/4⌉
        // Counters count reports and reported tuples, not passes.
        let i = ing.integrator_stats();
        assert_eq!((i.updates_processed, i.delta_tuples), (10, 10));

        // Insert-then-delete cancels: no pass, the very same relations.
        let gone = src
            .apply_update(&Update::deleting("Sale", rel! { ["item", "clerk"] => ("item0", "Mary") }))
            .unwrap();
        let back = sale_insert(&mut src, "item0", "Mary");
        let before: Vec<_> = ing
            .state()
            .iter()
            .map(|(n, _)| ing.state().relation_shared(n).unwrap())
            .collect();
        assert_eq!(
            ing.offer_batch(&[gone, back]),
            vec![IngestOutcome::Applied(1), IngestOutcome::Applied(1)]
        );
        let after = ing.state().iter().map(|(n, _)| ing.state().relation_shared(n).unwrap());
        assert!(before.iter().zip(after).all(|(b, a)| std::sync::Arc::ptr_eq(b, &a)));
        assert_eq!(ing.stats().passes, 3);
        assert_eq!(ing.integrator_stats().updates_processed, 12);
        assert_eq!(ing.state(), &oracle(&src, &ing));
    }

    #[test]
    fn visibly_malformed_slices_go_one_report_per_pass() {
        let (mut src, mut ing) = setup(IngestConfig::default());
        let (mut src2, mut alone) = setup(IngestConfig::default());
        // The same tuple inserted twice with nothing in between: the
        // second report is not normalized w.r.t. the state it meets.
        let first = sale_insert(&mut src, "Mac", "Paula");
        let mut second = sale_insert(&mut src, "Modem", "John");
        second.report = first.report.clone();
        let third = sale_insert(&mut src, "Printer", "Mary");
        let slice = [first, second, third];
        let outcomes = ing.offer_batch(&slice);
        let p = ing.stats();
        assert_eq!((p.passes, p.fallbacks), (3, 1));
        // Exactly what offering them one by one does today.
        sale_insert(&mut src2, "Mac", "Paula");
        let expected: Vec<IngestOutcome> = slice.iter().map(|e| alone.offer(e)).collect();
        assert_eq!(outcomes, expected);
        assert_eq!(ing.state(), alone.state());
        assert_eq!(IngestStats { fallbacks: 0, ..ing.stats() }, alone.stats());
        assert_eq!(ing.integrator_stats(), alone.integrator_stats());
    }
}
