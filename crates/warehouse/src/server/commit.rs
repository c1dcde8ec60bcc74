//! The commit pipeline: the single place where batches become durable,
//! epochs are published, and acks are minted.
//!
//! Concentrating the fsync → publish → ack sequence in one module is a
//! correctness device, not just tidiness. The server's durability
//! contract — *a session never sees an ack for an envelope that could
//! be lost in a crash* — holds iff acks are constructed only after
//! [`DurableWarehouse::offer_batch`] returns, i.e. after the batch's
//! group fsync. The workspace lint enforces the shape: `Ack::new` may
//! appear only in this file (rule S505), so no other module can
//! fabricate an ack ahead of durability, and `.sync(` calls inside the
//! warehouse crate stay confined to the storage layer.
//!
//! The pipeline also owns the [`EpochCell`]: after every commit the new
//! warehouse state is published as an immutable snapshot epoch, which
//! readers load via cheap `Arc` clones without ever blocking ingestion.
//!
//! ## The health state machine
//!
//! A fallible medium turns "commit the batch" into a *state machine*:
//!
//! ```text
//!            retryable failure                 budget exhausted /
//!            (DWC-S002)                        fatal failure
//! Healthy ─────────────────▶ Degraded ─────────────────▶ ReadOnly
//!    ▲                          │   ▲                        │
//!    │   backoff retry heals    │   │ another retryable      │ probe
//!    │   and drains parked      │   │ failure: attempts+1,   │ heals
//!    └──────────────────────────┘   │ backoff doubles        │
//!    ▲                              └────────────────────────┘
//!    └── (a poisoned warehouse keeps failing probes: ReadOnly is
//!         then permanent until restart + recovery)
//! ```
//!
//! Invariants, in every state:
//!
//! * **Never acked early** — acks are minted only after a successful
//!   [`DurableWarehouse::commit_applied`]; a parked batch has no acks.
//! * **Never lost** — a parked batch stays queued (and its in-memory
//!   application stays in the warehouse's unlogged queue) until a
//!   retry commits it or the process dies; dying loses only unacked
//!   envelopes, which is exactly the crash contract.
//! * **Readers keep serving** — epochs are published only on commit
//!   success, so a degraded pipeline leaves the last published epoch
//!   intact for every reader.

use crate::channel::{Envelope, SourceId};
use crate::ingest::IngestOutcome;
use crate::server::batch::BatchItem;
use crate::server::session::SessionId;
use crate::storage::{DurableWarehouse, StorageError, StorageMedium};
use dwc_relalg::{EpochCell, EpochReader};
use std::fmt;

/// The per-envelope result a session is told after its batch's fsync.
/// A rendered, `'static`-friendly projection of [`IngestOutcome`]
/// (errors carry their display text, not the typed error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AckOutcome {
    /// Applied in sequence (count includes drained parked successors).
    Applied(usize),
    /// Already durably applied — idempotent replay.
    Duplicate,
    /// Parked out of order in the reorder window.
    Buffered,
    /// Rejected into quarantine; the text is the typed error rendered.
    Quarantined(String),
    /// The gap cannot fill from the stream; the session must replay its
    /// outbox (`recover` in the line protocol).
    NeedsRecovery(String),
    /// A gap-recovery request completed, applying this many envelopes.
    Recovered(usize),
}

impl AckOutcome {
    /// Projects an ingestion outcome into its ack form.
    pub fn from_ingest(outcome: &IngestOutcome) -> AckOutcome {
        match outcome {
            IngestOutcome::Applied(n) => AckOutcome::Applied(*n),
            IngestOutcome::Duplicate => AckOutcome::Duplicate,
            IngestOutcome::Buffered => AckOutcome::Buffered,
            IngestOutcome::Quarantined(e) => AckOutcome::Quarantined(e.to_string()),
            IngestOutcome::NeedsRecovery(e) => AckOutcome::NeedsRecovery(e.to_string()),
        }
    }

    /// Whether the envelope (or recovery) is durably reflected in the
    /// warehouse state.
    pub fn is_durable(&self) -> bool {
        matches!(
            self,
            AckOutcome::Applied(_) | AckOutcome::Duplicate | AckOutcome::Recovered(_)
        )
    }
}

impl fmt::Display for AckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AckOutcome::Applied(n) => write!(f, "applied {n}"),
            AckOutcome::Duplicate => write!(f, "duplicate"),
            AckOutcome::Buffered => write!(f, "buffered"),
            AckOutcome::Quarantined(e) => write!(f, "quarantined {e}"),
            AckOutcome::NeedsRecovery(e) => write!(f, "needs-recovery {e}"),
            AckOutcome::Recovered(n) => write!(f, "recovered {n}"),
        }
    }
}

/// A durable acknowledgment: sent to `session` only after the fsync
/// covering its envelope returned. Constructed exclusively by the
/// commit pipeline (lint rule S505).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ack {
    /// The session to notify.
    pub session: SessionId,
    /// The source the envelope belonged to.
    pub source: SourceId,
    /// The envelope's source epoch.
    pub epoch: u64,
    /// The envelope's sequence number.
    pub seq: u64,
    /// What happened to it.
    pub outcome: AckOutcome,
}

impl Ack {
    fn new(session: SessionId, source: SourceId, epoch: u64, seq: u64, outcome: AckOutcome) -> Ack {
        Ack { session, source, epoch, seq, outcome }
    }
}

/// What one group commit produced: the published snapshot epoch and the
/// per-envelope acks, in batch order.
#[derive(Clone, Debug)]
pub struct CommitReceipt {
    /// The snapshot epoch readers observe from this commit onward.
    pub epoch: u64,
    /// One ack per batched envelope, in arrival order.
    pub acks: Vec<Ack>,
}

/// The commit pipeline's position in the fault state machine (see the
/// module docs for the diagram).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Commits run normally.
    Healthy,
    /// A retryable storage failure parked the in-flight batch; the next
    /// backoff retry is scheduled. Reads keep serving the last
    /// published epoch; new batches park unacked.
    Degraded {
        /// Consecutive failed commit attempts (resets on progress).
        attempts: u32,
        /// Virtual time of the next retry.
        next_retry_at: u64,
    },
    /// The retry budget is exhausted or the failure was fatal: writes
    /// are refused with a typed nack, reads keep serving. A periodic
    /// probe still tries to heal — a healed medium exits to `Healthy`,
    /// a poisoned warehouse stays here until restart.
    ReadOnly {
        /// Virtual time of the next heal probe.
        next_probe_at: u64,
    },
}

/// Deterministic bounded-backoff tuning for degraded-mode retries.
/// Backoff for attempt `n` is `min(base << (n-1), max)` — exponential,
/// capped, and a pure function of the attempt count (no jitter: the
/// server is a deterministic state machine; schedules come from the
/// test harness, not the clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive failed attempts tolerated before `ReadOnly`.
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual microseconds.
    pub base_backoff_micros: u64,
    /// Backoff cap; also the `ReadOnly` probe interval.
    pub max_backoff_micros: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_micros: 1_000,
            max_backoff_micros: 64_000,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry attempt `attempts` (1-based).
    pub fn backoff(&self, attempts: u32) -> u64 {
        let doublings = attempts.saturating_sub(1).min(63);
        self.base_backoff_micros
            .checked_shl(doublings)
            .unwrap_or(u64::MAX)
            .min(self.max_backoff_micros)
    }
}

/// A batch the pipeline accepted but could not yet durably commit.
/// `outcomes` is `Some` iff the batch was already applied in memory
/// (the batch in flight when the failure struck) — its reports then
/// live on in the warehouse's unlogged queue, and `items` keep only
/// what their acks need; later arrivals park unapplied and apply on
/// drain, preserving arrival order end to end.
#[derive(Debug)]
struct ParkedBatch {
    items: Vec<BatchItem>,
    outcomes: Option<Vec<IngestOutcome>>,
}

/// The batch's envelopes, to be applied and logged. Each report moves
/// out of its item, which keeps the session, source, epoch and sequence
/// number its ack is minted from; the source is shared, not copied.
fn take_envelopes(items: &mut [BatchItem]) -> Vec<Envelope> {
    items
        .iter_mut()
        .map(|item| Envelope {
            source: item.envelope.source.clone(),
            epoch: item.envelope.epoch,
            seq: item.envelope.seq,
            report: std::mem::take(&mut item.envelope.report),
        })
        .collect()
}

/// What [`CommitPipeline::submit`] did with a batch.
#[derive(Clone, Debug)]
pub enum Submitted {
    /// The batch is durable; acks are minted.
    Committed(CommitReceipt),
    /// The batch is parked unacked (pipeline degraded or read-only);
    /// the acks arrive from a later [`CommitPipeline::tick_retry`].
    Parked {
        /// When the pipeline will next try to commit it.
        next_retry_at: u64,
    },
}

/// The single-writer commit loop state: the durable warehouse plus the
/// epoch cell readers subscribe to, plus the fault state machine.
#[derive(Debug)]
pub struct CommitPipeline<M: StorageMedium> {
    warehouse: DurableWarehouse<M>,
    epochs: EpochCell,
    retry: RetryPolicy,
    health: Health,
    parked: Vec<ParkedBatch>,
    last_error: Option<String>,
}

impl<M: StorageMedium> CommitPipeline<M> {
    /// Wraps a durable warehouse, seeding epoch 1 with its current
    /// state (freshly created or just recovered).
    pub fn new(warehouse: DurableWarehouse<M>) -> CommitPipeline<M> {
        let epochs = EpochCell::new(warehouse.state().clone());
        CommitPipeline {
            warehouse,
            epochs,
            retry: RetryPolicy::default(),
            health: Health::Healthy,
            parked: Vec::new(),
            last_error: None,
        }
    }

    /// Submits one batch to the health-aware commit path:
    ///
    /// * **Healthy** — apply in memory, group-commit, publish, ack.
    /// * **Healthy + retryable failure** — the batch parks (already
    ///   applied, records safe in the warehouse's unlogged queue), the
    ///   pipeline enters `Degraded`, and the caller gets
    ///   [`Submitted::Parked`] with the retry deadline.
    /// * **Degraded / ReadOnly** — the batch parks unapplied, keeping
    ///   arrival order for the eventual drain.
    /// * **fatal failure** — the pipeline enters `ReadOnly` and the
    ///   error propagates; the batch is dropped unacked (only a restart
    ///   plus recovery can serve writes again — admission control nacks
    ///   everything after this).
    pub fn submit(
        &mut self,
        mut batch: Vec<BatchItem>,
        now: u64,
    ) -> Result<Submitted, StorageError> {
        if self.health != Health::Healthy {
            let next_retry_at = self.retry_deadline().unwrap_or(now);
            self.park(batch);
            return Ok(Submitted::Parked { next_retry_at });
        }
        let outcomes = self.warehouse.apply_envelopes(take_envelopes(&mut batch));
        match self.warehouse.commit_applied() {
            Ok(()) => {
                let epoch = self.epochs.publish(self.warehouse.state().clone());
                let acks = Self::mint_acks(batch, outcomes);
                Ok(Submitted::Committed(CommitReceipt { epoch, acks }))
            }
            Err(e) if e.is_retryable() => {
                let next_retry_at = now.saturating_add(self.retry.backoff(1));
                self.health = Health::Degraded { attempts: 1, next_retry_at };
                self.last_error = Some(e.to_string());
                self.parked.push(ParkedBatch { items: batch, outcomes: Some(outcomes) });
                Ok(Submitted::Parked { next_retry_at })
            }
            Err(e) => {
                self.enter_read_only(&e, now);
                Err(e)
            }
        }
    }

    /// Parks a batch for a later [`CommitPipeline::tick_retry`] drain,
    /// unapplied and unacked.
    fn park(&mut self, batch: Vec<BatchItem>) {
        self.parked.push(ParkedBatch { items: batch, outcomes: None });
    }

    /// Runs the due retry or heal probe, if any. On success the
    /// warehouse heals (rolling a generation that durably captures
    /// everything applied before the failure) and the parked batches
    /// drain **in arrival order**, each publishing its own epoch and
    /// minting its acks — so a recovered server is indistinguishable,
    /// ack stream included, from one that never faulted. On another
    /// retryable failure the backoff doubles (attempts reset to 1 if
    /// this tick made progress); past the budget, or on a fatal error,
    /// the pipeline goes `ReadOnly`. Not due, or nothing parked and
    /// clean: returns empty.
    pub fn tick_retry(&mut self, now: u64) -> Vec<Ack> {
        let (due, was_read_only, attempts_before) = match self.health {
            Health::Healthy => (false, false, 0),
            Health::Degraded { attempts, next_retry_at } => {
                (now >= next_retry_at, false, attempts)
            }
            Health::ReadOnly { next_probe_at } => (now >= next_probe_at, true, 0),
        };
        if !due {
            return Vec::new();
        }
        // Heal first: rolls a fresh generation, making every record the
        // failed flush stranded durable via the snapshot.
        if let Err(e) = self.warehouse.heal() {
            self.note_retry_failure(&e, now, was_read_only, attempts_before, false);
            return Vec::new();
        }
        let mut acks = Vec::new();
        let mut progressed = false;
        while !self.parked.is_empty() {
            let outcomes = match self.parked[0].outcomes.take() {
                Some(outcomes) => outcomes,
                None => {
                    let envelopes = take_envelopes(&mut self.parked[0].items);
                    self.warehouse.apply_envelopes(envelopes)
                }
            };
            match self.warehouse.commit_applied() {
                Ok(()) => {
                    let batch = self.parked.remove(0);
                    self.epochs.publish(self.warehouse.state().clone());
                    acks.extend(Self::mint_acks(batch.items, outcomes));
                    progressed = true;
                }
                Err(e) => {
                    // The batch is applied now; remember its outcomes so
                    // the next drain does not apply it twice.
                    self.parked[0].outcomes = Some(outcomes);
                    self.note_retry_failure(
                        &e,
                        now,
                        was_read_only,
                        attempts_before,
                        progressed,
                    );
                    return acks;
                }
            }
        }
        self.health = Health::Healthy;
        self.last_error = None;
        acks
    }

    /// Books a failed retry/probe into the state machine.
    fn note_retry_failure(
        &mut self,
        e: &StorageError,
        now: u64,
        was_read_only: bool,
        attempts_before: u32,
        progressed: bool,
    ) {
        if was_read_only || !e.is_retryable() {
            self.enter_read_only(e, now);
            return;
        }
        let attempts = if progressed { 1 } else { attempts_before.saturating_add(1) };
        if attempts > self.retry.max_attempts {
            self.enter_read_only(e, now);
        } else {
            self.health = Health::Degraded {
                attempts,
                next_retry_at: now.saturating_add(self.retry.backoff(attempts)),
            };
            self.last_error = Some(e.to_string());
        }
    }

    fn enter_read_only(&mut self, e: &StorageError, now: u64) {
        self.health = Health::ReadOnly {
            next_probe_at: now.saturating_add(self.retry.max_backoff_micros),
        };
        self.last_error = Some(e.to_string());
    }

    fn mint_acks(items: Vec<BatchItem>, outcomes: Vec<IngestOutcome>) -> Vec<Ack> {
        items
            .into_iter()
            .zip(outcomes)
            .map(|(item, outcome)| {
                Ack::new(
                    item.session,
                    item.envelope.source,
                    item.envelope.epoch,
                    item.envelope.seq,
                    AckOutcome::from_ingest(&outcome),
                )
            })
            .collect()
    }

    /// The pipeline's position in the fault state machine.
    pub fn health(&self) -> Health {
        self.health
    }

    /// Envelopes parked unacked across all queued batches.
    pub fn parked_len(&self) -> usize {
        self.parked.iter().map(|b| b.items.len()).sum()
    }

    /// The next retry or probe deadline, if the pipeline is not
    /// healthy. Feeds the server's `next_deadline`, so a failed commit
    /// re-arms the tick schedule instead of waiting for traffic.
    pub fn retry_deadline(&self) -> Option<u64> {
        match self.health {
            Health::Healthy => None,
            Health::Degraded { next_retry_at, .. } => Some(next_retry_at),
            Health::ReadOnly { next_probe_at } => Some(next_probe_at),
        }
    }

    /// The last storage failure's rendered form, while unhealthy.
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    /// Replaces the retry/backoff tuning.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Runs durable gap recovery from a session's replayed outbox and
    /// publishes the repaired state. The single ack reports the
    /// post-recovery cursor position.
    pub fn recover_source(
        &mut self,
        session: SessionId,
        source: &SourceId,
        log: &[Envelope],
    ) -> Result<CommitReceipt, StorageError> {
        let applied = self.warehouse.recover_from_log(source, log)?;
        let epoch = self.epochs.publish(self.warehouse.state().clone());
        let (cursor_epoch, next_seq) = self
            .warehouse
            .ingestor()
            .sequencing()
            .into_iter()
            .find(|s| &s.source == source)
            .map(|s| (s.epoch, s.next_seq))
            .unwrap_or((0, 0));
        let ack = Ack::new(
            session,
            source.clone(),
            cursor_epoch,
            next_seq,
            AckOutcome::Recovered(applied),
        );
        Ok(CommitReceipt { epoch, acks: vec![ack] })
    }

    /// A reader handle onto the published snapshot epochs. Clones are
    /// cheap; loads never block the commit loop.
    pub fn reader(&self) -> EpochReader {
        self.epochs.reader()
    }

    /// The snapshot epoch readers currently observe.
    pub fn epoch(&self) -> u64 {
        self.epochs.epoch()
    }

    /// The wrapped durable store (read-only).
    pub fn warehouse(&self) -> &DurableWarehouse<M> {
        &self.warehouse
    }

    /// Mutable access for operator paths (snapshot, quarantine
    /// triage). Callers must republish via [`CommitPipeline::publish`]
    /// if they change the state.
    pub fn warehouse_mut(&mut self) -> &mut DurableWarehouse<M> {
        &mut self.warehouse
    }

    /// Publishes the current warehouse state as a fresh snapshot epoch
    /// (after an operator mutation through
    /// [`CommitPipeline::warehouse_mut`]).
    pub fn publish(&mut self) -> u64 {
        self.epochs.publish(self.warehouse.state().clone())
    }
}
