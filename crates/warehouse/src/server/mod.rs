//! The warehouse server core: concurrent source sessions, epoch
//! snapshot reads, and group-committed durable ingestion.
//!
//! This module promotes [`DurableWarehouse`] from a library type into a
//! long-running multi-client service — as a **pure state machine**. All
//! concurrency policy lives here (sessions, batching deadlines, commit
//! ordering, ack minting); all actual threads, sockets and timers live
//! in the binary's runtime layer, which merely forwards events into
//! [`ServerCore`]. The payoff is testability: the deterministic
//! scheduler harness in `dwc-testkit::sched` drives the same core over
//! a simulated filesystem, so "reader observes a torn epoch", "ack sent
//! before fsync" and "lost wakeup in the batcher" are reproducible
//! single-seed failures instead of flaky thread races.
//!
//! ## Shape
//!
//! ```text
//!  sessions (many)          ServerCore (single writer)        readers (many)
//!  ───────────────          ─────────────────────────         ──────────────
//!  connect ───────────────▶ SessionManager ─ grant(resume)
//!  deliver(env) ──────────▶ Batcher ──full──▶ CommitPipeline
//!  commit_pending(now) ───▶ Batcher ──idle──▶   │ offer_batch (N frames, 1 append, 1 fsync)
//!  tick(now) ─────────────▶ Batcher ──aged──▶   │ publish epoch ───▶ EpochReader.load()
//!  acks ◀── per-session ◀───────────────────────┘ mint acks
//! ```
//!
//! * **Writes** enter via [`ServerCore::deliver`] and are grouped by
//!   the [`Batcher`]. A batch is released when it is full, when the
//!   engine runs out of ready messages ([`EngineStep::Commit`]: the
//!   self-clocking group commit), or — only while the engine stays busy
//!   — once its oldest envelope reaches the [`BatchPolicy`] age
//!   ceiling. A released batch goes through [`CommitPipeline::submit`]:
//!   N WAL frames in one append, **one** fsync, then epoch publication,
//!   then acks. A session is never acked before its envelope's fsync
//!   returned.
//! * **The engine loop** asks [`ServerCore::next_step`] what to do
//!   next; [`next_step`] is the whole decision, a pure function the
//!   runtime and the scheduler suites share. A due deadline runs before
//!   any message, ready messages run before a commit, and the engine
//!   blocks only when nothing is pending.
//! * **Reads** never enter the core at all: a [`QueryClient`] holds an
//!   [`EpochReader`] and answers against an immutable [`StateEpoch`]
//!   snapshot, so queries neither block nor observe half-applied
//!   batches.
//! * **Recovery**: after a restart, `Recovery::open` rebuilds the
//!   warehouse (including group-committed WAL frames) and
//!   [`ServerCore::connect`] hands every returning source its durable
//!   resume point, so sources replay exactly the unacked suffix.
//!
//! [`StateEpoch`]: dwc_relalg::StateEpoch

pub mod batch;
pub mod commit;
pub mod session;

pub use batch::{BatchItem, BatchPolicy, Batcher};
pub use commit::{Ack, AckOutcome, CommitPipeline, CommitReceipt, Health, RetryPolicy, Submitted};
pub use session::{SessionGrant, SessionId, SessionManager};

use crate::channel::{Envelope, SourceId};
use crate::error::WarehouseError;
use crate::spec::AugmentedWarehouse;
use crate::storage::{DurableWarehouse, StorageError, StorageMedium};
use dwc_relalg::{EpochReader, RaExpr, Relation, StateEpoch};
use std::fmt;
use std::sync::Arc;

/// Errors surfaced to a server client (distinct from storage poisoning,
/// which fails every later commit).
#[derive(Clone, Debug, PartialEq)]
pub enum ServerError {
    /// The session handle was never granted by this server.
    UnknownSession(SessionId),
    /// The envelope names a different source than the session owns.
    SourceMismatch {
        /// The session that delivered the envelope.
        session: SessionId,
        /// The source the session was granted for.
        expected: SourceId,
        /// The source the envelope claimed.
        got: SourceId,
    },
    /// The commit path failed durably; the warehouse is poisoned.
    Storage(StorageError),
    /// The server is in read-only degradation: reads keep serving, but
    /// writes are refused until the medium heals or the process
    /// restarts into recovery. The typed nack of the fault model.
    ReadOnly {
        /// The storage failure that forced read-only mode, rendered.
        detail: String,
    },
    /// Admission control: too many envelopes are already pending
    /// (batched + parked). Back off and retry — nothing was accepted.
    Busy {
        /// A hint for when capacity may free up, in virtual
        /// microseconds from the rejected delivery.
        retry_after_micros: u64,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownSession(s) => write!(f, "unknown session {s}"),
            ServerError::SourceMismatch { session, expected, got } => write!(
                f,
                "session {session} owns source {expected:?} but delivered for {got:?}"
            ),
            ServerError::Storage(e) => write!(f, "storage failure: {e}"),
            ServerError::ReadOnly { detail } => {
                write!(f, "server is read-only: {detail}")
            }
            ServerError::Busy { retry_after_micros } => {
                write!(f, "server busy; retry after {retry_after_micros}us")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<StorageError> for ServerError {
    fn from(e: StorageError) -> ServerError {
        ServerError::Storage(e)
    }
}

/// What the single-writer engine loop does next; see [`next_step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineStep {
    /// A deadline is due: call [`ServerCore::tick`] before taking any
    /// message, however many are ready.
    Tick,
    /// Take the next ready message.
    Take,
    /// No message is ready and envelopes are pending: commit them now
    /// with [`ServerCore::commit_pending`]. Whatever arrives while that
    /// commit runs becomes the next batch.
    Commit,
    /// Nothing is ready or pending: block for a message, but no later
    /// than `until` (virtual microseconds; `None` waits for traffic).
    Block {
        /// The next deadline [`ServerCore::tick`] must run by.
        until: Option<u64>,
    },
}

/// The engine loop's decision at virtual time `now`, given the core's
/// next deadline, whether envelopes are pending in the batcher, and
/// whether a message is ready. A due deadline comes first, then a ready
/// message, then the pending batch, so a due deadline — the busy-engine
/// batch ceiling, a degraded-mode retry, a read-only heal probe, idle
/// reaping — runs even under a flood of messages, and the engine never
/// blocks while a batch is pending.
pub fn next_step(now: u64, deadline: Option<u64>, pending: bool, ready: bool) -> EngineStep {
    if deadline.is_some_and(|at| at <= now) {
        EngineStep::Tick
    } else if ready {
        EngineStep::Take
    } else if pending {
        EngineStep::Commit
    } else {
        EngineStep::Block { until: deadline }
    }
}

/// Server-side counters, for the `stats` protocol verb and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Envelopes accepted into the batcher.
    pub delivered: u64,
    /// Batches durably committed (== group fsyncs from this path).
    pub batches_committed: u64,
    /// Acks minted across all commits and recoveries.
    pub acks_minted: u64,
}

/// The single-writer server state machine: session table + batcher +
/// commit pipeline (with its health state machine). The runtime owns
/// exactly one and feeds it events; everything here is deterministic
/// given the event sequence and the virtual clock values passed in.
#[derive(Debug)]
pub struct ServerCore<M: StorageMedium> {
    sessions: SessionManager,
    batcher: Batcher,
    pipeline: CommitPipeline<M>,
    stats: ServerStats,
    /// Admission bound: batched + parked envelopes beyond this nack
    /// [`ServerError::Busy`].
    max_pending: usize,
    /// Idle sessions silent longer than this are reaped; `None`
    /// disables reaping (library embeddings, tests that drive time
    /// sparsely).
    idle_timeout: Option<u64>,
    /// The latest virtual time any event carried — the clock substitute
    /// for the clock-free entry points (`connect`, `flush`).
    last_now: u64,
    reaped: Vec<(SessionId, SourceId)>,
}

impl<M: StorageMedium> ServerCore<M> {
    /// A server over `warehouse` (fresh or recovered) batching under
    /// `policy`.
    pub fn new(warehouse: DurableWarehouse<M>, policy: BatchPolicy) -> ServerCore<M> {
        ServerCore {
            sessions: SessionManager::new(),
            batcher: Batcher::new(policy),
            pipeline: CommitPipeline::new(warehouse),
            stats: ServerStats::default(),
            max_pending: 4096,
            idle_timeout: None,
            last_now: 0,
            reaped: Vec::new(),
        }
    }

    /// Bounds the pending (batched + parked) envelopes admitted before
    /// deliveries nack [`ServerError::Busy`]. Values below 1 are
    /// treated as 1.
    pub fn set_max_pending(&mut self, max_pending: usize) {
        self.max_pending = max_pending.max(1);
    }

    /// Enables (or with `None` disables) idle-session reaping: sessions
    /// silent for longer than `timeout` virtual microseconds are
    /// evicted on the next tick. Reaping loses nothing — durable
    /// cursors make the reconnect grant resume exactly.
    pub fn set_idle_timeout(&mut self, timeout: Option<u64>) {
        self.idle_timeout = timeout;
    }

    /// Replaces the commit pipeline's retry/backoff tuning.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.pipeline.set_retry_policy(retry);
    }

    /// Connects (or reconnects) a source, returning its session and the
    /// durable resume point — the cursor the warehouse recovered or
    /// last acked. The session's liveness is stamped at the time of the
    /// last observed event; runtimes with a real clock should prefer
    /// [`ServerCore::connect_at`] so a connect on a long-quiet server
    /// is not instantly idle.
    pub fn connect(&mut self, source: SourceId) -> SessionGrant {
        let sequencing = self.pipeline.warehouse().ingestor().sequencing();
        self.sessions.connect_at(source, &sequencing, self.last_now)
    }

    /// [`ServerCore::connect`] at virtual time `now`: advances the
    /// core's event clock first, so the new session's idle window
    /// starts at the connect, not at the previous event.
    pub fn connect_at(&mut self, source: SourceId, now: u64) -> SessionGrant {
        self.last_now = self.last_now.max(now);
        self.connect(source)
    }

    /// Accepts one envelope from `session` at virtual time `now`.
    /// Returns the acks released by this event: empty while the
    /// envelope waits in the batcher (or parks under degradation), or
    /// one ack per batched envelope (across **all** sessions in the
    /// batch — route by [`Ack::session`]) when this push filled the
    /// batch and forced a group commit.
    ///
    /// Fault-model nacks, checked in order: unknown session / source
    /// mismatch (protocol errors), [`ServerError::ReadOnly`] when the
    /// pipeline has degraded past retrying, [`ServerError::Busy`] when
    /// pending admission is exhausted. A nacked envelope was **not**
    /// accepted; the source retransmits it later (sequencing makes the
    /// retry idempotent).
    pub fn deliver(
        &mut self,
        session: SessionId,
        envelope: Envelope,
        now: u64,
    ) -> Result<Vec<Ack>, ServerError> {
        let owner = self
            .sessions
            .source_of(session)
            .ok_or(ServerError::UnknownSession(session))?;
        if owner != &envelope.source {
            return Err(ServerError::SourceMismatch {
                session,
                expected: owner.clone(),
                got: envelope.source.clone(),
            });
        }
        self.last_now = self.last_now.max(now);
        self.sessions.touch(session, now);
        if let Health::ReadOnly { .. } = self.pipeline.health() {
            return Err(ServerError::ReadOnly { detail: self.read_only_detail() });
        }
        if self.batcher.len() + self.pipeline.parked_len() >= self.max_pending {
            return Err(ServerError::Busy { retry_after_micros: self.retry_after(now) });
        }
        self.stats.delivered += 1;
        match self.batcher.push(session, envelope, now) {
            Some(batch) => self.commit(batch, now),
            None => Ok(Vec::new()),
        }
    }

    /// Records a heartbeat from `session` at virtual time `now`,
    /// deferring its idle-timeout eviction. The `ping` protocol verb.
    pub fn ping(&mut self, session: SessionId, now: u64) -> Result<(), ServerError> {
        self.sessions
            .source_of(session)
            .ok_or(ServerError::UnknownSession(session))?;
        self.last_now = self.last_now.max(now);
        self.sessions.touch(session, now);
        Ok(())
    }

    /// Timer tick at virtual time `now`: commits the pending batch if
    /// its oldest envelope has reached the age ceiling (the engine was
    /// busy that long), runs the due degraded-mode retry or read-only
    /// heal probe (draining parked batches on success), and reaps idle
    /// sessions. The runtime must call this by
    /// [`ServerCore::next_deadline`], before any further message —
    /// sleeping past it with a retry scheduled, or starving it behind
    /// traffic, is the lost-wakeup bug the scheduler tests hunt.
    pub fn tick(&mut self, now: u64) -> Result<Vec<Ack>, ServerError> {
        self.last_now = self.last_now.max(now);
        let mut acks = match self.batcher.poll(now) {
            Some(batch) => self.commit(batch, now)?,
            None => Vec::new(),
        };
        // One epoch is published per drained batch, so the epoch delta
        // is the batch count this retry tick committed.
        let epoch_before = self.pipeline.epoch();
        let retried = self.pipeline.tick_retry(now);
        self.stats.batches_committed += self.pipeline.epoch() - epoch_before;
        self.stats.acks_minted += retried.len() as u64;
        acks.extend(retried);
        if let Some(timeout) = self.idle_timeout {
            let reaped = self.sessions.reap_idle(now, timeout);
            self.reaped.extend(reaped);
        }
        Ok(acks)
    }

    /// The self-clocking group commit at virtual time `now`: commits
    /// whatever is pending because the engine has nothing else to do
    /// ([`EngineStep::Commit`]). Under degradation the batch parks, as
    /// for any commit.
    pub fn commit_pending(&mut self, now: u64) -> Result<Vec<Ack>, ServerError> {
        self.last_now = self.last_now.max(now);
        self.flush()
    }

    /// Commits whatever is pending regardless of deadlines (shutdown
    /// barrier). Under degradation the batch parks instead — shutting
    /// down then loses only unacked envelopes, which is the crash
    /// contract.
    pub fn flush(&mut self) -> Result<Vec<Ack>, ServerError> {
        match self.batcher.flush() {
            Some(batch) => {
                let now = self.last_now;
                self.commit(batch, now)
            }
            None => Ok(Vec::new()),
        }
    }

    /// What the engine loop does next at virtual time `now`, with
    /// `ready` telling whether a message is waiting: [`next_step`] over
    /// this core's deadline and batcher.
    pub fn next_step(&self, now: u64, ready: bool) -> EngineStep {
        next_step(now, self.next_deadline(), !self.batcher.is_empty(), ready)
    }

    /// Envelopes waiting in the batcher for the next commit (parked
    /// batches not included; see [`ServerCore::parked_len`]).
    pub fn pending_len(&self) -> usize {
        self.batcher.len()
    }

    /// When [`ServerCore::tick`] must next run: the earliest of the
    /// batcher's age ceiling, the pipeline's retry/probe deadline (so a
    /// failed commit re-arms the schedule instead of waiting for
    /// traffic), and the next idle-session expiry.
    pub fn next_deadline(&self) -> Option<u64> {
        let idle = match self.idle_timeout {
            Some(timeout) => self
                .sessions
                .oldest_last_seen()
                .map(|seen| seen.saturating_add(timeout).saturating_add(1)),
            None => None,
        };
        [self.batcher.next_deadline(), self.pipeline.retry_deadline(), idle]
            .into_iter()
            .flatten()
            .min()
    }

    /// Durable gap recovery for a session: replays its outbox slice
    /// through the warehouse and returns the single `Recovered` ack.
    /// Flushes any pending batch first so recovery observes every
    /// delivered envelope. Refused while unhealthy — recovery must not
    /// jump the queue of parked batches ([`ServerError::Busy`] while
    /// degraded, [`ServerError::ReadOnly`] past that).
    pub fn recover_source(
        &mut self,
        session: SessionId,
        log: &[Envelope],
    ) -> Result<Vec<Ack>, ServerError> {
        let source = self
            .sessions
            .source_of(session)
            .ok_or(ServerError::UnknownSession(session))?
            .clone();
        match self.pipeline.health() {
            Health::Healthy => {}
            Health::Degraded { .. } => {
                return Err(ServerError::Busy {
                    retry_after_micros: self.retry_after(self.last_now),
                });
            }
            Health::ReadOnly { .. } => {
                return Err(ServerError::ReadOnly { detail: self.read_only_detail() });
            }
        }
        self.sessions.touch(session, self.last_now);
        let mut acks = self.flush()?;
        let receipt = self.pipeline.recover_source(session, &source, log)?;
        self.stats.acks_minted += receipt.acks.len() as u64;
        acks.extend(receipt.acks);
        Ok(acks)
    }

    /// Sessions evicted by idle-timeout reaping since the last call
    /// (the runtime closes their connections; the sources reconnect
    /// into fresh grants).
    pub fn take_reaped(&mut self) -> Vec<(SessionId, SourceId)> {
        std::mem::take(&mut self.reaped)
    }

    /// The commit pipeline's health state.
    pub fn health(&self) -> Health {
        self.pipeline.health()
    }

    /// Envelopes applied but parked awaiting a retried commit.
    pub fn parked_len(&self) -> usize {
        self.pipeline.parked_len()
    }

    fn read_only_detail(&self) -> String {
        self.pipeline
            .last_error()
            .unwrap_or("storage degraded to read-only")
            .to_owned()
    }

    fn retry_after(&self, now: u64) -> u64 {
        match self.pipeline.retry_deadline() {
            Some(deadline) => deadline.saturating_sub(now).max(1),
            None => 1_000,
        }
    }

    /// A query handle decoupled from the commit loop: answers against
    /// published snapshot epochs only.
    pub fn query_client(&self) -> QueryClient {
        QueryClient {
            warehouse: self.pipeline.warehouse().ingestor().integrator().warehouse().clone(),
            reader: self.pipeline.reader(),
        }
    }

    /// A raw reader handle onto the published epochs.
    pub fn reader(&self) -> EpochReader {
        self.pipeline.reader()
    }

    /// The snapshot epoch readers currently observe.
    pub fn commit_epoch(&self) -> u64 {
        self.pipeline.epoch()
    }

    /// The server counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The underlying durable store (read-only).
    pub fn warehouse(&self) -> &DurableWarehouse<M> {
        self.pipeline.warehouse()
    }

    /// The commit pipeline, for operator paths (quarantine triage,
    /// manual snapshots) that must republish after mutating.
    pub fn pipeline_mut(&mut self) -> &mut CommitPipeline<M> {
        &mut self.pipeline
    }

    fn commit(&mut self, batch: Vec<BatchItem>, now: u64) -> Result<Vec<Ack>, ServerError> {
        match self.pipeline.submit(batch, now)? {
            Submitted::Committed(receipt) => {
                self.stats.batches_committed += 1;
                self.stats.acks_minted += receipt.acks.len() as u64;
                Ok(receipt.acks)
            }
            // Parked: acks arrive from a later tick's retry drain.
            Submitted::Parked { .. } => Ok(Vec::new()),
        }
    }
}

/// A read-side client: answers source queries against the latest
/// *published* snapshot epoch via the Theorem 3.1 query translation.
/// Cloneable and independent of the commit loop — a slow query holds an
/// `Arc` to an old epoch, never a lock the writer needs.
#[derive(Clone, Debug)]
pub struct QueryClient {
    warehouse: AugmentedWarehouse,
    reader: EpochReader,
}

impl QueryClient {
    /// Answers `q` against the current snapshot, returning the epoch it
    /// was evaluated at alongside the result.
    pub fn answer(&self, q: &RaExpr) -> Result<(u64, Relation), WarehouseError> {
        self.answer_at(&self.reader.load(), q)
    }

    /// Answers `q` against the given published snapshot — one a caller
    /// loaded earlier with [`QueryClient::snapshot`] — returning its
    /// epoch alongside the result.
    pub fn answer_at(
        &self,
        snap: &StateEpoch,
        q: &RaExpr,
    ) -> Result<(u64, Relation), WarehouseError> {
        let rel = self.warehouse.answer_at_warehouse(q, &snap.state)?;
        Ok((snap.epoch, rel))
    }

    /// The snapshot epoch a query issued now would observe.
    pub fn epoch(&self) -> u64 {
        self.reader.epoch()
    }

    /// The full current snapshot (epoch + immutable state).
    pub fn snapshot(&self) -> Arc<StateEpoch> {
        self.reader.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The starvation regression: once a deadline is due, the engine
    /// ticks before taking another message, however many keep coming.
    /// A loop that ticked only when its blocking receive timed out
    /// skipped due retries for as long as a flood of `ping`s lasted.
    #[test]
    fn a_due_deadline_runs_before_a_flood_of_messages() {
        let retry_at = 1_000;
        let mut ticked_at = None;
        for now in (0..5_000).step_by(7) {
            match next_step(now, Some(retry_at), false, true) {
                EngineStep::Tick => {
                    ticked_at = Some(now);
                    break;
                }
                step => assert_eq!(step, EngineStep::Take, "at {now}"),
            }
        }
        let ticked_at = ticked_at.expect("the flood starved the due retry");
        assert!((retry_at..retry_at + 7).contains(&ticked_at), "ticked at {ticked_at}");
    }

    /// The engine never blocks while a batch is pending: with nothing
    /// ready it commits; with a message ready it takes it first, so
    /// what arrives during one commit joins the next batch.
    #[test]
    fn pending_envelopes_commit_as_soon_as_nothing_is_ready() {
        for deadline in [None, Some(50), Some(10_000)] {
            assert_eq!(next_step(10, deadline, true, false), EngineStep::Commit);
            assert_eq!(next_step(10, deadline, true, true), EngineStep::Take);
            match next_step(10, deadline, false, false) {
                EngineStep::Block { until } => assert_eq!(until, deadline),
                step => panic!("idle engine with nothing pending chose {step:?}"),
            }
        }
        assert_eq!(next_step(50, Some(50), true, false), EngineStep::Tick);
        assert_eq!(next_step(50, Some(50), false, false), EngineStep::Tick);
    }
}
