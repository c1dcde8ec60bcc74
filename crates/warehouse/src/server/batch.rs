//! Group-commit batching: accumulate envelopes from many sessions and
//! release them as one durable batch.
//!
//! The batcher is a pure state machine over a virtual clock — no
//! threads, no timers. The runtime (or the deterministic test harness)
//! drives it with four calls:
//!
//! * [`Batcher::push`] when an envelope arrives — returns a full batch
//!   the moment the size cap is hit;
//! * [`Batcher::flush`] when the engine has no ready message left —
//!   the self-clocking group commit: whatever arrived while the
//!   previous commit ran is the next batch, so batches grow with load
//!   and a lone envelope waits for nothing;
//! * [`Batcher::poll`] on a tick — returns the pending batch once the
//!   oldest queued envelope has reached the policy's age ceiling, which
//!   only happens while the engine stays busy with other messages;
//! * [`Batcher::next_deadline`] to learn *when* that tick must happen.
//!
//! The ceiling is derived from the arrival time of the **oldest**
//! pending envelope, not the newest: a steady flood of other messages
//! cannot postpone the commit forever. The "lost wakeup" failure class
//! — the runtime blocks with envelopes pending — is closed twice over:
//! the engine's step function (`server::next_step`) commits instead of
//! blocking whenever envelopes are pending, and `next_deadline` returns
//! `Some` exactly when `pending` is non-empty. The scheduler suites
//! assert both under seeded interleavings.
//!
//! A released batch leaves the batcher *before* its commit runs, so a
//! commit failure cannot re-arm a deadline here — the batcher is empty
//! and `next_deadline` is `None`. Deadline continuity across failed
//! commits is the commit pipeline's job: a retryably-failed batch parks
//! there and `CommitPipeline::retry_deadline` feeds the server's
//! `next_deadline`, so the wakeup chain never drops (regression-tested
//! in the fault suite).

use crate::channel::Envelope;
use crate::server::session::SessionId;

/// When the batcher releases a pending group for commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Release as soon as this many envelopes are pending. `1` degrades
    /// group commit to one fsync per envelope.
    pub max_batch: usize,
    /// The age ceiling of a pending batch while the engine stays busy:
    /// once the oldest pending envelope has waited this many virtual
    /// microseconds, the next tick releases the batch even though
    /// messages keep arriving. Not a wait — an engine with nothing
    /// ready commits at once.
    pub max_wait_micros: u64,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy { max_batch: 64, max_wait_micros: 2_000 }
    }
}

impl BatchPolicy {
    /// A policy with the given size cap and the default age ceiling.
    pub fn with_max_batch(max_batch: usize) -> BatchPolicy {
        BatchPolicy { max_batch: max_batch.max(1), ..BatchPolicy::default() }
    }
}

/// One queued write: the envelope plus the session that must be acked
/// after the batch's fsync.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchItem {
    /// The session awaiting the ack.
    pub session: SessionId,
    /// The envelope to offer and log.
    pub envelope: Envelope,
}

/// The group-commit accumulator. See the module docs for the driving
/// protocol.
#[derive(Clone, Debug)]
pub struct Batcher {
    policy: BatchPolicy,
    pending: Vec<BatchItem>,
    oldest_at_micros: u64,
}

impl Batcher {
    /// An empty batcher under `policy` (a zero `max_batch` is clamped
    /// to 1).
    pub fn new(mut policy: BatchPolicy) -> Batcher {
        policy.max_batch = policy.max_batch.max(1);
        Batcher { policy, pending: Vec::new(), oldest_at_micros: 0 }
    }

    /// The policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Number of envelopes waiting for the next commit.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Queues one envelope at virtual time `now`. Returns the full
    /// batch when the size cap is reached; otherwise the envelope waits
    /// for [`flush`](Batcher::flush), [`poll`](Batcher::poll) or more
    /// pushes.
    pub fn push(
        &mut self,
        session: SessionId,
        envelope: Envelope,
        now: u64,
    ) -> Option<Vec<BatchItem>> {
        if self.pending.is_empty() {
            self.oldest_at_micros = now;
        }
        self.pending.push(BatchItem { session, envelope });
        if self.pending.len() >= self.policy.max_batch {
            self.take()
        } else {
            None
        }
    }

    /// Releases the pending batch if the oldest envelope has reached the
    /// age ceiling at virtual time `now`.
    pub fn poll(&mut self, now: u64) -> Option<Vec<BatchItem>> {
        match self.next_deadline() {
            Some(deadline) if now >= deadline => self.take(),
            _ => None,
        }
    }

    /// Releases whatever is pending regardless of deadlines: the idle
    /// engine's group commit, shutdown, test barriers.
    pub fn flush(&mut self) -> Option<Vec<BatchItem>> {
        self.take()
    }

    /// The virtual time by which [`poll`](Batcher::poll) must be called
    /// if the engine is still busy; `Some` exactly when envelopes are
    /// pending.
    pub fn next_deadline(&self) -> Option<u64> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.oldest_at_micros.saturating_add(self.policy.max_wait_micros))
        }
    }

    fn take(&mut self) -> Option<Vec<BatchItem>> {
        if self.pending.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.pending))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::SourceId;
    use dwc_relalg::Update;

    fn env(seq: u64) -> Envelope {
        Envelope { source: SourceId::new("s"), epoch: 1, seq, report: Update::new() }
    }

    #[test]
    fn size_cap_releases_exactly_at_max_batch() {
        let mut b = Batcher::new(BatchPolicy { max_batch: 3, max_wait_micros: 1_000 });
        assert!(b.push(SessionId::raw_for_tests(1), env(0), 0).is_none());
        assert!(b.push(SessionId::raw_for_tests(1), env(1), 1).is_none());
        let batch = b.push(SessionId::raw_for_tests(2), env(0), 2).expect("full");
        assert_eq!(batch.len(), 3);
        assert!(b.is_empty());
        assert_eq!(b.next_deadline(), None);
    }

    #[test]
    fn deadline_tracks_the_oldest_envelope() {
        let mut b = Batcher::new(BatchPolicy { max_batch: 100, max_wait_micros: 50 });
        assert_eq!(b.next_deadline(), None);
        b.push(SessionId::raw_for_tests(1), env(0), 10);
        // A later push must NOT extend the deadline.
        b.push(SessionId::raw_for_tests(1), env(1), 40);
        assert_eq!(b.next_deadline(), Some(60));
        assert!(b.poll(59).is_none());
        let batch = b.poll(60).expect("deadline hit");
        assert_eq!(batch.len(), 2);
        assert!(b.poll(1_000).is_none(), "nothing pending, nothing released");
    }

    #[test]
    fn flush_drains_and_zero_max_batch_is_clamped() {
        let mut b = Batcher::new(BatchPolicy { max_batch: 0, max_wait_micros: 10 });
        let batch = b.push(SessionId::raw_for_tests(1), env(0), 0).expect("clamped to 1");
        assert_eq!(batch.len(), 1);
        assert!(b.flush().is_none(), "nothing pending after a self-released batch");

        let mut b = Batcher::new(BatchPolicy { max_batch: 8, max_wait_micros: 10 });
        assert!(b.push(SessionId::raw_for_tests(1), env(1), 0).is_none());
        assert_eq!(b.flush().map(|v| v.len()), Some(1));
        assert!(b.is_empty());
    }
}
