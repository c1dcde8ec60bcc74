//! The source→warehouse report channel: sequenced envelopes.
//!
//! Figure 1's solid arrow is a *channel*, and real channels lose,
//! repeat, and reorder messages. This module gives every report an
//! address: an [`Envelope`] carries the reporting source's identity, an
//! **epoch** (bumped when the source's sequencer restarts) and a
//! per-source **monotone sequence number**, so the receiving end
//! ([`crate::ingest::IngestingIntegrator`]) can deduplicate replays,
//! re-order within a bounded window, and *detect* what it can no longer
//! see.
//!
//! [`SequencedSource`] wraps a [`SourceSite`] with the sending half: it
//! stamps each normalized delta report into an envelope and keeps the
//! emitted envelopes in an **outbox log**. The log is what makes lost
//! reports recoverable without ever querying the source's relational
//! state: retransmission replays *reported deltas*, so recovery stays
//! inside the paper's self-maintainability contract (Theorem 4.1) — the
//! warehouse rebuilds from reports alone.

use crate::error::Result;
use crate::integrator::{SourceSite, SourceStats};
use dwc_relalg::{Catalog, DbState, Update};
use std::fmt;
use std::sync::Arc;

/// Identifier of a reporting source site (e.g. `"paris"`). Shared, not
/// copied: every envelope, cursor and ack of a source names it, so a
/// clone is a reference-count bump.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(Arc<str>);

impl SourceId {
    /// Wraps a source name.
    pub fn new(name: impl Into<String>) -> SourceId {
        SourceId(Arc::from(name.into()))
    }

    /// The name as text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SourceId {
    fn from(s: &str) -> SourceId {
        SourceId::new(s)
    }
}

/// One sequenced delta report in flight from a source to the warehouse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// The reporting source.
    pub source: SourceId,
    /// The source's sequencer incarnation; resets `seq` when bumped.
    pub epoch: u64,
    /// Monotone per-source, per-epoch sequence number, starting at 0.
    pub seq: u64,
    /// The normalized delta report.
    pub report: Update,
}

/// The sending half of the channel: a [`SourceSite`] plus a sequencer
/// and an outbox log of every envelope ever emitted.
#[derive(Clone, Debug)]
pub struct SequencedSource {
    id: SourceId,
    site: SourceSite,
    epoch: u64,
    next_seq: u64,
    outbox: Vec<Envelope>,
}

impl SequencedSource {
    /// Wraps a site; sequencing starts at epoch 0, sequence 0.
    pub fn new(id: impl Into<SourceId>, site: SourceSite) -> SequencedSource {
        SequencedSource { id: id.into(), site, epoch: 0, next_seq: 0, outbox: Vec::new() }
    }

    /// The source's identity.
    pub fn id(&self) -> &SourceId {
        &self.id
    }

    /// The wrapped site.
    pub fn site(&self) -> &SourceSite {
        &self.site
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applies an update at the site and wraps the normalized report in
    /// the next sequenced envelope. Empty (no-op) reports are sequenced
    /// too: skipping them would look like channel loss to the receiver.
    pub fn apply_update(&mut self, update: &Update) -> Result<Envelope> {
        let report = self.site.apply_update(update)?;
        let envelope = Envelope {
            source: self.id.clone(),
            epoch: self.epoch,
            seq: self.next_seq,
            report,
        };
        self.next_seq += 1;
        self.outbox.push(envelope.clone());
        Ok(envelope)
    }

    /// Starts a new epoch (a sequencer restart): bumps the epoch and
    /// resets the sequence counter. The site's relational state — and the
    /// outbox log — carry over.
    pub fn begin_epoch(&mut self) {
        self.epoch += 1;
        self.next_seq = 0;
    }

    /// Every envelope emitted so far, oldest first — the retransmission
    /// log the recovery paths replay from.
    pub fn outbox(&self) -> &[Envelope] {
        &self.outbox
    }

    /// Replays one envelope from the log, if it was ever emitted.
    pub fn retransmit(&self, epoch: u64, seq: u64) -> Option<&Envelope> {
        self.outbox.iter().find(|e| e.epoch == epoch && e.seq == seq)
    }

    /// Read-only access to the authoritative state — for test oracles.
    pub fn oracle_state(&self) -> &DbState {
        self.site.oracle_state()
    }

    /// The site's catalog.
    pub fn catalog(&self) -> &Catalog {
        self.site.catalog()
    }

    /// The site's access counters.
    pub fn stats(&self) -> SourceStats {
        self.site.stats()
    }

    /// Resets the site's access counters.
    pub fn reset_stats(&self) {
        self.site.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1_catalog, fig1_state};
    use dwc_relalg::rel;

    fn source() -> SequencedSource {
        let site = SourceSite::new(fig1_catalog(), fig1_state()).unwrap();
        SequencedSource::new("fig1", site)
    }

    #[test]
    fn envelopes_are_sequenced_and_logged() {
        let mut src = source();
        let e0 = src
            .apply_update(&Update::inserting(
                "Sale",
                rel! { ["item", "clerk"] => ("Computer", "Paula") },
            ))
            .unwrap();
        let e1 = src
            .apply_update(&Update::deleting(
                "Sale",
                rel! { ["item", "clerk"] => ("VCR", "Mary") },
            ))
            .unwrap();
        assert_eq!((e0.epoch, e0.seq), (0, 0));
        assert_eq!((e1.epoch, e1.seq), (0, 1));
        assert_eq!(src.outbox().len(), 2);
        assert_eq!(src.retransmit(0, 1), Some(&e1));
        assert_eq!(src.retransmit(0, 2), None);
        assert_eq!(e0.source.as_str(), "fig1");
    }

    #[test]
    fn noop_updates_still_consume_a_sequence_number() {
        let mut src = source();
        let e = src
            .apply_update(&Update::inserting(
                "Sale",
                rel! { ["item", "clerk"] => ("TV set", "Mary") }, // already present
            ))
            .unwrap();
        assert!(e.report.is_empty());
        assert_eq!(e.seq, 0);
        let e = src
            .apply_update(&Update::inserting(
                "Sale",
                rel! { ["item", "clerk"] => ("Mac", "Paula") },
            ))
            .unwrap();
        assert_eq!(e.seq, 1);
    }

    #[test]
    fn epochs_reset_sequencing_but_keep_the_log() {
        let mut src = source();
        src.apply_update(&Update::inserting(
            "Sale",
            rel! { ["item", "clerk"] => ("Mac", "Paula") },
        ))
        .unwrap();
        src.begin_epoch();
        assert_eq!(src.epoch(), 1);
        let e = src
            .apply_update(&Update::deleting(
                "Sale",
                rel! { ["item", "clerk"] => ("Mac", "Paula") },
            ))
            .unwrap();
        assert_eq!((e.epoch, e.seq), (1, 0));
        assert_eq!(src.outbox().len(), 2);
        assert!(src.retransmit(0, 0).is_some());
    }
}
