//! Crash-consistent durability: WAL + snapshot + recovery.
//!
//! In-memory, `W = V ∪ C` is self-maintainable (Theorem 4.1) — but one
//! process crash destroys exactly the complement and sequencing state
//! that update-independence depends on, forcing the source-requerying
//! path the paper exists to avoid. This module makes the warehouse
//! crash-consistent with three pieces:
//!
//! 1. **Write-ahead log** ([`wal`]) — every applied report envelope and
//!    every log-replay recovery is appended as a length-prefixed,
//!    CRC-32-checksummed frame *after* it is applied in memory (a crash
//!    is process death, so in-memory effects die with the log gap). A
//!    torn tail — the unsynced suffix a crash leaves behind — is
//!    detected structurally and truncated; a checksum mismatch inside a
//!    complete frame is a typed [`StorageError::WalCorruptRecord`].
//! 2. **Snapshots** ([`snapshot`]) — the full warehouse image (view and
//!    complement relations in the canonical binary encoding of
//!    [`dwc_relalg::io`], plus per-source sequencing cursors, parked
//!    reports, quarantine, and all counters) written atomically:
//!    temp file, fsync, rename. A `MANIFEST` (same discipline) binds
//!    each generation's snapshot to its WAL segment; the manifest
//!    rename is the commit point of a generation.
//! 3. **Recovery** ([`Recovery::open`]) — restores the newest intact
//!    snapshot (falling back a generation when one is corrupt), replays
//!    every newer WAL segment through the idempotent
//!    [`IngestingIntegrator`] path, cross-checks the result against the
//!    `W ∘ W⁻¹` reconstruction invariant, and only then serves — after
//!    rolling a *fresh* generation so a torn segment is never appended
//!    to.
//!
//! All IO goes through the [`StorageMedium`] trait. [`FsMedium`] is the
//! production implementation (and the only place in the workspace
//! allowed to write through `std::fs` — lint `DWC-S504`); the crash
//! property suites drive the same code over `dwc_testkit::SimDisk` and
//! kill the process model at every IO boundary.
//!
//! Every failure is a typed [`StorageError`] with a stable `DWC-SNNN`
//! code (see [`StorageError::code`]); nothing in this module panics on
//! bad bytes.

pub mod snapshot;
pub mod wal;

use crate::error::WarehouseError;
use crate::ingest::{
    DiscardedEntry, IngestOutcome, IngestingIntegrator, QuarantineEntry,
};
use crate::integrator::{Integrator, IntegratorConfig};
use crate::spec::AugmentedWarehouse;
use crate::channel::{Envelope, SourceId};
use snapshot::{ManifestDoc, ManifestEntry, WarehouseImage, MANIFEST};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use wal::WalRecord;

/// One failed operation of a [`StorageMedium`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MediumError {
    /// The operation that failed (`read`, `append`, `sync`, …).
    pub op: &'static str,
    /// The file the operation targeted.
    pub path: String,
    /// The underlying failure, rendered.
    pub detail: String,
    /// True for a transient failure a later retry may clear (timeout,
    /// interrupted call); false for a permanent one (bad disk, missing
    /// file, logic error). Decides the [`StorageError`] variant — and
    /// therefore whether the server degrades or goes read-only.
    pub transient: bool,
}

impl MediumError {
    /// A permanent medium failure (the default severity: when in doubt,
    /// a medium must report fatal — retrying a mis-classified fatal
    /// fault loses data, retrying nothing merely loses availability).
    pub fn fatal(
        op: &'static str,
        path: impl Into<String>,
        detail: impl Into<String>,
    ) -> MediumError {
        MediumError { op, path: path.into(), detail: detail.into(), transient: false }
    }

    /// A transient medium failure: the same operation may succeed if
    /// simply retried later.
    pub fn transient(
        op: &'static str,
        path: impl Into<String>,
        detail: impl Into<String>,
    ) -> MediumError {
        MediumError { op, path: path.into(), detail: detail.into(), transient: true }
    }
}

impl fmt::Display for MediumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.transient { " (transient)" } else { "" };
        write!(f, "storage {} of `{}` failed{}: {}", self.op, self.path, kind, self.detail)
    }
}

/// The IO surface the durability layer runs on: a flat namespace of
/// files with explicit durability ([`StorageMedium::sync`]) and atomic
/// [`StorageMedium::rename`]. Production uses [`FsMedium`]; the crash
/// and fault suites adapt `dwc_testkit::SimDisk`.
pub trait StorageMedium {
    /// Reads a whole file.
    fn read(&self, path: &str) -> Result<Vec<u8>, MediumError>;
    /// Replaces a file's contents (creating it). **Not** crash-atomic:
    /// durable code must write a temp name, sync, and rename.
    fn write_all(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError>;
    /// Appends bytes to a file (creating it).
    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError>;
    /// Forces the file's current contents to stable storage (fsync).
    fn sync(&self, path: &str) -> Result<(), MediumError>;
    /// Atomically renames `from` over any existing `to`.
    fn rename(&self, from: &str, to: &str) -> Result<(), MediumError>;
    /// Removes a file.
    fn remove(&self, path: &str) -> Result<(), MediumError>;
    /// All file names, sorted.
    fn list(&self) -> Result<Vec<String>, MediumError>;
    /// True iff the file exists.
    fn exists(&self, path: &str) -> bool;
}

/// Everything that can go wrong in the durability layer. Each variant
/// carries a stable diagnostic code (see [`StorageError::code`]) in the
/// `DWC-SNNN` range, disjoint from the static-analysis `DWC-S5NN` lints.
#[derive(Clone, Debug, PartialEq)]
pub enum StorageError {
    /// The underlying medium failed permanently (`DWC-S001`).
    Io(MediumError),
    /// The underlying medium failed transiently (`DWC-S002`): the only
    /// **retryable** storage error. The server's degraded mode exists
    /// for exactly this variant; everything else is fatal.
    IoTransient(MediumError),
    /// A WAL segment's 20-byte header is short, has a bad magic or
    /// checksum, or names the wrong segment id (`DWC-S101`).
    WalHeader {
        /// The segment file.
        segment: String,
        /// What exactly was wrong.
        detail: String,
    },
    /// A structurally complete WAL frame failed its checksum or decoded
    /// to garbage (`DWC-S102`). Torn *tails* are not errors — they are
    /// truncated and counted in [`RecoveryReport::torn_tails`].
    WalCorruptRecord {
        /// The segment file.
        segment: String,
        /// Byte offset of the offending frame.
        offset: usize,
        /// What exactly was wrong.
        detail: String,
    },
    /// A snapshot file failed checksum or structural validation
    /// (`DWC-S201`). Recovery treats this as "skip to the previous
    /// generation", surfacing it only when no generation is left.
    SnapshotCorrupt {
        /// The snapshot file.
        file: String,
        /// What exactly was wrong.
        detail: String,
    },
    /// Every snapshot the manifest references is corrupt or unreadable
    /// (`DWC-S202`).
    NoIntactSnapshot {
        /// The snapshot files tried, newest first.
        tried: Vec<String>,
    },
    /// The directory has no `MANIFEST` — it does not contain a committed
    /// warehouse (`DWC-S301`).
    ManifestMissing,
    /// The `MANIFEST` exists but fails checksum or structural validation
    /// (`DWC-S302`).
    ManifestCorrupt {
        /// What exactly was wrong.
        detail: String,
    },
    /// The `MANIFEST` describes a key-range sharded layout, which this
    /// build no longer opens (`DWC-S304`). Recovery stops before reading
    /// anything else, so the directory is left exactly as found.
    ShardedLayoutRemoved,
    /// Recovered state failed the `W(W⁻¹(w)) = w` cross-check before
    /// serving (`DWC-S401`).
    RecoveredStateInconsistent {
        /// What exactly diverged.
        detail: String,
    },
    /// The warehouse layer itself rejected an operation (`DWC-S901`).
    Warehouse(WarehouseError),
}

/// The coarse severity of a [`StorageError`]: may a retry of the same
/// operation succeed, or is the durable layer beyond in-process repair?
/// Every `DWC-SNNN` code maps to exactly one class (a property test
/// pins this), and the server's health state machine branches on
/// nothing finer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// A bounded retry (with backoff) of the failed operation is sound
    /// and may succeed. Only transient medium faults qualify.
    Retryable,
    /// No retry can help: corrupt bytes, structural inconsistency, or a
    /// permanently failed medium. The process must degrade to read-only
    /// and be restarted into recovery.
    Fatal,
}

impl StorageError {
    /// The stable diagnostic code of this error.
    pub fn code(&self) -> &'static str {
        match self {
            StorageError::Io(_) => "DWC-S001",
            StorageError::IoTransient(_) => "DWC-S002",
            StorageError::WalHeader { .. } => "DWC-S101",
            StorageError::WalCorruptRecord { .. } => "DWC-S102",
            StorageError::SnapshotCorrupt { .. } => "DWC-S201",
            StorageError::NoIntactSnapshot { .. } => "DWC-S202",
            StorageError::ManifestMissing => "DWC-S301",
            StorageError::ManifestCorrupt { .. } => "DWC-S302",
            StorageError::ShardedLayoutRemoved => "DWC-S304",
            StorageError::RecoveredStateInconsistent { .. } => "DWC-S401",
            StorageError::Warehouse(_) => "DWC-S901",
        }
    }

    /// The retryable-vs-fatal classification of this error.
    pub fn class(&self) -> ErrorClass {
        match self {
            StorageError::IoTransient(_) => ErrorClass::Retryable,
            _ => ErrorClass::Fatal,
        }
    }

    /// True iff retrying the failed operation is sound and may succeed.
    pub fn is_retryable(&self) -> bool {
        self.class() == ErrorClass::Retryable
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            StorageError::Io(e) => write!(f, "{e}"),
            StorageError::IoTransient(e) => write!(f, "{e}"),
            StorageError::WalHeader { segment, detail } => {
                write!(f, "WAL segment `{segment}` header invalid: {detail}")
            }
            StorageError::WalCorruptRecord { segment, offset, detail } => {
                write!(f, "WAL segment `{segment}` corrupt at byte {offset}: {detail}")
            }
            StorageError::SnapshotCorrupt { file, detail } => {
                write!(f, "snapshot `{file}` corrupt: {detail}")
            }
            StorageError::NoIntactSnapshot { tried } => {
                write!(f, "no intact snapshot among: {}", tried.join(", "))
            }
            StorageError::ManifestMissing => {
                write!(f, "no MANIFEST: directory holds no committed warehouse")
            }
            StorageError::ManifestCorrupt { detail } => {
                write!(f, "MANIFEST corrupt: {detail}")
            }
            StorageError::ShardedLayoutRemoved => write!(
                f,
                "MANIFEST describes a key-range sharded layout; this build no longer \
                 opens sharded layouts (removed; the directory was left untouched)"
            ),
            StorageError::RecoveredStateInconsistent { detail } => {
                write!(f, "recovered state failed consistency cross-check: {detail}")
            }
            StorageError::Warehouse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Warehouse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WarehouseError> for StorageError {
    fn from(e: WarehouseError) -> StorageError {
        StorageError::Warehouse(e)
    }
}

impl From<MediumError> for StorageError {
    fn from(e: MediumError) -> StorageError {
        if e.transient {
            StorageError::IoTransient(e)
        } else {
            StorageError::Io(e)
        }
    }
}

/// The production [`StorageMedium`]: one directory of flat files on the
/// real filesystem. The only place in the workspace allowed to write
/// through `std::fs` (srclint rule `DWC-S504`).
///
/// The medium keeps **one** append handle open: the file it last
/// appended to, which is the live WAL segment. A group commit is then
/// one `write` and one `fdatasync` on that handle — no `open` per
/// frame, no second `open` to sync. Appending to another file replaces
/// the handle (the segment rolls with the generation), and a
/// `write_all`, `rename` or `remove` naming the held file drops it, so
/// the handle never outlives the name it was opened under. A clone
/// starts with no handle of its own.
#[derive(Debug)]
pub struct FsMedium {
    root: PathBuf,
    held: Mutex<Option<(String, fs::File)>>,
}

impl Clone for FsMedium {
    fn clone(&self) -> FsMedium {
        FsMedium { root: self.root.clone(), held: Mutex::new(None) }
    }
}

impl FsMedium {
    /// Opens (creating if needed) the directory `root`.
    pub fn new(root: impl Into<PathBuf>) -> Result<FsMedium, StorageError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| {
            MediumError::fatal("create_dir", root.display().to_string(), e.to_string())
        })?;
        Ok(FsMedium { root, held: Mutex::new(None) })
    }

    /// The directory this medium stores into.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn full(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn held(&self) -> MutexGuard<'_, Option<(String, fs::File)>> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Closes the held append handle if it was opened under `name`.
    fn release(&self, name: &str) {
        let mut held = self.held();
        if held.as_ref().is_some_and(|(path, _)| path == name) {
            *held = None;
        }
    }

    fn err(&self, op: &'static str, name: &str, e: std::io::Error) -> MediumError {
        // The conservative kernel-level transients: everything else —
        // ENOSPC, EIO, permissions — is fatal until proven otherwise.
        let transient = matches!(
            e.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        );
        MediumError { op, path: name.to_owned(), detail: e.to_string(), transient }
    }
}

impl StorageMedium for FsMedium {
    fn read(&self, path: &str) -> Result<Vec<u8>, MediumError> {
        fs::read(self.full(path)).map_err(|e| self.err("read", path, e))
    }

    fn write_all(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError> {
        self.release(path);
        fs::write(self.full(path), bytes).map_err(|e| self.err("write", path, e))
    }

    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError> {
        let mut held = self.held();
        let file = match &mut *held {
            Some((name, file)) if name == path => file,
            slot => {
                // Close the old handle before opening the new one.
                *slot = None;
                let file = fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(self.full(path))
                    .map_err(|e| self.err("append", path, e))?;
                &mut slot.insert((path.to_owned(), file)).1
            }
        };
        let written = file.write_all(bytes);
        if let Err(e) = written {
            // A failed write leaves the file unknowable; the next
            // append starts from a fresh open.
            *held = None;
            return Err(self.err("append", path, e));
        }
        Ok(())
    }

    fn sync(&self, path: &str) -> Result<(), MediumError> {
        if let Some((name, file)) = &*self.held() {
            if name == path {
                return file.sync_data().map_err(|e| self.err("sync", path, e));
            }
        }
        fs::File::open(self.full(path))
            .and_then(|f| f.sync_all())
            .map_err(|e| self.err("sync", path, e))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), MediumError> {
        self.release(from);
        self.release(to);
        fs::rename(self.full(from), self.full(to)).map_err(|e| self.err("rename", from, e))
    }

    fn remove(&self, path: &str) -> Result<(), MediumError> {
        self.release(path);
        fs::remove_file(self.full(path)).map_err(|e| self.err("remove", path, e))
    }

    fn list(&self) -> Result<Vec<String>, MediumError> {
        let rd = fs::read_dir(&self.root).map_err(|e| self.err("list", ".", e))?;
        let mut names = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| self.err("list", ".", e))?;
            if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &str) -> bool {
        self.full(path).exists()
    }
}

/// Tuning of the durability layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Fsync the WAL after every appended record. Off, a crash can lose
    /// (or tear) a suffix of acknowledged records — recovery still
    /// yields a consistent prefix state, just an older one.
    pub sync_every_append: bool,
    /// Snapshot generations (snapshot + WAL segment pairs) to retain.
    /// At least 2 lets recovery fall back past one corrupt snapshot;
    /// values below 1 are treated as 1.
    pub retain_generations: usize,
    /// Automatically roll a new generation after this many WAL records.
    /// `None` snapshots only on explicit [`DurableWarehouse::snapshot`].
    pub snapshot_every: Option<u64>,
    /// Cross-check recovered state against the `W(W⁻¹(w)) = w`
    /// reconstruction invariant before serving.
    pub verify_on_open: bool,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig {
            sync_every_append: true,
            retain_generations: 2,
            snapshot_every: None,
            verify_on_open: true,
        }
    }
}

/// Cumulative counters of a [`DurableWarehouse`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// WAL records appended — frames, not `append` calls: a group commit
    /// of N records counts N here and issues one append.
    pub wal_appends: u64,
    /// Bytes appended to the WAL (frames included).
    pub wal_bytes: u64,
    /// WAL fsyncs issued by record appends and group commits (segment
    /// creation and snapshot syncs are not counted — this is the
    /// per-record durability cost the group-commit batcher amortizes).
    pub wal_syncs: u64,
    /// Group commits: batches durably committed by a single fsync via
    /// [`DurableWarehouse::offer_batch`].
    pub group_commits: u64,
    /// Snapshots written (explicit, automatic, and the recovery roll).
    pub snapshots_written: u64,
    /// Old generations pruned past the retention horizon.
    pub generations_pruned: u64,
}

/// What [`Recovery::open`] found and did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The snapshot file the restore started from.
    pub snapshot_used: String,
    /// Newer snapshots skipped because they were corrupt or unreadable.
    pub snapshots_skipped: usize,
    /// WAL records replayed through the idempotent ingestion path.
    pub records_replayed: usize,
    /// WAL segments whose tail was torn (truncated mid-frame by a
    /// crash) and silently clipped to the last complete frame.
    pub torn_tails: usize,
    /// Whether the `W(W⁻¹(w)) = w` cross-check ran (per
    /// [`DurabilityConfig::verify_on_open`]).
    pub consistency_checked: bool,
    /// Whether the manifest carried a persisted maintenance-policy mode
    /// that was re-armed on the recovered ingestor. `false` only for
    /// version-1 manifests written before the mode was durable.
    pub policy_restored: bool,
    /// Maintenance passes the replay ran: one per group of consecutive
    /// offers with a non-empty net delta, not one per record.
    pub replay_passes: u64,
}

/// An [`IngestingIntegrator`] whose every applied envelope is
/// write-ahead-logged and whose full state snapshots atomically.
///
/// Ordering discipline: the in-memory offer happens *first*, the WAL
/// append second. The only failure the log can miss is therefore a
/// crash between the two — and a crash kills the in-memory effect too,
/// so the log never lags a surviving state.
///
/// Storage failures split by [`StorageError::class`]:
///
/// * A **fatal** failure **poisons** the instance: the in-memory state
///   is ahead of the log and no retry can reconcile them; every
///   subsequent call returns the poisoning error class until the
///   process restarts and recovers.
/// * A **retryable** failure marks the current WAL segment **dirty**
///   and keeps the not-yet-durable records in an in-memory `unlogged`
///   queue. A dirty segment is *never appended to again* — after a
///   failed fsync the page-cache state is unknowable, and after a
///   failed append the segment may hold a torn frame. Instead,
///   [`DurableWarehouse::heal`] rolls a whole new generation: the
///   snapshot captures every in-memory effect (including the unlogged
///   records), the manifest rename commits it atomically, and the
///   dirty segment becomes garbage behind the commit point. Healing
///   never re-appends the queued records — `Requeued`/`Discarded`
///   records are index-based and non-idempotent, so re-logging them
///   against a state that already reflects them would corrupt replay;
///   the snapshot path is the only sound one.
#[derive(Debug)]
pub struct DurableWarehouse<M: StorageMedium> {
    medium: M,
    ingest: IngestingIntegrator,
    config: DurabilityConfig,
    entries: Vec<ManifestEntry>,
    wal_name: String,
    records_since_snapshot: u64,
    poisoned: bool,
    dirty: bool,
    unlogged: Vec<WalRecord>,
    /// The reused encode buffer of [`DurableWarehouse::flush_unlogged`].
    frames: Vec<u8>,
    stats: StorageStats,
}

/// Capacity the WAL encode buffer keeps across commits: one outsized
/// record (a long recovered log) must not pin its size for good.
const FRAMES_KEEP: usize = 1 << 20;

impl<M: StorageMedium> DurableWarehouse<M> {
    /// Creates a fresh durable warehouse in an empty medium: writes the
    /// initial snapshot, opens WAL segment 1, and commits the manifest.
    /// Refuses a medium that already holds a committed warehouse — open
    /// that with [`Recovery::open`] instead.
    pub fn create(
        medium: M,
        ingest: IngestingIntegrator,
        config: DurabilityConfig,
    ) -> Result<DurableWarehouse<M>, StorageError> {
        if medium.exists(MANIFEST) {
            return Err(StorageError::Io(MediumError::fatal(
                "create",
                MANIFEST,
                "medium already holds a committed warehouse (use Recovery::open)",
            )));
        }
        let mut dw = DurableWarehouse {
            medium,
            ingest,
            config,
            entries: Vec::new(),
            wal_name: String::new(),
            records_since_snapshot: 0,
            poisoned: false,
            dirty: false,
            unlogged: Vec::new(),
            frames: Vec::new(),
            stats: StorageStats::default(),
        };
        dw.roll_generation()?;
        Ok(dw)
    }

    /// Offers one envelope: applies it in memory (infallibly, per the
    /// ingestion contract), then appends it to the WAL. Replay of the
    /// logged envelope is idempotent, so at-least-once logging is safe.
    pub fn offer(&mut self, envelope: &Envelope) -> Result<IngestOutcome, StorageError> {
        self.ensure_live()?;
        let outcome = self.ingest.offer(envelope);
        self.log(&WalRecord::Offered(envelope.clone()))?;
        self.maybe_auto_snapshot()?;
        Ok(outcome)
    }

    /// Offers a batch of envelopes as one **group commit**: the batch
    /// is applied in memory as one slice (one maintenance pass over its
    /// net delta), each envelope is encoded as its own WAL frame, all
    /// frames leave in *one* append, and the segment is fsynced *once*
    /// for the whole batch. When
    /// this returns `Ok`, every envelope in the batch is durable —
    /// regardless of [`DurabilityConfig::sync_every_append`], which
    /// tunes the single-envelope [`DurableWarehouse::offer`] path only.
    /// This is what makes ack-after-fsync affordable: the fsync (the
    /// ~50× dominant cost of a durable append) and the maintenance pass
    /// (O(|state|) on its own) are both amortized over the batch. A
    /// crash before the group fsync tears the unsynced frame suffix —
    /// exactly the envelopes no caller was acked for.
    pub fn offer_batch(
        &mut self,
        envelopes: &[Envelope],
    ) -> Result<Vec<IngestOutcome>, StorageError> {
        self.ensure_live()?;
        let outcomes = self.apply_batch(envelopes);
        if !envelopes.is_empty() {
            self.commit_applied()?;
        }
        Ok(outcomes)
    }

    /// Applies a batch in memory only: the batch goes through the
    /// (infallible) ingestion path as one slice — one maintenance pass
    /// over its net delta, see [`IngestingIntegrator::offer_batch`] —
    /// and one WAL record per envelope is queued, but nothing touches
    /// storage. Pair with [`DurableWarehouse::commit_applied`] — the
    /// split lets the server park an already-applied batch when the
    /// commit fails retryably, instead of losing it or applying it
    /// twice.
    pub fn apply_batch(&mut self, envelopes: &[Envelope]) -> Vec<IngestOutcome> {
        let outcomes = self.ingest.offer_batch(envelopes);
        self.unlogged.extend(envelopes.iter().cloned().map(WalRecord::Offered));
        outcomes
    }

    /// Makes every applied-but-not-yet-durable record durable: the
    /// group-commit second half. On a clean segment this appends the
    /// queued records' frames in one append and issues one fsync; on a
    /// dirty segment it heals
    /// by rolling a generation (see [`DurableWarehouse::heal`]). When
    /// this returns `Ok`, everything previously applied in memory is
    /// durable and it is sound to ack.
    pub fn commit_applied(&mut self) -> Result<(), StorageError> {
        self.ensure_live()?;
        if !self.dirty && self.unlogged.is_empty() {
            return Ok(());
        }
        let was_dirty = self.dirty;
        self.flush_unlogged(true)?;
        if !was_dirty {
            self.stats.group_commits += 1;
        }
        self.maybe_auto_snapshot()
    }

    /// True iff applied records are awaiting [`commit_applied`]
    /// (including records stranded by a retryable failure).
    ///
    /// [`commit_applied`]: DurableWarehouse::commit_applied
    pub fn has_uncommitted(&self) -> bool {
        self.dirty || !self.unlogged.is_empty()
    }

    /// Repairs the aftermath of a retryable storage failure by rolling
    /// a fresh generation: snapshot (capturing all in-memory effects,
    /// including unlogged records), new WAL segment, manifest commit.
    /// No-op on a clean instance; fails fast if poisoned. On success
    /// the instance is clean and durable again. On another retryable
    /// failure the instance stays dirty and `heal` can simply be called
    /// again — the roll is idempotent under retry (deterministic file
    /// names, state mutated only on success).
    pub fn heal(&mut self) -> Result<(), StorageError> {
        self.ensure_live()?;
        if !self.dirty && self.unlogged.is_empty() {
            return Ok(());
        }
        self.roll_generation()
    }

    /// Re-offers the quarantined envelope at `index` through the normal
    /// ingestion path (see [`IngestingIntegrator::requeue_quarantined`])
    /// and records the operator action in the WAL so replay reproduces
    /// it. Returns `Ok(None)` when the index is out of range (nothing
    /// is logged).
    pub fn requeue_quarantined(
        &mut self,
        index: usize,
    ) -> Result<Option<IngestOutcome>, StorageError> {
        self.ensure_live()?;
        let Some(outcome) = self.ingest.requeue_quarantined(index) else {
            return Ok(None);
        };
        self.log(&WalRecord::Requeued { index: index as u64 })?;
        self.maybe_auto_snapshot()?;
        Ok(Some(outcome))
    }

    /// Permanently discards the quarantined envelope at `index` with a
    /// stated reason (see [`IngestingIntegrator::discard_quarantined`]),
    /// recording the action in the WAL. Returns `Ok(None)` when the
    /// index is out of range.
    pub fn discard_quarantined(
        &mut self,
        index: usize,
        reason: &str,
    ) -> Result<Option<DiscardedEntry>, StorageError> {
        self.ensure_live()?;
        let Some(entry) = self.ingest.discard_quarantined(index, reason) else {
            return Ok(None);
        };
        let entry = entry.clone();
        self.log(&WalRecord::Discarded { index: index as u64, reason: reason.to_owned() })?;
        self.maybe_auto_snapshot()?;
        Ok(Some(entry))
    }

    /// Drains the whole quarantine in sequence order through the durable
    /// requeue path: repeatedly requeues the entry with the smallest
    /// `(source, epoch, seq)` among the original entries, logging each
    /// step. Entries a re-offer throws back into quarantine are appended
    /// after the originals and are *not* drained again (no fixpoint
    /// loop). Returns the outcomes in requeue order.
    pub fn requeue_all_quarantined(&mut self) -> Result<Vec<IngestOutcome>, StorageError> {
        self.ensure_live()?;
        let mut remaining = self.ingest.quarantine().len();
        let mut outcomes = Vec::with_capacity(remaining);
        while remaining > 0 {
            // Re-quarantined entries are appended at the end, so the
            // still-undrained originals always occupy the first
            // `remaining` positions.
            let next = self.ingest.quarantine()[..remaining]
                .iter()
                .enumerate()
                .min_by_key(|(_, q)| {
                    (q.envelope.source.clone(), q.envelope.epoch, q.envelope.seq)
                })
                .map(|(i, _)| i);
            let Some(index) = next else {
                break;
            };
            match self.requeue_quarantined(index)? {
                Some(outcome) => outcomes.push(outcome),
                None => break,
            }
            remaining -= 1;
        }
        Ok(outcomes)
    }

    /// Repairs sequence gaps from a source's outbox log (see
    /// [`IngestingIntegrator::recover_from_log`]) and records the
    /// repair — log slice included — in the WAL so replay reproduces it.
    pub fn recover_from_log(
        &mut self,
        source: &SourceId,
        log: &[Envelope],
    ) -> Result<usize, StorageError> {
        self.ensure_live()?;
        let n = self.ingest.recover_from_log(source, log)?;
        self.log(&WalRecord::Recovered { source: source.clone(), log: log.to_vec() })?;
        self.maybe_auto_snapshot()?;
        Ok(n)
    }

    /// Rolls a new generation now: snapshot, fresh WAL segment, manifest
    /// commit, retention pruning.
    pub fn snapshot(&mut self) -> Result<(), StorageError> {
        self.ensure_live()?;
        self.roll_generation()
    }

    /// The current materialized warehouse state.
    pub fn state(&self) -> &dwc_relalg::DbState {
        self.ingest.state()
    }

    /// The wrapped fault-tolerant ingestor.
    pub fn ingestor(&self) -> &IngestingIntegrator {
        &self.ingest
    }

    /// Installs a maintenance policy on the ingestor (see
    /// [`crate::planner`]) and immediately persists the configured
    /// *mode* into the manifest, so recovery re-arms the same mode.
    /// The decision cache stays runtime-only — Theorem 4.1 makes replay
    /// strategy-independent — but losing the mode across a crash
    /// silently disabled adaptive maintenance, so the mode is durable.
    pub fn set_maintenance_policy(
        &mut self,
        policy: crate::planner::AdaptivePolicy,
    ) -> Result<(), StorageError> {
        self.ensure_live()?;
        self.ingest.set_policy(policy);
        let doc = self.manifest_doc(self.entries.clone());
        match snapshot::write_manifest(&self.medium, &doc) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.note_failure(e)),
        }
    }

    /// The manifest document committing `entries` under the currently
    /// configured maintenance-policy mode.
    fn manifest_doc(&self, entries: Vec<ManifestEntry>) -> ManifestDoc {
        ManifestDoc {
            entries,
            policy: Some(crate::planner::mode_to_byte(self.ingest.policy().mode())),
        }
    }

    /// Mutable access to the ingestor's maintenance policy — for
    /// draining planner diagnostics.
    pub fn policy_mut(&mut self) -> &mut crate::planner::AdaptivePolicy {
        self.ingest.policy_mut()
    }

    /// The storage counters.
    pub fn storage_stats(&self) -> StorageStats {
        self.stats
    }

    /// The current generation number (1-based; bumps on every snapshot).
    pub fn generation(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.generation)
    }

    /// True once a storage failure has poisoned this instance.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// The durability tuning in effect.
    pub fn config(&self) -> DurabilityConfig {
        self.config
    }

    fn ensure_live(&self) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Io(MediumError::fatal(
                "poisoned",
                "",
                "durable warehouse is poisoned by an earlier storage failure; \
                 restart and recover",
            )));
        }
        Ok(())
    }

    /// Queues one record and flushes under
    /// [`DurabilityConfig::sync_every_append`]. A fatal failure poisons
    /// the instance; a retryable one leaves it dirty with the record
    /// safe in the unlogged queue.
    fn log(&mut self, record: &WalRecord) -> Result<(), StorageError> {
        let sync = self.config.sync_every_append;
        self.unlogged.push(record.clone());
        self.flush_unlogged(sync)
    }

    /// Drains the unlogged queue to the WAL as **one** append — every
    /// queued record encoded as its own frame into one reused buffer —
    /// then optionally fsyncs. A dirty segment is never appended to: the
    /// whole flush happens by rolling a generation instead. A failed
    /// append keeps the whole queue (no frame of it is proven durable)
    /// and routes through [`note_failure`]; a torn append leaves at most
    /// a frame prefix that replay takes, which is sound because every
    /// queued record is already applied in memory.
    ///
    /// [`note_failure`]: DurableWarehouse::note_failure
    fn flush_unlogged(&mut self, sync: bool) -> Result<(), StorageError> {
        if self.dirty {
            return self.roll_generation();
        }
        if !self.unlogged.is_empty() {
            self.frames.clear();
            for record in &self.unlogged {
                wal::encode_frame(&mut self.frames, record);
            }
            if let Err(e) = self.medium.append(&self.wal_name, &self.frames) {
                return Err(self.note_failure(StorageError::from(e)));
            }
            let records = self.unlogged.len() as u64;
            self.stats.wal_appends += records;
            self.stats.wal_bytes += self.frames.len() as u64;
            self.records_since_snapshot += records;
            self.unlogged.clear();
            if self.frames.capacity() > FRAMES_KEEP {
                self.frames = Vec::new();
            }
        }
        if sync {
            match self.medium.sync(&self.wal_name) {
                Ok(()) => self.stats.wal_syncs += 1,
                Err(e) => return Err(self.note_failure(StorageError::from(e))),
            }
        }
        Ok(())
    }

    /// Records a storage failure at the appropriate severity: retryable
    /// dirties the WAL segment (recoverable in-process via
    /// [`DurableWarehouse::heal`]), fatal poisons the instance.
    fn note_failure(&mut self, e: StorageError) -> StorageError {
        if e.is_retryable() {
            self.dirty = true;
        } else {
            self.poisoned = true;
        }
        e
    }

    fn maybe_auto_snapshot(&mut self) -> Result<(), StorageError> {
        if let Some(every) = self.config.snapshot_every {
            if every > 0 && self.records_since_snapshot >= every {
                return self.roll_generation();
            }
        }
        Ok(())
    }

    /// Captures the full snapshot image of the live ingestor.
    fn image(&self) -> WarehouseImage {
        let ingest = &self.ingest;
        let integ = ingest.integrator();
        WarehouseImage {
            warehouse: integ.state().clone(),
            cache_inverses: integ.config().cache_inverses,
            integrator_stats: integ.stats(),
            ingest_config: ingest.config(),
            ingest_stats: ingest.stats(),
            cursors: ingest
                .cursors()
                .iter()
                .map(|(s, c)| (s.clone(), (c.epoch, c.next_seq, c.pending.clone())))
                .collect(),
            quarantine: ingest
                .quarantine()
                .iter()
                .map(|q| (q.envelope.clone(), q.error.to_string()))
                .collect(),
            discarded: ingest
                .discarded()
                .iter()
                .map(|d| {
                    (
                        d.entry.envelope.clone(),
                        d.entry.error.to_string(),
                        d.reason.clone(),
                    )
                })
                .collect(),
        }
    }

    /// Writes snapshot + fresh WAL segment + manifest for generation
    /// `last + 1`, then prunes generations past the retention horizon.
    /// Success clears the dirty flag and the unlogged queue: the
    /// snapshot captured everything, so the new generation owes the old
    /// segment nothing. A fatal failure poisons the instance (a
    /// half-rolled generation is recoverable from disk, but this
    /// process can no longer prove which files the manifest commits
    /// to); a retryable failure leaves the roll safely repeatable — the
    /// inner sequence uses deterministic names, overwrites its own
    /// partial leftovers, and mutates state only on success.
    fn roll_generation(&mut self) -> Result<(), StorageError> {
        match self.roll_generation_inner() {
            Ok(()) => {
                self.dirty = false;
                self.unlogged.clear();
                Ok(())
            }
            Err(e) => {
                if !e.is_retryable() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    fn roll_generation_inner(&mut self) -> Result<(), StorageError> {
        let generation = self.generation() + 1;
        let snap = snapshot::write_snapshot(&self.medium, generation, &self.image())?;
        let wal_name = wal::create_segment(&self.medium, generation)?;
        let mut entries = self.entries.clone();
        entries.push(ManifestEntry { generation, snapshot: snap, wal: wal_name.clone() });
        let retain = self.config.retain_generations.max(1);
        let pruned: Vec<ManifestEntry> = if entries.len() > retain {
            entries.drain(..entries.len() - retain).collect()
        } else {
            Vec::new()
        };
        snapshot::write_manifest(&self.medium, &self.manifest_doc(entries.clone()))?;
        // The manifest rename is the commit point: only now is it safe
        // to drop the pruned generations' files. Removal is best-effort
        // (a leftover file is garbage, not corruption).
        for old in pruned {
            let _ = self.medium.remove(&old.snapshot);
            let _ = self.medium.remove(&old.wal);
            self.stats.generations_pruned += 1;
        }
        self.entries = entries;
        self.wal_name = wal_name;
        self.records_since_snapshot = 0;
        self.stats.snapshots_written += 1;
        Ok(())
    }
}

/// Most `Offered` records [`Recovery::open`] replays as one slice.
/// Composing a run is linear in the delta accumulated so far, so an
/// unbounded run would be quadratic in the WAL tail, while the pass a
/// group buys costs the same whatever its size: on the star spec replay
/// reads 40 µs per record at 64, 14 µs at 256 and no better at 1024.
const REPLAY_GROUP: usize = 256;

/// Opens a medium holding a committed warehouse and restores it; see
/// the module docs for the recovery algorithm.
pub struct Recovery;

impl Recovery {
    /// Restores the newest intact snapshot, replays every newer WAL
    /// segment, cross-checks consistency, and rolls a fresh generation.
    ///
    /// `aug` must be the same augmented warehouse definition the state
    /// was persisted under (definitions are code, not data — only state
    /// is persisted). The ingest and integrator configurations are
    /// restored from the snapshot; `config` tunes durability only.
    pub fn open<M: StorageMedium>(
        medium: M,
        aug: AugmentedWarehouse,
        config: DurabilityConfig,
    ) -> Result<(DurableWarehouse<M>, RecoveryReport), StorageError> {
        let ManifestDoc { entries, policy } = snapshot::read_manifest(&medium)?;
        // Newest intact snapshot wins; corrupt/unreadable ones fall
        // back a generation.
        let mut skipped = 0usize;
        let mut tried = Vec::new();
        let mut start: Option<(usize, WarehouseImage)> = None;
        for (i, entry) in entries.iter().enumerate().rev() {
            tried.push(entry.snapshot.clone());
            match snapshot::read_snapshot(&medium, &entry.snapshot, entry.generation) {
                Ok(image) => {
                    start = Some((i, image));
                    break;
                }
                Err(_) => skipped += 1,
            }
        }
        let Some((start_idx, image)) = start else {
            return Err(StorageError::NoIntactSnapshot { tried });
        };
        let snapshot_used = entries[start_idx].snapshot.clone();
        let mut ingest = Recovery::restore(aug, image)?;
        // Replay the chosen generation's WAL and every newer segment,
        // in order. Offers are idempotent and go through the live slice
        // entry point, a maximal run of consecutive ones at a time (in
        // groups of at most `REPLAY_GROUP`): the groups need not be the
        // live run's batches — Theorem 4.1 lands any slicing on the same
        // state. Repairs are recorded with their log slice and re-run
        // verbatim.
        let mut replayed = 0usize;
        let mut torn_tails = 0usize;
        let mut run: Vec<Envelope> = Vec::new();
        for entry in &entries[start_idx..] {
            let scan = wal::scan_segment(&medium, &entry.wal, entry.generation)?;
            if scan.torn_bytes > 0 {
                torn_tails += 1;
            }
            for record in scan.records {
                if !matches!(record, WalRecord::Offered(_)) {
                    ingest.offer_batch(&std::mem::take(&mut run));
                }
                match record {
                    WalRecord::Offered(env) => {
                        run.push(env);
                        if run.len() == REPLAY_GROUP {
                            ingest.offer_batch(&std::mem::take(&mut run));
                        }
                    }
                    WalRecord::Recovered { source, log } => {
                        ingest.recover_from_log(&source, &log)?;
                    }
                    WalRecord::Requeued { index } => {
                        // The quarantine log is rebuilt record by
                        // record, so the index resolves exactly as it
                        // did live; a miss means snapshot and WAL
                        // disagree about history.
                        if ingest.requeue_quarantined(index as usize).is_none() {
                            return Err(StorageError::RecoveredStateInconsistent {
                                detail: format!(
                                    "WAL requeue of quarantine index {index} out of range"
                                ),
                            });
                        }
                    }
                    WalRecord::Discarded { index, reason } => {
                        if ingest.discard_quarantined(index as usize, reason).is_none() {
                            return Err(StorageError::RecoveredStateInconsistent {
                                detail: format!(
                                    "WAL discard of quarantine index {index} out of range"
                                ),
                            });
                        }
                    }
                }
                replayed += 1;
            }
        }
        ingest.offer_batch(&run);
        let replay_passes = ingest.policy().stats().passes;
        if config.verify_on_open {
            Recovery::cross_check(&ingest)?;
        }
        // Re-arm the persisted maintenance-policy mode *after* replay:
        // replay runs with the policy off (Theorem 4.1 makes the final
        // state strategy-independent), and the fresh policy starts with
        // an empty decision cache exactly as a process restart would.
        if let Some(byte) = policy {
            ingest.set_policy(crate::planner::policy_from_byte(byte));
        }
        let mut dw = DurableWarehouse {
            medium,
            ingest,
            config,
            entries: entries[start_idx..].to_vec(),
            wal_name: String::new(),
            records_since_snapshot: 0,
            poisoned: false,
            dirty: false,
            unlogged: Vec::new(),
            frames: Vec::new(),
            stats: StorageStats::default(),
        };
        // Roll a fresh generation: recovery must never append to a
        // possibly-torn segment, and the roll re-commits the recovered
        // state so the next crash recovers without this replay.
        dw.roll_generation()?;
        let report = RecoveryReport {
            snapshot_used,
            snapshots_skipped: skipped,
            records_replayed: replayed,
            torn_tails,
            consistency_checked: config.verify_on_open,
            policy_restored: policy.is_some(),
            replay_passes,
        };
        Ok((dw, report))
    }

    /// Rebuilds the fault-tolerant ingestor from a snapshot image.
    fn restore(
        aug: AugmentedWarehouse,
        image: WarehouseImage,
    ) -> Result<IngestingIntegrator, StorageError> {
        let mut integ = Integrator::from_state(
            aug,
            image.warehouse,
            IntegratorConfig { cache_inverses: image.cache_inverses },
        )?;
        integ.restore_stats(image.integrator_stats);
        let cursors: BTreeMap<SourceId, crate::ingest::Cursor> = image
            .cursors
            .into_iter()
            .map(|(s, (epoch, next_seq, pending))| {
                (s, crate::ingest::Cursor { epoch, next_seq, pending })
            })
            .collect();
        let quarantine = image
            .quarantine
            .into_iter()
            .map(|(envelope, message)| QuarantineEntry {
                envelope,
                error: WarehouseError::Restored { message },
            })
            .collect();
        let discarded = image
            .discarded
            .into_iter()
            .map(|(envelope, message, reason)| DiscardedEntry {
                entry: QuarantineEntry {
                    envelope,
                    error: WarehouseError::Restored { message },
                },
                reason,
            })
            .collect();
        Ok(IngestingIntegrator::restore(
            integ,
            cursors,
            quarantine,
            discarded,
            image.ingest_config,
            image.ingest_stats,
        ))
    }

    /// The Theorem 4.1 sanity gate: the recovered warehouse must be in
    /// the image of `W`, i.e. `W(W⁻¹(w)) = w`.
    fn cross_check(ingest: &IngestingIntegrator) -> Result<(), StorageError> {
        let aug = ingest.integrator().warehouse();
        let wrap = |e: WarehouseError| StorageError::RecoveredStateInconsistent {
            detail: format!("reconstruction pipeline failed: {e}"),
        };
        let sources = aug.reconstruct_sources(ingest.state()).map_err(wrap)?;
        let roundtrip = aug.materialize(&sources).map_err(wrap)?;
        if &roundtrip != ingest.state() {
            let diverged: Vec<String> = ingest
                .state()
                .iter()
                .filter(|(name, rel)| roundtrip.relation(*name).ok() != Some(rel))
                .map(|(name, _)| name.to_string())
                .collect();
            return Err(StorageError::RecoveredStateInconsistent {
                detail: format!(
                    "W(W⁻¹(w)) diverges from w at: {}",
                    diverged.join(", ")
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::SequencedSource;
    use crate::ingest::IngestConfig;
    use crate::integrator::SourceSite;
    use crate::testutil::{fig1_spec, fig1_state, DiskMedium};
    use dwc_relalg::{rel, Update};
    use dwc_testkit::SimDisk;

    /// Replay goes through the slice entry point: a K-record tail of
    /// in-order offers costs ⌈K/REPLAY_GROUP⌉ maintenance passes, not K,
    /// however the live run had batched them — and lands on the same
    /// state and counters.
    #[test]
    fn replay_maintains_once_per_group_of_offers() {
        let spec = fig1_spec();
        let site = SourceSite::new(spec.catalog().clone(), fig1_state()).unwrap();
        let aug = spec.augment().unwrap();
        let integ = Integrator::initial_load(aug.clone(), &site).unwrap();
        let mut src = SequencedSource::new("fig1", site);
        let ingest = IngestingIntegrator::new(integ, IngestConfig::default()).unwrap();
        let mut dw =
            DurableWarehouse::create(DiskMedium::default(), ingest, DurabilityConfig::default())
                .unwrap();
        let k = 2 * REPLAY_GROUP + 5;
        let envs: Vec<Envelope> = (0..k)
            .map(|i| {
                let row = rel! { ["item", "clerk"] => (format!("item{i}"), "Mary") };
                src.apply_update(&Update::inserting("Sale", row)).unwrap()
            })
            .collect();
        // Live: group commits of 7 — ⌈k/7⌉ passes.
        for batch in envs.chunks(7) {
            dw.offer_batch(batch).unwrap();
        }
        let live = dw.ingestor().policy().stats();
        assert_eq!((live.passes, live.fallbacks), (k.div_ceil(7) as u64, 0));

        let files = DiskMedium(SimDisk::from_files(dw.medium.0.survivors()));
        let (rec, report) = Recovery::open(files, aug, DurabilityConfig::default()).unwrap();
        assert_eq!(report.records_replayed, k);
        assert_eq!(report.replay_passes, 3); // ⌈k/REPLAY_GROUP⌉
        assert_eq!(rec.state(), dw.state());
        assert_eq!(rec.ingestor().stats(), dw.ingestor().stats());
        let (a, b) = (rec.ingestor().integrator_stats(), dw.ingestor().integrator_stats());
        assert_eq!(
            (a.updates_processed, a.delta_tuples),
            (b.updates_processed, b.delta_tuples)
        );
    }

    /// A fresh directory under the system temp dir, unique per test.
    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("dwc-fsmedium-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn held_name(m: &FsMedium) -> Option<String> {
        m.held().as_ref().map(|(name, _)| name.clone())
    }

    /// A `write_all`, `rename` (either side) or `remove` of the held
    /// file closes the handle, so the next append reopens by name and
    /// lands in the file that now carries it — not in an unlinked or
    /// renamed inode.
    #[test]
    fn fs_medium_drops_the_held_handle_when_its_name_changes_hands() {
        let dir = temp_dir("drop");
        let m = FsMedium::new(&dir).unwrap();
        m.append("a", b"1").unwrap();
        assert_eq!(held_name(&m).as_deref(), Some("a"));
        m.write_all("a", b"x").unwrap();
        assert_eq!(held_name(&m), None, "write_all of the held file");
        m.append("a", b"2").unwrap();
        assert_eq!(m.read("a").unwrap(), b"x2");

        m.rename("a", "b").unwrap();
        assert_eq!(held_name(&m), None, "rename from the held file");
        m.append("a", b"3").unwrap();
        assert_eq!((m.read("a").unwrap(), m.read("b").unwrap()), (b"3".to_vec(), b"x2".to_vec()));

        m.write_all("tmp", b"T").unwrap();
        m.rename("tmp", "a").unwrap();
        assert_eq!(held_name(&m), None, "rename over the held file");
        m.append("a", b"4").unwrap();
        assert_eq!(m.read("a").unwrap(), b"T4");

        m.remove("a").unwrap();
        assert_eq!(held_name(&m), None, "remove of the held file");
        m.append("a", b"5").unwrap();
        assert_eq!(m.read("a").unwrap(), b"5");

        // Operations on other names leave the handle alone.
        m.write_all("c", b"c").unwrap();
        m.rename("c", "d").unwrap();
        m.remove("d").unwrap();
        assert_eq!(held_name(&m).as_deref(), Some("a"));
        assert_eq!(held_name(&m.clone()), None, "a clone holds no handle");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `sync` of a file that is not held opens and syncs that file by
    /// name — it never syncs the held handle in its place.
    #[test]
    fn fs_medium_syncs_an_unheld_file_by_name() {
        let dir = temp_dir("sync");
        let m = FsMedium::new(&dir).unwrap();
        m.append("held", b"h").unwrap();
        m.write_all("other", b"o").unwrap();
        m.sync("other").unwrap();
        m.sync("held").unwrap();
        assert_eq!(held_name(&m).as_deref(), Some("held"));
        let err = m.sync("missing").unwrap_err();
        assert_eq!((err.op, err.path.as_str()), ("sync", "missing"));
        assert_eq!(m.read("other").unwrap(), b"o");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// On the real filesystem, group commits append through the held
    /// handle, a generation roll moves it to the new segment, and a
    /// cold recovery of the directory replays both generations' frames
    /// to the live state.
    #[test]
    fn fs_medium_appends_follow_the_generation_roll() {
        let dir = temp_dir("roll");
        let spec = fig1_spec();
        let site = SourceSite::new(spec.catalog().clone(), fig1_state()).unwrap();
        let aug = spec.augment().unwrap();
        let integ = Integrator::initial_load(aug.clone(), &site).unwrap();
        let mut src = SequencedSource::new("fig1", site);
        let ingest = IngestingIntegrator::new(integ, IngestConfig::default()).unwrap();
        let config = DurabilityConfig { retain_generations: 3, ..DurabilityConfig::default() };
        let mut dw = DurableWarehouse::create(FsMedium::new(&dir).unwrap(), ingest, config)
            .unwrap();
        let mut batch = |n: usize| -> Vec<Envelope> {
            (0..n)
                .map(|i| {
                    let row = rel! { ["item", "clerk"] => (format!("item{i}-{n}"), "Mary") };
                    src.apply_update(&Update::inserting("Sale", row)).unwrap()
                })
                .collect()
        };
        dw.offer_batch(&batch(5)).unwrap();
        let first = dw.wal_name.clone();
        assert_eq!(held_name(&dw.medium), Some(first.clone()));
        dw.snapshot().unwrap();
        dw.offer_batch(&batch(3)).unwrap();
        assert_ne!(dw.wal_name, first);
        assert_eq!(held_name(&dw.medium), Some(dw.wal_name.clone()));
        let st = dw.storage_stats();
        assert_eq!((st.wal_appends, st.wal_syncs, st.group_commits), (8, 2, 2));
        assert_eq!(wal::scan_segment(&dw.medium, &first, 1).unwrap().records.len(), 5);
        assert_eq!(wal::scan_segment(&dw.medium, &dw.wal_name, 2).unwrap().records.len(), 3);

        let (rec, report) =
            Recovery::open(FsMedium::new(&dir).unwrap(), aug, config).unwrap();
        assert_eq!(report.records_replayed, 3);
        assert_eq!(rec.state(), dw.state());
        drop((dw, rec));
        fs::remove_dir_all(&dir).unwrap();
    }
}
