//! # Key-range sharded durability: per-shard WAL lineages under one
//! commit point, with per-lineage crash recovery
//!
//! The unsharded [`crate::storage::DurableWarehouse`] keeps one WAL and
//! one snapshot lineage; recovery replays the whole history through the
//! full maintenance machinery, serially. This module partitions the
//! *durability* of a warehouse by key range while leaving the live
//! integrator whole:
//!
//! * Rows route by a **routing attribute** (a key attribute chosen by
//!   [`ShardSpec::choose_attr`], cut into ranges by
//!   [`ShardSpec::equi_depth`]). Relations without the attribute are
//!   pinned whole to shard 0. The partition is *certified* against the
//!   key/IND structure by `dwc-analyze`'s `H` codes before a sharded
//!   store is created.
//! * Every applied operation is **traced**: its stored-relation deltas
//!   are split row-wise and appended to each shard's own WAL segment —
//!   one record per shard per operation, empty deltas included, so each
//!   shard's durable high-water mark is well defined. The operation's
//!   *bookkeeping* (envelope, quarantine error, absolute counters) goes
//!   to a separate **sequencing lineage**, appended strictly last: a
//!   sequencing record asserts its data records are on every shard.
//! * All lineages commit under **one root manifest rename** — the
//!   single commit point, exactly as in the unsharded store.
//!
//! ## Recovery
//!
//! [`ShardedDurableWarehouse::open`] restores the sequencing lineage's
//! newest intact snapshot, then scans and applies the shard lineages one
//! after another, straight from the medium — the CPU-heavy decode and
//! delta application is per-shard-independent by construction, and each
//! shard's share is timed ([`ShardRecoveryReport::replay_critical`]). The
//! recovered **cut** is `min(seq hi, min over live shards of shard hi)`:
//! an ordinal some lineage lost (torn tail, unsynced suffix) is
//! discarded everywhere, so recovery lands on a *strict prefix* of the
//! acknowledged history, bit-identical to a never-crashed store at that
//! prefix (Theorem 4.1 makes the replayed maintenance path immaterial;
//! here the data effects replay as recorded deltas and the bookkeeping
//! replays *scripted*, skipping maintenance recomputation entirely —
//! which is where the sharded store's recovery speedup comes from).
//!
//! ## Degraded shards
//!
//! A fatal medium failure on one shard **parks** it instead of
//! poisoning the store: the shard's lineage is stamped with the ordinal
//! it is durable through, the offending batch is rolled back in memory
//! (to the durable checkpoint) and rejected with
//! [`StorageError::ShardUnavailable`], and every other shard keeps
//! committing and serving. Route checks — a cheap pre-check on the
//! incoming update plus an authoritative post-trace check — guarantee
//! no later operation writes into the parked key range. Reopening the
//! store heals the parked shard (its slice rolls fresh) or fails
//! closed. Retryable faults mark only that shard's lineage dirty;
//! healing rolls just the dirty lineages under a fresh generation.

use std::collections::{BTreeMap, BTreeSet};

use dwc_relalg::{Attr, AttrSet, Catalog, DbState, Relation, Tuple, Update, Value};

use crate::channel::{Envelope, SourceId};
use crate::error::WarehouseError;
use crate::ingest::{IngestOutcome, IngestingIntegrator, TraceBuf};
use crate::planner::{mode_to_byte, policy_from_byte, AdaptivePolicy};
use crate::spec::AugmentedWarehouse;
use crate::storage::snapshot::{
    self, ManifestDoc, ManifestEntry, ShardLineage, ShardManifest, SliceImage, MANIFEST,
};
use crate::storage::wal::{self, SeqWalRecord, ShardWalRecord};
use crate::storage::{
    image_of, DurabilityConfig, MediumError, Recovery, StorageError, StorageMedium,
    StorageStats,
};

/// Consecutive failed heals of one shard's lineage before a
/// persistently-"transient" fault is escalated to a park: a single
/// misbehaving shard must not hold the whole store degraded forever.
const PARK_AFTER_FAILED_HEALS: u32 = 3;

/// How rows are ranged across shards: a routing attribute and the
/// ascending cut values. Row `t` routes to the first shard whose cut
/// exceeds `t[attr]`; rows of relations without the attribute are
/// pinned whole to shard 0.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSpec {
    attr: String,
    cuts: Vec<Value>,
}

impl ShardSpec {
    /// A spec with explicit cuts. Cuts must be strictly ascending; they
    /// are sorted and deduplicated defensively (the shard count follows
    /// the surviving cuts).
    pub fn new(attr: impl Into<String>, cuts: Vec<Value>) -> ShardSpec {
        let set: BTreeSet<Value> = cuts.into_iter().collect();
        ShardSpec { attr: attr.into(), cuts: set.into_iter().collect() }
    }

    /// The routing attribute.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// The cut values (ascending, `count() - 1` of them).
    pub fn cuts(&self) -> &[Value] {
        &self.cuts
    }

    /// The number of shards.
    pub fn count(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Picks the routing attribute for a catalog: the key attribute
    /// appearing in the most base relations (alphabetical on ties),
    /// `None` when no relation declares a key.
    pub fn choose_attr(catalog: &Catalog) -> Option<String> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for schema in catalog.schemas() {
            if let Some(key) = schema.key() {
                for a in key.iter() {
                    counts.entry(a.to_string()).or_insert(0);
                }
            }
        }
        for schema in catalog.schemas() {
            for (name, n) in counts.iter_mut() {
                if schema.attrs().contains(Attr::new(name)) {
                    *n += 1;
                }
            }
        }
        counts
            .into_iter()
            .max_by(|(a, na), (b, nb)| na.cmp(nb).then_with(|| b.cmp(a)))
            .map(|(name, _)| name)
    }

    /// Equi-depth cuts over the distinct routing values currently in
    /// `state`: quantile boundaries over the sorted key domain. An
    /// empty domain gets a synthetic integer ladder (routing stays
    /// total — [`Value`] is totally ordered across variants). When the
    /// domain holds fewer than `count - 1` distinct values the spec
    /// degrades to fewer shards rather than duplicating cuts.
    pub fn equi_depth(attr: &str, count: usize, state: &DbState) -> ShardSpec {
        let count = count.max(1);
        let routing = Attr::new(attr);
        let mut domain: BTreeSet<Value> = BTreeSet::new();
        for (_, rel) in state.iter() {
            if let Some(i) = rel.attrs().index_of(routing) {
                for t in rel.iter() {
                    domain.insert(t.get(i).clone());
                }
            }
        }
        let domain: Vec<Value> = domain.into_iter().collect();
        let mut cuts = Vec::new();
        if domain.is_empty() {
            for i in 1..count {
                cuts.push(Value::int((i as i64) * 1024));
            }
        } else {
            for i in 1..count {
                let idx = (i * domain.len()) / count;
                let v = &domain[idx.min(domain.len() - 1)];
                if cuts.last().is_none_or(|last| last < v) {
                    cuts.push(v.clone());
                }
            }
        }
        ShardSpec { attr: attr.to_owned(), cuts }
    }

    /// The shard a routing value belongs to.
    pub fn route_value(&self, v: &Value) -> usize {
        self.cuts.partition_point(|c| c <= v)
    }

    /// Splits a relation row-wise into `count()` disjoint parts whose
    /// union (canonical, by sorted merge) is the input. A relation
    /// without the routing attribute lands whole in part 0.
    pub(crate) fn partition_rel(&self, rel: &Relation) -> Result<Vec<Relation>, StorageError> {
        let n = self.count();
        let routing = Attr::new(&self.attr);
        match rel.attrs().index_of(routing) {
            None => {
                let mut out = vec![Relation::empty(rel.attrs().clone()); n];
                out[0] = rel.clone();
                Ok(out)
            }
            Some(i) => {
                let mut buckets: Vec<Vec<Tuple>> = vec![Vec::new(); n];
                for t in rel.iter() {
                    let k = self.route_value(t.get(i));
                    buckets[k].push(t);
                }
                buckets
                    .into_iter()
                    .map(|b| {
                        Relation::from_tuples(rel.attrs().clone(), b)
                            .map_err(|e| StorageError::from(WarehouseError::from(e)))
                    })
                    .collect()
            }
        }
    }

    /// Splits a full database state into per-shard slices; every stored
    /// relation appears in every slice (possibly empty), so slices of
    /// one generation union back to the exact state.
    pub(crate) fn partition_state(
        &self,
        state: &DbState,
    ) -> Result<Vec<Vec<(String, Relation)>>, StorageError> {
        let mut out: Vec<Vec<(String, Relation)>> = vec![Vec::new(); self.count()];
        for (name, rel) in state.iter() {
            let parts = self.partition_rel(rel)?;
            for (k, p) in parts.into_iter().enumerate() {
                out[k].push((name.to_string(), p));
            }
        }
        Ok(out)
    }

    /// The cuts as the single-column relation the manifest persists.
    fn cuts_relation(&self) -> Result<Relation, StorageError> {
        Relation::from_tuples(
            AttrSet::from_names(&["cut"]),
            self.cuts.iter().map(|v| Tuple::new(vec![v.clone()])),
        )
        .map_err(|e| StorageError::from(WarehouseError::from(e)))
    }

    /// Decodes the spec back out of a manifest's shard section.
    fn from_manifest(sm: &ShardManifest) -> ShardSpec {
        let cuts: Vec<Value> = sm.cuts.iter().map(|t| t.get(0).clone()).collect();
        ShardSpec { attr: sm.attr.clone(), cuts }
    }
}

/// One shard's health as the server and `dwc connect` surface it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Committing normally.
    Live,
    /// A retryable fault left the shard's current segment dirty; the
    /// next heal rolls its lineage.
    Dirty,
    /// A fatal fault parked the shard: its key range rejects writes
    /// until the store is reopened, every other shard keeps committing.
    Parked,
}

impl std::fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardHealth::Live => write!(f, "live"),
            ShardHealth::Dirty => write!(f, "dirty"),
            ShardHealth::Parked => write!(f, "parked"),
        }
    }
}

/// What [`ShardedDurableWarehouse::open`] found and did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardRecoveryReport {
    /// Shards in the opened store (after any re-shard).
    pub shards: usize,
    /// The recovered cut: the highest ordinal every surviving lineage
    /// agrees on. Records past it were discarded as unacknowledgeable.
    pub cut: u64,
    /// Shard-lineage data records applied (across all shards).
    pub shard_records_replayed: usize,
    /// Sequencing records replayed scripted.
    pub seq_records_replayed: usize,
    /// Corrupt/unreadable snapshots skipped (sequencing + shards).
    pub snapshots_skipped: usize,
    /// Segments with torn tails, clipped to the last complete frame.
    pub torn_tails: usize,
    /// Shards that were parked at the last commit (all are healed —
    /// rolled fresh — by a successful open).
    pub parked_shards: usize,
    /// Whether the `W(W⁻¹(w)) = w` cross-check ran.
    pub consistency_checked: bool,
    /// Whether a persisted maintenance-policy mode was re-armed.
    pub policy_restored: bool,
    /// Whether the store was re-cut to a different shard count.
    pub resharded: bool,
    /// Whether an unsharded store was migrated to the sharded layout.
    pub migrated: bool,
    /// The slowest single shard's decode + replay time. Lineages are
    /// independent, so this *models* the data phase's critical path if
    /// they were replayed side by side; the code replays them in turn.
    pub replay_critical: std::time::Duration,
    /// Per-shard decode + replay time summed over all shards: what the
    /// data phase actually pays. `replay_total / replay_critical` is the
    /// modeled speedup independent lineages would allow.
    /// Zero (like `replay_critical`) for a migration, whose data comes
    /// through the unsharded recovery instead.
    pub replay_total: std::time::Duration,
}

/// One shard's live lineage state.
#[derive(Clone, Debug)]
struct Lineage {
    entries: Vec<ManifestEntry>,
    wal: String,
    parked_at: Option<u64>,
    /// Needs a fresh generation before any further append — set by
    /// retryable faults and by snapshot/rollback requests alike.
    dirty: bool,
    pending: Vec<ShardWalRecord>,
    failed_heals: u32,
}

impl Lineage {
    fn fresh() -> Lineage {
        Lineage {
            entries: Vec::new(),
            wal: String::new(),
            parked_at: None,
            dirty: true,
            pending: Vec::new(),
            failed_heals: 0,
        }
    }
}

/// What the scan phase learned about one shard.
#[derive(Debug)]
struct ShardScan {
    parked_at: Option<u64>,
    slice: SliceImage,
    records: Vec<ShardWalRecord>,
    /// Durable high-water mark: `max(slice.sqn, manifest sqn if live,
    /// highest intact record)`.
    hi: u64,
    skipped: usize,
    torn: usize,
}

/// An [`IngestingIntegrator`] whose durability is key-range partitioned:
/// per-shard WAL/snapshot lineages plus a sequencing lineage, all under
/// the one root `MANIFEST`. See the module docs for the full model.
#[derive(Debug)]
pub struct ShardedDurableWarehouse<M: StorageMedium> {
    medium: M,
    ingest: IngestingIntegrator,
    /// The in-memory state at `durable_sqn` — restored verbatim when a
    /// batch must be rolled back because a shard parked mid-commit.
    checkpoint: IngestingIntegrator,
    config: DurabilityConfig,
    spec: ShardSpec,
    seq_entries: Vec<ManifestEntry>,
    /// Parallel to `seq_entries`: the scripted-replay base ordinal of
    /// each committed sequencing snapshot.
    seq_sqns: Vec<u64>,
    seq_wal: String,
    seq_dirty: bool,
    pending_seq: Vec<SeqWalRecord>,
    lineages: Vec<Lineage>,
    /// The next heal must *truncate* the rolled lineages (drop their
    /// old generations): set after a rollback, whose discarded
    /// operations may have stray records in the old segments.
    truncate_on_heal: bool,
    sqn: u64,
    durable_sqn: u64,
    poisoned: bool,
    records_since_snapshot: u64,
    stats: StorageStats,
}

impl<M: StorageMedium> ShardedDurableWarehouse<M> {
    /// Creates a fresh sharded warehouse in an empty medium: certifies
    /// the partition against the key/IND structure (`H` codes), cuts
    /// the key domain equi-depth into `shards` ranges, and commits the
    /// initial generation of every lineage under one manifest. `attr`
    /// overrides the routing attribute ([`ShardSpec::choose_attr`] by
    /// default). Refuses a medium that already holds a warehouse.
    pub fn create(
        medium: M,
        ingest: IngestingIntegrator,
        config: DurabilityConfig,
        shards: usize,
        attr: Option<&str>,
    ) -> Result<ShardedDurableWarehouse<M>, StorageError> {
        if medium.exists(MANIFEST) {
            return Err(StorageError::Io(MediumError::fatal(
                "create",
                MANIFEST,
                "medium already holds a committed warehouse (use the sharded open)",
            )));
        }
        let aug = ingest.integrator().warehouse().clone();
        let attr = match attr {
            Some(a) => a.to_owned(),
            None => ShardSpec::choose_attr(aug.catalog()).ok_or_else(|| {
                StorageError::ShardTopologyMismatch {
                    detail: "no key attribute to range on; declare a key or name a \
                             routing attribute explicitly"
                        .to_owned(),
                }
            })?,
        };
        Self::certify(&aug, &attr)?;
        let spec = ShardSpec::equi_depth(&attr, shards, ingest.state());
        let n = spec.count();
        let checkpoint = ingest.clone();
        let mut sw = ShardedDurableWarehouse {
            medium,
            ingest,
            checkpoint,
            config,
            spec,
            seq_entries: Vec::new(),
            seq_sqns: Vec::new(),
            seq_wal: String::new(),
            seq_dirty: true,
            pending_seq: Vec::new(),
            lineages: (0..n).map(|_| Lineage::fresh()).collect(),
            truncate_on_heal: false,
            sqn: 0,
            durable_sqn: 0,
            poisoned: false,
            records_since_snapshot: 0,
            stats: StorageStats::default(),
        };
        sw.heal_now()?;
        Ok(sw)
    }

    /// Runs the `dwc-analyze` accept gate with shard certification (`H`
    /// codes) enabled; errors reject the partition.
    fn certify(aug: &AugmentedWarehouse, attr: &str) -> Result<(), StorageError> {
        let report = dwc_analyze::analyze(
            aug.catalog(),
            aug.views(),
            aug.spec().union_facts(),
            &dwc_analyze::AnalyzeOptions::accept().with_shard_attr(attr),
        );
        if report.has_errors() {
            let errors: Vec<String> = report
                .diagnostics()
                .iter()
                .filter(|d| d.severity == dwc_analyze::Severity::Error)
                .map(|d| d.to_string())
                .collect();
            return Err(StorageError::ShardTopologyMismatch {
                detail: format!(
                    "key-range sharding by `{attr}` fails static certification: {}",
                    errors.join("; ")
                ),
            });
        }
        Ok(())
    }

    /// Opens a medium holding a committed warehouse. On a sharded
    /// medium this runs the recovery described in the module docs; on an unsharded one it **migrates** (full unsharded
    /// recovery, then re-commit under the sharded layout) when `shards`
    /// is given, and fails closed with `DWC-S304` otherwise. A `shards`
    /// count different from the stored one re-cuts the key domain
    /// equi-depth and re-partitions on the spot.
    pub fn open(
        medium: M,
        aug: AugmentedWarehouse,
        config: DurabilityConfig,
        shards: Option<usize>,
    ) -> Result<(ShardedDurableWarehouse<M>, ShardRecoveryReport), StorageError> {
        let doc = snapshot::read_manifest(&medium)?;
        let Some(sm) = doc.shards.clone() else {
            let Some(n) = shards else {
                return Err(StorageError::ShardTopologyMismatch {
                    detail: "medium holds an unsharded warehouse; open it with \
                             Recovery::open, or pass a shard count to migrate it"
                        .to_owned(),
                });
            };
            return Self::migrate(medium, aug, config, n);
        };
        let count = sm.lineages.len();
        let spec = ShardSpec::from_manifest(&sm);
        if spec.count() != count || sm.seq_sqns.len() != doc.entries.len() {
            return Err(StorageError::ManifestCorrupt {
                detail: format!(
                    "shard section inconsistent: {} cuts / {} lineages / {} \
                     sequencing ordinals for {} root entries",
                    spec.cuts.len(),
                    count,
                    sm.seq_sqns.len(),
                    doc.entries.len()
                ),
            });
        }

        // Sequencing lineage: newest intact snapshot, fall back a
        // generation on any defect.
        let mut skipped = 0usize;
        let mut tried = Vec::new();
        let mut start: Option<(usize, snapshot::WarehouseImage)> = None;
        for (i, entry) in doc.entries.iter().enumerate().rev() {
            tried.push(entry.snapshot.clone());
            match snapshot::read_snapshot(&medium, &entry.snapshot, entry.generation) {
                Ok(image) => {
                    start = Some((i, image));
                    break;
                }
                Err(_) => skipped += 1,
            }
        }
        let Some((seq_idx, mut image)) = start else {
            return Err(StorageError::NoIntactSnapshot { tried });
        };
        let seq_base = sm.seq_sqns[seq_idx];
        let mut torn_tails = 0usize;
        let mut seq_hi = sm.sqn;
        let mut seq_records: Vec<SeqWalRecord> = Vec::new();
        for entry in &doc.entries[seq_idx..] {
            let (records, torn) = wal::scan_seq_segment(&medium, &entry.wal, entry.generation)?;
            if torn > 0 {
                torn_tails += 1;
            }
            for rec in records {
                seq_hi = seq_hi.max(rec.sqn());
                seq_records.push(rec);
            }
        }

        // Shard lineages: fail closed on a missing WAL segment of any
        // shard before scanning one.
        for (k, lineage) in sm.lineages.iter().enumerate() {
            if let Some(entry) = lineage.entries.iter().find(|e| !medium.exists(&e.wal)) {
                return Err(StorageError::ShardLineageMissing {
                    shard: k,
                    file: entry.wal.clone(),
                });
            }
        }
        let mut scans: Vec<ShardScan> = Vec::with_capacity(count);
        let mut per_shard_time: Vec<std::time::Duration> = Vec::with_capacity(count);
        for lineage in &sm.lineages {
            let t = std::time::Instant::now();
            let s = scan_shard(&medium, lineage, sm.sqn)?;
            per_shard_time.push(t.elapsed());
            skipped += s.skipped;
            torn_tails += s.torn;
            scans.push(s);
        }

        // The recovered cut: parked shards are certified untouched past
        // their stamp and do not hold the cut back.
        let live_min = scans
            .iter()
            .filter(|s| s.parked_at.is_none())
            .map(|s| s.hi)
            .min();
        let cut = live_min.map_or(seq_hi, |m| m.min(seq_hi));

        // Apply per shard, then canonical union back to the full state.
        let mut shard_replayed = 0usize;
        let mut merged: BTreeMap<String, Relation> = BTreeMap::new();
        for (scan, spent) in scans.iter().zip(&mut per_shard_time) {
            let t = std::time::Instant::now();
            let (n_applied, rels) = apply_shard(scan, cut)?;
            *spent += t.elapsed();
            shard_replayed += n_applied;
            for (name, rel) in rels {
                let next = match merged.get(&name) {
                    Some(acc) => acc
                        .union(&rel)
                        .map_err(|e| StorageError::from(WarehouseError::from(e)))?,
                    None => rel,
                };
                merged.insert(name, next);
            }
        }
        let mut db = DbState::new();
        for (name, rel) in merged {
            db.insert_relation(name.as_str(), rel);
        }
        image.warehouse = db;

        // Restore, then replay the sequencing records *scripted*: the
        // data effects are already in place, so only the bookkeeping
        // (cursors, quarantine, counters) re-runs — no maintenance.
        let mut ingest = Recovery::restore(aug, image)?;
        let mut seq_replayed = 0usize;
        for rec in seq_records {
            let sqn = rec.sqn();
            if sqn <= seq_base || sqn > cut {
                continue;
            }
            match rec {
                SeqWalRecord::Offered { env, ok, error, istats, ingstats, .. } => {
                    ingest.offer_scripted(&env, ok, error);
                    ingest.force_stats(istats, ingstats);
                }
                SeqWalRecord::Recovered { source, log, istats, ingstats, .. } => {
                    ingest.recover_from_log_scripted(&source, &log).map_err(|e| {
                        StorageError::RecoveredStateInconsistent {
                            detail: format!("scripted gap repair failed: {e}"),
                        }
                    })?;
                    ingest.force_stats(istats, ingstats);
                }
                SeqWalRecord::Requeued { index, ok, error, istats, ingstats, .. } => {
                    if ingest.requeue_quarantined_scripted(index as usize, ok, error).is_none()
                    {
                        return Err(StorageError::RecoveredStateInconsistent {
                            detail: format!(
                                "sequencing requeue of quarantine index {index} out of range"
                            ),
                        });
                    }
                    ingest.force_stats(istats, ingstats);
                }
                SeqWalRecord::Discarded { index, reason, .. } => {
                    if ingest.discard_quarantined(index as usize, reason).is_none() {
                        return Err(StorageError::RecoveredStateInconsistent {
                            detail: format!(
                                "sequencing discard of quarantine index {index} out of range"
                            ),
                        });
                    }
                }
            }
            seq_replayed += 1;
        }
        if config.verify_on_open {
            Recovery::cross_check(&ingest)?;
        }
        if let Some(byte) = doc.policy {
            ingest.set_policy(policy_from_byte(byte));
        }

        let parked_shards =
            sm.lineages.iter().filter(|l| l.parked_at.is_some()).count();
        let checkpoint = ingest.clone();
        let mut sw = ShardedDurableWarehouse {
            medium,
            ingest,
            checkpoint,
            config,
            spec,
            seq_entries: doc.entries[seq_idx..].to_vec(),
            seq_sqns: sm.seq_sqns[seq_idx..].to_vec(),
            seq_wal: String::new(),
            seq_dirty: true,
            pending_seq: Vec::new(),
            lineages: sm
                .lineages
                .iter()
                .map(|l| Lineage {
                    entries: l.entries.clone(),
                    wal: String::new(),
                    parked_at: None,
                    dirty: true,
                    pending: Vec::new(),
                    failed_heals: 0,
                })
                .collect(),
            truncate_on_heal: false,
            sqn: cut,
            durable_sqn: cut,
            poisoned: false,
            records_since_snapshot: 0,
            stats: StorageStats::default(),
        };

        // Optional re-shard: same routing attribute, fresh equi-depth
        // cuts over the recovered key domain. The old lineages' files
        // become garbage once the re-cut generation commits.
        let mut resharded = false;
        let mut garbage: Vec<(String, String)> = Vec::new();
        if let Some(nreq) = shards {
            let nreq = nreq.max(1);
            let recut = ShardSpec::equi_depth(&sw.spec.attr, nreq, sw.ingest.state());
            if recut != sw.spec {
                for l in &sw.lineages {
                    for e in &l.entries {
                        garbage.push((e.snapshot.clone(), e.wal.clone()));
                    }
                }
                let n = recut.count();
                sw.spec = recut;
                sw.lineages = (0..n).map(|_| Lineage::fresh()).collect();
                resharded = true;
            }
        }

        // Commit a fresh generation of everything: recovery never
        // appends to a possibly-torn segment, parked shards heal (their
        // slices roll fresh), and the next crash recovers without this
        // replay.
        sw.heal_now()?;
        for (s, w) in garbage {
            let _ = sw.medium.remove(&s);
            let _ = sw.medium.remove(&w);
        }
        let report = ShardRecoveryReport {
            shards: sw.lineages.len(),
            cut,
            shard_records_replayed: shard_replayed,
            seq_records_replayed: seq_replayed,
            snapshots_skipped: skipped,
            torn_tails,
            parked_shards,
            consistency_checked: config.verify_on_open,
            policy_restored: doc.policy.is_some(),
            resharded,
            migrated: false,
            replay_critical: per_shard_time.iter().copied().max().unwrap_or_default(),
            replay_total: per_shard_time.iter().copied().sum(),
        };
        Ok((sw, report))
    }

    /// Migrates an unsharded store: full unsharded recovery, then the
    /// recovered state re-commits under the sharded layout and the old
    /// plain lineage's files are swept.
    fn migrate(
        medium: M,
        aug: AugmentedWarehouse,
        config: DurabilityConfig,
        shards: usize,
    ) -> Result<(ShardedDurableWarehouse<M>, ShardRecoveryReport), StorageError> {
        let (dw, plain) = Recovery::open(medium, aug, config)?;
        let (medium, ingest) = dw.into_parts();
        let spec_aug = ingest.integrator().warehouse().clone();
        let attr = ShardSpec::choose_attr(spec_aug.catalog()).ok_or_else(|| {
            StorageError::ShardTopologyMismatch {
                detail: "cannot migrate to a sharded layout: no key attribute to \
                         range on"
                    .to_owned(),
            }
        })?;
        Self::certify(&spec_aug, &attr)?;
        let spec = ShardSpec::equi_depth(&attr, shards, ingest.state());
        let n = spec.count();
        let checkpoint = ingest.clone();
        let mut sw = ShardedDurableWarehouse {
            medium,
            ingest,
            checkpoint,
            config,
            spec,
            seq_entries: Vec::new(),
            seq_sqns: Vec::new(),
            seq_wal: String::new(),
            seq_dirty: true,
            pending_seq: Vec::new(),
            lineages: (0..n).map(|_| Lineage::fresh()).collect(),
            truncate_on_heal: false,
            sqn: 0,
            durable_sqn: 0,
            poisoned: false,
            records_since_snapshot: 0,
            stats: StorageStats::default(),
        };
        sw.heal_now()?;
        // The plain lineage (snap-/wal- names, disjoint from seq-/s{k}-)
        // is garbage behind the new manifest.
        if let Ok(files) = sw.medium.list() {
            for f in files {
                if f.starts_with("snap-") || f.starts_with("wal-") {
                    let _ = sw.medium.remove(&f);
                }
            }
        }
        let report = ShardRecoveryReport {
            shards: sw.lineages.len(),
            cut: 0,
            shard_records_replayed: 0,
            seq_records_replayed: plain.records_replayed,
            snapshots_skipped: plain.snapshots_skipped,
            torn_tails: plain.torn_tails,
            parked_shards: 0,
            consistency_checked: plain.consistency_checked,
            policy_restored: plain.policy_restored,
            resharded: false,
            migrated: true,
            replay_critical: std::time::Duration::ZERO,
            replay_total: std::time::Duration::ZERO,
        };
        Ok((sw, report))
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// Offers one envelope: route pre-check, traced in-memory apply,
    /// one record per lineage, flush (fsync per
    /// [`DurabilityConfig::sync_every_append`]).
    pub fn offer(&mut self, envelope: &Envelope) -> Result<IngestOutcome, StorageError> {
        self.ensure_live()?;
        self.check_parked_routes(&envelope.report)?;
        let r = self.offer_inner(envelope);
        r.map_err(|e| self.absorb(e))
    }

    fn offer_inner(&mut self, envelope: &Envelope) -> Result<IngestOutcome, StorageError> {
        let (outcome, buf) = self.ingest.offer_traced(envelope);
        self.sqn += 1;
        let rec = SeqWalRecord::Offered {
            sqn: self.sqn,
            env: envelope.clone(),
            ok: buf.ok,
            error: buf.error.clone(),
            istats: self.ingest.integrator_stats(),
            ingstats: self.ingest.stats(),
        };
        self.queue_op(rec, buf)?;
        self.flush_pending(self.config.sync_every_append)?;
        self.maybe_auto_snapshot()?;
        Ok(outcome)
    }

    /// Offers a batch as one group commit: apply + queue everything,
    /// then one flush with one fsync per lineage.
    pub fn offer_batch(
        &mut self,
        envelopes: &[Envelope],
    ) -> Result<Vec<IngestOutcome>, StorageError> {
        let outcomes = self.apply_batch(envelopes)?;
        if !envelopes.is_empty() {
            self.commit_applied()?;
        }
        Ok(outcomes)
    }

    /// Applies a batch in memory and queues its records without
    /// touching storage; pair with
    /// [`ShardedDurableWarehouse::commit_applied`]. Unlike the
    /// unsharded analogue this is fallible: an envelope writing into a
    /// parked shard's key range rejects the *whole batch* (with the
    /// in-memory effects rolled back), keeping memory and disk aligned.
    pub fn apply_batch(
        &mut self,
        envelopes: &[Envelope],
    ) -> Result<Vec<IngestOutcome>, StorageError> {
        self.ensure_live()?;
        for env in envelopes {
            self.check_parked_routes(&env.report)?;
        }
        let mut outcomes = Vec::with_capacity(envelopes.len());
        for env in envelopes {
            match self.apply_one(env) {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => return Err(self.absorb(e)),
            }
        }
        Ok(outcomes)
    }

    fn apply_one(&mut self, envelope: &Envelope) -> Result<IngestOutcome, StorageError> {
        let (outcome, buf) = self.ingest.offer_traced(envelope);
        self.sqn += 1;
        let rec = SeqWalRecord::Offered {
            sqn: self.sqn,
            env: envelope.clone(),
            ok: buf.ok,
            error: buf.error.clone(),
            istats: self.ingest.integrator_stats(),
            ingstats: self.ingest.stats(),
        };
        self.queue_op(rec, buf)?;
        Ok(outcome)
    }

    /// Makes every applied-but-not-yet-durable record durable: appends
    /// per shard, fsyncs per lineage (sequencing strictly last), one
    /// group commit. On dirty lineages it heals instead (rolling only
    /// the dirty ones). A fatal single-shard fault parks that shard,
    /// rolls the uncommitted batch back, and rejects it with
    /// `DWC-S305` — the store stays live for every other key range.
    pub fn commit_applied(&mut self) -> Result<(), StorageError> {
        self.ensure_live()?;
        if !self.has_uncommitted() {
            return Ok(());
        }
        let r = self
            .flush_pending(true)
            .map(|()| {
                self.stats.group_commits += 1;
            })
            .and_then(|()| self.maybe_auto_snapshot());
        r.map_err(|e| self.absorb(e))
    }

    /// True iff applied records await [`commit_applied`], or a fault
    /// left some lineage in need of a roll.
    ///
    /// [`commit_applied`]: ShardedDurableWarehouse::commit_applied
    pub fn has_uncommitted(&self) -> bool {
        self.seq_dirty
            || !self.pending_seq.is_empty()
            || self
                .lineages
                .iter()
                .any(|l| l.parked_at.is_none() && (l.dirty || !l.pending.is_empty()))
    }

    /// Repairs retryable-fault aftermath: rolls a fresh generation of
    /// exactly the dirty lineages (snapshots capture every in-memory
    /// effect), drains clean lineages' pending appends, and commits the
    /// lot under one manifest rename. Idempotent under retry.
    pub fn heal(&mut self) -> Result<(), StorageError> {
        self.ensure_live()?;
        if !self.has_uncommitted() {
            return Ok(());
        }
        let r = self.heal_now();
        r.map_err(|e| self.absorb(e))
    }

    /// Re-offers the quarantined envelope at `index` (see
    /// [`IngestingIntegrator::requeue_quarantined`]), recording the
    /// operator action in the sequencing lineage.
    pub fn requeue_quarantined(
        &mut self,
        index: usize,
    ) -> Result<Option<IngestOutcome>, StorageError> {
        self.ensure_live()?;
        if let Some(entry) = self.ingest.quarantine().get(index) {
            let report = entry.envelope.report.clone();
            self.check_parked_routes(&report)?;
        }
        let r = self.requeue_inner(index);
        r.map_err(|e| self.absorb(e))
    }

    fn requeue_inner(&mut self, index: usize) -> Result<Option<IngestOutcome>, StorageError> {
        let (maybe, buf) = self.ingest.requeue_quarantined_traced(index);
        let Some(outcome) = maybe else {
            return Ok(None);
        };
        self.sqn += 1;
        let rec = SeqWalRecord::Requeued {
            sqn: self.sqn,
            index: index as u64,
            ok: buf.ok,
            error: buf.error.clone(),
            istats: self.ingest.integrator_stats(),
            ingstats: self.ingest.stats(),
        };
        self.queue_op(rec, buf)?;
        self.flush_pending(self.config.sync_every_append)?;
        self.maybe_auto_snapshot()?;
        Ok(Some(outcome))
    }

    /// Permanently discards the quarantined envelope at `index` —
    /// pure bookkeeping, so every live shard records an empty delta.
    pub fn discard_quarantined(
        &mut self,
        index: usize,
        reason: &str,
    ) -> Result<Option<crate::ingest::DiscardedEntry>, StorageError> {
        self.ensure_live()?;
        let Some(entry) = self.ingest.discard_quarantined(index, reason) else {
            return Ok(None);
        };
        let entry = entry.clone();
        self.sqn += 1;
        let rec = SeqWalRecord::Discarded {
            sqn: self.sqn,
            index: index as u64,
            reason: reason.to_owned(),
        };
        let r = self
            .queue_op(rec, TraceBuf::default())
            .and_then(|()| self.flush_pending(self.config.sync_every_append))
            .and_then(|()| self.maybe_auto_snapshot());
        match r {
            Ok(()) => Ok(Some(entry)),
            Err(e) => Err(self.absorb(e)),
        }
    }

    /// Drains the whole quarantine in sequence order through the
    /// durable requeue path (see the unsharded analogue for why arrival
    /// order is wrong).
    pub fn requeue_all_quarantined(&mut self) -> Result<Vec<IngestOutcome>, StorageError> {
        self.ensure_live()?;
        let mut remaining = self.ingest.quarantine().len();
        let mut outcomes = Vec::with_capacity(remaining);
        while remaining > 0 {
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

    /// Repairs sequence gaps from a source's outbox log. A gap repair
    /// rewrites every shard's slice (non-incremental path), so it is
    /// refused with `DWC-S305` while any shard is parked.
    pub fn recover_from_log(
        &mut self,
        source: &SourceId,
        log: &[Envelope],
    ) -> Result<usize, StorageError> {
        self.ensure_live()?;
        if let Some(k) = self.first_parked() {
            return Err(StorageError::ShardUnavailable {
                shard: k,
                detail: "a gap repair rewrites every shard's slice, but this shard \
                         is parked; restart the store to recover it"
                    .to_owned(),
            });
        }
        let (res, buf) = self.ingest.recover_from_log_traced(source, log);
        let n = res?;
        self.sqn += 1;
        let rec = SeqWalRecord::Recovered {
            sqn: self.sqn,
            source: source.clone(),
            log: log.to_vec(),
            applied: n as u64,
            istats: self.ingest.integrator_stats(),
            ingstats: self.ingest.stats(),
        };
        let r = self
            .queue_op(rec, buf)
            .and_then(|()| self.flush_pending(self.config.sync_every_append))
            .and_then(|()| self.maybe_auto_snapshot());
        match r {
            Ok(()) => Ok(n),
            Err(e) => Err(self.absorb(e)),
        }
    }

    /// Rolls a fresh generation of every live lineage now.
    pub fn snapshot(&mut self) -> Result<(), StorageError> {
        self.ensure_live()?;
        let r = self.roll_everything();
        r.map_err(|e| self.absorb(e))
    }

    /// Installs a maintenance policy and immediately persists its mode
    /// in the root manifest, exactly as the unsharded store does.
    pub fn set_maintenance_policy(
        &mut self,
        policy: AdaptivePolicy,
    ) -> Result<(), StorageError> {
        self.ensure_live()?;
        self.ingest.set_policy(policy);
        let doc = self.current_manifest_doc()?;
        match snapshot::write_manifest(&self.medium, &doc) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.seq_failure(e)),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The current materialized warehouse state.
    pub fn state(&self) -> &DbState {
        self.ingest.state()
    }

    /// The wrapped fault-tolerant ingestor.
    pub fn ingestor(&self) -> &IngestingIntegrator {
        &self.ingest
    }

    /// Mutable access to the ingestor's maintenance policy.
    pub fn policy_mut(&mut self) -> &mut AdaptivePolicy {
        self.ingest.policy_mut()
    }

    /// The storage counters (shared across all lineages).
    pub fn storage_stats(&self) -> StorageStats {
        self.stats
    }

    /// The root (sequencing-lineage) generation number.
    pub fn generation(&self) -> u64 {
        self.seq_entries.last().map_or(0, |e| e.generation)
    }

    /// True once a storage failure has poisoned the whole store (a
    /// parked shard does *not* poison it).
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// The durability tuning in effect.
    pub fn config(&self) -> DurabilityConfig {
        self.config
    }

    /// The sharding spec in effect.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.lineages.len()
    }

    /// Per-shard health, indexed by shard.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.lineages
            .iter()
            .map(|l| {
                if l.parked_at.is_some() {
                    ShardHealth::Parked
                } else if l.dirty {
                    ShardHealth::Dirty
                } else {
                    ShardHealth::Live
                }
            })
            .collect()
    }

    /// The highest operation ordinal proven durable on every live
    /// lineage.
    pub fn durable_sqn(&self) -> u64 {
        self.durable_sqn
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn ensure_live(&self) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Io(MediumError::fatal(
                "poisoned",
                "",
                "sharded warehouse is poisoned by an earlier storage failure; \
                 restart and recover",
            )));
        }
        Ok(())
    }

    fn first_parked(&self) -> Option<usize> {
        self.lineages.iter().position(|l| l.parked_at.is_some())
    }

    /// Cheap pre-check: reject an update whose rows land in a parked
    /// shard's key range *before* it touches memory. The post-trace
    /// check in [`queue_op`] stays authoritative (maintenance can spill
    /// into unrouted — shard-0-pinned — relations).
    ///
    /// [`queue_op`]: ShardedDurableWarehouse::queue_op
    fn check_parked_routes(&self, update: &Update) -> Result<(), StorageError> {
        if self.first_parked().is_none() {
            return Ok(());
        }
        let parked_err = |k: usize| StorageError::ShardUnavailable {
            shard: k,
            detail: "the update writes into this shard's key range, but the shard \
                     is parked after a fatal medium fault; restart the store to \
                     recover it"
                .to_owned(),
        };
        let routing = Attr::new(&self.spec.attr);
        // Maintenance of any update can touch shard-0-pinned stored
        // relations (complements without the routing attribute), so a
        // parked shard 0 conservatively rejects every effectful update.
        if self.lineages[0].parked_at.is_some() && !update.is_empty() {
            let pinned_store = self
                .ingest
                .state()
                .iter()
                .any(|(_, rel)| !rel.attrs().contains(routing));
            if pinned_store {
                return Err(parked_err(0));
            }
        }
        for (_, delta) in update.iter() {
            for rel in [delta.inserted(), delta.deleted()] {
                match rel.attrs().index_of(routing) {
                    Some(i) => {
                        for t in rel.iter() {
                            let k = self.spec.route_value(t.get(i));
                            if self.lineages[k].parked_at.is_some() {
                                return Err(parked_err(k));
                            }
                        }
                    }
                    None => {
                        if !rel.is_empty() && self.lineages[0].parked_at.is_some() {
                            return Err(parked_err(0));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Splits one traced operation into per-lineage records and queues
    /// them: every live shard gets exactly one record (empty deltas
    /// included), the sequencing record queues last. A trace that
    /// touches a parked shard rejects the operation (the caller rolls
    /// the in-memory effect back via [`absorb`]).
    ///
    /// [`absorb`]: ShardedDurableWarehouse::absorb
    fn queue_op(&mut self, record: SeqWalRecord, buf: TraceBuf) -> Result<(), StorageError> {
        let sqn = record.sqn();
        let n = self.lineages.len();
        if buf.reset {
            if let Some(k) = self.first_parked() {
                return Err(StorageError::ShardUnavailable {
                    shard: k,
                    detail: "a non-incremental maintenance path rewrites every \
                             shard's slice, but this shard is parked"
                        .to_owned(),
                });
            }
            let parts = self.spec.partition_state(self.ingest.state())?;
            for (k, slice) in parts.into_iter().enumerate() {
                self.lineages[k].pending.push(ShardWalRecord::Reset { sqn, slice });
            }
        } else {
            let mut per: Vec<Vec<(String, Relation, Relation)>> = vec![Vec::new(); n];
            for d in &buf.deltas {
                let ins = self.spec.partition_rel(&d.inserted)?;
                let del = self.spec.partition_rel(&d.deleted)?;
                for (k, (i, dl)) in ins.into_iter().zip(del).enumerate() {
                    if i.is_empty() && dl.is_empty() {
                        continue;
                    }
                    per[k].push((d.name.to_string(), i, dl));
                }
            }
            for (k, deltas) in per.into_iter().enumerate() {
                if self.lineages[k].parked_at.is_some() {
                    if !deltas.is_empty() {
                        return Err(StorageError::ShardUnavailable {
                            shard: k,
                            detail: "an applied operation produced rows routed to a \
                                     parked shard (route pre-check miss)"
                                .to_owned(),
                        });
                    }
                    continue;
                }
                self.lineages[k].pending.push(ShardWalRecord::Delta { sqn, deltas });
            }
        }
        self.pending_seq.push(record);
        self.records_since_snapshot += 1;
        Ok(())
    }

    /// Drains every pending queue: shard lineages first (append order),
    /// the sequencing lineage strictly last, then — under `sync` — one
    /// fsync per lineage, sequencing last again. Only a fully synced
    /// flush advances the durable checkpoint.
    fn flush_pending(&mut self, sync: bool) -> Result<(), StorageError> {
        if self.store_dirty() {
            return self.heal_now();
        }
        let n = self.lineages.len();
        for k in 0..n {
            if self.lineages[k].parked_at.is_some() {
                self.lineages[k].pending.clear();
                continue;
            }
            while let Some(rec) = self.lineages[k].pending.first() {
                let wal_name = self.lineages[k].wal.clone();
                match wal::append_shard_record(&self.medium, &wal_name, rec, false) {
                    Ok(bytes) => {
                        self.stats.wal_appends += 1;
                        self.stats.wal_bytes += bytes as u64;
                        self.lineages[k].pending.remove(0);
                    }
                    Err(e) => return Err(self.shard_failure(k, e)),
                }
            }
        }
        while let Some(rec) = self.pending_seq.first() {
            match wal::append_seq_record(&self.medium, &self.seq_wal, rec, false) {
                Ok(bytes) => {
                    self.stats.wal_appends += 1;
                    self.stats.wal_bytes += bytes as u64;
                    self.pending_seq.remove(0);
                }
                Err(e) => return Err(self.seq_failure(e)),
            }
        }
        if sync {
            for k in 0..n {
                if self.lineages[k].parked_at.is_some() {
                    continue;
                }
                let wal_name = self.lineages[k].wal.clone();
                match self.medium.sync(&wal_name) { // lint:allow sync_call -- per-shard group fsync: the sharded store owns its lineage segments, mirroring the storage commit loop
                    Ok(()) => self.stats.wal_syncs += 1,
                    Err(e) => return Err(self.shard_failure(k, StorageError::from(e))),
                }
            }
            match self.medium.sync(&self.seq_wal) { // lint:allow sync_call -- sequencing-lineage fsync ordered strictly after all shard fsyncs; this is the commit point
                Ok(()) => self.stats.wal_syncs += 1,
                Err(e) => return Err(self.seq_failure(StorageError::from(e))),
            }
            self.durable_sqn = self.sqn;
            self.checkpoint = self.ingest.clone();
        }
        Ok(())
    }

    fn store_dirty(&self) -> bool {
        self.seq_dirty
            || self.lineages.iter().any(|l| l.parked_at.is_none() && l.dirty)
    }

    /// Classifies a failure on shard `k`'s lineage: retryable dirties
    /// it (escalating to a park after repeated failed heals), fatal
    /// parks it at the durable checkpoint.
    fn shard_failure(&mut self, k: usize, e: StorageError) -> StorageError {
        if e.is_retryable() {
            self.lineages[k].dirty = true;
            self.lineages[k].failed_heals += 1;
            if self.lineages[k].failed_heals <= PARK_AFTER_FAILED_HEALS {
                return e;
            }
        }
        self.lineages[k].parked_at = Some(self.durable_sqn);
        self.lineages[k].dirty = false;
        self.lineages[k].pending.clear();
        self.lineages[k].failed_heals = 0;
        StorageError::ShardUnavailable { shard: k, detail: e.to_string() }
    }

    /// Classifies a failure on the sequencing lineage or the manifest:
    /// retryable dirties it, fatal poisons the store (the sequencing
    /// lineage has no smaller blast radius to degrade to).
    fn seq_failure(&mut self, e: StorageError) -> StorageError {
        if e.is_retryable() {
            self.seq_dirty = true;
        } else {
            self.poisoned = true;
        }
        e
    }

    /// The `ShardUnavailable` aftermath, applied at the public-API
    /// boundary: roll the in-memory state back to the durable
    /// checkpoint, then immediately roll the surviving lineages past
    /// any stray records of the discarded operations (best-effort — on
    /// failure the dirty flags persist and the next heal retries).
    fn absorb(&mut self, e: StorageError) -> StorageError {
        if matches!(e, StorageError::ShardUnavailable { .. }) {
            self.ingest = self.checkpoint.clone();
            self.sqn = self.durable_sqn;
            self.pending_seq.clear();
            self.seq_dirty = true;
            self.truncate_on_heal = true;
            for l in &mut self.lineages {
                l.pending.clear();
                if l.parked_at.is_none() {
                    l.dirty = true;
                }
            }
            let _ = self.heal_now();
        }
        e
    }

    fn maybe_auto_snapshot(&mut self) -> Result<(), StorageError> {
        if let Some(every) = self.config.snapshot_every {
            if every > 0 && self.records_since_snapshot >= every {
                return self.roll_everything();
            }
        }
        Ok(())
    }

    fn roll_everything(&mut self) -> Result<(), StorageError> {
        for l in &mut self.lineages {
            if l.parked_at.is_none() {
                l.dirty = true;
            }
        }
        self.seq_dirty = true;
        self.heal_now()
    }

    fn heal_now(&mut self) -> Result<(), StorageError> {
        match self.heal_inner() {
            Ok(()) => Ok(()),
            Err(e) => {
                if !e.is_retryable()
                    && !matches!(e, StorageError::ShardUnavailable { .. })
                {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// The one roll/repair routine. Dirty lineages roll a fresh
    /// generation (their snapshots capture every in-memory effect,
    /// pending records included); clean lineages drain their appends
    /// and fsync; the root manifest rename commits the lot atomically.
    /// File writes are staged with deterministic names and bookkeeping
    /// mutates only after the rename, so a failed attempt is repeatable
    /// verbatim.
    fn heal_inner(&mut self) -> Result<(), StorageError> {
        let generation = self.max_generation() + 1;
        let n = self.lineages.len();
        let needs_parts = self
            .lineages
            .iter()
            .any(|l| l.parked_at.is_none() && l.dirty);
        let parts = if needs_parts {
            Some(self.spec.partition_state(self.ingest.state())?)
        } else {
            None
        };
        let mut staged: Vec<Option<ManifestEntry>> = vec![None; n];
        for k in 0..n {
            if self.lineages[k].parked_at.is_some() {
                continue;
            }
            if self.lineages[k].dirty {
                let snap = snapshot::shard_snapshot_name(k, generation);
                let rels = match &parts {
                    Some(p) => p[k].clone(),
                    None => Vec::new(),
                };
                let slice = SliceImage { sqn: self.sqn, rels };
                if let Err(e) =
                    snapshot::write_slice_snapshot(&self.medium, &snap, generation, &slice)
                {
                    return Err(self.shard_failure(k, e));
                }
                let wal_name = wal::shard_segment_name(k, generation);
                if let Err(e) = wal::create_segment_named(&self.medium, &wal_name, generation)
                {
                    return Err(self.shard_failure(k, e));
                }
                staged[k] = Some(ManifestEntry { generation, snapshot: snap, wal: wal_name });
            } else {
                while let Some(rec) = self.lineages[k].pending.first() {
                    let wal_name = self.lineages[k].wal.clone();
                    match wal::append_shard_record(&self.medium, &wal_name, rec, false) {
                        Ok(bytes) => {
                            self.stats.wal_appends += 1;
                            self.stats.wal_bytes += bytes as u64;
                            self.lineages[k].pending.remove(0);
                        }
                        Err(e) => return Err(self.shard_failure(k, e)),
                    }
                }
                let wal_name = self.lineages[k].wal.clone();
                match self.medium.sync(&wal_name) { // lint:allow sync_call -- per-shard group fsync: the sharded store owns its lineage segments, mirroring the storage commit loop
                    Ok(()) => self.stats.wal_syncs += 1,
                    Err(e) => return Err(self.shard_failure(k, StorageError::from(e))),
                }
            }
        }
        let staged_seq = if self.seq_dirty {
            let snap = snapshot::seq_snapshot_name(generation);
            // The sequencing snapshot persists only the bookkeeping half
            // of the image (cursors, quarantine, counters): the data
            // state lives in the shard slices of the same generation and
            // unions back exactly, so recovery overwrites whatever this
            // field holds. Writing it empty keeps the serial part of
            // both heal and recovery independent of state size.
            let mut seq_image = image_of(&self.ingest);
            seq_image.warehouse = DbState::new();
            if let Err(e) = snapshot::write_snapshot_named(
                &self.medium,
                &snap,
                generation,
                &seq_image,
            ) {
                return Err(self.seq_failure(e));
            }
            let wal_name = wal::seq_segment_name(generation);
            if let Err(e) = wal::create_segment_named(&self.medium, &wal_name, generation) {
                return Err(self.seq_failure(e));
            }
            Some(ManifestEntry { generation, snapshot: snap, wal: wal_name })
        } else {
            while let Some(rec) = self.pending_seq.first() {
                match wal::append_seq_record(&self.medium, &self.seq_wal, rec, false) {
                    Ok(bytes) => {
                        self.stats.wal_appends += 1;
                        self.stats.wal_bytes += bytes as u64;
                        self.pending_seq.remove(0);
                    }
                    Err(e) => return Err(self.seq_failure(e)),
                }
            }
            match self.medium.sync(&self.seq_wal) { // lint:allow sync_call -- sequencing-lineage fsync ordered strictly after all shard fsyncs; this is the commit point
                Ok(()) => self.stats.wal_syncs += 1,
                Err(e) => return Err(self.seq_failure(StorageError::from(e))),
            }
            None
        };

        // Assemble and atomically commit the manifest.
        let retain = self.config.retain_generations.max(1);
        let truncate = self.truncate_on_heal;
        let mut pruned: Vec<(String, String)> = Vec::new();
        let mut lineage_entries: Vec<Vec<ManifestEntry>> = Vec::with_capacity(n);
        for (k, stage) in staged.iter().enumerate() {
            let mut entries = if truncate && stage.is_some() {
                for old in &self.lineages[k].entries {
                    pruned.push((old.snapshot.clone(), old.wal.clone()));
                }
                Vec::new()
            } else {
                self.lineages[k].entries.clone()
            };
            if let Some(entry) = stage {
                entries.push(entry.clone());
            }
            while entries.len() > retain {
                let old = entries.remove(0);
                pruned.push((old.snapshot, old.wal));
            }
            lineage_entries.push(entries);
        }
        let (mut root_entries, mut seq_sqns) = if truncate && staged_seq.is_some() {
            for old in &self.seq_entries {
                pruned.push((old.snapshot.clone(), old.wal.clone()));
            }
            (Vec::new(), Vec::new())
        } else {
            (self.seq_entries.clone(), self.seq_sqns.clone())
        };
        if let Some(entry) = &staged_seq {
            root_entries.push(entry.clone());
            seq_sqns.push(self.sqn);
        }
        while root_entries.len() > retain {
            let old = root_entries.remove(0);
            seq_sqns.remove(0);
            pruned.push((old.snapshot, old.wal));
        }
        let sm = ShardManifest {
            attr: self.spec.attr.clone(),
            cuts: self.spec.cuts_relation()?,
            sqn: self.sqn,
            seq_sqns: seq_sqns.clone(),
            lineages: (0..n)
                .map(|k| ShardLineage {
                    parked_at: self.lineages[k].parked_at,
                    entries: lineage_entries[k].clone(),
                })
                .collect(),
        };
        let doc = ManifestDoc {
            entries: root_entries.clone(),
            policy: Some(mode_to_byte(self.ingest.policy().mode())),
            shards: Some(sm),
        };
        if let Err(e) = snapshot::write_manifest(&self.medium, &doc) {
            return Err(self.seq_failure(e));
        }

        // Committed — adopt the staged state; pruned files are garbage.
        for (s, w) in pruned {
            let _ = self.medium.remove(&s);
            let _ = self.medium.remove(&w);
            self.stats.generations_pruned += 1;
        }
        for k in 0..n {
            if let Some(entry) = staged[k].take() {
                self.lineages[k].wal = entry.wal;
                self.lineages[k].dirty = false;
                self.lineages[k].pending.clear();
                self.lineages[k].failed_heals = 0;
                self.stats.snapshots_written += 1;
            }
            self.lineages[k].entries = std::mem::take(&mut lineage_entries[k]);
        }
        if let Some(entry) = staged_seq {
            self.seq_wal = entry.wal;
            self.seq_dirty = false;
            self.pending_seq.clear();
            self.records_since_snapshot = 0;
            self.stats.snapshots_written += 1;
        }
        self.seq_entries = root_entries;
        self.seq_sqns = seq_sqns;
        self.truncate_on_heal = false;
        self.durable_sqn = self.sqn;
        self.checkpoint = self.ingest.clone();
        Ok(())
    }

    /// The current committed manifest document (no flush implied):
    /// the recorded ordinal is the durable checkpoint.
    fn current_manifest_doc(&self) -> Result<ManifestDoc, StorageError> {
        Ok(ManifestDoc {
            entries: self.seq_entries.clone(),
            policy: Some(mode_to_byte(self.ingest.policy().mode())),
            shards: Some(ShardManifest {
                attr: self.spec.attr.clone(),
                cuts: self.spec.cuts_relation()?,
                sqn: self.durable_sqn,
                seq_sqns: self.seq_sqns.clone(),
                lineages: self
                    .lineages
                    .iter()
                    .map(|l| ShardLineage {
                        parked_at: l.parked_at,
                        entries: l.entries.clone(),
                    })
                    .collect(),
            }),
        })
    }

    fn max_generation(&self) -> u64 {
        let mut g = self.seq_entries.last().map_or(0, |e| e.generation);
        for l in &self.lineages {
            g = g.max(l.entries.last().map_or(0, |e| e.generation));
        }
        g
    }
}

/// Shard scan: newest intact slice (an unreadable or corrupt one falls
/// back a generation), then every newer WAL record, with the lineage's
/// durable high-water mark. A WAL read error propagates.
fn scan_shard<M: StorageMedium>(
    medium: &M,
    lineage: &ShardLineage,
    manifest_sqn: u64,
) -> Result<ShardScan, StorageError> {
    let mut skipped = 0usize;
    let mut tried = Vec::new();
    let mut start: Option<(usize, SliceImage)> = None;
    for (i, entry) in lineage.entries.iter().enumerate().rev() {
        tried.push(entry.snapshot.clone());
        match snapshot::read_slice_snapshot(medium, &entry.snapshot, entry.generation) {
            Ok(slice) => {
                start = Some((i, slice));
                break;
            }
            Err(_) => skipped += 1,
        }
    }
    let Some((idx, slice)) = start else {
        return Err(StorageError::NoIntactSnapshot { tried });
    };
    // A live lineage is guaranteed flushed through the manifest ordinal;
    // a parked one only through its stamp.
    let mut hi = slice.sqn.max(if lineage.parked_at.is_some() { 0 } else { manifest_sqn });
    let mut torn = 0usize;
    let mut records = Vec::new();
    for entry in &lineage.entries[idx..] {
        let (recs, torn_bytes) = wal::scan_shard_segment(medium, &entry.wal, entry.generation)?;
        if torn_bytes > 0 {
            torn += 1;
        }
        for rec in recs {
            hi = hi.max(rec.sqn());
            records.push(rec);
        }
    }
    Ok(ShardScan { parked_at: lineage.parked_at, slice, records, hi, skipped, torn })
}

/// Shard apply: every record in `(slice.sqn, bound]`
/// replays onto the slice, where the bound is the recovered cut —
/// clamped, on a parked shard, to its park stamp (records past the
/// stamp are strays of rolled-back operations).
fn apply_shard(
    scan: &ShardScan,
    cut: u64,
) -> Result<(usize, Vec<(String, Relation)>), StorageError> {
    let bound = scan.parked_at.map_or(cut, |p| p.min(cut));
    let mut state: BTreeMap<String, Relation> =
        scan.slice.rels.iter().cloned().collect();
    let mut applied = 0usize;
    for rec in &scan.records {
        let sqn = rec.sqn();
        if sqn <= scan.slice.sqn || sqn > bound {
            continue;
        }
        match rec {
            ShardWalRecord::Delta { deltas, .. } => {
                for (name, ins, del) in deltas {
                    let next = match state.get(name) {
                        Some(rel) => rel
                            .difference(del)
                            .and_then(|r| r.union(ins))
                            .map_err(|e| StorageError::from(WarehouseError::from(e)))?,
                        None => ins.clone(),
                    };
                    state.insert(name.clone(), next);
                }
            }
            ShardWalRecord::Reset { slice, .. } => {
                state = slice.iter().cloned().collect();
            }
        }
        applied += 1;
    }
    Ok((applied, state.into_iter().collect()))
}

/// Convenience: route one tuple of a relation headed by `attrs`.
/// Exposed for the server's per-shard statistics.
pub fn route_of(spec: &ShardSpec, attrs: &AttrSet, t: &Tuple) -> usize {
    match attrs.index_of(Attr::new(spec.attr())) {
        Some(i) => spec.route_value(t.get(i)),
        None => 0,
    }
}

/// Migration guard used by the unsharded open is in `storage::Recovery`
/// (`DWC-S304`); the mirror-image guard lives in
/// [`ShardedDurableWarehouse::open`].
#[allow(unused)]
fn _doc_anchor() {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::SequencedSource;
    use crate::ingest::IngestConfig;
    use crate::integrator::{Integrator, SourceSite};
    use crate::planner::PolicyMode;
    use crate::storage::{image_of, DurableWarehouse};
    use crate::testutil::{fig1_spec, fig1_state, MemMedium};
    use dwc_relalg::rel;
    use std::cell::RefCell;

    fn setup() -> (SequencedSource, IngestingIntegrator) {
        let spec = fig1_spec();
        let catalog = spec.catalog().clone();
        let aug = spec.augment().unwrap();
        let site = SourceSite::new(catalog, fig1_state()).unwrap();
        let integ = Integrator::initial_load(aug, &site).unwrap();
        (
            SequencedSource::new("fig1", site),
            IngestingIntegrator::new(integ, IngestConfig::default()).unwrap(),
        )
    }

    fn sale_insert(src: &mut SequencedSource, item: &str, clerk: &str) -> Envelope {
        src.apply_update(&Update::inserting(
            "Sale",
            rel! { ["item", "clerk"] => (item, clerk) },
        ))
        .unwrap()
    }

    fn aug() -> AugmentedWarehouse {
        fig1_spec().augment().unwrap()
    }

    #[test]
    fn spec_routes_and_partitions_consistently() {
        let spec = ShardSpec::equi_depth("clerk", 2, &fig1_state());
        assert_eq!(spec.count(), 2);
        let emp = fig1_state().relation(dwc_relalg::RelName::new("Emp")).unwrap().clone();
        let parts = spec.partition_rel(&emp).unwrap();
        assert_eq!(parts.len(), 2);
        let merged = parts[0].union(&parts[1]).unwrap();
        assert_eq!(merged, emp);
        assert!(parts.iter().all(|p| p.len() < emp.len()));
    }

    #[test]
    fn empty_domain_gets_exact_ladder() {
        let spec = ShardSpec::equi_depth("clerk", 4, &DbState::new());
        assert_eq!(spec.count(), 4);
    }

    #[test]
    fn sharded_store_matches_unsharded_oracle_across_reopen() {
        let (mut src, ingest) = setup();
        let (mut src2, oracle_ingest) = setup();
        let mut sw = ShardedDurableWarehouse::create(
            MemMedium::default(),
            ingest,
            DurabilityConfig::default(),
            2,
            None,
        )
        .unwrap();
        let mut oracle = DurableWarehouse::create(
            MemMedium::default(),
            oracle_ingest,
            DurabilityConfig::default(),
        )
        .unwrap();
        for (item, clerk) in
            [("Mac", "John"), ("TV set", "Paula"), ("VCR", "Mary"), ("PC", "Paula")]
        {
            let env = sale_insert(&mut src, item, clerk);
            let env2 = sale_insert(&mut src2, item, clerk);
            assert_eq!(env, env2);
            sw.offer(&env).unwrap();
            oracle.offer(&env2).unwrap();
        }
        assert_eq!(image_of(sw.ingestor()), image_of(oracle.ingestor()));

        // Reopen and compare bit-for-bit against the oracle's image.
        let files = MemMedium {
            files: RefCell::new(sw.medium.clone_files()),
            dead_prefix: RefCell::new(None),
        };
        let (reopened, report) = ShardedDurableWarehouse::open(
            files,
            aug(),
            DurabilityConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(report.shards, 2);
        assert!(report.consistency_checked);
        assert_eq!(image_of(reopened.ingestor()), image_of(oracle.ingestor()));
    }

    #[test]
    fn reshard_across_reopen_converges() {
        let (mut src, ingest) = setup();
        let mut sw = ShardedDurableWarehouse::create(
            MemMedium::default(),
            ingest,
            DurabilityConfig::default(),
            2,
            None,
        )
        .unwrap();
        for (item, clerk) in [("Mac", "John"), ("TV set", "Paula")] {
            let env = sale_insert(&mut src, item, clerk);
            sw.offer(&env).unwrap();
        }
        let before = image_of(sw.ingestor());
        let files = MemMedium {
            files: RefCell::new(sw.medium.clone_files()),
            dead_prefix: RefCell::new(None),
        };
        let (re, report) =
            ShardedDurableWarehouse::open(files, aug(), DurabilityConfig::default(), Some(3))
                .unwrap();
        assert!(report.resharded);
        assert_eq!(re.shards(), 3);
        assert_eq!(image_of(re.ingestor()), before);
        // And back down.
        let files = MemMedium {
            files: RefCell::new(re.medium.clone_files()),
            dead_prefix: RefCell::new(None),
        };
        let (re2, report2) =
            ShardedDurableWarehouse::open(files, aug(), DurabilityConfig::default(), Some(2))
                .unwrap();
        assert!(report2.resharded);
        assert_eq!(image_of(re2.ingestor()), before);
    }

    #[test]
    fn policy_mode_survives_reopen() {
        let (_, ingest) = setup();
        let mut sw = ShardedDurableWarehouse::create(
            MemMedium::default(),
            ingest,
            DurabilityConfig::default(),
            2,
            None,
        )
        .unwrap();
        sw.set_maintenance_policy(AdaptivePolicy::fixed(
            crate::planner::MaintenanceStrategy::Incremental,
        ))
        .unwrap();
        let files = MemMedium {
            files: RefCell::new(sw.medium.clone_files()),
            dead_prefix: RefCell::new(None),
        };
        let (re, report) =
            ShardedDurableWarehouse::open(files, aug(), DurabilityConfig::default(), None)
                .unwrap();
        assert!(report.policy_restored);
        assert_eq!(
            re.ingestor().policy().mode(),
            PolicyMode::Fixed(crate::planner::MaintenanceStrategy::Incremental)
        );
    }

    #[test]
    fn missing_shard_segment_fails_closed_with_s303() {
        let (mut src, ingest) = setup();
        let mut sw = ShardedDurableWarehouse::create(
            MemMedium::default(),
            ingest,
            DurabilityConfig::default(),
            2,
            None,
        )
        .unwrap();
        let env = sale_insert(&mut src, "Mac", "John");
        sw.offer(&env).unwrap();
        let mut files = sw.medium.clone_files();
        let victim = files
            .keys()
            .find(|f| f.starts_with("s1-wal-"))
            .cloned()
            .unwrap();
        files.remove(&victim);
        let medium =
            MemMedium { files: RefCell::new(files), dead_prefix: RefCell::new(None) };
        let err = ShardedDurableWarehouse::open(
            medium,
            aug(),
            DurabilityConfig::default(),
            None,
        )
        .unwrap_err();
        assert_eq!(err.code(), "DWC-S303");
        assert!(matches!(err, StorageError::ShardLineageMissing { shard: 1, .. }));
    }

    #[test]
    fn unsharded_open_of_sharded_medium_is_s304_and_vice_versa() {
        let (_, ingest) = setup();
        let sw = ShardedDurableWarehouse::create(
            MemMedium::default(),
            ingest,
            DurabilityConfig::default(),
            2,
            None,
        )
        .unwrap();
        let files = MemMedium {
            files: RefCell::new(sw.medium.clone_files()),
            dead_prefix: RefCell::new(None),
        };
        let err = Recovery::open(files, aug(), DurabilityConfig::default()).unwrap_err();
        assert_eq!(err.code(), "DWC-S304");

        let (_, ingest) = setup();
        let dw =
            DurableWarehouse::create(MemMedium::default(), ingest, DurabilityConfig::default())
                .unwrap();
        let (medium, _) = dw.into_parts();
        let err = ShardedDurableWarehouse::open(
            medium,
            aug(),
            DurabilityConfig::default(),
            None,
        )
        .unwrap_err();
        assert_eq!(err.code(), "DWC-S304");
    }

    #[test]
    fn migration_from_unsharded_layout_preserves_state() {
        let (mut src, ingest) = setup();
        let mut dw =
            DurableWarehouse::create(MemMedium::default(), ingest, DurabilityConfig::default())
                .unwrap();
        let env = sale_insert(&mut src, "Mac", "John");
        dw.offer(&env).unwrap();
        let before = image_of(dw.ingestor());
        let (medium, _) = dw.into_parts();
        let (sw, report) = ShardedDurableWarehouse::open(
            medium,
            aug(),
            DurabilityConfig::default(),
            Some(2),
        )
        .unwrap();
        assert!(report.migrated);
        assert_eq!(sw.shards(), 2);
        assert_eq!(image_of(sw.ingestor()), before);
        // No plain-lineage leftovers.
        assert!(sw
            .medium
            .list()
            .unwrap()
            .iter()
            .all(|f| !f.starts_with("snap-") && !f.starts_with("wal-")));
    }

    #[test]
    fn fatal_fault_on_one_shard_parks_it_and_store_keeps_committing() {
        let (mut src, ingest) = setup();
        let mut sw = ShardedDurableWarehouse::create(
            MemMedium::default(),
            ingest,
            DurabilityConfig::default(),
            2,
            None,
        )
        .unwrap();
        let pre_park = image_of(sw.ingestor());
        // Kill shard 1's files. The next operation — whatever its
        // routes — discovers the fault on its (possibly empty) shard-1
        // record, parks the shard, and is rejected with its in-memory
        // effects rolled back.
        sw.medium.kill_prefix("s1-");
        let env = sale_insert(&mut src, "Tablet", "Alan");
        let err = sw.offer(&env).unwrap_err();
        assert_eq!(err.code(), "DWC-S305");
        assert!(!sw.poisoned());
        assert_eq!(image_of(sw.ingestor()), pre_park);
        assert_eq!(
            sw.shard_health(),
            vec![ShardHealth::Live, ShardHealth::Parked]
        );
        // The rejection rolled the sequencing cursor back, so the same
        // envelope retries — and now commits: "Alan" (and the Sold /
        // complement rows it induces, all keyed by clerk) routes to the
        // live shard 0, and the parked shard takes no record.
        sw.offer(&env).unwrap();
        assert!(sw.state().iter().any(|(_, rel)| {
            rel.iter().any(|t| (0..rel.attrs().len()).any(|i| t.get(i) == &Value::str("Tablet")))
        }));
        // A write into the parked key range rejects without side
        // effects ("Mary" routes to shard 1).
        let before_reject = image_of(sw.ingestor());
        let env2 = sale_insert(&mut src, "PC", "Mary");
        assert_eq!(sw.offer(&env2).unwrap_err().code(), "DWC-S305");
        assert_eq!(image_of(sw.ingestor()), before_reject);
        // Reopen heals the parked shard; pre-park plus the accepted
        // shard-0 write survive, the rejected writes do not.
        let files = MemMedium {
            files: RefCell::new(sw.medium.clone_files()),
            dead_prefix: RefCell::new(None),
        };
        let (re, report) =
            ShardedDurableWarehouse::open(files, aug(), DurabilityConfig::default(), None)
                .unwrap();
        assert_eq!(report.parked_shards, 1);
        assert_eq!(image_of(re.ingestor()), image_of(sw.ingestor()));
        assert_eq!(re.shard_health(), vec![ShardHealth::Live, ShardHealth::Live]);
    }

    #[test]
    fn torn_root_manifest_tail_is_s302() {
        let (_, ingest) = setup();
        let sw = ShardedDurableWarehouse::create(
            MemMedium::default(),
            ingest,
            DurabilityConfig::default(),
            2,
            None,
        )
        .unwrap();
        let mut files = sw.medium.clone_files();
        if let Some(m) = files.get_mut(MANIFEST) {
            let keep = m.len() - 3;
            m.truncate(keep);
        }
        let medium =
            MemMedium { files: RefCell::new(files), dead_prefix: RefCell::new(None) };
        let err = ShardedDurableWarehouse::open(
            medium,
            aug(),
            DurabilityConfig::default(),
            None,
        )
        .unwrap_err();
        assert_eq!(err.code(), "DWC-S302");
    }
}
