//! Atomic snapshots and the generation manifest.
//!
//! A snapshot file `snap-NNNNNNNN.dwcs` captures the *entire* warehouse
//! process state — not just the relations:
//!
//! ```text
//! file : magic "DWCSNAP1" | version u8 | snapshot id u64 | body | crc32 (whole file)
//! body : warehouse relations            (name + canonical relation blob)
//!      | integrator tuning + counters
//!      | ingest tuning + counters
//!      | per-source sequencing cursors  (epoch, next_seq, parked updates)
//!      | quarantine                     (envelope + rendered error)
//!      | discard log                    (envelope + rendered error + reason)
//! ```
//!
//! Counters are persisted so a WAL replay on top of the snapshot
//! reproduces the full run's statistics exactly — which is what lets the
//! crash suites demand *bit-identical* recovery, stats included.
//!
//! Both the snapshot and the `MANIFEST` are written with the classic
//! atomicity discipline: write a temp name, fsync, rename over the
//! final name. The manifest rename is the commit point of a generation;
//! a crash anywhere before it leaves the previous manifest (and
//! therefore the previous committed generation) untouched.

use super::wal::{put_envelope, put_update, take_envelope, take_update};
use super::{StorageError, StorageMedium};
use crate::channel::{Envelope, SourceId};
use crate::ingest::{IngestConfig, IngestStats};
use crate::integrator::IntegratorStats;
use dwc_relalg::io::{check_crc, decode_relation, ByteReader, ByteWriter};
use dwc_relalg::{DbState, RelalgError, Update};
use std::collections::BTreeMap;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"DWCSNAP1";
/// Snapshot format version.
pub const SNAP_VERSION: u8 = 1;
/// Magic bytes opening the manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"DWCMAN1\n";
/// Manifest format version. Version 2 adds a maintenance-policy flag
/// (0, or 1 followed by the policy byte older builds recorded; written
/// as 0, read and ignored) and a shard-section flag, always written as
/// 0 (a 1 marks a sharded layout, which this build refuses with
/// `DWC-S304`); version 1 manifests (entries only) are still read.
pub const MANIFEST_VERSION: u8 = 2;
/// The manifest's file name — the single commit point of the store.
pub const MANIFEST: &str = "MANIFEST";

/// The full process state a snapshot captures; pure data, decoupled
/// from the live types so the codec stays flat.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct WarehouseImage {
    /// Materialized views and complements.
    pub warehouse: DbState,
    /// Integrator counters at snapshot time.
    pub integrator_stats: IntegratorStats,
    /// Ingestion tuning.
    pub ingest_config: IngestConfig,
    /// Ingestion counters at snapshot time.
    pub ingest_stats: IngestStats,
    /// Per-source `(epoch, next_seq, parked reports)`.
    pub cursors: BTreeMap<SourceId, (u64, u64, BTreeMap<u64, Update>)>,
    /// Quarantined envelopes with rendered errors.
    pub quarantine: Vec<(Envelope, String)>,
    /// Discarded envelopes: `(envelope, rendered error, reason)`.
    pub discarded: Vec<(Envelope, String, String)>,
}

/// The name of snapshot `id`.
pub fn snapshot_name(id: u64) -> String {
    format!("snap-{id:08}.dwcs")
}

/// One committed generation: a snapshot and the WAL segment recording
/// everything applied after it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Generation number (equals the snapshot/WAL segment id).
    pub generation: u64,
    /// Snapshot file name.
    pub snapshot: String,
    /// WAL segment file name.
    pub wal: String,
}

/// Atomically writes (temp + fsync + rename) the snapshot for `id`.
pub(crate) fn write_snapshot<M: StorageMedium>(
    medium: &M,
    id: u64,
    image: &WarehouseImage,
) -> Result<String, StorageError> {
    let name = snapshot_name(id);
    let tmp = format!("{name}.tmp");
    let mut w = ByteWriter::new();
    w.put_bytes(&SNAP_MAGIC);
    w.put_u8(SNAP_VERSION);
    w.put_u64(id);
    put_image(&mut w, image);
    medium.write_all(&tmp, &w.finish_crc())?;
    medium.sync(&tmp)?;
    medium.rename(&tmp, &name)?;
    Ok(name)
}

/// Reads and fully validates the snapshot `name`; any defect — checksum,
/// magic, version, id mismatch, structural garbage — is
/// [`StorageError::SnapshotCorrupt`] (recovery falls back a generation).
pub(crate) fn read_snapshot<M: StorageMedium>(
    medium: &M,
    name: &str,
    expect_id: u64,
) -> Result<WarehouseImage, StorageError> {
    let data = medium.read(name)?;
    let corrupt = |detail: String| StorageError::SnapshotCorrupt {
        file: name.to_owned(),
        detail,
    };
    let body = check_crc(&data).map_err(|e| corrupt(e.to_string()))?;
    let mut r = ByteReader::new(body);
    (|| -> Result<(), RelalgError> {
        if r.take_bytes(8)? != SNAP_MAGIC {
            return Err(r.corrupt("bad snapshot magic"));
        }
        let version = r.take_u8()?;
        if version != SNAP_VERSION {
            return Err(r.corrupt(format!("unsupported snapshot version {version}")));
        }
        let id = r.take_u64()?;
        if id != expect_id {
            return Err(r.corrupt(format!("snapshot id {id}, expected {expect_id}")));
        }
        Ok(())
    })()
    .map_err(|e| corrupt(e.to_string()))?;
    let image = take_image(&mut r).map_err(|e| corrupt(e.to_string()))?;
    r.expect_end().map_err(|e| corrupt(e.to_string()))?;
    Ok(image)
}

fn put_entries(w: &mut ByteWriter, entries: &[ManifestEntry]) {
    w.put_u32(entries.len() as u32);
    for e in entries {
        w.put_u64(e.generation);
        w.put_str(&e.snapshot);
        w.put_str(&e.wal);
    }
}

fn take_entries(r: &mut ByteReader<'_>) -> Result<Vec<ManifestEntry>, RelalgError> {
    let n = r.take_u32()? as usize;
    if n > r.remaining() {
        return Err(r.corrupt(format!("entry count {n} exceeds manifest size")));
    }
    let mut entries = Vec::with_capacity(n);
    let mut last_gen = 0u64;
    for _ in 0..n {
        let generation = r.take_u64()?;
        if generation <= last_gen {
            return Err(r.corrupt("generations not strictly increasing"));
        }
        last_gen = generation;
        let snapshot = r.take_str()?;
        let wal = r.take_str()?;
        entries.push(ManifestEntry { generation, snapshot, wal });
    }
    Ok(entries)
}

/// Atomically commits the manifest over `entries` (committed
/// generations, oldest first) — the single commit point of the store.
pub(crate) fn write_manifest<M: StorageMedium>(
    medium: &M,
    entries: &[ManifestEntry],
) -> Result<(), StorageError> {
    let tmp = "MANIFEST.tmp";
    let mut w = ByteWriter::new();
    w.put_bytes(&MANIFEST_MAGIC);
    w.put_u8(MANIFEST_VERSION);
    put_entries(&mut w, entries);
    // The policy flag and the shard-section flag of the v2 format:
    // neither is ever set.
    w.put_u8(0);
    w.put_u8(0);
    medium.write_all(tmp, &w.finish_crc())?;
    medium.sync(tmp)?;
    medium.rename(tmp, MANIFEST)?;
    Ok(())
}

/// Reads the manifest. Missing is [`StorageError::ManifestMissing`]
/// (the directory was never committed); any validation failure —
/// including a torn tail, since the whole file is CRC-bound — is
/// [`StorageError::ManifestCorrupt`]. Version-1 manifests carry entries
/// only; a version-2 policy byte is validated and ignored. A set
/// shard-section flag is
/// [`StorageError::ShardedLayoutRemoved`]: the reader stops there,
/// before decoding the section.
pub(crate) fn read_manifest<M: StorageMedium>(
    medium: &M,
) -> Result<Vec<ManifestEntry>, StorageError> {
    if !medium.exists(MANIFEST) {
        return Err(StorageError::ManifestMissing);
    }
    let data = medium.read(MANIFEST)?;
    let corrupt =
        |detail: String| StorageError::ManifestCorrupt { detail };
    let body = check_crc(&data).map_err(|e| corrupt(e.to_string()))?;
    let mut r = ByteReader::new(body);
    let entries = (|| -> Result<Option<Vec<ManifestEntry>>, RelalgError> {
        if r.take_bytes(8)? != MANIFEST_MAGIC {
            return Err(r.corrupt("bad manifest magic"));
        }
        let version = r.take_u8()?;
        if version == 0 || version > MANIFEST_VERSION {
            return Err(r.corrupt(format!("unsupported manifest version {version}")));
        }
        let entries = take_entries(&mut r)?;
        if version == 1 {
            r.expect_end()?;
            return Ok(Some(entries));
        }
        match r.take_u8()? {
            0 => {}
            1 => {
                r.take_u8()?;
            }
            flag => return Err(r.corrupt(format!("bad policy flag {flag}"))),
        }
        match r.take_u8()? {
            0 => {}
            1 => return Ok(None),
            flag => return Err(r.corrupt(format!("bad shard flag {flag}"))),
        }
        r.expect_end()?;
        Ok(Some(entries))
    })()
    .map_err(|e| corrupt(e.to_string()))?;
    entries.ok_or(StorageError::ShardedLayoutRemoved)
}

fn put_stats(w: &mut ByteWriter, image: &WarehouseImage) {
    let is = image.integrator_stats;
    w.put_u64(is.updates_processed as u64);
    w.put_u64(is.delta_tuples as u64);
    w.put_u64(is.plans_compiled as u64);
    w.put_u64(is.queries_answered as u64);
    let gs = image.ingest_stats;
    w.put_u64(gs.delivered as u64);
    w.put_u64(gs.applied as u64);
    w.put_u64(gs.duplicates as u64);
    w.put_u64(gs.buffered as u64);
    w.put_u64(gs.quarantined as u64);
    w.put_u64(gs.gaps_detected as u64);
    w.put_u64(gs.recoveries as u64);
    w.put_u64(gs.invariant_failures as u64);
}

fn take_stats(
    r: &mut ByteReader<'_>,
) -> Result<(IntegratorStats, IngestStats), RelalgError> {
    let integrator = IntegratorStats {
        updates_processed: r.take_u64()? as usize,
        delta_tuples: r.take_u64()? as usize,
        plans_compiled: r.take_u64()? as usize,
        queries_answered: r.take_u64()? as usize,
    };
    let ingest = IngestStats {
        delivered: r.take_u64()? as usize,
        applied: r.take_u64()? as usize,
        duplicates: r.take_u64()? as usize,
        buffered: r.take_u64()? as usize,
        quarantined: r.take_u64()? as usize,
        gaps_detected: r.take_u64()? as usize,
        recoveries: r.take_u64()? as usize,
        invariant_failures: r.take_u64()? as usize,
        // Pass counts are runtime counters and are not persisted.
        ..IngestStats::default()
    };
    Ok((integrator, ingest))
}

fn put_image(w: &mut ByteWriter, image: &WarehouseImage) {
    // Relations.
    w.put_u32(image.warehouse.iter().count() as u32);
    for (name, rel) in image.warehouse.iter() {
        w.put_str(name.as_str());
        w.put_relation(rel);
    }
    // Tuning. The first byte is the inverse-mirror flag of the format;
    // this build keeps no mirrors, so it writes 0 and ignores it on read.
    w.put_u8(0);
    w.put_u64(image.ingest_config.reorder_window as u64);
    w.put_u8(u8::from(image.ingest_config.verify_invariants));
    // Counters.
    put_stats(w, image);
    // Sequencing cursors.
    w.put_u32(image.cursors.len() as u32);
    for (source, (epoch, next_seq, pending)) in &image.cursors {
        w.put_str(source.as_str());
        w.put_u64(*epoch);
        w.put_u64(*next_seq);
        w.put_u32(pending.len() as u32);
        for (seq, update) in pending {
            w.put_u64(*seq);
            put_update(w, update);
        }
    }
    // Quarantine and discard log.
    w.put_u32(image.quarantine.len() as u32);
    for (env, error) in &image.quarantine {
        put_envelope(w, env);
        w.put_str(error);
    }
    w.put_u32(image.discarded.len() as u32);
    for (env, error, reason) in &image.discarded {
        put_envelope(w, env);
        w.put_str(error);
        w.put_str(reason);
    }
}

fn take_image(r: &mut ByteReader<'_>) -> Result<WarehouseImage, RelalgError> {
    let guard = |r: &ByteReader<'_>, n: usize, what: &str| {
        if n > r.remaining() {
            Err(r.corrupt(format!("{what} count {n} exceeds snapshot size")))
        } else {
            Ok(())
        }
    };
    let nrels = r.take_u32()? as usize;
    guard(r, nrels, "relation")?;
    let mut warehouse = DbState::new();
    for _ in 0..nrels {
        let name = r.take_str()?;
        let len = r.take_u32()? as usize;
        let rel = decode_relation(r.take_bytes(len)?)?;
        warehouse.insert_relation(name.as_str(), rel);
    }
    r.take_u8()?;
    let ingest_config = IngestConfig {
        reorder_window: r.take_u64()? as usize,
        verify_invariants: r.take_u8()? != 0,
    };
    let (integrator_stats, ingest_stats) = take_stats(r)?;
    let ncursors = r.take_u32()? as usize;
    guard(r, ncursors, "cursor")?;
    let mut cursors = BTreeMap::new();
    for _ in 0..ncursors {
        let source = SourceId::new(r.take_str()?);
        let epoch = r.take_u64()?;
        let next_seq = r.take_u64()?;
        let npending = r.take_u32()? as usize;
        guard(r, npending, "parked-report")?;
        let mut pending = BTreeMap::new();
        for _ in 0..npending {
            let seq = r.take_u64()?;
            pending.insert(seq, take_update(r)?);
        }
        cursors.insert(source, (epoch, next_seq, pending));
    }
    let nq = r.take_u32()? as usize;
    guard(r, nq, "quarantine")?;
    let mut quarantine = Vec::with_capacity(nq);
    for _ in 0..nq {
        let env = take_envelope(r)?;
        let error = r.take_str()?;
        quarantine.push((env, error));
    }
    let nd = r.take_u32()? as usize;
    guard(r, nd, "discard")?;
    let mut discarded = Vec::with_capacity(nd);
    for _ in 0..nd {
        let env = take_envelope(r)?;
        let error = r.take_str()?;
        let reason = r.take_str()?;
        discarded.push((env, error, reason));
    }
    Ok(WarehouseImage {
        warehouse,
        integrator_stats,
        ingest_config,
        ingest_stats,
        cursors,
        quarantine,
        discarded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::DiskMedium;
    use dwc_relalg::rel;

    fn sample_image() -> WarehouseImage {
        let mut warehouse = DbState::new();
        warehouse.insert_relation("Sold", rel! { ["item"] => ("PC",), ("Mac",) });
        warehouse.insert_relation("C_Emp", rel! { ["age", "clerk"] => (32, "Paula") });
        let mut pending = BTreeMap::new();
        pending.insert(
            4u64,
            Update::inserting("Sale", rel! { ["clerk", "item"] => ("Mary", "TV") }),
        );
        let mut cursors = BTreeMap::new();
        cursors.insert(SourceId::new("paris"), (1u64, 3u64, pending));
        let env = Envelope {
            source: SourceId::new("paris"),
            epoch: 1,
            seq: 9,
            report: Update::inserting("Ghost", rel! { ["x"] => (1,) }),
        };
        WarehouseImage {
            warehouse,
            integrator_stats: IntegratorStats {
                updates_processed: 12,
                delta_tuples: 40,
                plans_compiled: 2,
                queries_answered: 3,
            },
            ingest_config: IngestConfig { reorder_window: 16, verify_invariants: true },
            ingest_stats: IngestStats {
                delivered: 20,
                applied: 12,
                duplicates: 5,
                buffered: 2,
                quarantined: 1,
                gaps_detected: 1,
                recoveries: 1,
                invariant_failures: 0,
                ..IngestStats::default()
            },
            cursors,
            quarantine: vec![(env.clone(), "ghost relation".to_owned())],
            discarded: vec![(env, "ghost relation".to_owned(), "operator drop".to_owned())],
        }
    }

    #[test]
    fn snapshot_roundtrips_bit_exactly() {
        let m = DiskMedium::default();
        let image = sample_image();
        let name = write_snapshot(&m, 3, &image).unwrap();
        assert_eq!(name, "snap-00000003.dwcs");
        assert!(!m.exists("snap-00000003.dwcs.tmp"), "temp renamed away");
        let back = read_snapshot(&m, &name, 3).unwrap();
        assert_eq!(back, image);
    }

    /// The whole snapshot file of [`sample_image`] — relation blobs,
    /// cursors with a parked update, quarantine and discard envelopes —
    /// fingerprinted when relations were encoded through owned tuples.
    /// The file format is shared with every older build's store.
    #[test]
    fn snapshot_keeps_the_pinned_bytes() {
        let m = DiskMedium::default();
        let name = write_snapshot(&m, 3, &sample_image()).unwrap();
        let bytes = m.read(&name).unwrap();
        assert_eq!(bytes.len(), PINNED_SNAPSHOT.0, "snapshot bytes");
        assert_eq!(crate::storage::wal::tests::fnv64(&bytes), PINNED_SNAPSHOT.1, "snapshot bytes");
        let blob = dwc_relalg::io::encode_relation(&rel! { ["age", "clerk"] => (32, "Paula"), (19, "Ed") });
        assert_eq!(blob.len(), PINNED_BLOB.0, "relation blob bytes");
        assert_eq!(crate::storage::wal::tests::fnv64(&blob), PINNED_BLOB.1, "relation blob bytes");
    }

    /// Length and FNV-64 of [`snapshot_keeps_the_pinned_bytes`]' file.
    const PINNED_SNAPSHOT: (usize, u64) = (684, 0x080f_dd92_3c77_90e5);
    /// Length and FNV-64 of its relation blob.
    const PINNED_BLOB: (usize, u64) = (72, 0x5382_c1ad_f39e_ece7);

    #[test]
    fn every_single_byte_corruption_is_snapshot_corrupt() {
        let m = DiskMedium::default();
        let name = write_snapshot(&m, 1, &sample_image()).unwrap();
        let good = m.read(&name).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            m.write_all(&name, &bad).unwrap();
            let err = read_snapshot(&m, &name, 1).unwrap_err();
            assert_eq!(err.code(), "DWC-S201", "byte {i} flipped");
        }
        // Truncations too.
        for cut in 0..good.len() {
            m.write_all(&name, &good[..cut]).unwrap();
            let err = read_snapshot(&m, &name, 1).unwrap_err();
            assert_eq!(err.code(), "DWC-S201", "truncated to {cut}");
        }
    }

    #[test]
    fn snapshot_id_mismatch_is_corrupt() {
        let m = DiskMedium::default();
        let name = write_snapshot(&m, 5, &sample_image()).unwrap();
        assert_eq!(read_snapshot(&m, &name, 6).unwrap_err().code(), "DWC-S201");
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let m = DiskMedium::default();
        assert_eq!(read_manifest(&m).unwrap_err().code(), "DWC-S301");
        let entries = vec![
            ManifestEntry {
                generation: 1,
                snapshot: snapshot_name(1),
                wal: super::super::wal::segment_name(1),
            },
            ManifestEntry {
                generation: 2,
                snapshot: snapshot_name(2),
                wal: super::super::wal::segment_name(2),
            },
        ];
        write_manifest(&m, &entries).unwrap();
        assert!(!m.exists("MANIFEST.tmp"));
        assert_eq!(read_manifest(&m).unwrap(), entries);

        let good = m.read(MANIFEST).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x04;
            m.write_all(MANIFEST, &bad).unwrap();
            let err = read_manifest(&m).unwrap_err();
            assert_eq!(err.code(), "DWC-S302", "byte {i} flipped");
        }
        // A torn tail (truncated write) is corruption, never a panic.
        for cut in 0..good.len() {
            m.write_all(MANIFEST, &good[..cut]).unwrap();
            let err = read_manifest(&m).unwrap_err();
            assert_eq!(err.code(), "DWC-S302", "truncated to {cut}");
        }
    }

    /// A v2 manifest with the shard flag set — what a sharded layout's
    /// root manifest starts with — fails closed with `DWC-S304` before
    /// its section is decoded, and reading it writes nothing.
    #[test]
    fn sharded_manifest_is_s304_and_leaves_the_medium_untouched() {
        let m = DiskMedium::default();
        let mut w = ByteWriter::new();
        w.put_bytes(&MANIFEST_MAGIC);
        w.put_u8(2);
        w.put_u32(1);
        w.put_u64(1);
        w.put_str("seq-snap-00000001.dwcs");
        w.put_str("seq-wal-00000001.log");
        w.put_u8(1); // policy recorded ...
        w.put_u8(1); // ... as adaptive
        w.put_u8(1); // shard section follows
        w.put_bytes(b"section bytes the reader never decodes");
        m.write_all(MANIFEST, &w.finish_crc()).unwrap();
        let before = m.0.survivors();
        let err = read_manifest(&m).unwrap_err();
        assert_eq!(err, StorageError::ShardedLayoutRemoved);
        assert_eq!(err.code(), "DWC-S304");
        assert!(
            err.to_string()
                .contains("this build no longer opens sharded layouts"),
            "{err}"
        );
        assert_eq!(m.0.survivors(), before);
    }

    #[test]
    fn version_1_manifest_still_reads() {
        // Hand-encode a version-1 manifest (entries only, no policy or
        // shard section) and confirm the reader returns its entries.
        let m = DiskMedium::default();
        let entries = vec![ManifestEntry {
            generation: 7,
            snapshot: snapshot_name(7),
            wal: super::super::wal::segment_name(7),
        }];
        let mut w = ByteWriter::new();
        w.put_bytes(&MANIFEST_MAGIC);
        w.put_u8(1);
        w.put_u32(1);
        w.put_u64(7);
        w.put_str(&entries[0].snapshot);
        w.put_str(&entries[0].wal);
        m.write_all(MANIFEST, &w.finish_crc()).unwrap();
        assert_eq!(read_manifest(&m).unwrap(), entries);
    }

    #[test]
    fn manifest_rejects_non_increasing_generations() {
        let m = DiskMedium::default();
        let e = |g: u64| ManifestEntry {
            generation: g,
            snapshot: snapshot_name(g),
            wal: super::super::wal::segment_name(g),
        };
        write_manifest(&m, &[e(2), e(2)]).unwrap();
        assert_eq!(read_manifest(&m).unwrap_err().code(), "DWC-S302");
    }
}
