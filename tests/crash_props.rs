//! Kill-at-every-IO-boundary crash properties for the durability layer.
//!
//! The central claim of `warehouse::storage`: for a pinned-seed run of a
//! warehouse that offers reports, quarantines garbage, repairs a gap from
//! the outbox log, and rolls generations, killing the process model at
//! **every** IO boundary leaves a disk from which
//! [`Recovery::open`] either restores a warehouse that — after the
//! source redelivers its outbox — is bit-identical to a never-crashed
//! oracle, or reports the one documented pre-commit code (`DWC-S301`,
//! no manifest yet). Seeded bit flips and torn tails on the committed
//! files must each yield their documented `DWC-SNNN` code — never a
//! panic, never silent divergence. An unreadable newest snapshot falls
//! back a generation like a corrupt one, stores an older build wrote
//! (a manifest policy byte, a snapshot mirror flag) still open to the
//! same state, and a sharded layout left by an older build fails closed
//! without a byte of the directory changing.
//!
//! The process model is [`dwc_testkit::SimDisk`] under a
//! [`MediumPlan`] that crashes: counted operations, seeded torn writes
//! at the crash point, coin-flipped renames, and a frozen survivor view
//! that a "rebooted" disk is born from. Every sweep asserts it visits at
//! least as many boundaries as it did before the crash and fault
//! simulators were merged, so the matrix cannot quietly narrow.

mod common;

use common::{chain_catalog, chain_state, relation_from, ChainRows, DiskMedium};
use dwc_testkit::{MediumPlan, SimDisk, SplitMix64};
use dwcomplements::relalg::{io, Delta, Update};
use dwcomplements::warehouse::channel::{Envelope, SequencedSource, SourceId};
use dwcomplements::warehouse::ingest::{IngestConfig, IngestingIntegrator};
use dwcomplements::warehouse::integrator::{Integrator, SourceSite};
use dwcomplements::warehouse::storage::snapshot::snapshot_name;
use dwcomplements::warehouse::storage::wal::segment_name;
use dwcomplements::warehouse::{
    AugmentedWarehouse, DurabilityConfig, DurableWarehouse, Recovery,
    StorageError, WarehouseSpec,
};

/// The pinned seed of the whole suite; `verify.sh` replays it in step 8.
const CRASH_SEED: u64 = 0xD1CE_0005_C0FF_EE42;

/// The manifest file name (`storage` keeps the constant crate-private;
/// the on-disk name is part of the documented format).
const MANIFEST: &str = "MANIFEST";

// ---------------------------------------------------------------------
// The pinned scenario
// ---------------------------------------------------------------------

enum Step {
    Offer(Envelope),
    Snapshot,
    RecoverLog,
}

/// A fixed run over the chain warehouse `V = R ⋈ S` exercising every
/// WAL record kind and a mid-stream generation roll: clean offers, a
/// corrupted delivery (quarantined), an out-of-order delivery across a
/// gap (parked), an outbox-log repair, and an explicit snapshot.
struct Scenario {
    init: ChainRows,
    steps: Vec<Step>,
    outbox: Vec<Envelope>,
    source: SourceId,
}

fn build_scenario() -> Scenario {
    let init: ChainRows = (
        vec![vec![1, 10], vec![2, 20]],
        vec![vec![10, 100], vec![20, 200]],
        vec![vec![100]],
    );
    let site = SourceSite::new(chain_catalog(), chain_state(&init)).expect("site");
    let mut src = SequencedSource::new("chain", site);
    let updates = [
        Update::inserting("R", relation_from(&["a", "b"], &[vec![3, 30]])),
        Update::inserting("S", relation_from(&["b", "c"], &[vec![30, 300]])),
        Update::deleting("R", relation_from(&["a", "b"], &[vec![1, 10]])),
        Update::inserting("T", relation_from(&["c"], &[vec![200]])),
        Update::new()
            .with("R", Delta::insert_only(relation_from(&["a", "b"], &[vec![4, 20]])))
            .with("S", Delta::delete_only(relation_from(&["b", "c"], &[vec![10, 100]]))),
    ];
    let envs: Vec<Envelope> = updates
        .iter()
        .map(|u| src.apply_update(u).expect("source applies its own update"))
        .collect();
    // A corrupted copy of seq 1: unknown relation, must quarantine.
    let mut bad = envs[1].clone();
    bad.report = Update::inserting("Ghost", relation_from(&["x"], &[vec![1]]));
    let steps = vec![
        Step::Offer(envs[0].clone()),
        Step::Offer(bad),
        Step::Offer(envs[1].clone()),
        Step::Snapshot,
        Step::Offer(envs[3].clone()), // seq 3 while seq 2 is missing: parks
        Step::RecoverLog,             // repairs the gap from the outbox
        Step::Offer(envs[4].clone()),
    ];
    Scenario {
        init,
        steps,
        outbox: src.outbox().to_vec(),
        source: src.id().clone(),
    }
}

fn fresh_aug() -> AugmentedWarehouse {
    WarehouseSpec::parse(chain_catalog(), &[("V", "R join S")])
        .expect("static spec")
        .augment()
        .expect("chain warehouse augments")
}

fn fresh_ingest(init: &ChainRows) -> IngestingIntegrator {
    let site = SourceSite::new(chain_catalog(), chain_state(init)).expect("site");
    let integ = Integrator::initial_load(fresh_aug(), &site).expect("initial load");
    IngestingIntegrator::new(integ, IngestConfig::default()).expect("ingestor")
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        sync_every_append: true,
        retain_generations: 2,
        snapshot_every: None,
        verify_on_open: true,
    }
}

fn run_script(dw: &mut DurableWarehouse<DiskMedium>, sc: &Scenario) -> Result<(), StorageError> {
    for step in &sc.steps {
        match step {
            Step::Offer(env) => {
                dw.offer(env)?;
            }
            Step::Snapshot => dw.snapshot()?,
            Step::RecoverLog => {
                dw.recover_from_log(&sc.source, &sc.outbox)?;
            }
        }
    }
    Ok(())
}

/// After recovery, the source redelivers its whole outbox (idempotent)
/// and replays the log once more — the normal catch-up a live channel
/// performs after a receiver restart.
fn complete(dw: &mut DurableWarehouse<DiskMedium>, sc: &Scenario) {
    for env in &sc.outbox {
        dw.offer(env).expect("redelivery");
    }
    dw.recover_from_log(&sc.source, &sc.outbox).expect("log replay");
}

// ---------------------------------------------------------------------
// The oracle fingerprint
// ---------------------------------------------------------------------

/// Everything the bit-identical claim covers: the canonical binary
/// encoding of every warehouse relation (view and complement), and the
/// full sequencing state. Quarantine is compared by containment — a
/// corrupted *delivery* is transient channel garbage, so whether it was
/// durably recorded legitimately depends on where the crash fell.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    rels: Vec<(String, Vec<u8>)>,
    seq: Vec<(String, u64, u64, Vec<u64>)>,
    quarantine: Vec<(u64, String)>,
}

fn fingerprint(ing: &IngestingIntegrator) -> Fingerprint {
    Fingerprint {
        rels: ing
            .state()
            .iter()
            .map(|(n, r)| (n.as_str().to_owned(), io::encode_relation(r)))
            .collect(),
        seq: ing
            .sequencing()
            .iter()
            .map(|s| (s.source.as_str().to_owned(), s.epoch, s.next_seq, s.parked.clone()))
            .collect(),
        quarantine: ing
            .quarantine()
            .iter()
            .map(|q| (q.envelope.seq, q.error.to_string()))
            .collect(),
    }
}

/// Runs the scenario on a fresh disk governed by `plan`; returns the
/// shared disk handle and the script result.
fn run_on(plan: MediumPlan, sc: &Scenario) -> (SimDisk, Result<Fingerprint, StorageError>) {
    let fs = SimDisk::new(plan);
    let result = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(&sc.init), config())
        .and_then(|mut dw| {
            run_script(&mut dw, sc)?;
            Ok(fingerprint(dw.ingestor()))
        });
    (fs, result)
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

/// THE acceptance property: crash at every IO boundary of the pinned
/// run; recovery from the survivors plus outbox redelivery is
/// bit-identical to the never-crashed oracle — or, before the first
/// manifest commit, exactly `DWC-S301`.
#[test]
fn kill_at_every_io_boundary_recovers_bit_identically() {
    let sc = build_scenario();
    let (clean_fs, clean) = run_on(MediumPlan::clean(), &sc);
    let oracle = clean.expect("never-crashed run");
    let total_ops = clean_fs.ops();
    // 28 before the merge, when only mutating operations were counted.
    assert!(total_ops >= 28, "the sweep narrowed to {total_ops} IO boundaries");

    for k in 0..total_ops {
        let torn_seed = CRASH_SEED ^ (k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (fs, result) = run_on(MediumPlan::crash_at(k, torn_seed), &sc);
        assert!(result.is_err(), "crash at op {k} surfaced no error");
        assert!(fs.crashed(), "crash plan at op {k} never fired");

        let survivors = fs.survivors();
        if !survivors.contains_key(MANIFEST) {
            // Death before the first manifest commit: the disk holds no
            // committed warehouse, and recovery must say exactly that.
            let err = Recovery::open(
                DiskMedium(SimDisk::from_files(survivors)),
                fresh_aug(),
                config(),
            )
            .expect_err("no manifest yet recovery succeeded");
            assert_eq!(err.code(), "DWC-S301", "crash at op {k}: {err}");
            continue;
        }
        let (mut rec, report) = Recovery::open(
            DiskMedium(SimDisk::from_files(survivors)),
            fresh_aug(),
            config(),
        )
        .unwrap_or_else(|e| panic!("crash at op {k}: recovery failed: {e}"));
        assert!(report.consistency_checked, "crash at op {k}: cross-check skipped");
        complete(&mut rec, &sc);
        let fp = fingerprint(rec.ingestor());
        assert_eq!(fp.rels, oracle.rels, "crash at op {k}: relations diverged");
        assert_eq!(fp.seq, oracle.seq, "crash at op {k}: sequencing diverged");
        for q in &fp.quarantine {
            assert!(
                oracle.quarantine.contains(q),
                "crash at op {k}: alien quarantine entry {q:?}"
            );
        }
    }
}

/// Crashing *during recovery* must leave a disk a second recovery opens
/// cleanly — the roll-a-fresh-generation discipline commits before it
/// prunes, so the manifest always binds durable files.
#[test]
fn recovery_survives_crashes_during_recovery() {
    let sc = build_scenario();
    let (_, clean) = run_on(MediumPlan::clean(), &sc);
    let oracle = clean.expect("never-crashed run");

    // A mid-script crash with a committed manifest as the starting disk.
    let (fs, _) = run_on(MediumPlan::crash_at(17, CRASH_SEED), &sc);
    let s0 = fs.survivors();
    assert!(s0.contains_key(MANIFEST), "probe crash fell before the first commit");

    // Count the baseline recovery's own IO boundaries.
    let rfs = SimDisk::from_files(s0.clone());
    Recovery::open(DiskMedium(rfs.clone()), fresh_aug(), config()).expect("baseline recovery");
    let rec_ops = rfs.ops();
    // 8 before the merge, when only mutating operations were counted.
    assert!(rec_ops >= 8, "the recovery sweep narrowed to {rec_ops} IO boundaries");

    for j in 0..rec_ops {
        let torn_seed = CRASH_SEED.rotate_left(j as u32) ^ j;
        let rfs = SimDisk::from_files(s0.clone());
        rfs.set_plan(MediumPlan::crash_at(j, torn_seed));
        let r = Recovery::open(DiskMedium(rfs.clone()), fresh_aug(), config());
        assert!(r.is_err(), "recovery crash at op {j} surfaced no error");
        let s1 = rfs.survivors();
        assert!(s1.contains_key(MANIFEST), "recovery crash at op {j} lost the manifest");
        let (mut rec2, _) = Recovery::open(
            DiskMedium(SimDisk::from_files(s1)),
            fresh_aug(),
            config(),
        )
        .unwrap_or_else(|e| panic!("second recovery after crash at op {j} failed: {e}"));
        complete(&mut rec2, &sc);
        let fp = fingerprint(rec2.ingestor());
        assert_eq!(fp.rels, oracle.rels, "recovery crash at op {j}: relations diverged");
        assert_eq!(fp.seq, oracle.seq, "recovery crash at op {j}: sequencing diverged");
    }
}

/// A group commit hands the medium all of its frames in one append. A
/// crash inside a 64-frame append tears that write at a seeded length:
/// recovery replays exactly the longest intact frame prefix (a torn
/// tail, never an error), every envelope acked before the crash
/// survives, and redelivery converges on the never-crashed oracle.
/// Frames of the torn batch that survive whole replay too — no caller
/// was acked for them, and replay is idempotent.
#[test]
fn crash_inside_a_64_frame_append_keeps_the_longest_intact_frame_prefix() {
    const BATCH: usize = 64;
    let init: ChainRows = (vec![], vec![], vec![]);
    let site = SourceSite::new(chain_catalog(), chain_state(&init)).expect("site");
    let mut src = SequencedSource::new("bulk", site);
    let envs: Vec<Envelope> = (0..2 * BATCH as i64)
        .map(|i| {
            let row = relation_from(&["a", "b"], &[vec![i, 1000 + i]]);
            src.apply_update(&Update::inserting("R", row)).expect("own update")
        })
        .collect();
    let run = |fs: &SimDisk| -> Result<(), StorageError> {
        let mut dw =
            DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(&init), config())?;
        for batch in envs.chunks(BATCH) {
            dw.offer_batch(batch)?;
        }
        Ok(())
    };

    // The clean run: where the second batch's append falls, and where
    // each frame of the segment ends.
    let clean = SimDisk::default();
    run(&clean).expect("never-crashed run");
    let second_append = clean.ops() - 2;
    let segment = segment_name(1);
    let bytes = clean.read(&segment).expect("segment");
    let mut frame_ends = vec![20];
    while let Some(&end) = frame_ends.last().filter(|&&end| end < bytes.len()) {
        let len = u32::from_le_bytes(bytes[end..end + 4].try_into().expect("4 bytes"));
        frame_ends.push(end + 8 + len as usize);
    }
    assert_eq!(frame_ends.len(), 2 * BATCH + 1, "one frame per envelope");
    let mut oracle = fresh_ingest(&init);
    for env in &envs {
        oracle.offer(env);
    }
    let oracle = fingerprint(&oracle);

    let mut mid_frame_tears = 0;
    for t in 0..24u64 {
        let torn_seed = CRASH_SEED ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fs = SimDisk::new(MediumPlan::crash_at(second_append, torn_seed));
        assert!(run(&fs).is_err(), "tear {t}: the crash surfaced no error");
        let survivors = fs.survivors();
        let kept = survivors[&segment].len();
        assert!(kept >= frame_ends[BATCH], "tear {t}: the synced batch lost bytes");
        let intact = frame_ends.iter().rposition(|&end| end <= kept).expect("header");
        mid_frame_tears += usize::from(kept != frame_ends[intact]);

        let (mut rec, report) =
            Recovery::open(DiskMedium(SimDisk::from_files(survivors)), fresh_aug(), config())
                .unwrap_or_else(|e| panic!("tear {t}: recovery failed: {e}"));
        assert_eq!(report.records_replayed, intact, "tear {t}: not the intact prefix");
        assert_eq!(report.torn_tails, usize::from(kept != frame_ends[intact]), "tear {t}");
        // The acked first batch survived; so did exactly the intact
        // frames of the torn one.
        let cursor = &rec.ingestor().sequencing()[0];
        assert_eq!(cursor.next_seq, intact as u64, "tear {t}: cursor");
        for env in &envs {
            rec.offer(env).expect("redelivery");
        }
        assert_eq!(fingerprint(rec.ingestor()), oracle, "tear {t}: diverged");
    }
    assert!(mid_frame_tears > 0, "no seeded tear fell inside a frame");
}

/// Seeded in-place corruption of each committed file class yields its
/// documented `DWC-SNNN` code — or, for damage that structurally reads
/// as a torn tail, a successful recovery that converges after
/// redelivery. Never a panic.
#[test]
fn seeded_corruption_yields_documented_codes() {
    let sc = build_scenario();
    let (fs, clean) = run_on(MediumPlan::clean(), &sc);
    let oracle = clean.expect("never-crashed run");
    let files = fs.survivors();

    let wal2 = segment_name(2);
    let snap1 = snapshot_name(1);
    let snap2 = snapshot_name(2);
    for name in [wal2.as_str(), snap1.as_str(), snap2.as_str(), MANIFEST] {
        assert!(files.contains_key(name), "missing committed file {name}");
    }
    let frame_len =
        u32::from_le_bytes(files[&wal2][20..24].try_into().expect("4 bytes")) as usize;
    assert!(frame_len > 8, "first WAL frame suspiciously small");
    let mut rng = SplitMix64::new(CRASH_SEED);

    // WAL header damage → DWC-S101.
    for _ in 0..12 {
        let fs = SimDisk::from_files(files.clone());
        assert!(fs.flip_bit(&wal2, rng.index(20), rng.below(8) as u8));
        let err = Recovery::open(DiskMedium(fs), fresh_aug(), config())
            .expect_err("header flip went unnoticed");
        assert_eq!(err.code(), "DWC-S101", "{err}");
    }

    // Damage inside a structurally complete WAL frame → DWC-S102.
    for _ in 0..12 {
        let fs = SimDisk::from_files(files.clone());
        assert!(fs.flip_bit(&wal2, 28 + rng.index(frame_len), rng.below(8) as u8));
        let err = Recovery::open(DiskMedium(fs), fresh_aug(), config())
            .expect_err("frame flip went unnoticed");
        assert_eq!(err.code(), "DWC-S102", "{err}");
    }

    // Blowing up a frame's length field makes the rest of the segment
    // structurally unreadable: documented as a torn tail — truncated,
    // counted, recovered across.
    {
        let fs = SimDisk::from_files(files.clone());
        assert!(fs.flip_bit(&wal2, 23, 7)); // high bit of the length
        let (mut rec, report) = Recovery::open(DiskMedium(fs), fresh_aug(), config())
            .expect("length damage must read as torn, not fail");
        assert_eq!(report.torn_tails, 1);
        complete(&mut rec, &sc);
        assert_eq!(fingerprint(rec.ingestor()).rels, oracle.rels);
    }

    // Newest snapshot corrupt → silent fallback one generation, then
    // convergence via the older snapshot + both WAL segments.
    for _ in 0..12 {
        let fs = SimDisk::from_files(files.clone());
        assert!(fs.flip_bit(&snap2, rng.index(files[&snap2].len()), rng.below(8) as u8));
        let (mut rec, report) = Recovery::open(DiskMedium(fs), fresh_aug(), config())
            .unwrap_or_else(|e| panic!("fallback recovery failed: {e}"));
        assert_eq!(report.snapshots_skipped, 1);
        assert_eq!(report.snapshot_used, snap1);
        complete(&mut rec, &sc);
        let fp = fingerprint(rec.ingestor());
        assert_eq!(fp.rels, oracle.rels);
        assert_eq!(fp.seq, oracle.seq);
    }

    // Every referenced snapshot corrupt → DWC-S202.
    {
        let fs = SimDisk::from_files(files.clone());
        assert!(fs.flip_bit(&snap1, rng.index(files[&snap1].len()), 3));
        assert!(fs.flip_bit(&snap2, rng.index(files[&snap2].len()), 5));
        let err = Recovery::open(DiskMedium(fs), fresh_aug(), config())
            .expect_err("all snapshots corrupt yet recovery succeeded");
        assert_eq!(err.code(), "DWC-S202", "{err}");
    }

    // Manifest damage → DWC-S302; manifest missing → DWC-S301.
    for _ in 0..12 {
        let fs = SimDisk::from_files(files.clone());
        assert!(fs.flip_bit(MANIFEST, rng.index(files[MANIFEST].len()), rng.below(8) as u8));
        let err = Recovery::open(DiskMedium(fs), fresh_aug(), config())
            .expect_err("manifest flip went unnoticed");
        assert_eq!(err.code(), "DWC-S302", "{err}");
    }
    {
        let mut gone = files.clone();
        gone.remove(MANIFEST);
        let err = Recovery::open(DiskMedium(SimDisk::from_files(gone)), fresh_aug(), config())
            .expect_err("missing manifest yet recovery succeeded");
        assert_eq!(err.code(), "DWC-S301", "{err}");
    }

    // A torn WAL tail (truncation mid-frame) is clipped, counted, and
    // recovered across.
    for cut in [1, 3, 9] {
        let fs = SimDisk::from_files(files.clone());
        let full = fs.len_of(&wal2).expect("wal present");
        assert!(fs.truncate_to(&wal2, full - cut));
        let (mut rec, report) = Recovery::open(DiskMedium(fs), fresh_aug(), config())
            .unwrap_or_else(|e| panic!("torn tail (cut {cut}) failed recovery: {e}"));
        assert_eq!(report.torn_tails, 1, "cut {cut}");
        complete(&mut rec, &sc);
        let fp = fingerprint(rec.ingestor());
        assert_eq!(fp.rels, oracle.rels, "cut {cut}");
        assert_eq!(fp.seq, oracle.seq, "cut {cut}");
    }
}

/// A torn `MANIFEST` — the file cut short at any length, as a broken
/// rename source or a bad disk leaves it — fails closed with `DWC-S302`.
/// The whole file is CRC-bound, so no cut can read as a shorter valid
/// manifest.
#[test]
fn torn_manifest_is_s302() {
    let sc = build_scenario();
    let (fs, clean) = run_on(MediumPlan::clean(), &sc);
    clean.expect("never-crashed run");
    let files = fs.survivors();
    let full = files[MANIFEST].len();
    for keep in [full - 1, full - 3, full - 9, full / 2, 12, 3, 0] {
        let fs = SimDisk::from_files(files.clone());
        assert!(fs.truncate_to(MANIFEST, keep));
        let err = Recovery::open(DiskMedium(fs), fresh_aug(), config())
            .expect_err("torn manifest opened");
        assert_eq!(err.code(), "DWC-S302", "kept {keep} of {full} bytes: {err}");
    }
}

/// An *unreadable* newest snapshot is handled like a corrupt one: when
/// the read of `snap-00000002` fails, recovery falls back to generation
/// 1, replays both WAL segments, and lands on the never-crashed state.
#[test]
fn unreadable_newest_snapshot_falls_back_a_generation() {
    let sc = build_scenario();
    let (fs, clean) = run_on(MediumPlan::clean(), &sc);
    let oracle = clean.expect("never-crashed run");
    let snap2 = snapshot_name(2);
    // The first operation on that file — recovery's read — fails once.
    let disk = SimDisk::from_files(fs.survivors());
    disk.set_plan(MediumPlan { transient_at_op: Some(0), ..MediumPlan::clean() }.scoped_to(&snap2));
    let (rec, report) = Recovery::open(DiskMedium(disk.clone()), fresh_aug(), config())
        .expect("recovery tolerates an unreadable snapshot");
    assert_eq!(disk.injected(), 1, "the read fault never fired");
    assert_eq!(report.snapshots_skipped, 1);
    assert_eq!(report.snapshot_used, snapshot_name(1));
    assert!(report.consistency_checked);
    assert_eq!(fingerprint(rec.ingestor()), oracle);
}

/// Stores an older build wrote still open, to the never-crashed state:
/// a manifest recording any policy byte that build could write (0–5:
/// off, adaptive and the four pinned strategies) or an unknown one (9),
/// and snapshots whose inverse-mirror flag is set. This build records
/// neither and ignores both on read.
#[test]
fn stores_written_by_older_builds_open_to_the_oracle() {
    let sc = build_scenario();
    let (fs, clean) = run_on(MediumPlan::clean(), &sc);
    let oracle = clean.expect("never-crashed run");
    let files = fs.survivors();
    let reopen = |files| {
        let (rec, _) = Recovery::open(DiskMedium(SimDisk::from_files(files)), fresh_aug(), config())
            .expect("a store an older build wrote opens");
        fingerprint(rec.ingestor())
    };
    let reseal = |data: &mut Vec<u8>| {
        let body = data.len() - 4;
        let crc = io::crc32(&data[..body]);
        data[body..].copy_from_slice(&crc.to_le_bytes());
    };

    for byte in [0u8, 1, 2, 3, 4, 5, 9] {
        let mut old = files.clone();
        let manifest = old.get_mut(MANIFEST).expect("committed manifest");
        let body = manifest.len() - 4;
        assert_eq!(manifest[body - 2..body], [0, 0], "no policy and no shard section recorded");
        manifest.splice(body - 2..body - 1, [1, byte]);
        reseal(manifest);
        assert_eq!(reopen(old), oracle, "policy byte {byte}");
    }

    let mut old = files.clone();
    let mut flagged = 0;
    for (_, data) in old.iter_mut().filter(|(name, _)| name.ends_with(".dwcs")) {
        // Header (magic, version, id), then the relations; the mirror
        // flag is the first byte after them.
        let mut r = io::ByteReader::new(&data[..data.len() - 4]);
        r.take_bytes(8 + 1 + 8).expect("snapshot header");
        for _ in 0..r.take_u32().expect("relation count") {
            r.take_str().expect("relation name");
            let len = r.take_u32().expect("relation length") as usize;
            r.take_bytes(len).expect("relation bytes");
        }
        let at = r.pos();
        assert_eq!(data[at], 0, "this build writes the mirror flag as 0");
        data[at] = 1;
        reseal(data);
        flagged += 1;
    }
    assert!(flagged >= 2, "the scenario commits several generations");
    assert_eq!(reopen(old), oracle, "mirror flag set");
}

/// A directory an older build wrote in the key-range sharded layout —
/// a version-2 manifest with its shard flag set — fails closed with
/// `DWC-S304`, and recovery leaves every file exactly as it found it.
#[test]
fn sharded_layout_fails_closed_and_leaves_the_directory_as_found() {
    let sc = build_scenario();
    let (fs, clean) = run_on(MediumPlan::clean(), &sc);
    clean.expect("never-crashed run");
    let mut files = fs.survivors();
    let manifest = files.get_mut(MANIFEST).expect("committed manifest");
    let body = manifest.len() - 4;
    assert_eq!(
        manifest[body - 1],
        0,
        "a v2 manifest ends in an unset shard flag"
    );
    manifest[body - 1] = 1;
    let crc = io::crc32(&manifest[..body]);
    manifest[body..].copy_from_slice(&crc.to_le_bytes());

    // A disk that fails every write, sync, rename and remove: recovery
    // must not even attempt one.
    let disk = SimDisk::from_files(files.clone());
    disk.set_plan(MediumPlan {
        append_permille: 1000,
        sync_permille: 1000,
        rename_permille: 1000,
        ..MediumPlan::clean()
    });
    let err = Recovery::open(DiskMedium(disk.clone()), fresh_aug(), config())
        .expect_err("sharded layout opened");
    assert_eq!(err.code(), "DWC-S304", "{err}");
    assert!(
        err.to_string().contains("no longer opens sharded layouts"),
        "{err}"
    );
    assert_eq!(disk.injected(), 0, "recovery tried to mutate the directory");
    assert_eq!(disk.survivors(), files);
}
