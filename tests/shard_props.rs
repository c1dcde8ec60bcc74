//! Crash and fault properties for the key-range sharded warehouse.
//!
//! The sharded store's claim sharpens the unsharded one: a warehouse
//! partitioned into per-shard WAL lineages under a single root
//! manifest, killed at **every** mutating IO boundary (including
//! during its own recovery), recovers to a state that — after
//! the source redelivers its outbox — is bit-identical to a
//! never-crashed *unsharded* oracle; what it acked before the crash is
//! always a strict prefix of what the oracle acked. Medium faults
//! scoped to a single shard's files park exactly that key range while
//! every other shard keeps committing. Root-manifest damage and
//! missing shard segments fail closed with their documented
//! `DWC-SNNN` codes — never a panic, never silent divergence.

mod common;

use common::{FaultyMedium, SimMedium};
use dwc_testkit::crash::{CrashPlan, SimFs};
use dwc_testkit::iofault::{FaultyFs, MediumFaultPlan};
use dwc_testkit::SplitMix64;
use dwcomplements::relalg::{io, Catalog, DbState, Relation, Tuple, Update, Value};
use dwcomplements::relalg::AttrSet;
use dwcomplements::warehouse::channel::{Envelope, SequencedSource, SourceId};
use dwcomplements::warehouse::ingest::{IngestConfig, IngestingIntegrator};
use dwcomplements::warehouse::integrator::{Integrator, SourceSite};
use dwcomplements::warehouse::planner::MaintenanceStrategy;
use dwcomplements::warehouse::{
    AdaptivePolicy, AugmentedWarehouse, DurabilityConfig, DurableWarehouse, PolicyMode,
    Recovery, ShardHealth, ShardedDurableWarehouse, StorageError, WarehouseSpec,
};

/// The pinned seed shared with the unsharded sweep (`crash_props`).
const CRASH_SEED: u64 = 0xD1CE_0005_C0FF_EE42;

/// The root manifest's on-disk name (part of the documented format).
const MANIFEST: &str = "MANIFEST";

/// Shards the pinned scenario runs under.
const SHARDS: usize = 3;

// ---------------------------------------------------------------------
// The pinned keyed scenario
// ---------------------------------------------------------------------

/// `R(k*, a) ⋈ S(k*, b)`: both base relations keyed on the routing
/// attribute `k`, so key-range sharding certifies cleanly and the view
/// and its complement both carry `k`.
fn keyed_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_schema_with_key("R", &["k", "a"], &["k"]).expect("static schema");
    c.add_schema_with_key("S", &["k", "b"], &["k"]).expect("static schema");
    c
}

/// Rows given as `(k, payload)`. The canonical attribute order puts
/// the payload attribute first (`a`/`b` sort before `k`), so tuples
/// are emitted as `(payload, k)`.
fn keyed_rel(payload: &str, rows: &[[i64; 2]]) -> Relation {
    Relation::from_tuples(
        AttrSet::from_names(&[payload, "k"]),
        rows.iter().map(|r| Tuple::new(vec![Value::int(r[1]), Value::int(r[0])])),
    )
    .expect("static rows")
}

/// Initial key domain 1..=8 in both relations, so an equi-depth 3-way
/// cut puts real rows in every shard.
fn keyed_state() -> DbState {
    let mut db = DbState::new();
    let rows: Vec<[i64; 2]> = (1..=8).map(|k| [k, 10 * k]).collect();
    db.insert_relation("R", keyed_rel("a", &rows));
    let rows: Vec<[i64; 2]> = (1..=8).map(|k| [k, 100 * k]).collect();
    db.insert_relation("S", keyed_rel("b", &rows));
    db
}

fn fresh_aug() -> AugmentedWarehouse {
    WarehouseSpec::parse(keyed_catalog(), &[("V", "R join S")])
        .expect("static spec")
        .augment()
        .expect("keyed warehouse augments")
}

fn fresh_ingest() -> IngestingIntegrator {
    let site = SourceSite::new(keyed_catalog(), keyed_state()).expect("site");
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

enum Step {
    Offer(Envelope),
    Snapshot,
    RecoverLog,
}

struct Scenario {
    steps: Vec<Step>,
    outbox: Vec<Envelope>,
    source: SourceId,
}

/// Updates spread across all three key ranges, plus the channel-fault
/// repertoire: a corrupted delivery (quarantines via the sequencing
/// lineage), an out-of-order delivery across a gap (parks), an
/// outbox-log repair, and an explicit snapshot (generation roll).
fn build_scenario() -> Scenario {
    let site = SourceSite::new(keyed_catalog(), keyed_state()).expect("site");
    let mut src = SequencedSource::new("keyed", site);
    let updates = [
        Update::inserting("R", keyed_rel("a", &[[2, 21]])),
        Update::inserting("S", keyed_rel("b", &[[4, 401]])),
        Update::deleting("R", keyed_rel("a", &[[7, 70]])),
        Update::inserting("R", keyed_rel("a", &[[9, 90]])),
        Update::inserting("S", keyed_rel("b", &[[9, 900]])),
    ];
    let envs: Vec<Envelope> = updates
        .iter()
        .map(|u| src.apply_update(u).expect("source applies its own update"))
        .collect();
    // A corrupted copy of seq 1: unknown relation, must quarantine.
    let mut bad = envs[1].clone();
    bad.report = Update::inserting("Ghost", keyed_rel("a", &[[1, 1]]));
    let steps = vec![
        Step::Offer(envs[0].clone()),
        Step::Offer(bad),
        Step::Offer(envs[1].clone()),
        Step::Snapshot,
        Step::Offer(envs[3].clone()), // seq 3 while seq 2 is missing: parks
        Step::RecoverLog,             // repairs the gap from the outbox
        Step::Offer(envs[4].clone()),
    ];
    Scenario { steps, outbox: src.outbox().to_vec(), source: src.id().clone() }
}

// ---------------------------------------------------------------------
// Driving either store shape through the scenario
// ---------------------------------------------------------------------

/// The subset of both stores' APIs the scenario needs, so the sharded
/// run and the unsharded oracle execute literally the same script.
trait Script {
    fn s_offer(&mut self, env: &Envelope) -> Result<(), StorageError>;
    fn s_snapshot(&mut self) -> Result<(), StorageError>;
    fn s_recover(&mut self, source: &SourceId, log: &[Envelope]) -> Result<(), StorageError>;
}

impl Script for DurableWarehouse<SimMedium> {
    fn s_offer(&mut self, env: &Envelope) -> Result<(), StorageError> {
        self.offer(env).map(drop)
    }
    fn s_snapshot(&mut self) -> Result<(), StorageError> {
        self.snapshot()
    }
    fn s_recover(&mut self, source: &SourceId, log: &[Envelope]) -> Result<(), StorageError> {
        self.recover_from_log(source, log).map(drop)
    }
}

impl<M: dwcomplements::warehouse::StorageMedium> Script for ShardedDurableWarehouse<M> {
    fn s_offer(&mut self, env: &Envelope) -> Result<(), StorageError> {
        self.offer(env).map(drop)
    }
    fn s_snapshot(&mut self) -> Result<(), StorageError> {
        self.snapshot()
    }
    fn s_recover(&mut self, source: &SourceId, log: &[Envelope]) -> Result<(), StorageError> {
        self.recover_from_log(source, log).map(drop)
    }
}

fn run_script<W: Script>(w: &mut W, sc: &Scenario) -> Result<(), StorageError> {
    for step in &sc.steps {
        match step {
            Step::Offer(env) => w.s_offer(env)?,
            Step::Snapshot => w.s_snapshot()?,
            Step::RecoverLog => w.s_recover(&sc.source, &sc.outbox)?,
        }
    }
    Ok(())
}

/// Post-recovery catch-up: the source redelivers its whole outbox
/// (idempotent) and replays the log once more.
fn complete<W: Script>(w: &mut W, sc: &Scenario) {
    for env in &sc.outbox {
        w.s_offer(env).expect("redelivery");
    }
    w.s_recover(&sc.source, &sc.outbox).expect("log replay");
}

/// The bit-identical claim: canonical encodings of every warehouse
/// relation plus the full sequencing state; quarantine by containment
/// (whether transient channel garbage was durably recorded depends on
/// where the crash fell).
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

/// The never-crashed **unsharded** oracle: same scenario over a plain
/// `DurableWarehouse`, so every sharded assertion below is also a
/// cross-shape differential test.
fn oracle() -> Fingerprint {
    let fs = SimFs::new(CrashPlan::none());
    let mut dw = DurableWarehouse::create(SimMedium(fs), fresh_ingest(), config())
        .expect("oracle create");
    run_script(&mut dw, &build_scenario()).expect("oracle script");
    fingerprint(dw.ingestor())
}

/// Runs the sharded scenario on a fresh disk governed by `plan`.
fn run_sharded_on(plan: CrashPlan, sc: &Scenario) -> (SimFs, Result<Fingerprint, StorageError>) {
    let fs = SimFs::new(plan);
    let result = ShardedDurableWarehouse::create(
        SimMedium(fs.clone()),
        fresh_ingest(),
        config(),
        SHARDS,
        None,
    )
    .and_then(|mut sw| {
        run_script(&mut sw, sc)?;
        Ok(fingerprint(sw.ingestor()))
    });
    (fs, result)
}

fn open_sharded(
    fs: SimFs,
    shards: Option<usize>,
) -> Result<
    (ShardedDurableWarehouse<SimMedium>, dwcomplements::warehouse::ShardRecoveryReport),
    StorageError,
> {
    ShardedDurableWarehouse::open(SimMedium(fs), fresh_aug(), config(), shards)
}

// ---------------------------------------------------------------------
// Differential and crash properties
// ---------------------------------------------------------------------

/// The clean sharded run matches the unsharded oracle bit-for-bit, and
/// still does after a crash-free reopen (recovery of a healthy disk is
/// the identity).
#[test]
fn sharded_run_matches_unsharded_oracle_across_reopen() {
    let sc = build_scenario();
    let want = oracle();
    let (fs, clean) = run_sharded_on(CrashPlan::none(), &sc);
    assert_eq!(clean.expect("clean sharded run"), want);

    let (sw, report) = open_sharded(fs, None).expect("reopen");
    assert_eq!(report.shards, SHARDS);
    assert!(report.consistency_checked);
    assert_eq!(report.parked_shards, 0);
    assert_eq!(fingerprint(sw.ingestor()), want);
    assert!(sw.shard_health().iter().all(|h| *h == ShardHealth::Live));
}

/// THE acceptance sweep: kill the process model at every mutating IO
/// boundary of the sharded run. Recovery from the survivors must (a)
/// resume at a sequencing cursor that is a prefix of the oracle's —
/// nothing unacknowledged was acked — and (b) after outbox redelivery
/// be bit-identical to the never-crashed unsharded oracle. Before the
/// first root-manifest commit the disk holds no warehouse and recovery
/// must say exactly `DWC-S301`.
#[test]
fn kill_at_every_io_boundary_recovers_a_prefix_then_converges() {
    let sc = build_scenario();
    let want = oracle();
    let (clean_fs, _) = run_sharded_on(CrashPlan::none(), &sc);
    let total_ops = clean_fs.ops();
    assert!(total_ops >= 30, "sharded scenario exercises too few IO boundaries: {total_ops}");

    for k in 0..total_ops {
        let torn_seed = CRASH_SEED ^ (k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (fs, result) = run_sharded_on(CrashPlan::at(k, torn_seed), &sc);
        assert!(result.is_err(), "crash at op {k} surfaced no error");
        assert!(fs.crashed(), "crash plan at op {k} never fired");

        let survivors = fs.survivors();
        if !survivors.contains_key(MANIFEST) {
            let err = open_sharded(SimFs::from_files(survivors), None)
                .err()
                .unwrap_or_else(|| panic!("crash at op {k}: no manifest yet recovery succeeded"));
            assert_eq!(err.code(), "DWC-S301", "crash at op {k}: {err}");
            continue;
        }
        let (mut rec, report) = open_sharded(SimFs::from_files(survivors), None)
            .unwrap_or_else(|e| panic!("crash at op {k}: recovery failed: {e}"));
        assert!(report.consistency_checked, "crash at op {k}: cross-check skipped");

        // Acked-prefix discipline: the recovered cursor never runs
        // ahead of the oracle's for any source.
        for cur in rec.ingestor().sequencing() {
            let bound = want
                .seq
                .iter()
                .find(|(s, ..)| s == cur.source.as_str())
                .map(|&(_, _, next, _)| next)
                .unwrap_or_else(|| panic!("crash at op {k}: alien source {:?}", cur.source));
            assert!(
                cur.next_seq <= bound,
                "crash at op {k}: recovered cursor {} ahead of oracle {bound}",
                cur.next_seq
            );
        }

        complete(&mut rec, &sc);
        let fp = fingerprint(rec.ingestor());
        assert_eq!(fp.rels, want.rels, "crash at op {k}: relations diverged");
        assert_eq!(fp.seq, want.seq, "crash at op {k}: sequencing diverged");
        for q in &fp.quarantine {
            assert!(want.quarantine.contains(q), "crash at op {k}: alien quarantine {q:?}");
        }
    }
}

/// Crashing *during the per-shard recovery itself* must leave a disk a
/// second recovery opens cleanly: the recovery commits a fresh
/// generation before pruning, so the root manifest always binds
/// durable files.
#[test]
fn recovery_survives_crashes_during_parallel_recovery() {
    let sc = build_scenario();
    let want = oracle();

    // A mid-script crash with a committed root manifest as the start.
    let (fs, _) = run_sharded_on(CrashPlan::at(40, CRASH_SEED), &sc);
    let s0 = fs.survivors();
    assert!(s0.contains_key(MANIFEST), "probe crash fell before the first commit");

    let rfs = SimFs::from_files(s0.clone());
    open_sharded(rfs.clone(), None).expect("baseline recovery");
    let rec_ops = rfs.ops();
    assert!(rec_ops >= 8, "sharded recovery does too little IO to sweep: {rec_ops}");

    for j in 0..rec_ops {
        let torn_seed = CRASH_SEED.rotate_left(j as u32) ^ j;
        let rfs = SimFs::from_files_with_plan(s0.clone(), CrashPlan::at(j, torn_seed));
        let r = open_sharded(rfs.clone(), None);
        assert!(r.is_err(), "recovery crash at op {j} surfaced no error");
        let s1 = rfs.survivors();
        assert!(s1.contains_key(MANIFEST), "recovery crash at op {j} lost the manifest");
        let (mut rec2, _) = open_sharded(SimFs::from_files(s1), None)
            .unwrap_or_else(|e| panic!("second recovery after crash at op {j} failed: {e}"));
        complete(&mut rec2, &sc);
        let fp = fingerprint(rec2.ingestor());
        assert_eq!(fp.rels, want.rels, "recovery crash at op {j}: relations diverged");
        assert_eq!(fp.seq, want.seq, "recovery crash at op {j}: sequencing diverged");
    }
}

// ---------------------------------------------------------------------
// Medium-fault properties
// ---------------------------------------------------------------------

fn fresh_faulty(plan: MediumFaultPlan) -> FaultyFs {
    FaultyFs::new(SimFs::new(CrashPlan::none()), plan)
}

/// Offers under injected faults with the documented client discipline:
/// heal and retry on a retryable error. A fatal shard rejection is
/// surfaced to the caller.
fn offer_retrying(
    sw: &mut ShardedDurableWarehouse<FaultyMedium>,
    env: &Envelope,
) -> Result<(), StorageError> {
    for _ in 0..4 {
        match sw.offer(env) {
            Ok(_) => return Ok(()),
            Err(e) if e.is_retryable() => {
                let _ = sw.heal();
            }
            Err(e) => return Err(e),
        }
    }
    sw.offer(env).map(drop)
}

/// The single-shot transient fault matrix: inject one torn/failed IO at
/// every faultable boundary of the sharded run. The store absorbs the
/// fault (checkpoint rollback), the client retries, and after a
/// quiesced reopen plus redelivery the state converges to the oracle.
#[test]
fn transient_fault_at_every_boundary_converges_after_retry() {
    let sc = build_scenario();
    let want = oracle();

    // Count faultable boundaries with a clean plan.
    let probe = fresh_faulty(MediumFaultPlan::clean());
    {
        let mut sw = ShardedDurableWarehouse::create(
            FaultyMedium(probe.clone()),
            fresh_ingest(),
            config(),
            SHARDS,
            None,
        )
        .expect("probe create");
        run_script(&mut sw, &sc).expect("probe script");
    }
    let total = probe.faultable_ops();
    assert!(total >= 30, "too few faultable boundaries: {total}");

    for k in 0..total {
        let plan = MediumFaultPlan {
            seed: CRASH_SEED ^ k,
            transient_at_op: Some(k),
            ..MediumFaultPlan::clean()
        };
        let fs = fresh_faulty(plan);
        let created = ShardedDurableWarehouse::create(
            FaultyMedium(fs.clone()),
            fresh_ingest(),
            config(),
            SHARDS,
            None,
        );
        let mut survived = match created {
            Ok(sw) => Some(sw),
            Err(e) if e.is_retryable() => None, // fault fell inside create
            Err(e) => panic!("fault at op {k}: create failed fatally: {e}"),
        };
        if let Some(sw) = survived.as_mut() {
            for step in &sc.steps {
                let r = match step {
                    Step::Offer(env) => offer_retrying(sw, env),
                    Step::Snapshot => sw.snapshot().or_else(|e| {
                        if e.is_retryable() {
                            sw.heal().and_then(|()| sw.snapshot())
                        } else {
                            Err(e)
                        }
                    }),
                    Step::RecoverLog => {
                        sw.recover_from_log(&sc.source, &sc.outbox).map(drop).or_else(|e| {
                            if e.is_retryable() {
                                sw.heal()?;
                                sw.recover_from_log(&sc.source, &sc.outbox).map(drop)
                            } else {
                                Err(e)
                            }
                        })
                    }
                };
                r.unwrap_or_else(|e| panic!("fault at op {k}: step failed fatally: {e}"));
            }
        }
        drop(survived);

        // Quiesce the medium and reopen whatever landed durably.
        fs.quiesce();
        if !fs.exists(MANIFEST) {
            continue; // the fault killed the very first commit
        }
        let (mut rec, _) = ShardedDurableWarehouse::open(
            FaultyMedium(fs.clone()),
            fresh_aug(),
            config(),
            None,
        )
        .unwrap_or_else(|e| panic!("fault at op {k}: quiesced reopen failed: {e}"));
        complete(&mut rec, &sc);
        let fp = fingerprint(rec.ingestor());
        assert_eq!(fp.rels, want.rels, "fault at op {k}: relations diverged");
        assert_eq!(fp.seq, want.seq, "fault at op {k}: sequencing diverged");
    }
}

/// A permanent fault scoped to one shard's files (`s1-*`) parks exactly
/// that key range: the discovering op is rejected and rolled back,
/// other ranges keep committing durably, reads keep serving, and a
/// healed reopen converges to the oracle.
#[test]
fn permanent_fault_on_one_shard_parks_only_its_range() {
    let sc = build_scenario();
    let fs = fresh_faulty(MediumFaultPlan::clean());
    let mut sw = ShardedDurableWarehouse::create(
        FaultyMedium(fs.clone()),
        fresh_ingest(),
        config(),
        SHARDS,
        None,
    )
    .expect("create");

    // Fresh envelopes for the live phase (the scenario outbox replays
    // later, after heal, to prove convergence).
    let site = SourceSite::new(keyed_catalog(), keyed_state()).expect("site");
    let mut src = SequencedSource::new("live", site);
    let shard0_key = (1..100)
        .find(|k| sw.spec().route_value(&Value::int(*k)) == 0)
        .expect("some key routes to shard 0");
    let shard1_key = (1..100)
        .find(|k| sw.spec().route_value(&Value::int(*k)) == 1)
        .expect("some key routes to shard 1");
    let env0 = src
        .apply_update(&Update::inserting("R", keyed_rel("a", &[[shard0_key, 1]])))
        .expect("source applies");
    let env1 = src
        .apply_update(&Update::inserting("R", keyed_rel("a", &[[shard1_key, 2]])))
        .expect("source applies");

    // Break exactly shard 1's slice of the disk.
    fs.set_plan(
        MediumFaultPlan { permanent_from_op: Some(0), ..MediumFaultPlan::clean() }
            .scoped_to("s1-"),
    );

    // Every op appends to every live lineage, so the next offer —
    // whatever its key — discovers the dead slice, is rejected whole,
    // and parks shard 1. The store itself stays live.
    let before = fingerprint(sw.ingestor());
    let err = sw.offer(&env0).expect_err("discovery offer must be rejected");
    assert_eq!(err.code(), "DWC-S305", "{err}");
    assert_eq!(fingerprint(sw.ingestor()), before, "rejected op left state behind");
    assert_eq!(
        sw.shard_health(),
        vec![ShardHealth::Live, ShardHealth::Parked, ShardHealth::Live]
    );
    assert!(!sw.poisoned());

    // The same envelope retries cleanly: its data routes to shard 0 and
    // the parked lineage is skipped.
    sw.offer(&env0).expect("retry after park commits on live shards");

    // A write into the parked key range is refused durably-honestly.
    let err = sw.offer(&env1).expect_err("parked range must reject");
    assert_eq!(err.code(), "DWC-S305", "{err}");

    // Reads keep serving the committed state.
    assert!(sw.state().iter().count() > 0);

    // Swap the disk: a healed reopen un-parks the lineage and the full
    // scenario (original outbox + live-phase outbox) converges on the
    // unsharded oracle plus the shard-0 insert.
    drop(sw);
    fs.quiesce();
    let (mut rec, report) =
        ShardedDurableWarehouse::open(FaultyMedium(fs), fresh_aug(), config(), None)
            .expect("healed reopen");
    assert_eq!(report.parked_shards, 1, "reopen must see the parked lineage");
    assert!(rec.shard_health().iter().all(|h| *h == ShardHealth::Live));
    run_script(&mut rec, &sc).expect("scenario replays after heal");
    complete(&mut rec, &sc);
    for env in src.outbox() {
        rec.offer(env).expect("live-phase redelivery");
    }
    let fp = fingerprint(rec.ingestor());
    // Relations: oracle plus the two live-phase inserts.
    let mut check = DurableWarehouse::create(
        SimMedium(SimFs::new(CrashPlan::none())),
        fresh_ingest(),
        config(),
    )
    .expect("check oracle");
    run_script(&mut check, &sc).expect("check script");
    for env in src.outbox() {
        check.offer(env).expect("check redelivery");
    }
    let check_fp = fingerprint(check.ingestor());
    assert_eq!(fp.rels, check_fp.rels);
    assert_eq!(fp.quarantine, check_fp.quarantine);
}

// ---------------------------------------------------------------------
// Topology and fail-closed properties
// ---------------------------------------------------------------------

/// Root-manifest damage fails closed with `DWC-S302`: torn tails (the
/// classic half-written rename source) and seeded bit flips alike.
#[test]
fn torn_or_corrupt_root_manifest_is_s302() {
    let sc = build_scenario();
    let (fs, clean) = run_sharded_on(CrashPlan::none(), &sc);
    clean.expect("clean run");
    let files = fs.survivors();
    let mut rng = SplitMix64::new(CRASH_SEED);

    for cut in [1usize, 3, 9] {
        let fs = SimFs::from_files(files.clone());
        let full = fs.len_of(MANIFEST).expect("manifest present");
        assert!(full > cut, "manifest too small to tear");
        assert!(fs.truncate_to(MANIFEST, full - cut));
        let err = open_sharded(fs, None)
            .err()
            .unwrap_or_else(|| panic!("torn manifest (cut {cut}) opened"));
        assert_eq!(err.code(), "DWC-S302", "cut {cut}: {err}");
    }
    for _ in 0..12 {
        let fs = SimFs::from_files(files.clone());
        assert!(fs.flip_bit(MANIFEST, rng.index(files[MANIFEST].len()), rng.below(8) as u8));
        let err = open_sharded(fs, None).expect_err("manifest flip went unnoticed");
        assert_eq!(err.code(), "DWC-S302", "{err}");
    }
}

/// A missing shard WAL segment fails closed with `DWC-S303` naming the
/// shard — recovery refuses to guess at a lineage it cannot read.
#[test]
fn missing_shard_segment_is_s303() {
    let sc = build_scenario();
    let (fs, clean) = run_sharded_on(CrashPlan::none(), &sc);
    clean.expect("clean run");
    let files = fs.survivors();

    let victim = files
        .keys()
        .find(|f| f.starts_with("s1-wal-"))
        .expect("shard 1 has a WAL segment")
        .clone();
    let mut gone = files.clone();
    gone.remove(&victim);
    let err = open_sharded(SimFs::from_files(gone), None)
        .expect_err("missing shard segment opened");
    assert_eq!(err.code(), "DWC-S303", "{err}");
    assert!(err.to_string().contains(&victim), "{err} does not name {victim}");
}

/// An unreadable *snapshot* is not fatal the way a missing WAL segment
/// is: when the read of shard 1's newest slice fails, recovery falls
/// back one generation on that lineage alone, replays the older slice's
/// WAL forward, and lands on the same state.
#[test]
fn unreadable_newest_slice_falls_back_a_generation() {
    let sc = build_scenario();
    let want = oracle();
    let (fs, clean) = run_sharded_on(CrashPlan::none(), &sc);
    clean.expect("clean run");
    let files = fs.survivors();
    let newest = files
        .keys()
        .filter(|f| f.starts_with("s1-snap-"))
        .max()
        .expect("shard 1 has a slice snapshot")
        .clone();
    assert!(
        files.keys().filter(|f| f.starts_with("s1-snap-")).count() >= 2,
        "scenario retains no older generation to fall back to"
    );

    // The first operation on that file — recovery's read — fails once.
    let plan = MediumFaultPlan { transient_at_op: Some(0), ..MediumFaultPlan::clean() }
        .scoped_to(&newest);
    let faulty = FaultyFs::new(SimFs::from_files(files), plan);
    let (sw, report) =
        ShardedDurableWarehouse::open(FaultyMedium(faulty.clone()), fresh_aug(), config(), None)
            .expect("recovery tolerates an unreadable slice");
    assert_eq!(faulty.injected(), 1, "the read fault never fired");
    assert!(report.snapshots_skipped >= 1, "{report:?}");
    assert!(report.consistency_checked);
    assert_eq!(fingerprint(sw.ingestor()), want);
}

/// Opening across layouts fails closed with `DWC-S304` in both
/// directions — except the documented migration, which converges.
#[test]
fn layout_mismatch_is_s304_and_migration_converges() {
    let sc = build_scenario();
    let want = oracle();

    // Unsharded files, sharded open without a count: S304.
    let ufs = SimFs::new(CrashPlan::none());
    let mut dw = DurableWarehouse::create(SimMedium(ufs.clone()), fresh_ingest(), config())
        .expect("unsharded create");
    run_script(&mut dw, &sc).expect("unsharded script");
    drop(dw);
    let err = open_sharded(ufs.clone(), None).expect_err("layout mismatch opened");
    assert_eq!(err.code(), "DWC-S304", "{err}");

    // With a count: migration, bit-identical to the oracle.
    let (sw, report) = open_sharded(ufs, Some(SHARDS)).expect("migration");
    assert!(report.migrated);
    assert_eq!(report.shards, SHARDS);
    assert_eq!(fingerprint(sw.ingestor()), want);
    drop(sw);

    // Sharded files, unsharded open: S304.
    let (sfs, clean) = run_sharded_on(CrashPlan::none(), &sc);
    clean.expect("clean sharded run");
    let err = Recovery::open(SimMedium(sfs), fresh_aug(), config())
        .expect_err("unsharded open of sharded medium succeeded");
    assert_eq!(err.code(), "DWC-S304", "{err}");
}

/// Changing the shard count across restarts re-cuts the key domain in
/// place (2 → 4 → 2) and every stop converges on the oracle.
#[test]
fn shard_count_changes_across_restart_converge() {
    let sc = build_scenario();
    let want = oracle();

    let fs = SimFs::new(CrashPlan::none());
    let mut sw = ShardedDurableWarehouse::create(
        SimMedium(fs.clone()),
        fresh_ingest(),
        config(),
        2,
        None,
    )
    .expect("create 2-way");
    run_script(&mut sw, &sc).expect("script");
    assert_eq!(fingerprint(sw.ingestor()), want);
    drop(sw);

    let (sw, report) = open_sharded(fs.clone(), Some(4)).expect("re-shard to 4");
    assert!(report.resharded);
    assert_eq!(sw.shards(), 4);
    assert_eq!(fingerprint(sw.ingestor()), want);
    drop(sw);

    let (sw, report) = open_sharded(fs.clone(), Some(2)).expect("re-shard back to 2");
    assert!(report.resharded);
    assert_eq!(sw.shards(), 2);
    assert_eq!(fingerprint(sw.ingestor()), want);
    drop(sw);

    // And the re-cut layout still crash-recovers: reopen once more.
    let (sw, report) = open_sharded(fs, None).expect("plain reopen");
    assert!(!report.resharded);
    assert_eq!(fingerprint(sw.ingestor()), want);
}

/// The configured maintenance-policy mode survives sharded restarts:
/// the root manifest carries the policy byte.
#[test]
fn policy_mode_survives_sharded_reopen() {
    let fs = SimFs::new(CrashPlan::none());
    let mut sw = ShardedDurableWarehouse::create(
        SimMedium(fs.clone()),
        fresh_ingest(),
        config(),
        SHARDS,
        None,
    )
    .expect("create");
    sw.set_maintenance_policy(AdaptivePolicy::fixed(MaintenanceStrategy::Incremental))
        .expect("policy commits");
    drop(sw);

    let (sw, report) = open_sharded(fs, None).expect("reopen");
    assert!(report.policy_restored);
    assert_eq!(
        sw.ingestor().policy().mode(),
        PolicyMode::Fixed(MaintenanceStrategy::Incremental)
    );
}
