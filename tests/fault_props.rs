//! Fault-model properties: the self-healing server over a fallible
//! medium.
//!
//! The injection matrix drives the same seeded two-lane schedule the
//! group-commit suite uses, but over [`DiskMedium`] — a medium that
//! injects transient faults, permanent faults, and modeled latency at
//! chosen IO boundaries. The contract, at **every** boundary:
//!
//! * **Acks are a strict prefix of durable state** — a faulted run's
//!   ack stream never diverges from the never-faulted oracle's, it can
//!   only (temporarily) lag it; no envelope is acked early and no acked
//!   envelope is ever lost.
//! * **Transient faults self-heal** — the server degrades, parks the
//!   in-flight batch unacked, retries with bounded deterministic
//!   backoff, and converges bit-identically to the oracle with the
//!   *complete* oracle ack stream.
//! * **Permanent faults degrade to read-only** — writes nack with a
//!   typed error, reads keep serving the last published epoch, and a
//!   restart into recovery over the synced survivors (after the medium
//!   heals) converges to the oracle under outbox redelivery.
//! * **Slow media are only slow** — modeled fsync stalls advance the
//!   virtual clock but change no outcome.
//! * **A crash mid-heal loses only unacked envelopes** — a crash swept
//!   across every boundary of a run that is absorbing a transient fault
//!   (degrade, retry, generation roll) recovers onto the oracle.
//!
//! Alongside the matrix: the retryable-vs-fatal error taxonomy pin
//! (every `DWC-SNNN` code maps to exactly one [`ErrorClass`]), the
//! deadline re-arm regression for failed commits, admission control,
//! and idle-session reaping.

mod common;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use common::{chain_catalog, chain_state, relation_from, ChainRows, DiskMedium};
use dwc_testkit::prop::Runner;
use dwc_testkit::sched::{Interleaver, VirtualClock};
use dwc_testkit::{tk_ensure, MediumPlan, SimDisk};
use dwcomplements::relalg::{io, RelName, Update};
use dwcomplements::warehouse::channel::{Envelope, SequencedSource, SourceId};
use dwcomplements::warehouse::ingest::{IngestConfig, IngestingIntegrator};
use dwcomplements::warehouse::integrator::{Integrator, SourceSite};
use dwcomplements::warehouse::storage::snapshot::snapshot_name;
use dwcomplements::warehouse::server::{
    Ack, BatchPolicy, EngineStep, Health, RetryPolicy, ServerCore, ServerError,
};
use dwcomplements::warehouse::{
    AugmentedWarehouse, DurabilityConfig, DurableWarehouse, ErrorClass, MediumError, Recovery,
    StorageError, WarehouseError, WarehouseSpec,
};

/// The pinned seed of the fault matrix; `verify.sh` step 10 replays it.
const FAULT_SEED: u64 = 0xFA57_0007_D15C_FA17;

/// The manifest file name (the on-disk name is part of the documented
/// format; `storage` keeps the constant crate-private).
const MANIFEST: &str = "MANIFEST";

/// Total `tick` budget per drive — a wedged retry loop fails loudly
/// instead of spinning.
const TICK_BUDGET: usize = 20_000;

// ---------------------------------------------------------------------
// Rig (mirrors group_commit_props)
// ---------------------------------------------------------------------

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

fn server_config() -> DurabilityConfig {
    DurabilityConfig {
        sync_every_append: false,
        retain_generations: 2,
        snapshot_every: None,
        verify_on_open: true,
    }
}

/// A tight retry policy for the matrix: short virtual backoffs keep the
/// drives fast while still exercising the doubling schedule.
fn matrix_retry() -> RetryPolicy {
    RetryPolicy { max_attempts: 4, base_backoff_micros: 100, max_backoff_micros: 1_600 }
}

fn insert_lane(
    init: &ChainRows,
    name: &str,
    rel: &str,
    count: usize,
    salt: i64,
) -> (SequencedSource, Vec<Envelope>) {
    let site = SourceSite::new(chain_catalog(), chain_state(init)).expect("site");
    let mut src = SequencedSource::new(name, site);
    let attrs: &[&str] =
        if rel == "T" { &["c"] } else if rel == "R" { &["a", "b"] } else { &["b", "c"] };
    let envs = (0..count)
        .map(|i| {
            let row = if attrs.len() == 2 {
                vec![salt + i as i64, salt + 100 + i as i64]
            } else {
                vec![salt + i as i64]
            };
            let update = Update::inserting(rel, relation_from(attrs, &[row]));
            src.apply_update(&update).expect("source applies its own update")
        })
        .collect();
    (src, envs)
}

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

/// Envelopes in the matrix schedule. A group commit is one append and
/// one sync, so the run needs eight batches of four (the last one
/// partial) to visit as many IO boundaries as it did when each frame
/// was its own append.
const MATRIX_ENVELOPES: usize = 29;

/// The fixed two-lane schedule of the matrix.
fn matrix_schedule() -> (ChainRows, [SequencedSource; 2], Vec<(usize, Envelope)>) {
    let init: ChainRows = (vec![vec![1, 101]], vec![vec![101, 201]], vec![]);
    let (src_a, lane_a) = insert_lane(&init, "lane-a", "R", 15, 10);
    let (src_b, lane_b) = insert_lane(&init, "lane-b", "S", MATRIX_ENVELOPES - 15, 50);
    let schedule = Interleaver::new(FAULT_SEED).merge(vec![lane_a, lane_b]);
    (init, [src_a, src_b], schedule)
}

// ---------------------------------------------------------------------
// The fault-aware driver
// ---------------------------------------------------------------------

/// Runs every due tick at virtual time `now`, collecting acks.
fn pump(
    core: &mut ServerCore<DiskMedium>,
    now: u64,
    acks: &mut Vec<Ack>,
    budget: &mut usize,
) -> Result<(), String> {
    while let Some(deadline) = core.next_deadline() {
        if deadline > now {
            break;
        }
        if *budget == 0 {
            return Err("tick budget exhausted (wedged retry loop?)".to_owned());
        }
        *budget -= 1;
        match core.tick(now) {
            Ok(released) => acks.extend(released),
            // A fatal tick-commit drops its batch unacked and turns the
            // pipeline read-only; the server itself keeps serving.
            Err(ServerError::Storage(_)) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(())
}

fn health_tag(h: Health) -> u8 {
    match h {
        Health::Healthy => 0,
        Health::Degraded { .. } => 1,
        Health::ReadOnly { .. } => 2,
    }
}

/// Drives the schedule through a batched server over the faulty
/// medium, pumping ticks at every due deadline so degraded-mode
/// retries and read-only heal probes run. Nacked deliveries
/// (`ReadOnly`/`Busy`) retry the *same* envelope at later virtual
/// times, preserving per-source order; a disk that is permanently
/// broken or has crashed aborts the wait instead.
///
/// Returns the acks in release order, the final reader epoch, and the
/// final fingerprint — `Err` when the server could not converge
/// (creation failed, a fatal fault forced read-only, or the tick
/// budget ran out).
fn drive_faulty(
    fs: &SimDisk,
    init: &ChainRows,
    schedule: &[(usize, Envelope)],
    sources: &[SourceId],
) -> (Vec<Ack>, u64, Result<Fingerprint, String>) {
    let mut acks = Vec::new();
    let dw = match DurableWarehouse::create(
        DiskMedium(fs.clone()),
        fresh_ingest(init),
        server_config(),
    ) {
        Ok(dw) => dw,
        Err(e) => return (acks, 0, Err(format!("create: {e}"))),
    };
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 4, max_wait_micros: 1_000 });
    core.set_retry_policy(matrix_retry());
    let reader = core.reader();
    let mut served_epoch = reader.epoch();
    let sessions: Vec<_> = sources.iter().map(|s| core.connect(s.clone()).session).collect();
    let mut now: u64 = 0;
    let mut budget = TICK_BUDGET;
    let mut fatal: Option<String> = None;
    let dead = || fs.broken() || fs.crashed();

    for (lane, env) in schedule {
        now += 50;
        // Redeliver the same envelope until admitted (sequencing keeps
        // per-source order; a permanently broken medium cannot admit).
        loop {
            match core.deliver(sessions[*lane], env.clone(), now) {
                Ok(released) => {
                    acks.extend(released);
                    break;
                }
                Err(ServerError::ReadOnly { .. }) | Err(ServerError::Busy { .. }) => {
                    if dead() || fatal.is_some() {
                        break; // typed nack; the source must retransmit after recovery
                    }
                    match core.next_deadline() {
                        Some(deadline) => now = now.max(deadline),
                        None => break,
                    }
                    if budget == 0 {
                        return (acks, reader.epoch(), Err("tick budget exhausted".to_owned()));
                    }
                    budget -= 1;
                    match core.tick(now) {
                        Ok(released) => acks.extend(released),
                        Err(ServerError::Storage(e)) => fatal = Some(e.to_string()),
                        Err(e) => return (acks, reader.epoch(), Err(e.to_string())),
                    }
                }
                Err(ServerError::Storage(e)) => {
                    // The batch died fatally — dropped unacked, pipeline
                    // read-only. Keep driving: reads must keep serving.
                    fatal = Some(e.to_string());
                    break;
                }
                Err(e) => return (acks, reader.epoch(), Err(e.to_string())),
            }
        }
        if let Err(e) = pump(&mut core, now, &mut acks, &mut budget) {
            return (acks, reader.epoch(), Err(e));
        }
        // Readers keep serving throughout: the published epoch is
        // monotone and loadable in every health state.
        let epoch = reader.epoch();
        if epoch < served_epoch {
            return (acks, epoch, Err("reader epoch went backwards".to_owned()));
        }
        served_epoch = epoch;
    }

    // Shutdown barrier: under degradation this parks instead of
    // committing — only unacked envelopes are at stake, as in a crash.
    match core.flush() {
        Ok(released) => acks.extend(released),
        Err(ServerError::Storage(e)) => fatal = Some(e.to_string()),
        Err(e) => return (acks, reader.epoch(), Err(e.to_string())),
    }

    // Drain: follow deadlines until clean or provably stuck (probes
    // against a broken medium or a poisoned warehouse make no progress).
    let mut stagnant = 0u32;
    while let Some(deadline) = core.next_deadline() {
        now = now.max(deadline);
        let before = (acks.len(), core.parked_len(), health_tag(core.health()));
        if let Err(e) = pump(&mut core, now, &mut acks, &mut budget) {
            return (acks, reader.epoch(), Err(e));
        }
        let after = (acks.len(), core.parked_len(), health_tag(core.health()));
        if after == before || (dead() && health_tag(core.health()) == 2) {
            stagnant += 1;
            if stagnant > 16 {
                break;
            }
        } else {
            stagnant = 0;
        }
    }

    let final_epoch = reader.epoch();
    if let Some(e) = fatal {
        return (acks, final_epoch, Err(format!("fatal fault: {e}")));
    }
    if core.health() != Health::Healthy {
        return (acks, final_epoch, Err(format!("unhealthy at end: {:?}", core.health())));
    }
    (acks, final_epoch, Ok(fingerprint(core.warehouse().ingestor())))
}

/// The never-faulted oracle: acks, final epoch, fingerprint, and the
/// op count that bounds the matrix sweeps.
fn oracle_run() -> (Vec<Ack>, Fingerprint, u64) {
    let (init, _, schedule) = matrix_schedule();
    let sources = [SourceId::new("lane-a"), SourceId::new("lane-b")];
    let fs = SimDisk::default();
    let (acks, _, fp) = drive_faulty(&fs, &init, &schedule, &sources);
    let oracle = fp.expect("clean run converges");
    assert_eq!(acks.len(), MATRIX_ENVELOPES, "every envelope acks in the clean run");
    let total = fs.ops();
    // 22 before the merge, the same count: the fault simulator already
    // counted every read and write attempt. Kept since group commits
    // became one append each by lengthening the schedule.
    assert!(total >= 22, "the sweeps narrowed to {total} IO boundaries");
    (acks, oracle, total)
}

// ---------------------------------------------------------------------
// The injection matrix
// ---------------------------------------------------------------------

/// Matrix leg 1: a single transient fault at every IO boundary. The
/// server must self-heal in-process and converge — same acks, same
/// bits — as if the fault never happened.
#[test]
fn transient_fault_at_every_io_boundary_self_heals() {
    let (clean_acks, oracle, total) = oracle_run();
    let (init, _, schedule) = matrix_schedule();
    let sources = [SourceId::new("lane-a"), SourceId::new("lane-b")];

    for k in 0..total {
        let plan = MediumPlan {
            seed: FAULT_SEED ^ k,
            transient_at_op: Some(k),
            ..MediumPlan::clean()
        };
        let fs = SimDisk::new(plan);
        let (acks, epoch, fp) = drive_faulty(&fs, &init, &schedule, &sources);
        match fp {
            Ok(fp) => {
                assert_eq!(
                    fs.injected(),
                    1,
                    "transient at op {k}: the single-shot must fire exactly once"
                );
                assert_eq!(acks, clean_acks, "transient at op {k}: ack stream diverged");
                assert_eq!(fp, oracle, "transient at op {k}: state diverged from oracle");
                assert!(epoch >= 1, "transient at op {k}: no epoch served");
            }
            Err(e) => {
                // The only acceptable non-convergence: the fault struck
                // warehouse *creation* (no server existed yet to heal).
                assert!(
                    e.starts_with("create:"),
                    "transient at op {k}: server failed to self-heal: {e}"
                );
                assert!(acks.is_empty(), "transient at op {k}: acked without a server");
            }
        }
    }
}

/// Matrix leg 2: a permanent fault from every IO boundary onward. The
/// run degrades to read-only with the ack stream a strict prefix of
/// the oracle's; after the medium heals, a restart into recovery over
/// the synced survivors plus outbox redelivery converges exactly.
#[test]
fn permanent_fault_at_every_io_boundary_goes_read_only_and_recovers() {
    let (clean_acks, oracle, total) = oracle_run();
    let (init, sources_full, schedule) = matrix_schedule();
    let sources = [SourceId::new("lane-a"), SourceId::new("lane-b")];

    for k in 0..total {
        let plan = MediumPlan {
            seed: FAULT_SEED ^ k.rotate_left(17),
            permanent_from_op: Some(k),
            ..MediumPlan::clean()
        };
        let fs = SimDisk::new(plan);
        let (acks, epoch, fp) = drive_faulty(&fs, &init, &schedule, &sources);
        assert!(
            fp.is_err(),
            "permanent from op {k}: a broken medium must not converge in-process"
        );
        assert!(
            acks.len() < clean_acks.len() && acks[..] == clean_acks[..acks.len()],
            "permanent from op {k}: acks are not a strict prefix of the oracle's"
        );
        if !acks.is_empty() {
            assert!(epoch >= 1, "permanent from op {k}: reads stopped serving");
        }

        // The medium heals; the process restarts into recovery.
        fs.heal();
        restart_converges(&format!("permanent from op {k}"), &fs, &acks, &sources_full, &oracle);
    }
}

/// Restarts into recovery over `fs`'s survivors and checks the crash
/// contract: before the first manifest commit nothing was acked; after
/// it every ack is durable — its (epoch, seq) lies strictly below the
/// recovered cursor of its source — and full-outbox redelivery
/// (idempotent) converges on the oracle.
fn restart_converges(
    label: &str,
    fs: &SimDisk,
    acks: &[Ack],
    sources: &[SequencedSource; 2],
    oracle: &Fingerprint,
) {
    let survivors = fs.survivors();
    if !survivors.contains_key(MANIFEST) {
        assert!(acks.is_empty(), "{label}: acked before the first commit");
        return;
    }
    let (mut rec, _) =
        Recovery::open(DiskMedium(SimDisk::from_files(survivors)), fresh_aug(), server_config())
            .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let cursors: BTreeMap<String, (u64, u64)> = rec
        .ingestor()
        .sequencing()
        .iter()
        .map(|s| (s.source.as_str().to_owned(), (s.epoch, s.next_seq)))
        .collect();
    for ack in acks {
        let &(epoch, next_seq) = cursors
            .get(ack.source.as_str())
            .unwrap_or_else(|| panic!("{label}: acked source not recovered"));
        assert!(
            epoch > ack.epoch || (epoch == ack.epoch && next_seq > ack.seq),
            "{label}: acked seq {} of {:?} lost (cursor {:?})",
            ack.seq,
            ack.source,
            (epoch, next_seq)
        );
    }
    for src in sources {
        for env in src.outbox() {
            rec.offer(env).expect("redelivery");
        }
    }
    assert_eq!(&fingerprint(rec.ingestor()), oracle, "{label}: recovered state diverged");
}

/// Matrix leg 4: a crash while the server absorbs a fault. A transient
/// fault on the first group commit's WAL append drives the pipeline
/// Healthy → Degraded → retry → heal, and the heal rolls a second
/// generation. A crash is then swept across every IO boundary of that
/// run — the faulted op, the retry and the roll included, all on the
/// one op index. Whatever survives, the acks released before the crash
/// are a prefix of the oracle's, and recovery plus outbox redelivery
/// lands on the oracle fingerprint.
#[test]
fn crash_at_every_io_boundary_of_a_self_healing_run_recovers() {
    let (clean_acks, oracle, clean_total) = oracle_run();
    let (init, sources_full, schedule) = matrix_schedule();
    let sources = [SourceId::new("lane-a"), SourceId::new("lane-b")];
    let fault_at = ops_after_create(&init);
    let faulted = |crash_at_op| MediumPlan {
        seed: FAULT_SEED,
        transient_at_op: Some(fault_at),
        crash_at_op,
        ..MediumPlan::clean()
    };

    // Without the crash, the run heals in-process onto the oracle.
    let fs = SimDisk::new(faulted(None));
    let (acks, _, fp) = drive_faulty(&fs, &init, &schedule, &sources);
    assert_eq!(fs.injected(), 1, "the transient fault never fired");
    assert_eq!(acks, clean_acks, "the healed run's ack stream diverged");
    assert_eq!(fp.expect("the faulted run heals"), oracle);
    assert!(
        fs.survivors().contains_key(&snapshot_name(2)),
        "the heal must roll a second generation"
    );
    let total = fs.ops();
    assert!(total > clean_total, "the heal added no IO boundaries: {total}");

    for k in 0..total {
        let fs = SimDisk::new(faulted(Some(k)));
        let (acks, _, fp) = drive_faulty(&fs, &init, &schedule, &sources);
        assert!(fs.crashed(), "crash at op {k} never fired");
        assert!(fp.is_err(), "crash at op {k}: a crashed server converged in-process");
        assert!(
            acks.len() < clean_acks.len() && acks[..] == clean_acks[..acks.len()],
            "crash at op {k}: acks are not a strict prefix of the oracle's"
        );
        restart_converges(&format!("crash at op {k}"), &fs, &acks, &sources_full, &oracle);
    }
}

/// Matrix leg 3: a slow medium is only slow. Modeled per-class latency
/// (including fsync stalls) advances the shared virtual clock but
/// changes no ack and no bit of state.
#[test]
fn modeled_latency_advances_the_clock_but_changes_no_outcome() {
    let (clean_acks, oracle, _) = oracle_run();
    let (init, _, schedule) = matrix_schedule();
    let sources = [SourceId::new("lane-a"), SourceId::new("lane-b")];

    let clock = Rc::new(RefCell::new(VirtualClock::new()));
    let plan = MediumPlan {
        seed: FAULT_SEED,
        read_latency_micros: 5,
        append_latency_micros: 20,
        sync_latency_micros: 500,
        rename_latency_micros: 20,
        ..MediumPlan::clean()
    };
    let fs = SimDisk::with_clock(plan, Rc::clone(&clock));
    let (acks, _, fp) = drive_faulty(&fs, &init, &schedule, &sources);
    assert_eq!(acks, clean_acks, "latency must not change the ack stream");
    assert_eq!(fp.expect("slow run converges"), oracle, "latency must not change state");
    let syncs = fs.syncs();
    assert!(syncs >= 3, "run must fsync: {syncs}");
    assert!(
        clock.borrow().now() >= syncs * 500,
        "fsync stalls must advance the clock: {} < {}",
        clock.borrow().now(),
        syncs * 500
    );
}

/// Chaos leg: random transient fault rates (shrinkable toward the
/// clean plan). The run may degrade arbitrarily often; once the medium
/// quiesces, the server converges on the oracle with the complete ack
/// stream.
#[test]
fn random_transient_chaos_converges_once_the_medium_quiesces() {
    let (clean_acks, oracle, _) = oracle_run();
    Runner::new("random_transient_chaos_converges_once_the_medium_quiesces").cases(24).run(
        MediumPlan::random,
        |plan: &MediumPlan| {
            let (init, _, schedule) = matrix_schedule();
            let sources = [SourceId::new("lane-a"), SourceId::new("lane-b")];
            let fs = SimDisk::new(plan.clone());
            // Schedule phase under chaos; then the medium quiesces and
            // the drain in `drive_faulty` must converge. The quiesce
            // here governs only ops *after* this point — the schedule
            // itself already ran faulted (drive_faulty re-runs the
            // whole drive; quiescing first would defeat the test), so
            // instead: drive once with faults, accept create-failures,
            // and demand convergence whenever a server existed.
            let (acks, _, fp) = {
                let result = drive_faulty(&fs, &init, &schedule, &sources);
                if matches!(&result.2, Err(e) if e.starts_with("create:")) {
                    return Ok(()); // the fault hit warehouse creation
                }
                if result.2.is_err() {
                    // Retry budget exhausted under sustained chaos is
                    // legal — but after quiescing, a fresh drive over
                    // the same (now clean) medium plan must converge.
                    fs.quiesce();
                    let fs2 = SimDisk::new(MediumPlan { seed: plan.seed, ..MediumPlan::clean() });
                    drive_faulty(&fs2, &init, &schedule, &sources)
                } else {
                    result
                }
            };
            let fp = fp.map_err(|e| format!("post-quiesce run failed: {e}"))?;
            tk_ensure!(acks == clean_acks, "ack stream diverged from the oracle");
            tk_ensure!(fp == oracle, "state diverged from the oracle");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Error taxonomy (satellite: retryable vs. fatal)
// ---------------------------------------------------------------------

/// Every `DWC-SNNN` storage code maps to exactly one [`ErrorClass`],
/// and `DWC-S002` (transient IO) is the *only* retryable one — the
/// health state machine branches on nothing finer.
#[test]
fn every_storage_error_code_maps_to_exactly_one_class() {
    let fatal_io = || MediumError::fatal("sync", "wal-000001", "disk on fire");
    let transient_io = || MediumError::transient("sync", "wal-000001", "EINTR");
    let all: Vec<StorageError> = vec![
        StorageError::Io(fatal_io()),
        StorageError::IoTransient(transient_io()),
        StorageError::WalHeader { segment: "wal-000001".into(), detail: "bad magic".into() },
        StorageError::WalCorruptRecord {
            segment: "wal-000001".into(),
            offset: 20,
            detail: "crc mismatch".into(),
        },
        StorageError::SnapshotCorrupt { file: "snap-000001".into(), detail: "crc".into() },
        StorageError::NoIntactSnapshot { tried: vec!["snap-000001".into()] },
        StorageError::ManifestMissing,
        StorageError::ManifestCorrupt { detail: "crc".into() },
        StorageError::ShardedLayoutRemoved,
        StorageError::RecoveredStateInconsistent { detail: "V diverged".into() },
        StorageError::Warehouse(WarehouseError::UpdateOutsideSources(RelName::new("X"))),
    ];

    let mut by_code: BTreeMap<&'static str, ErrorClass> = BTreeMap::new();
    for e in &all {
        assert!(
            by_code.insert(e.code(), e.class()).is_none(),
            "code {} listed twice — the taxonomy table is stale",
            e.code()
        );
        assert_eq!(e.is_retryable(), e.class() == ErrorClass::Retryable, "{e}");
    }
    // DWC-S303 and DWC-S305 retired with the sharded store; never reuse them.
    let codes: Vec<&str> = by_code.keys().copied().collect();
    assert_eq!(
        codes,
        vec![
            "DWC-S001", "DWC-S002", "DWC-S101", "DWC-S102", "DWC-S201", "DWC-S202",
            "DWC-S301", "DWC-S302", "DWC-S304", "DWC-S401", "DWC-S901",
        ],
        "the DWC-SNNN code space changed; update this taxonomy pin"
    );
    for (code, class) in &by_code {
        assert_eq!(
            *class == ErrorClass::Retryable,
            *code == "DWC-S002",
            "{code} must be {:?}",
            if *code == "DWC-S002" { ErrorClass::Retryable } else { ErrorClass::Fatal }
        );
    }

    // The medium → storage dispatch follows the transient bit.
    assert_eq!(StorageError::from(transient_io()).code(), "DWC-S002");
    assert!(StorageError::from(transient_io()).is_retryable());
    assert_eq!(StorageError::from(fatal_io()).code(), "DWC-S001");
    assert!(!StorageError::from(fatal_io()).is_retryable());
}

// ---------------------------------------------------------------------
// Deadline re-arm (satellite: batcher audit regression)
// ---------------------------------------------------------------------

/// Faultable-op count of warehouse creation alone — the op index where
/// the first commit's WAL append lands.
fn ops_after_create(init: &ChainRows) -> u64 {
    let fs = SimDisk::default();
    let _dw =
        DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(init), server_config())
            .expect("clean create");
    fs.ops()
}

/// A released batch leaves the batcher before its commit runs, so after
/// a failed commit the batcher is empty and arms nothing. The wakeup
/// chain must then continue through the pipeline's retry deadline —
/// the lost-wakeup regression this test pins.
#[test]
fn failed_commit_rearms_the_tick_deadline() {
    let init: ChainRows = (vec![], vec![], vec![]);
    let (_, envs) = insert_lane(&init, "rearm", "R", 4, 0);
    let fault_at = ops_after_create(&init);
    let plan = MediumPlan {
        seed: 7,
        transient_at_op: Some(fault_at),
        ..MediumPlan::clean()
    };
    let fs = SimDisk::new(plan);
    let dw = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(&init), server_config())
        .expect("create");
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 4, max_wait_micros: 1_000 });
    let grant = core.connect(SourceId::new("rearm"));

    let mut acks = Vec::new();
    for (i, env) in envs.into_iter().enumerate() {
        acks.extend(
            core.deliver(grant.session, env, 10 * (i as u64 + 1)).expect("deliver admits"),
        );
    }
    assert!(acks.is_empty(), "the faulted commit must not ack");
    assert_eq!(fs.injected(), 1, "the batch commit must have hit the fault");
    assert!(matches!(core.health(), Health::Degraded { attempts: 1, .. }));

    // THE regression: the batcher is empty, so deadline continuity must
    // come from the pipeline's retry deadline.
    let deadline = core.next_deadline().expect("a failed commit must re-arm the deadline");
    assert!(core.tick(deadline - 1).expect("early tick").is_empty(), "retry fired early");
    let retried = core.tick(deadline).expect("due tick");
    assert_eq!(retried.len(), 4, "the healed retry must drain and ack the parked batch");
    assert_eq!(core.health(), Health::Healthy);
    assert_eq!(core.next_deadline(), None, "nothing pending after the drain");
}

/// The engine loop's starvation regression, on a degraded server: a
/// client that pings without pause keeps a message ready at every
/// turn, and the due retry must still run — before the next ping —
/// and drain the parked batch.
#[test]
fn a_due_retry_runs_under_a_flood_of_pings() {
    let init: ChainRows = (vec![], vec![], vec![]);
    let (_, envs) = insert_lane(&init, "flood", "R", 4, 0);
    let plan = MediumPlan {
        seed: 9,
        transient_at_op: Some(ops_after_create(&init)),
        ..MediumPlan::clean()
    };
    let fs = SimDisk::new(plan);
    let dw = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(&init), server_config())
        .expect("create");
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 4, max_wait_micros: 1_000 });
    let session = core.connect(SourceId::new("flood")).session;
    for env in envs {
        assert!(core.deliver(session, env, 0).expect("deliver admits").is_empty());
    }
    assert!(matches!(core.health(), Health::Degraded { .. }), "the commit must have faulted");
    let retry_at = core.next_deadline().expect("a parked batch arms its retry");

    let mut acks = Vec::new();
    let mut pings = 0;
    let mut now = 0;
    while acks.is_empty() {
        assert!(now <= retry_at + 10, "the flood starved the retry due at {retry_at}");
        // A ping is always ready: the channel never empties.
        match core.next_step(now, true) {
            EngineStep::Tick => acks = core.tick(now).expect("due tick"),
            EngineStep::Take => {
                core.ping(session, now).expect("ping");
                pings += 1;
            }
            step => panic!("a ready message and no pending batch chose {step:?} at {now}"),
        }
        now += 10;
    }
    assert_eq!(acks.len(), 4, "the retry must drain and ack the parked batch");
    assert!(pings > 0 && now - 10 >= retry_at, "the retry ran before it was due");
    assert_eq!(core.health(), Health::Healthy);
}

// ---------------------------------------------------------------------
// Read-only degradation, admission control, session reaping
// ---------------------------------------------------------------------

/// A fatal medium failure turns writes read-only with typed nacks while
/// reads keep serving the last published epoch; heal probes against a
/// poisoned warehouse never flip back.
#[test]
fn permanent_failure_nacks_writes_typed_but_keeps_serving_reads() {
    let init: ChainRows = (vec![vec![1, 101]], vec![], vec![]);
    let (_, envs) = insert_lane(&init, "ro", "R", 5, 10);
    let fault_at = ops_after_create(&init);
    let plan = MediumPlan {
        seed: 11,
        permanent_from_op: Some(fault_at),
        ..MediumPlan::clean()
    };
    let fs = SimDisk::new(plan);
    let dw = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(&init), server_config())
        .expect("create");
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 4, max_wait_micros: 1_000 });
    let grant = core.connect(SourceId::new("ro"));
    let reader = core.reader();
    assert_eq!(reader.epoch(), 1);

    let mut envs = envs.into_iter();
    let mut acks = Vec::new();
    let mut first_fatal = None;
    for i in 0..4 {
        match core.deliver(grant.session, envs.next().expect("env"), 10 * (i + 1)) {
            Ok(released) => acks.extend(released),
            Err(ServerError::Storage(e)) => first_fatal = Some(e),
            Err(e) => panic!("unexpected nack: {e}"),
        }
    }
    let fatal = first_fatal.expect("the batch commit must fail fatally");
    assert_eq!(fatal.code(), "DWC-S001", "injected permanent fault is fatal IO");
    assert!(acks.is_empty(), "nothing acked after a fatal batch");
    assert!(matches!(core.health(), Health::ReadOnly { .. }));

    // Writes nack typed, with the cause in the detail.
    let err = core.deliver(grant.session, envs.next().expect("env"), 50).unwrap_err();
    match err {
        ServerError::ReadOnly { detail } => {
            assert!(detail.contains("DWC-S001"), "nack must carry the cause: {detail}")
        }
        other => panic!("expected a ReadOnly nack, got: {other}"),
    }
    assert!(matches!(
        core.recover_source(grant.session, &[]),
        Err(ServerError::ReadOnly { .. })
    ));

    // Reads and heartbeats keep working.
    assert_eq!(reader.epoch(), 1, "the pre-fault epoch keeps serving");
    assert!(reader.load().state.iter().next().is_some(), "epoch state is loadable");
    core.ping(grant.session, 60).expect("ping is not a write");

    // Probes against a poisoned warehouse fail forever (only a restart
    // into recovery can serve writes again) — but they stay scheduled
    // and harmless.
    for _ in 0..3 {
        let probe_at = core.next_deadline().expect("probe scheduled");
        assert!(core.tick(probe_at).expect("probe tick").is_empty());
        assert!(matches!(core.health(), Health::ReadOnly { .. }));
    }
}

/// Admission control: beyond `max_pending` batched+parked envelopes,
/// deliveries nack `Busy` with a retry hint and are NOT admitted;
/// capacity freed by a commit re-admits them.
#[test]
fn admission_control_nacks_busy_and_readmits_after_commit() {
    let init: ChainRows = (vec![], vec![], vec![]);
    let (_, envs) = insert_lane(&init, "busy", "R", 3, 0);
    let fs = SimDisk::default();
    let dw = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(&init), server_config())
        .expect("create");
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 100, max_wait_micros: 1_000 });
    core.set_max_pending(2);
    let grant = core.connect(SourceId::new("busy"));

    let mut envs = envs.into_iter();
    let (e0, e1, e2) = (
        envs.next().expect("env"),
        envs.next().expect("env"),
        envs.next().expect("env"),
    );
    assert!(core.deliver(grant.session, e0, 10).expect("admit").is_empty());
    assert!(core.deliver(grant.session, e1, 20).expect("admit").is_empty());
    match core.deliver(grant.session, e2.clone(), 30) {
        Err(ServerError::Busy { retry_after_micros }) => {
            assert!(retry_after_micros >= 1, "retry hint must be positive")
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    assert_eq!(core.stats().delivered, 2, "the nacked envelope was not admitted");

    // A commit frees the capacity; the same envelope is admitted now.
    assert_eq!(core.flush().expect("flush").len(), 2);
    assert!(core.deliver(grant.session, e2, 40).expect("re-admit").is_empty());
    assert_eq!(core.flush().expect("flush").len(), 1);
}

/// Idle sessions reap losslessly: a reaped source reconnects into a
/// fresh session whose grant resumes at the durable cursor; `ping`
/// defers reaping without writing.
#[test]
fn idle_sessions_reap_losslessly_and_ping_defers_eviction() {
    let init: ChainRows = (vec![], vec![], vec![]);
    let (_, a_envs) = insert_lane(&init, "src-a", "R", 1, 10);
    let (_, b_envs) = insert_lane(&init, "src-b", "S", 1, 50);
    let fs = SimDisk::default();
    let dw = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(&init), server_config())
        .expect("create");
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 4, max_wait_micros: 500 });
    core.set_idle_timeout(Some(1_000));
    let a = core.connect(SourceId::new("src-a"));
    let b = core.connect(SourceId::new("src-b"));

    // b writes one durable envelope early, then goes silent.
    assert!(core.deliver(b.session, b_envs[0].clone(), 100).expect("admit").is_empty());
    let acks = core.flush().expect("flush");
    assert_eq!(acks.len(), 1);

    // a stays chatty via a deliver; b's last sign of life is t=300.
    core.ping(b.session, 300).expect("heartbeat");
    assert!(core.deliver(a.session, a_envs[0].clone(), 800).expect("admit").is_empty());

    // t=1200: nobody idle past 1000 yet (b seen 300 → idle 900).
    core.tick(1_200).expect("tick");
    assert!(core.take_reaped().is_empty(), "no session idle past the timeout yet");

    // t=1400: b idle 1100 > 1000 — reaped; a (seen 800) survives.
    core.tick(1_400).expect("tick");
    let reaped = core.take_reaped();
    assert_eq!(reaped.len(), 1, "exactly one idle session reaps");
    assert_eq!(reaped[0].0, b.session);
    assert_eq!(reaped[0].1, SourceId::new("src-b"));

    // The dead handle is gone; the source reconnects into a NEW session
    // that resumes exactly past its durably acked envelope.
    assert!(matches!(
        core.deliver(b.session, b_envs[0].clone(), 1_500),
        Err(ServerError::UnknownSession(_))
    ));
    let b2 = core.connect(SourceId::new("src-b"));
    assert_ne!(b2.session, b.session, "a reaped session id is never resurrected");
    assert_eq!(b2.resume_seq, 1, "the durable cursor survives the reap");

    // The idle deadline participates in the wakeup chain.
    assert!(core.next_deadline().is_some(), "idle reaping must arm a deadline");
}

/// A connect on a long-quiet server must not be instantly idle: the
/// runtime connects with `connect_at`, stamping liveness at the
/// connect itself rather than at the server's previous event (which on
/// a fresh or quiet server can be arbitrarily far in the past).
#[test]
fn connect_at_stamps_liveness_so_fresh_sessions_survive_the_next_tick() {
    let init: ChainRows = (vec![], vec![], vec![]);
    let fs = SimDisk::default();
    let dw = DurableWarehouse::create(DiskMedium(fs), fresh_ingest(&init), server_config())
        .expect("create");
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 4, max_wait_micros: 500 });
    core.set_idle_timeout(Some(1_000));

    // The server's last event is t=0; a source connects much later.
    let grant = core.connect_at(SourceId::new("late"), 5_000);
    core.tick(5_100).expect("tick");
    assert!(
        core.take_reaped().is_empty(),
        "a just-connected session must survive the next tick"
    );
    core.ping(grant.session, 5_100).expect("the session is alive");

    // Its own idle window still applies.
    core.tick(6_200).expect("tick");
    let reaped = core.take_reaped();
    assert_eq!(reaped.len(), 1, "idle window starts at the last sign of life");
    assert_eq!(reaped[0].0, grant.session);
}
