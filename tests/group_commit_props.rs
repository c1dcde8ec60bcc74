//! Group-commit durability properties: exact fsync accounting, crash
//! loss bounds, and durable quarantine triage.
//!
//! The group-commit contract under test, end to end over the
//! simulated disk:
//!
//! * **Amortization is exact** — K envelopes through a batch cap of B
//!   cost exactly ⌈K/B⌉ fsyncs, counted three independent ways (the
//!   warehouse's own `wal_syncs` and `group_commits` counters and the
//!   [`SimDisk`] sync meter), and acks are released exactly at the
//!   deliveries whose batch fsynced — never before.
//! * **A crash loses only unacked envelopes** — killing the process at
//!   every IO boundary of a batched run, every ack released before the
//!   crash names an envelope the recovered warehouse still holds, and
//!   outbox redelivery converges bit-identically to the never-crashed
//!   oracle. The acks themselves are always a prefix of the clean run's.
//! * **Quarantine triage is durable** — requeue/discard decisions taken
//!   through the server's commit path are WAL records (`Requeued`,
//!   `Discarded`) that recovery replays to the identical state.
//! * **Slicing is invisible** — a group commit maintains its batch in
//!   one pass over the batch's net delta, so *how* a hostile arrival
//!   stream is cut into batches (and how recovery regroups the WAL) must
//!   not show: every partition yields the per-envelope outcome stream,
//!   the per-envelope fingerprint and counters, and `W(u(d))`.

mod common;

use std::collections::BTreeMap;

use common::{chain_catalog, chain_state, relation_from, ChainRows, DiskMedium};
use dwc_testkit::prop::Runner;
use dwc_testkit::sched::{sched_seeds, Interleaver};
use dwc_testkit::{tk_ensure, tk_ensure_eq, MediumPlan, SimDisk, SplitMix64};
use dwcomplements::relalg::{io, DbState, Delta, RelName, Update};
use dwcomplements::warehouse::channel::{Envelope, SequencedSource, SourceId};
use dwcomplements::warehouse::ingest::{
    IngestConfig, IngestOutcome, IngestStats, IngestingIntegrator,
};
use dwcomplements::warehouse::integrator::{Integrator, SourceSite};
use dwcomplements::warehouse::server::{Ack, AckOutcome, BatchPolicy, ServerCore};
use dwcomplements::warehouse::{
    AugmentedWarehouse, DurabilityConfig, DurableWarehouse, Recovery,
    WarehouseSpec,
};

/// The pinned seed of the crash sweep; `verify.sh` step 9 replays it.
const GROUP_SEED: u64 = 0x6C0B_0006_F57C_ACC7;

/// The pinned seed of the slicing differential; `verify.sh` step 15
/// replays it and step 9's `DWC_SCHED_SEEDS` sweep widens it.
const SLICE_SEED: u64 = 0x511C_E500_20DE_17A5;

/// The manifest file name (the on-disk name is part of the documented
/// format; `storage` keeps the constant crate-private).
const MANIFEST: &str = "MANIFEST";

// ---------------------------------------------------------------------
// Rig
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

/// The server configuration: per-append fsync OFF — the single group
/// fsync per batch is the only durability point, which is exactly what
/// the accounting below pins down.
fn server_config() -> DurabilityConfig {
    DurabilityConfig {
        sync_every_append: false,
        retain_generations: 2,
        snapshot_every: None,
        verify_on_open: true,
    }
}

/// A lane of `count` distinct single-row inserts into `rel` from one
/// sequenced source (`salt` keeps multi-lane rows disjoint).
fn insert_lane(
    init: &ChainRows,
    name: &str,
    rel: &str,
    count: usize,
    salt: i64,
) -> (SequencedSource, Vec<Envelope>) {
    let site = SourceSite::new(chain_catalog(), chain_state(init)).expect("site");
    let mut src = SequencedSource::new(name, site);
    let attrs: &[&str] = if rel == "T" { &["c"] } else if rel == "R" { &["a", "b"] } else { &["b", "c"] };
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

/// The bit-identical claim: canonical relation encodings + sequencing +
/// quarantine content.
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

// ---------------------------------------------------------------------
// Fsync accounting
// ---------------------------------------------------------------------

/// K envelopes through batch cap B cost exactly ⌈K/B⌉ fsyncs — agreed
/// on by the warehouse counters and the simulated disk — and acks are
/// released exactly at fsync points, B at a time.
#[test]
fn group_commit_fsync_accounting_is_exact() {
    Runner::new("group_commit_fsync_accounting_is_exact").cases(48).run(
        |rng| (rng.index(25), 1 + rng.index(8)),
        |&(k, max_batch): &(usize, usize)| {
            let init: ChainRows = (vec![], vec![], vec![]);
            let (_, envs) = insert_lane(&init, "acct", "R", k, 0);
            let fs = SimDisk::default();
            let dw = DurableWarehouse::create(
                DiskMedium(fs.clone()),
                fresh_ingest(&init),
                server_config(),
            )
            .map_err(|e| e.to_string())?;
            let base = fs.syncs();
            let mut core = ServerCore::new(
                dw,
                BatchPolicy { max_batch, max_wait_micros: 1_000_000 },
            );
            let grant = core.connect(SourceId::new("acct"));

            let mut acked = 0usize;
            for env in envs {
                let before = fs.syncs();
                let released =
                    core.deliver(grant.session, env, 0).map_err(|e| e.to_string())?;
                if released.is_empty() {
                    tk_ensure!(
                        fs.syncs() == before,
                        "the disk synced but no acks were released"
                    );
                } else {
                    // An ack release IS a group commit: exactly one
                    // fsync, exactly one full batch.
                    tk_ensure_eq!(fs.syncs(), before + 1);
                    tk_ensure_eq!(released.len(), max_batch);
                }
                acked += released.len();
            }
            let before = fs.syncs();
            let tail = core.flush().map_err(|e| e.to_string())?;
            tk_ensure_eq!(fs.syncs(), before + u64::from(!tail.is_empty()));
            acked += tail.len();

            let expected = k.div_ceil(max_batch) as u64;
            tk_ensure_eq!(acked, k);
            let storage = core.warehouse().storage_stats();
            tk_ensure_eq!(storage.group_commits, expected);
            tk_ensure_eq!(storage.wal_syncs, expected);
            tk_ensure_eq!(fs.syncs() - base, expected);
            tk_ensure_eq!(core.stats().batches_committed, expected);
            Ok(())
        },
    );
}

/// The bench claim, deterministically: at K=64 acked envelopes, batch 16
/// issues 16× fewer fsyncs than batch 1 — comfortably past the ≥5×
/// acceptance line that `benches/server.rs` measures as throughput.
#[test]
fn batch_sixteen_amortizes_fsyncs_at_least_fivefold() {
    let init: ChainRows = (vec![], vec![], vec![]);
    let syncs_at = |max_batch: usize| -> u64 {
        let (_, envs) = insert_lane(&init, "bench", "R", 64, 0);
        let fs = SimDisk::default();
        let dw =
            DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(&init), server_config())
                .expect("create");
        let base = fs.syncs();
        let mut core = ServerCore::new(dw, BatchPolicy { max_batch, max_wait_micros: 1_000_000 });
        let grant = core.connect(SourceId::new("bench"));
        let mut acked = 0;
        for env in envs {
            acked += core.deliver(grant.session, env, 0).expect("deliver").len();
        }
        acked += core.flush().expect("flush").len();
        assert_eq!(acked, 64);
        fs.syncs() - base
    };
    let single = syncs_at(1);
    let batched = syncs_at(16);
    assert_eq!(single, 64);
    assert_eq!(batched, 4);
    assert!(
        single >= 5 * batched,
        "batch=16 must amortize ≥5×: {single} vs {batched} fsyncs"
    );
}

// ---------------------------------------------------------------------
// Crash loss bounds
// ---------------------------------------------------------------------

/// Drives the fixed two-lane schedule through a batched server over
/// `fs`, returning the acks released before any storage failure and the
/// final fingerprint if the run survived.
fn drive(
    fs: &SimDisk,
    init: &ChainRows,
    schedule: &[(usize, Envelope)],
    source_of_lane: &[SourceId],
) -> (Vec<Ack>, Result<Fingerprint, String>) {
    let mut acks = Vec::new();
    let dw = match DurableWarehouse::create(
        DiskMedium(fs.clone()),
        fresh_ingest(init),
        server_config(),
    ) {
        Ok(dw) => dw,
        Err(e) => return (acks, Err(e.to_string())),
    };
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 4, max_wait_micros: 1_000_000 });
    let sessions: Vec<_> =
        source_of_lane.iter().map(|s| core.connect(s.clone()).session).collect();
    for (lane, env) in schedule {
        match core.deliver(sessions[*lane], env.clone(), 0) {
            Ok(released) => acks.extend(released),
            Err(e) => return (acks, Err(e.to_string())),
        }
    }
    match core.flush() {
        Ok(released) => acks.extend(released),
        Err(e) => return (acks, Err(e.to_string())),
    }
    (acks, Ok(fingerprint(core.warehouse().ingestor())))
}

/// THE crash acceptance property for the server: kill the process at
/// every IO boundary of a group-committed two-source run. The
/// acks released before the crash are a prefix of the clean run's, every
/// acked envelope survives recovery, and full-outbox redelivery lands
/// bit-identically on the never-crashed oracle.
#[test]
fn kill_mid_batch_loses_only_unacked_envelopes() {
    let init: ChainRows = (vec![vec![1, 101]], vec![vec![101, 201]], vec![]);
    // Eight batches of four, the last one partial: a group commit is
    // one append and one sync, so this many keep the sweep as wide as
    // when every frame was its own append.
    let (src_a, lane_a) = insert_lane(&init, "lane-a", "R", 15, 10);
    let (src_b, lane_b) = insert_lane(&init, "lane-b", "S", 14, 50);
    let sources = [src_a.id().clone(), src_b.id().clone()];
    let schedule =
        Interleaver::new(GROUP_SEED).merge(vec![lane_a.clone(), lane_b.clone()]);

    let clean_fs = SimDisk::default();
    let (clean_acks, clean_fp) = drive(&clean_fs, &init, &schedule, &sources);
    let oracle = clean_fp.expect("never-crashed run");
    assert_eq!(clean_acks.len(), 29, "every envelope must be acked in the clean run");
    let total_ops = clean_fs.ops();
    // 22 before the merge, when only mutating operations were counted.
    assert!(total_ops >= 22, "the sweep narrowed to {total_ops} IO boundaries");

    for k in 0..total_ops {
        let torn_seed = GROUP_SEED ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fs = SimDisk::new(MediumPlan::crash_at(k, torn_seed));
        let (acks, result) = drive(&fs, &init, &schedule, &sources);
        assert!(result.is_err(), "crash at op {k} surfaced no error");
        assert!(fs.crashed(), "crash plan at op {k} never fired");

        // Determinism: the crashed run's acks are exactly a prefix of
        // the clean run's — a crash can truncate the ack stream, never
        // alter or reorder it.
        assert!(
            acks.len() <= clean_acks.len() && acks[..] == clean_acks[..acks.len()],
            "crash at op {k}: acks diverged from the clean prefix"
        );

        let survivors = fs.survivors();
        if !survivors.contains_key(MANIFEST) {
            assert!(acks.is_empty(), "crash at op {k}: acked before the first commit");
            let err = Recovery::open(
                DiskMedium(SimDisk::from_files(survivors)),
                fresh_aug(),
                server_config(),
            )
            .expect_err("no manifest yet recovery succeeded");
            assert_eq!(err.code(), "DWC-S301", "crash at op {k}: {err}");
            continue;
        }
        let (mut rec, _) = Recovery::open(
            DiskMedium(SimDisk::from_files(survivors)),
            fresh_aug(),
            server_config(),
        )
        .unwrap_or_else(|e| panic!("crash at op {k}: recovery failed: {e}"));

        // Ack ⇒ durable: every acked (epoch, seq) lies strictly below
        // the recovered cursor of its source.
        let cursors: BTreeMap<String, (u64, u64)> = rec
            .ingestor()
            .sequencing()
            .iter()
            .map(|s| (s.source.as_str().to_owned(), (s.epoch, s.next_seq)))
            .collect();
        for ack in &acks {
            assert!(ack.outcome.is_durable(), "crash at op {k}: non-durable ack {ack:?}");
            let &(epoch, next_seq) = cursors
                .get(ack.source.as_str())
                .unwrap_or_else(|| panic!("crash at op {k}: acked source not recovered"));
            assert!(
                epoch > ack.epoch || (epoch == ack.epoch && next_seq > ack.seq),
                "crash at op {k}: acked seq {} of {:?} lost (cursor {:?})",
                ack.seq,
                ack.source,
                (epoch, next_seq)
            );
        }

        // Redeliver both full outboxes (idempotent) and converge.
        for src in [&src_a, &src_b] {
            for env in src.outbox() {
                rec.offer(env).expect("redelivery");
            }
        }
        let fp = fingerprint(rec.ingestor());
        assert_eq!(fp, oracle, "crash at op {k}: recovered state diverged");
    }
}

// ---------------------------------------------------------------------
// Durable quarantine triage
// ---------------------------------------------------------------------

/// Requeue and discard through the server's commit path are durable WAL
/// records: a recovery replays the whole triage session — including the
/// epoch-publication pattern — to the bit-identical state.
#[test]
fn durable_quarantine_triage_replays_identically() {
    let init: ChainRows = (vec![vec![1, 10]], vec![vec![10, 100]], vec![]);
    let (_, envs) = insert_lane(&init, "triage", "R", 5, 30);
    // A corrupted copy of seq 3 — the next seq the cursor waits for
    // (dedup precedes validation, so a corrupt copy of an *applied* seq
    // would merely be a duplicate; garbage at the live cursor is the
    // case that must quarantine without wedging the sequence).
    let mut bad = envs[3].clone();
    bad.report = Update::inserting("Ghost", relation_from(&["x"], &[vec![1]]));

    let fs = SimDisk::default();
    // Per-append sync ON here: triage records are single-record logs,
    // and the recovery comparison below reads the synced survivor view.
    let config = DurabilityConfig { sync_every_append: true, ..server_config() };
    let dw = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(&init), config)
        .expect("create");
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 4, max_wait_micros: 1_000_000 });
    let grant = core.connect(SourceId::new("triage"));

    // One full batch ending in the corrupt delivery: the good envelopes
    // apply, the garbage is acked as quarantined (a reported outcome —
    // NOT a durable application).
    let mut acks = Vec::new();
    for env in [envs[0].clone(), envs[1].clone(), envs[2].clone(), bad] {
        acks.extend(core.deliver(grant.session, env, 0).expect("deliver"));
    }
    assert_eq!(acks.len(), 4, "batch of four must commit on the fourth");
    for ack in &acks[..3] {
        assert!(matches!(ack.outcome, AckOutcome::Applied(1)), "{ack:?}");
    }
    assert!(
        matches!(acks[3].outcome, AckOutcome::Quarantined(_)),
        "corrupt delivery must ack as quarantined: {:?}",
        acks[3].outcome
    );
    assert!(!acks[3].outcome.is_durable());
    assert_eq!(core.warehouse().ingestor().quarantine().len(), 1);

    // Operator triage through the commit pipeline: drain the quarantine
    // (the corrupt envelope re-quarantines — it is garbage, not late),
    // then discard it for good, then republish for the readers.
    let epoch_before = core.commit_epoch();
    let wh = core.pipeline_mut().warehouse_mut();
    let outcomes = wh.requeue_all_quarantined().expect("durable requeue");
    assert_eq!(outcomes.len(), 1);
    assert!(matches!(outcomes[0], IngestOutcome::Quarantined(_)));
    assert_eq!(wh.ingestor().quarantine().len(), 1, "garbage must re-quarantine");
    let discarded = wh
        .discard_quarantined(0, "channel garbage")
        .expect("durable discard")
        .expect("index in range");
    assert_eq!(discarded.reason, "channel garbage");
    assert!(wh.ingestor().quarantine().is_empty());
    assert_eq!(wh.ingestor().discarded().len(), 1);
    let epoch_after = core.pipeline_mut().publish();
    assert!(epoch_after > epoch_before, "triage must publish a fresh epoch");

    // The quarantined garbage did NOT consume seq 3: the genuine
    // envelopes for seqs 3 and 4 still apply (the epoch-wedge
    // regression the commit path must preserve).
    let mut tail = Vec::new();
    for env in [envs[3].clone(), envs[4].clone()] {
        tail.extend(core.deliver(grant.session, env, 0).expect("deliver"));
    }
    tail.extend(core.flush().expect("flush"));
    assert_eq!(tail.len(), 2);
    for ack in &tail {
        assert!(matches!(ack.outcome, AckOutcome::Applied(1)), "{ack:?}");
    }

    // Recovery replays Offered + Requeued + Discarded records to the
    // identical state — triage decisions survive a restart.
    let oracle = fingerprint(core.warehouse().ingestor());
    let (rec, report) = Recovery::open(
        DiskMedium(SimDisk::from_files(fs.survivors())),
        fresh_aug(),
        DurabilityConfig { sync_every_append: true, ..server_config() },
    )
    .expect("recovery after triage");
    assert!(report.consistency_checked);
    assert_eq!(fingerprint(rec.ingestor()), oracle);
    assert_eq!(rec.ingestor().discarded().len(), 1);
    assert_eq!(rec.ingestor().discarded()[0].reason, "channel garbage");
    assert!(rec.ingestor().quarantine().is_empty());
}

// ---------------------------------------------------------------------
// Slicing differential: one maintenance pass per group commit
// ---------------------------------------------------------------------

/// A hostile arrival stream and what it must converge to.
struct Arrival {
    init: ChainRows,
    stream: Vec<Envelope>,
    /// The sources' final states, each for the relation it owns.
    sources: DbState,
    /// Genuine reports in the stream, and the non-empty ones' count and
    /// tuples (what `updates_processed` / `delta_tuples` must add up to).
    reports: usize,
    counted: usize,
    tuples: usize,
}

/// Three sources, one chain relation each, over a six-value domain (so
/// later reports keep deleting and re-inserting what earlier ones
/// touched), with everything the channel can do to them: an explicit
/// insert→delete cancel pair and a delete→re-insert pair back to back,
/// an epoch bump mid-lane, same-lane swaps that park and drain,
/// duplicates, garbage at the live cursor, and a stale pre-bump replay.
/// Every genuine envelope arrives at least once and no lane is reordered
/// across its epoch bump, so the stream must land on `W(u(d))`.
fn hostile_arrival(seed: u64) -> Arrival {
    let mut rng = SplitMix64::new(seed);
    let init = common::gen_chain_rows(&mut rng);
    let bump_lane = rng.index(3);
    let mut sources = DbState::new();
    let mut lanes = Vec::new();
    for (lane, (name, rel, attrs)) in
        [("src-r", "R", &["a", "b"][..]), ("src-s", "S", &["b", "c"]), ("src-t", "T", &["c"])]
            .into_iter()
            .enumerate()
    {
        let site = SourceSite::new(chain_catalog(), chain_state(&init)).expect("site");
        let mut src = SequencedSource::new(name, site);
        let steps = 3 + rng.index(8);
        let bump_at = 1 + rng.index(steps - 1);
        let mut envs = Vec::new();
        for step in 0..steps {
            if lane == bump_lane && step == bump_at {
                src.begin_epoch();
            }
            let rows = |rng: &mut SplitMix64| {
                relation_from(attrs, &common::gen_rows(rng, attrs.len(), 4))
            };
            let delta = Delta::new(rows(&mut rng), rows(&mut rng)).expect("same header");
            envs.push(src.apply_update(&Update::new().with(rel, delta)).expect("own update"));
            if rng.chance(1, 3) {
                // A fresh row in and straight out again, then a present
                // row out and straight back in.
                let fresh = relation_from(attrs, &[vec![9; attrs.len()]]);
                let present = src.oracle_state().relation(RelName::new(rel)).expect("owned");
                let mut pairs =
                    vec![Update::inserting(rel, fresh.clone()), Update::deleting(rel, fresh)];
                if let Some(t) = present.iter().next() {
                    let row = dwcomplements::relalg::Relation::from_tuples(
                        present.attrs().clone(),
                        [t],
                    )
                    .expect("one row");
                    pairs.push(Update::deleting(rel, row.clone()));
                    pairs.push(Update::inserting(rel, row));
                }
                for u in pairs {
                    envs.push(src.apply_update(&u).expect("own update"));
                }
            }
        }
        let owned = src.oracle_state().relation(RelName::new(rel)).expect("owned").clone();
        sources.insert_relation(rel, owned);
        lanes.push(envs);
    }
    let genuine: Vec<&Envelope> = lanes.iter().flatten().collect();
    let reports = genuine.len();
    let counted = genuine.iter().filter(|e| !e.report.is_empty()).count();
    let tuples = genuine.iter().map(|e| e.report.len()).sum();
    let stale = lanes[bump_lane][0].clone();

    let mut stream: Vec<Envelope> =
        Interleaver::from_rng(&mut rng).merge(lanes).into_iter().map(|(_, e)| e).collect();
    for i in 0..stream.len() - 1 {
        let (a, b) = (&stream[i], &stream[i + 1]);
        if rng.chance(1, 4) && !(a.source == b.source && a.epoch != b.epoch) {
            stream.swap(i, i + 1);
        }
    }
    let mut arrival = Vec::new();
    for env in stream {
        if rng.chance(1, 6) {
            // Channel garbage ahead of the pristine copy.
            let mut garbage = env.clone();
            garbage.report = Update::inserting("Ghost", relation_from(&["x"], &[vec![1]]));
            arrival.push(garbage);
        }
        arrival.push(env.clone());
        if rng.chance(1, 6) {
            arrival.push(env);
        }
    }
    // From before the bump, long after it.
    arrival.push(stale);
    Arrival { init, stream: arrival, sources, reports, counted, tuples }
}

/// What one way of slicing the stream produced.
#[derive(Debug, PartialEq)]
struct Sliced {
    outcomes: Vec<IngestOutcome>,
    fp: Fingerprint,
    /// The ingest counters but for `passes` and `fallbacks`, which count
    /// how the stream was sliced (each leg checks those itself).
    ingest: IngestStats,
    reports_counted: (usize, usize),
}

/// `stats` with the two slicing counters zeroed.
fn slicing_free(stats: IngestStats) -> IngestStats {
    IngestStats { passes: 0, fallbacks: 0, ..stats }
}

fn offer_in_slices(
    ing: &mut IngestingIntegrator,
    stream: &[Envelope],
    mut next_len: impl FnMut() -> usize,
) -> Sliced {
    let mut outcomes = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let (slice, tail) = rest.split_at(next_len().clamp(1, rest.len()));
        let got = ing.offer_batch(slice);
        assert_eq!(got.len(), slice.len(), "one outcome per envelope");
        outcomes.extend(got);
        rest = tail;
    }
    let i = ing.integrator_stats();
    Sliced {
        outcomes,
        fp: fingerprint(ing),
        ingest: slicing_free(ing.stats()),
        reports_counted: (i.updates_processed, i.delta_tuples),
    }
}

fn slicing_is_invisible(seed: u64) -> Result<(), String> {
    let arrival = hostile_arrival(seed);
    let oracle = fresh_aug().materialize(&arrival.sources).expect("W(u(d))");

    let mut alone = fresh_ingest(&arrival.init);
    let per_envelope = offer_in_slices(&mut alone, &arrival.stream, || 1);
    tk_ensure_eq!(alone.state(), &oracle);
    tk_ensure!(alone.sequencing().iter().all(|s| s.parked.is_empty()), "stream left a gap");
    // Counters count reports: every genuine report applied exactly
    // once, whatever the channel did and however passes were shared.
    let applied: usize = per_envelope
        .outcomes
        .iter()
        .map(|o| if let IngestOutcome::Applied(n) = o { *n } else { 0 })
        .sum();
    tk_ensure_eq!(applied, arrival.reports);
    tk_ensure_eq!(per_envelope.ingest.applied, arrival.reports);
    tk_ensure_eq!(per_envelope.reports_counted, (arrival.counted, arrival.tuples));

    let mut cuts = SplitMix64::new(seed ^ 0xC075);
    for size in [2, 7, 64, usize::MAX, 0] {
        let mut ing = fresh_ingest(&arrival.init);
        // Size 0 stands for a random partition.
        let sliced = offer_in_slices(&mut ing, &arrival.stream, || {
            if size == 0 { 1 + cuts.index(9) } else { size }
        });
        tk_ensure!(sliced == per_envelope, "slices of {size} diverged from per-envelope");
        let p = ing.stats();
        tk_ensure!(p.fallbacks == 0, "a well-formed stream fell back ({size})");
        tk_ensure!(p.passes <= alone.stats().passes, "slicing added passes ({size})");
    }

    // The durable leg: group commits of 7, then recovery — which
    // regroups the WAL its own way — lands on the same fingerprint.
    let fs = SimDisk::default();
    let mut dw = DurableWarehouse::create(
        DiskMedium(fs.clone()),
        fresh_ingest(&arrival.init),
        server_config(),
    )
    .map_err(|e| e.to_string())?;
    let mut outcomes = Vec::new();
    for batch in arrival.stream.chunks(7) {
        outcomes.extend(dw.offer_batch(batch).map_err(|e| e.to_string())?);
    }
    tk_ensure_eq!(&outcomes, &per_envelope.outcomes);
    tk_ensure_eq!(fingerprint(dw.ingestor()), per_envelope.fp.clone());
    let rebooted = DiskMedium(SimDisk::from_files(fs.survivors()));
    let (rec, report) =
        Recovery::open(rebooted, fresh_aug(), server_config()).map_err(|e| e.to_string())?;
    tk_ensure_eq!(report.records_replayed, arrival.stream.len());
    tk_ensure_eq!(slicing_free(rec.ingestor().stats()), per_envelope.ingest);
    let i = rec.ingestor().integrator_stats();
    tk_ensure_eq!((i.updates_processed, i.delta_tuples), per_envelope.reports_counted);
    // Restored quarantine errors are rendered text; compare as such.
    tk_ensure_eq!(fingerprint(rec.ingestor()), per_envelope.fp.clone());

    // The engine leg: the stream through the server as `dwc serve`
    // runs it. Batches close where the seeded coin empties the channel
    // (the self-clocking group commit), at the size cap, or at the age
    // ceiling while the channel stays full — and the ack stream is the
    // per-envelope outcome stream, in order.
    let dw = DurableWarehouse::create(
        DiskMedium(SimDisk::default()),
        fresh_ingest(&arrival.init),
        server_config(),
    )
    .map_err(|e| e.to_string())?;
    let mut core = ServerCore::new(dw, BatchPolicy::with_max_batch(8));
    let mut sessions = BTreeMap::new();
    let mut coin = SplitMix64::new(seed ^ 0x1D1E);
    let mut acks = Vec::new();
    let mut now = 0;
    for env in &arrival.stream {
        now += 500;
        let session = *sessions
            .entry(env.source.clone())
            .or_insert_with(|| core.connect(env.source.clone()).session);
        acks.extend(core.deliver(session, env.clone(), now).map_err(|e| e.to_string())?);
        acks.extend(common::settle_engine(&mut core, now, coin.chance(1, 3))?);
    }
    acks.extend(common::settle_engine(&mut core, now, true)?);
    let expected: Vec<AckOutcome> =
        per_envelope.outcomes.iter().map(AckOutcome::from_ingest).collect();
    let got: Vec<AckOutcome> = acks.into_iter().map(|a| a.outcome).collect();
    tk_ensure_eq!(got, expected);
    tk_ensure_eq!(fingerprint(core.warehouse().ingestor()), per_envelope.fp);
    Ok(())
}

/// Any slicing ≡ per-envelope ≡ oracle, over random hostile streams.
#[test]
fn any_slicing_equals_per_envelope_equals_oracle() {
    Runner::new("any_slicing_equals_per_envelope_equals_oracle")
        .cases(48)
        .run_no_shrink(|rng| rng.next_u64(), |seed| slicing_is_invisible(*seed));
}

/// The same property at the pinned seed and across the schedule sweep.
#[test]
fn pinned_slicing_differential_under_every_sweep_seed() {
    for seed in sched_seeds(&[SLICE_SEED, SLICE_SEED.rotate_left(23), !SLICE_SEED]) {
        slicing_is_invisible(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// When the slice's one pass fails, the slice re-runs one report per
/// pass and ends exactly where per-envelope delivery does. Here a
/// tampered stored header fails *every* pass: seq 0 is quarantined under
/// its own number and its successors park behind it.
#[test]
fn failed_pass_falls_back_to_todays_per_report_behaviour() {
    let init: ChainRows = (vec![vec![1, 101]], vec![vec![101, 201]], vec![]);
    let (_, envs) = insert_lane(&init, "lane", "R", 5, 10);
    let tampered = |ing: &mut IngestingIntegrator| {
        let mut state = ing.state().clone();
        state.insert_relation("V", relation_from(&["zzz"], &[]));
        ing.integrator_mut().force_state(state);
    };
    let mut alone = fresh_ingest(&init);
    tampered(&mut alone);
    let per_envelope = offer_in_slices(&mut alone, &envs, || 1);
    assert!(matches!(per_envelope.outcomes[0], IngestOutcome::Quarantined(_)));
    assert!(per_envelope.outcomes[1..].iter().all(|o| *o == IngestOutcome::Buffered));

    let mut ing = fresh_ingest(&init);
    tampered(&mut ing);
    let whole = offer_in_slices(&mut ing, &envs, || usize::MAX);
    assert_eq!(whole, per_envelope);
    assert_eq!(ing.stats().fallbacks, 1);
}

/// A bad report is isolated exactly: its neighbours in the same slice
/// apply, it alone is quarantined — under its own sequence number, which
/// its pristine retransmission then fills, draining what parked behind
/// it. The report is bad in the way only a recorded flag shows: a header
/// mismatch `Update::with` kept for `Update::apply`. Validation surfaces
/// it, so the report is quarantined before sequencing and the slice's
/// one pass runs over its neighbours alone. A slice whose reports
/// visibly fail to compose — a tuple inserted twice with nothing in
/// between — is what falls back to one report per pass, and lands where
/// per-envelope delivery does.
#[test]
fn fallback_isolates_exactly_the_bad_report() {
    let init: ChainRows = (vec![vec![1, 101]], vec![vec![101, 201]], vec![]);
    let (_, envs) = insert_lane(&init, "lane", "R", 4, 10);
    let mut bad = envs[1].clone();
    bad.report =
        bad.report.with("R", Delta::insert_only(relation_from(&["other"], &[vec![1]])));
    let slice = [envs[0].clone(), bad.clone(), envs[2].clone(), envs[3].clone()];

    let run = |slice: &[Envelope], len: usize| {
        let mut ing = fresh_ingest(&init);
        let sliced = offer_in_slices(&mut ing, slice, || len);
        (ing, sliced)
    };
    let (_, per_envelope) = run(&slice, 1);
    let (mut ing, whole) = run(&slice, usize::MAX);
    assert_eq!(whole, per_envelope);
    assert!(matches!(
        whole.outcomes[..],
        [
            IngestOutcome::Applied(1),
            IngestOutcome::Quarantined(_),
            IngestOutcome::Buffered,
            IngestOutcome::Buffered
        ]
    ));
    assert_eq!(ing.quarantine().len(), 1);
    assert_eq!(ing.quarantine()[0].envelope, bad);
    assert_eq!((ing.stats().passes, ing.stats().fallbacks), (1, 0));
    assert_eq!(ing.offer(&envs[1]), IngestOutcome::Applied(3));

    let mut twice = envs[1].clone();
    twice.report = envs[0].report.clone();
    let slice = [envs[0].clone(), twice, envs[2].clone(), envs[3].clone()];
    let (_, per_envelope) = run(&slice, 1);
    let (ing, whole) = run(&slice, usize::MAX);
    assert_eq!(whole, per_envelope);
    assert_eq!(ing.stats().fallbacks, 1);
}

/// Parent/child order on the flagship spec: an order is retired line
/// items first and restored order row first (the benchmark's report
/// shape, one row per report), so a slice hands maintenance a
/// `{Lineitem, Orders}` update whose two halves were only FK-valid in
/// sequence. However the stream is cut, each prefix lands on `W` of the
/// sources at that point; cut nowhere, retire and restore cancel and no
/// pass runs at all.
#[test]
fn fk_ordered_reports_coalesce_on_the_star_schema() {
    use dwcomplements::starschema::{generate, star_warehouse, ScaleConfig};
    let (catalog, views) = star_warehouse();
    let aug = WarehouseSpec::new(catalog.clone(), views).expect("static spec").augment().expect("augments");
    let base = generate(&ScaleConfig::tiny(), 1999);
    let orders = base.relation(RelName::new("Orders")).expect("Orders");
    let items = base.relation(RelName::new("Lineitem")).expect("Lineitem");
    let key = |t: &dwcomplements::relalg::Tuple, rel: &dwcomplements::relalg::Relation| {
        t.get(rel.attrs().index_of("orderkey".into()).expect("orderkey")).clone()
    };
    let one = |rel: &dwcomplements::relalg::Relation, t| {
        dwcomplements::relalg::Relation::from_tuples(rel.attrs().clone(), [t]).expect("one row")
    };
    let mut retire = Vec::new();
    let mut restore = Vec::new();
    for order in orders.iter().take(2) {
        let mine: Vec<_> =
            items.iter().filter(|i| key(i, items) == key(&order, orders)).collect();
        assert!(!mine.is_empty(), "generated orders carry line items");
        retire.extend(mine.iter().map(|i| Update::deleting("Lineitem", one(items, i.clone()))));
        retire.push(Update::deleting("Orders", one(orders, order.clone())));
        restore.push(Update::inserting("Orders", one(orders, order)));
        restore.extend(mine.into_iter().map(|i| Update::inserting("Lineitem", one(items, i))));
    }
    let retired = retire.len();
    let site = SourceSite::new(catalog.clone(), base.clone()).expect("site");
    let mut src = SequencedSource::new("orders", site);
    let mut after_retire = None;
    let envs: Vec<Envelope> = retire
        .into_iter()
        .chain(restore)
        .enumerate()
        .map(|(i, u)| {
            if i == retired {
                after_retire = Some(src.oracle_state().clone());
            }
            let env = src.apply_update(&u).expect("own update");
            assert_eq!(env.report, u, "single-row reports arrive normalized");
            env
        })
        .collect();
    let w_retired = aug.materialize(&after_retire.expect("restore follows")).expect("W");
    let w_base = aug.materialize(&base).expect("W");

    let fresh = || {
        let site = SourceSite::new(catalog.clone(), base.clone()).expect("site");
        let integ = Integrator::initial_load(aug.clone(), &site).expect("initial load");
        IngestingIntegrator::new(integ, IngestConfig::default()).expect("ingestor")
    };
    for size in [1, 2, 3, 7, usize::MAX] {
        let mut ing = fresh();
        let half = offer_in_slices(&mut ing, &envs[..retired], || size);
        assert!(half.outcomes.iter().all(|o| *o == IngestOutcome::Applied(1)), "size {size}");
        assert_eq!(ing.state(), &w_retired, "size {size}: retire half diverged from W(u(d))");
        offer_in_slices(&mut ing, &envs[retired..], || size);
        assert_eq!(ing.state(), &w_base, "size {size}: restore half diverged from W(u(d))");
        let p = ing.stats();
        assert_eq!(p.fallbacks, 0, "size {size}");
        if size == usize::MAX {
            assert_eq!(p.passes, 2, "one pass per half");
        }
    }
    let mut ing = fresh();
    offer_in_slices(&mut ing, &envs, || usize::MAX);
    assert_eq!(ing.state(), &w_base);
    assert_eq!(ing.stats().passes, 0, "retire and restore cancel");
    assert_eq!(ing.integrator_stats().updates_processed, envs.len());
}
