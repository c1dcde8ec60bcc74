//! Differential properties for the warehouse server core.
//!
//! The central claim: driving [`ServerCore`] — sessions, group-commit
//! batcher, epoch publication — under **any** seeded interleaving of
//! per-source delivery lanes converges bit-identically to applying the
//! same envelopes serially through a plain [`IngestingIntegrator`].
//! Along the way every run checks the server's two concurrency
//! contracts at each step:
//!
//! * **No torn epochs** — the snapshot readers observe changes only
//!   when a batch commits, and then atomically (the `Arc` swaps; it is
//!   never mutated in place).
//! * **Ack ⇒ durable** — every released ack reports a durable outcome,
//!   and acks are released only by commit events (batch full, the idle
//!   engine's group commit, the busy-engine age ceiling), never while
//!   an envelope merely waits.
//! * **No blocked batch** — the engine is modeled as `dwc serve` runs
//!   it: after each delivery a seeded coin says whether the channel ran
//!   dry, and the engine steps ([`ServerCore::next_step`]) until it
//!   would take the next message or block. It must never block while a
//!   batch is pending, and a due deadline must run before the next
//!   message.
//!
//! All scheduling decisions come from one seed via
//! [`dwc_testkit::sched`], so a failing interleaving replays exactly;
//! `DWC_SCHED_SEEDS` widens the pinned sweep without code changes.

mod common;

use std::sync::Arc;

use common::{
    chain_catalog, chain_state, relation_from, settle_engine, ChainRows, DiskMedium, Rows,
};
use dwc_testkit::prop::Runner;
use dwc_testkit::sched::{sched_seeds, Interleaver, VirtualClock};
use dwc_testkit::shrink::NoShrink;
use dwc_testkit::{tk_ensure, tk_ensure_eq, SimDisk, SplitMix64};
use dwcomplements::relalg::{io, Delta, RaExpr, Update};
use dwcomplements::warehouse::channel::{Envelope, SequencedSource};
use dwcomplements::warehouse::ingest::{IngestConfig, IngestingIntegrator};
use dwcomplements::warehouse::integrator::{Integrator, SourceSite};
use dwcomplements::warehouse::server::{
    Ack, AckOutcome, BatchPolicy, EngineStep, ServerCore, ServerError,
};
use dwcomplements::warehouse::{
    AugmentedWarehouse, DurabilityConfig, DurableWarehouse, Recovery, WarehouseSpec,
};

/// The pinned schedule seed of the sweep test; `verify.sh` step 9
/// replays it and then widens the sweep via `DWC_SCHED_SEEDS`.
const SERVER_SCHED_SEED: u64 = 0x5EED_0006_C0DE_CAFE;

/// The default sweep when `DWC_SCHED_SEEDS` is unset.
const DEFAULT_SWEEP: [u64; 4] = [
    SERVER_SCHED_SEED,
    SERVER_SCHED_SEED ^ 0xA5A5_A5A5_A5A5_A5A5,
    SERVER_SCHED_SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    SERVER_SCHED_SEED.rotate_left(17),
];

// ---------------------------------------------------------------------
// Rig
// ---------------------------------------------------------------------

/// The three server sources: each owns exactly one chain relation, so
/// their effects commute and any interleaving must land on the serial
/// oracle state.
const SOURCES: [(&str, &str); 3] = [("src-r", "R"), ("src-s", "S"), ("src-t", "T")];

fn attrs_of(rel: &str) -> &'static [&'static str] {
    match rel {
        "R" => &["a", "b"],
        "S" => &["b", "c"],
        _ => &["c"],
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

/// Server durability: per-append fsync off — the group commit's single
/// fsync per batch is the durability point the acks certify.
fn server_config() -> DurabilityConfig {
    DurabilityConfig {
        sync_every_append: false,
        retain_generations: 2,
        snapshot_every: None,
        verify_on_open: true,
    }
}

/// One delivery lane: a sequenced source for `rel` plus its envelope
/// stream, built from shrinkable insert/delete row pairs.
fn build_lane(
    init: &ChainRows,
    name: &str,
    rel: &str,
    specs: &[(Rows, Rows)],
) -> (SequencedSource, Vec<Envelope>) {
    let site = SourceSite::new(chain_catalog(), chain_state(init)).expect("site");
    let mut src = SequencedSource::new(name, site);
    let attrs = attrs_of(rel);
    let envs = specs
        .iter()
        .map(|(ins, del)| {
            let update = Update::new().with(
                rel,
                Delta::new(relation_from(attrs, ins), relation_from(attrs, del))
                    .expect("same header"),
            );
            src.apply_update(&update).expect("source applies its own update")
        })
        .collect();
    (src, envs)
}

fn build_lanes(
    init: &ChainRows,
    specs: [&[(Rows, Rows)]; 3],
) -> (Vec<SequencedSource>, Vec<Vec<Envelope>>) {
    let mut sources = Vec::new();
    let mut lanes = Vec::new();
    for ((name, rel), spec) in SOURCES.iter().zip(specs) {
        let (src, envs) = build_lane(init, name, rel, spec);
        sources.push(src);
        lanes.push(envs);
    }
    (sources, lanes)
}

// ---------------------------------------------------------------------
// Fingerprint + serial oracle
// ---------------------------------------------------------------------

/// What bit-identical convergence covers: the canonical encoding of
/// every warehouse relation plus the full per-source sequencing state.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    rels: Vec<(String, Vec<u8>)>,
    seq: Vec<(String, u64, u64, Vec<u64>)>,
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
    }
}

/// The oracle: the same envelopes applied serially, lane by lane,
/// through a plain in-memory ingestor — no server, no batching, no
/// storage.
fn serial_oracle(init: &ChainRows, lanes: &[Vec<Envelope>]) -> Fingerprint {
    let mut ing = fresh_ingest(init);
    for lane in lanes {
        for env in lane {
            let outcome = ing.offer(env);
            assert!(
                matches!(outcome, dwcomplements::warehouse::ingest::IngestOutcome::Applied(_)),
                "oracle lane delivery was {outcome:?}"
            );
        }
    }
    fingerprint(&ing)
}

// ---------------------------------------------------------------------
// The scheduled server run
// ---------------------------------------------------------------------

struct ServerRun {
    fp: Fingerprint,
    acks: Vec<Ack>,
    fs: SimDisk,
    outboxes: Vec<Vec<Envelope>>,
}

/// Drives a fresh server over a simulated disk through the seeded interleaving of
/// `lanes`, checking the torn-epoch and ack-release invariants at every
/// step; returns the final fingerprint and the acks in release order.
fn run_server(
    init: &ChainRows,
    sources: &[SequencedSource],
    lanes: Vec<Vec<Envelope>>,
    seed: u64,
    max_batch: usize,
) -> Result<ServerRun, String> {
    let total: usize = lanes.iter().map(Vec::len).sum();
    let reported = lanes.iter().flatten().filter(|e| !e.report.is_empty()).count();
    let reported_tuples: usize = lanes.iter().flatten().map(|e| e.report.len()).sum();
    let fs = SimDisk::default();
    let dw =
        DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(init), server_config())
            .map_err(|e| e.to_string())?;
    let policy = BatchPolicy { max_batch, max_wait_micros: 200 };
    let mut core = ServerCore::new(dw, policy);

    let mut session_of = Vec::new();
    for src in sources {
        let grant = core.connect(src.id().clone());
        tk_ensure!(grant.resume_seq == 0, "fresh warehouse granted a nonzero resume point");
        session_of.push(grant.session);
    }

    let mut il = Interleaver::new(seed);
    let schedule = il.merge(lanes);
    let mut trng = SplitMix64::new(seed ^ 0x7143_u64);
    let mut clock = VirtualClock::new();
    let reader = core.reader();
    let mut last = reader.load();
    tk_ensure!(last.epoch == 1, "a fresh server must publish epoch 1");

    let mut acks: Vec<Ack> = Vec::new();
    // The step invariant: the published snapshot changes exactly when
    // acks are released (a commit), and then by an atomic Arc swap to a
    // strictly newer epoch.
    let observe = |released: &[Ack],
                       last: &mut Arc<dwcomplements::relalg::StateEpoch>|
     -> Result<(), String> {
        let cur = reader.load();
        if released.is_empty() {
            tk_ensure!(
                Arc::ptr_eq(last, &cur),
                "snapshot changed without a commit (torn epoch)"
            );
        } else {
            tk_ensure!(
                cur.epoch > last.epoch,
                "commit released acks but published no new epoch"
            );
        }
        *last = cur;
        Ok(())
    };

    for (lane, env) in schedule {
        clock.advance(il.jitter(40));
        // Occasionally the engine stays busy with other messages until
        // the pending batch reaches its age ceiling: the due tick must
        // come before the next message — the busy-engine release path.
        if trng.chance(1, 3) {
            if let Some(deadline) = core.next_deadline() {
                clock.advance_to(deadline);
                tk_ensure_eq!(core.next_step(clock.now(), true), EngineStep::Tick);
                let released = core.tick(clock.now()).map_err(|e| e.to_string())?;
                observe(&released, &mut last)?;
                acks.extend(released);
            }
        }
        let released =
            core.deliver(session_of[lane], env, clock.now()).map_err(|e| e.to_string())?;
        observe(&released, &mut last)?;
        acks.extend(released);
        // The seeded coin: did the channel run dry behind this delivery?
        let channel_empty = trng.chance(1, 3);
        let released = settle_engine(&mut core, clock.now(), channel_empty)?;
        observe(&released, &mut last)?;
        if channel_empty {
            tk_ensure!(core.pending_len() == 0, "an idle engine left a batch pending");
        }
        acks.extend(released);
    }
    // The last delivery drains the channel for good.
    let released = settle_engine(&mut core, clock.now(), true)?;
    observe(&released, &mut last)?;
    acks.extend(released);
    tk_ensure!(core.next_deadline().is_none(), "a settled server still holds a deadline");

    // Every envelope acked exactly once, durably, in-sequence per lane.
    tk_ensure!(acks.len() == total, "{} acks for {total} envelopes", acks.len());
    for ack in &acks {
        tk_ensure!(
            matches!(ack.outcome, AckOutcome::Applied(1)),
            "gap-free in-order lane acked {:?} for {:?} seq {}",
            ack.outcome,
            ack.source,
            ack.seq
        );
    }
    for (i, src) in sources.iter().enumerate() {
        let seqs: Vec<u64> =
            acks.iter().filter(|a| &a.source == src.id()).map(|a| a.seq).collect();
        tk_ensure!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "acks for lane {i} released out of order: {seqs:?}"
        );
        for a in acks.iter().filter(|a| &a.source == src.id()) {
            tk_ensure!(a.session == session_of[i], "ack routed to the wrong session: {a:?}");
        }
    }

    // Counter cross-checks: every commit is a group commit with exactly
    // one fsync on this configuration (no per-append syncs, no
    // snapshots).
    let stats = core.stats();
    tk_ensure_eq!(stats.delivered, total as u64);
    tk_ensure_eq!(stats.acks_minted, acks.len() as u64);
    let storage = core.warehouse().storage_stats();
    tk_ensure_eq!(storage.group_commits, stats.batches_committed);
    tk_ensure_eq!(storage.wal_syncs, storage.group_commits);
    tk_ensure_eq!(core.commit_epoch(), 1 + stats.batches_committed);
    // The integrator counts reports and reported tuples, however the
    // schedule grouped them into batches (one maintenance pass each).
    let counted = core.warehouse().ingestor().integrator_stats();
    tk_ensure_eq!(counted.updates_processed, reported);
    tk_ensure_eq!(counted.delta_tuples, reported_tuples);
    let passes = core.warehouse().ingestor().policy().stats();
    tk_ensure!(passes.passes <= stats.batches_committed, "more passes than batches");
    tk_ensure_eq!(passes.fallbacks, 0);

    let fp = fingerprint(core.warehouse().ingestor());
    let outboxes = sources.iter().map(|s| s.outbox().to_vec()).collect();
    Ok(ServerRun { fp, acks, fs, outboxes })
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

type LaneSpec = Vec<(Rows, Rows)>;

fn gen_lane(rng: &mut SplitMix64, arity: usize, max_envs: usize) -> LaneSpec {
    let n = rng.index(max_envs + 1);
    (0..n)
        .map(|_| (common::gen_rows(rng, arity, 4), common::gen_rows(rng, arity, 4)))
        .collect()
}

/// THE differential property: any seeded interleaving of three
/// concurrent source lanes through the batched server equals the serial
/// oracle bit-for-bit, with every step invariant holding along the way.
#[test]
fn concurrent_sessions_converge_to_serial_oracle() {
    Runner::new("concurrent_sessions_converge_to_serial_oracle").cases(48).run(
        |rng| {
            let init = common::gen_chain_rows(rng);
            let r = gen_lane(rng, 2, 6);
            let s = gen_lane(rng, 2, 6);
            let t = gen_lane(rng, 1, 4);
            (init, r, s, t, NoShrink(rng.next_u64()), rng.below(8))
        },
        |(init, r, s, t, seed, batch_knob): &(
            ChainRows,
            LaneSpec,
            LaneSpec,
            LaneSpec,
            NoShrink<u64>,
            u64,
        )| {
            let (sources, lanes) = build_lanes(init, [r, s, t]);
            let oracle = serial_oracle(init, &lanes);
            let max_batch = 1 + (*batch_knob as usize % 5);
            let run = run_server(init, &sources, lanes, seed.0, max_batch)?;
            tk_ensure!(
                run.fp == oracle,
                "scheduled server diverged from the serial oracle (seed {})",
                seed.0
            );
            Ok(())
        },
    );
}

/// The pinned deterministic scenario the sweep replays seed-by-seed.
fn pinned_scenario() -> (ChainRows, [Vec<(Rows, Rows)>; 3]) {
    let init: ChainRows = (
        vec![vec![1, 10], vec![2, 20]],
        vec![vec![10, 100], vec![20, 200]],
        vec![vec![100]],
    );
    let r: LaneSpec = (0..4)
        .map(|i| (vec![vec![3 + i, 10 * (i + 3)]], vec![]))
        .collect();
    let s: LaneSpec = vec![
        (vec![vec![30, 300]], vec![]),
        (vec![], vec![vec![10, 100]]),
        (vec![vec![40, 400]], vec![vec![20, 200]]),
    ];
    let t: LaneSpec = vec![(vec![vec![200]], vec![]), (vec![vec![300]], vec![vec![100]])];
    (init, [r, s, t])
}

/// The `DWC_SCHED_SEEDS` sweep: the pinned scenario must converge under
/// every listed schedule seed (CI widens the list without code changes).
#[test]
fn pinned_scenario_converges_under_every_sweep_seed() {
    let (init, [r, s, t]) = pinned_scenario();
    for seed in sched_seeds(&DEFAULT_SWEEP) {
        for max_batch in [1, 3, 64] {
            let (sources, lanes) = build_lanes(&init, [&r, &s, &t]);
            let oracle = serial_oracle(&init, &lanes);
            let run = run_server(&init, &sources, lanes, seed, max_batch)
                .unwrap_or_else(|e| panic!("seed {seed} batch {max_batch}: {e}"));
            assert_eq!(
                run.fp, oracle,
                "seed {seed} batch {max_batch}: server diverged from serial oracle"
            );
        }
    }
}

/// Restart-and-resume: a server killed after a partial run hands every
/// reconnecting source its durable cursor, and full-outbox redelivery
/// (duplicates for the acked prefix) converges on the complete oracle.
#[test]
fn restart_resumes_sessions_at_acked_cursor() {
    let (init, [r, s, t]) = pinned_scenario();
    let (sources, lanes) = build_lanes(&init, [&r, &s, &t]);
    let oracle = serial_oracle(&init, &lanes);

    // Phase 1: deliver a prefix of every lane, then flush so it is
    // acked and durable.
    let run = {
        let prefix: Vec<Vec<Envelope>> =
            lanes.iter().map(|l| l[..l.len().saturating_sub(1)].to_vec()).collect();
        run_server(&init, &sources, prefix, SERVER_SCHED_SEED, 2).expect("prefix run")
    };
    let acked_next: Vec<u64> = sources
        .iter()
        .map(|src| {
            run.acks.iter().filter(|a| &a.source == src.id()).map(|a| a.seq + 1).max().unwrap_or(0)
        })
        .collect();

    // Phase 2: "restart" — recover from the survivors and reconnect.
    let survivors = run.fs.survivors();
    let (rec, report) = Recovery::open(
        DiskMedium(SimDisk::from_files(survivors)),
        fresh_aug(),
        server_config(),
    )
    .expect("recovery after clean shutdown");
    assert!(report.consistency_checked, "recovery skipped the cross-check");
    let mut core = ServerCore::new(rec, BatchPolicy { max_batch: 2, max_wait_micros: 200 });

    let mut clock = VirtualClock::new();
    let mut acks: Vec<Ack> = Vec::new();
    for (i, src) in sources.iter().enumerate() {
        let grant = core.connect(src.id().clone());
        assert_eq!(
            grant.resume_seq, acked_next[i],
            "source {:?} resumed at the wrong cursor",
            src.id()
        );
        // The source replays its WHOLE outbox (it holds every envelope
        // ever minted, including the tail the first server never saw):
        // the acked prefix must come back as duplicates, the tail as
        // fresh applications.
        for env in &run.outboxes[i] {
            clock.advance(7);
            acks.extend(
                core.deliver(grant.session, env.clone(), clock.now()).expect("redelivery"),
            );
        }
    }
    acks.extend(core.flush().expect("final flush"));

    for ack in &acks {
        assert!(ack.outcome.is_durable(), "redelivery acked non-durably: {ack:?}");
        let src_idx = sources.iter().position(|s| s.id() == &ack.source).expect("known source");
        if ack.seq < acked_next[src_idx] {
            assert_eq!(
                ack.outcome,
                AckOutcome::Duplicate,
                "acked prefix must replay as duplicates"
            );
        } else {
            assert!(
                matches!(ack.outcome, AckOutcome::Applied(_)),
                "fresh suffix must apply: {ack:?}"
            );
        }
    }
    assert_eq!(fingerprint(core.warehouse().ingestor()), oracle);
}

/// Session hygiene: unknown handles and cross-source deliveries are
/// typed errors that leave the server untouched.
#[test]
fn session_validation_rejects_mismatched_and_unknown() {
    let (init, [r, s, t]) = pinned_scenario();
    let (sources, lanes) = build_lanes(&init, [&r, &s, &t]);
    let fs = SimDisk::default();
    let dw = DurableWarehouse::create(DiskMedium(fs), fresh_ingest(&init), server_config())
        .expect("create");
    let mut core = ServerCore::new(dw, BatchPolicy::default());
    let grant_r = core.connect(sources[0].id().clone());

    let bogus = dwcomplements::warehouse::server::SessionId::raw_for_tests(99);
    let err = core.deliver(bogus, lanes[0][0].clone(), 0).expect_err("unknown session");
    assert_eq!(err, ServerError::UnknownSession(bogus));

    // Session R delivering an envelope stamped for source S.
    let err =
        core.deliver(grant_r.session, lanes[1][0].clone(), 0).expect_err("source mismatch");
    assert!(
        matches!(err, ServerError::SourceMismatch { .. }),
        "expected SourceMismatch, got {err:?}"
    );
    assert_eq!(core.stats().delivered, 0, "rejected deliveries must not count");
    assert_eq!(core.commit_epoch(), 1, "rejected deliveries must not commit");

    // Reconnecting the same source reuses its session.
    let again = core.connect(sources[0].id().clone());
    assert_eq!(again.session, grant_r.session, "reconnect minted a fresh session");
}

/// Read isolation: a query client answers against the *published* epoch
/// only — envelopes waiting in the batcher are invisible until their
/// group commit, and the switch is one atomic snapshot swap.
#[test]
fn query_client_sees_only_published_epochs() {
    let init: ChainRows = (vec![vec![1, 10]], vec![vec![10, 100]], vec![]);
    let (sources, lanes) =
        build_lanes(&init, [&[(vec![vec![2, 20]], vec![])], &[], &[]]);
    let fs = SimDisk::default();
    let dw = DurableWarehouse::create(DiskMedium(fs), fresh_ingest(&init), server_config())
        .expect("create");
    // A batch cap the single envelope cannot fill: it pends until flush.
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 8, max_wait_micros: 1_000 });
    let grant = core.connect(sources[0].id().clone());
    let qc = core.query_client();
    let q = RaExpr::parse("R").expect("static query");

    let (epoch, before) = qc.answer(&q).expect("query answers");
    assert_eq!(epoch, 1);
    assert_eq!(before, relation_from(&["a", "b"], &[vec![1, 10]]));

    let pending = core.deliver(grant.session, lanes[0][0].clone(), 0).expect("deliver");
    assert!(pending.is_empty(), "a non-full batch must not commit");
    let (epoch, mid) = qc.answer(&q).expect("query answers");
    assert_eq!(epoch, 1, "pending envelope leaked into the read snapshot");
    assert_eq!(mid, before);
    let held = qc.snapshot();

    let acks = core.flush().expect("flush commits");
    assert_eq!(acks.len(), 1);
    let (epoch, after) = qc.answer(&q).expect("query answers");
    assert_eq!(epoch, 2);
    assert_eq!(after, relation_from(&["a", "b"], &[vec![1, 10], vec![2, 20]]));
    // The old snapshot a slow reader holds is untouched by the commit.
    assert_eq!(held.epoch, 1);
    assert_eq!(
        qc.answer(&q).expect("reread").1,
        after,
        "published snapshot must be stable"
    );
}

/// The busy-engine ceiling at the integration level. Under a continuous
/// flood the channel never runs dry, so the idle-engine commit never
/// fires and only the age ceiling can release the batch. The ceiling is
/// derived from the OLDEST pending envelope (the flood of later
/// deliveries and pings cannot postpone it), nothing is released before
/// it, and at it the engine ticks before the next ready message and
/// commits the whole batch with exactly one fsync.
#[test]
fn max_wait_deadline_is_oldest_based_and_releases_on_tick() {
    let (init, [r, _, _]) = pinned_scenario();
    let (sources, lanes) = build_lanes(&init, [&r, &[], &[]]);
    let fs = SimDisk::default();
    let dw = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(&init), server_config())
        .expect("create");
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 64, max_wait_micros: 100 });
    let grant = core.connect(sources[0].id().clone());
    assert_eq!(core.next_deadline(), None, "idle server armed a deadline");

    // Every 10 µs one more message is ready: the lane's reports, then
    // pings. The engine never sees an empty channel.
    let mut envs = lanes[0].clone().into_iter();
    let syncs_before = fs.syncs();
    let mut delivered = 0;
    let mut released = Vec::new();
    let mut now = 0;
    while released.is_empty() {
        now += 10;
        assert!(now <= 200, "the flood starved the batch ceiling");
        match core.next_step(now, true) {
            EngineStep::Take => {
                if let Some(env) = envs.next() {
                    assert!(core.deliver(grant.session, env, now).expect("deliver").is_empty());
                    delivered += 1;
                } else {
                    core.ping(grant.session, now).expect("ping");
                }
                // Later messages must NOT push the ceiling out.
                assert_eq!(core.next_deadline(), Some(110), "the flood postponed the ceiling");
                assert_eq!(fs.syncs(), syncs_before, "released before the ceiling");
            }
            EngineStep::Tick => released = core.tick(now).expect("ceiling tick"),
            step => panic!("a flooded engine chose {step:?} at {now}"),
        }
    }
    assert_eq!(now, 110, "the ceiling tick ran late");
    assert!(delivered >= 2, "the batch must have grown under the flood");
    assert_eq!(released.len(), delivered, "the ceiling tick must commit the whole batch");
    assert_eq!(fs.syncs(), syncs_before + 1, "one group commit == one fsync");
    assert_eq!(core.next_deadline(), None, "committed batcher still armed");
}

/// An envelope whose own report applied is acked `applied`, even when a
/// parked successor it drained then fails: the successor is quarantined
/// under its own sequence number, and the source is not told to
/// retransmit a report that is durable. (Paranoid mode applies through
/// `Update::apply`, which reports the header mismatch `Update::with`
/// recorded on the successor — the one defect validation lets through.)
#[test]
fn applied_envelope_acks_applied_when_a_parked_successor_fails() {
    let init: ChainRows = (vec![vec![1, 10]], vec![vec![10, 100]], vec![]);
    let (src, envs) = build_lane(
        &init,
        "src-r",
        "R",
        &[(vec![vec![2, 20]], vec![]), (vec![vec![3, 30]], vec![])],
    );
    let mut successor = envs[1].clone();
    successor.report = successor
        .report
        .with("R", Delta::insert_only(relation_from(&["other"], &[vec![1]])));

    let site = SourceSite::new(chain_catalog(), chain_state(&init)).expect("site");
    let integ = Integrator::initial_load(fresh_aug(), &site).expect("initial load");
    let ingest = IngestingIntegrator::new(integ, IngestConfig::paranoid()).expect("ingestor");
    let fs = SimDisk::default();
    let dw = DurableWarehouse::create(DiskMedium(fs), ingest, server_config()).expect("create");
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch: 1, max_wait_micros: 200 });
    let session = core.connect(src.id().clone()).session;

    let parked = core.deliver(session, successor, 0).expect("deliver");
    assert_eq!(parked[0].outcome.to_string(), "buffered");
    let acks = core.deliver(session, envs[0].clone(), 0).expect("deliver");
    assert_eq!(acks.len(), 1);
    assert_eq!((acks[0].epoch, acks[0].seq), (0, 0));
    assert_eq!(acks[0].outcome.to_string(), "applied 1");
    assert!(acks[0].outcome.is_durable());
    let ing = core.warehouse().ingestor();
    assert_eq!(ing.sequencing()[0].next_seq, 1);
    assert_eq!(ing.quarantine().len(), 1);
    assert_eq!(ing.quarantine()[0].envelope.seq, 1);
    // A retransmission of seq 0 is the duplicate it should be.
    let again = core.deliver(session, envs[0].clone(), 0).expect("deliver");
    assert_eq!(again[0].outcome.to_string(), "duplicate");
}
