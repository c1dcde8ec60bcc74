//! Server group-commit throughput: what batching the fsync buys.
//!
//! Drives [`ServerCore`] end to end — session delivery, batcher, WAL
//! group commit, epoch publication, ack minting — over a real
//! filesystem scratch directory at batch caps 1/16/64 and 1/4 concurrent
//! sources, reporting acked envelopes per second. Alongside the wall
//! clock rows, a deterministic [`SimDisk`] pass counts the actual
//! append/fsync mix per configuration and prices it under the documented
//! cost model (an fsync ≈ 50× an unsynced append), so the headline claim
//! — batch ≥ 16 sustains ≥ 5× the acks/sec of batch = 1 — is pinned by
//! accounting even on machines whose fsync is a tmpfs no-op.
//!
//! The chain rows above re-deliver one 64-envelope schedule on a toy
//! spec, so they time the commit path and no maintenance at all. The
//! `star-batch{1,64}` rows put maintenance back: `dwc serve`'s defaults
//! on `examples/specs/starschema.dwc` at scale 0.05, fed the wire-to-ack
//! benchmark's report shape (single-row, FK-ordered, a retire/restore
//! ring that keeps the state stationary) with fresh sequence numbers
//! every iteration — the slice-size sweep of one maintenance pass per
//! group commit. The `maintain-pass/star-b{1,64}/sf{0.05,0.5}` rows time
//! that pass alone, in process, at two state sizes, with the rows it
//! touched. The `ingest-step/star-b{1,64}` rows time the engine's whole
//! in-memory step for one group commit (sequencing, the fold into one
//! net delta, the pass), `ingest-pass/star-b{1,64}` that pass alone over
//! the same windows, and `wal-encode/star-b64` the encoding of one
//! commit's frames. The `query-reply/{miss,hit}/{Q1,Q8}` rows time the
//! read side of the same server: one `query` reply evaluated, rendered
//! and memoised, against one served from the reply memo. Every row
//! carries `nproc` and `commit`.
//! `scripts/bench.sh` collects every line into `BENCH_server.json`.

use dwc_relalg::{Catalog, DbState, Relation, Tuple, Update, Value};
use dwc_bench::DiskMedium;
use dwc_testkit::SimDisk;
use dwc_warehouse::channel::{Envelope, SourceId};
use dwc_warehouse::ingest::{IngestConfig, IngestOutcome, IngestingIntegrator};
use dwc_warehouse::integrator::{Integrator, SourceSite};
use dwc_warehouse::server::{BatchPolicy, ServerCore, SessionId};
use dwc_warehouse::storage::wal::{encode_frame, WalRecord};
use dwc_warehouse::integrator::IntegratorConfig;
use dwc_warehouse::{DurabilityConfig, DurableWarehouse, FsMedium, StorageMedium, WarehouseSpec};
use dwcomplements::serve::{LineBuf, ReplyMemo};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};

/// Acked envelopes per timed iteration (all configurations).
const ENVELOPES: usize = 64;

/// The documented cost model: one fsync ≈ this many unsynced appends
/// (see `DurableWarehouse::offer_batch`).
const FSYNC_COST: u64 = 50;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dwc-bench-server-{}-{tag}", std::process::id()))
}

fn chain_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_schema("R", &["a", "b"]).expect("static schema");
    c.add_schema("S", &["b", "c"]).expect("static schema");
    c.add_schema("T", &["c"]).expect("static schema");
    c
}

fn row(rel_attrs: &[&str], values: &[i64]) -> Relation {
    let mut rel = Relation::empty(dwc_relalg::AttrSet::from_names(rel_attrs));
    rel.insert(Tuple::new(values.iter().map(|&v| Value::int(v)).collect()))
        .expect("static arity");
    rel
}

fn fresh_ingest() -> IngestingIntegrator {
    let aug = WarehouseSpec::parse(chain_catalog(), &[("V", "R join S")])
        .expect("static spec")
        .augment()
        .expect("chain warehouse augments");
    let site = SourceSite::new(chain_catalog(), DbState::empty_for(&chain_catalog())).expect("site");
    let integ = Integrator::initial_load(aug, &site).expect("initial load");
    IngestingIntegrator::new(integ, IngestConfig::default()).expect("ingestor")
}

fn config() -> DurabilityConfig {
    DurabilityConfig {
        sync_every_append: false,
        retain_generations: 2,
        snapshot_every: None,
        verify_on_open: true,
    }
}

/// A round-robin schedule of `ENVELOPES` single-row inserts spread over
/// `sources` independent sequenced sources (disjoint rows into R).
fn build_schedule(sources: usize) -> Vec<(usize, Envelope)> {
    let mut lanes: Vec<Vec<Envelope>> = (0..sources)
        .map(|s| {
            let site = SourceSite::new(chain_catalog(), DbState::empty_for(&chain_catalog())).expect("site");
            let mut src =
                dwc_warehouse::channel::SequencedSource::new(SourceId::new(format!("src{s}")), site);
            (0..ENVELOPES / sources)
                .map(|i| {
                    let v = (s * 10_000 + i) as i64;
                    src.apply_update(&Update::inserting("R", row(&["a", "b"], &[v, v + 1])))
                        .expect("source applies its own update")
                })
                .collect()
        })
        .collect();
    let mut schedule = Vec::with_capacity(ENVELOPES);
    'outer: loop {
        for (lane, envs) in lanes.iter_mut().enumerate() {
            if envs.is_empty() {
                break 'outer;
            }
            schedule.push((lane, envs.remove(0)));
        }
    }
    schedule
}

/// Connects one session per source and delivers the whole schedule plus
/// a final flush, returning the ack count (must equal `ENVELOPES`).
fn pump<M: StorageMedium>(
    core: &mut ServerCore<M>,
    sessions: &[SessionId],
    schedule: &[(usize, Envelope)],
) -> usize {
    let mut acks = 0;
    for (lane, env) in schedule {
        acks += core.deliver(sessions[*lane], env.clone(), 0).expect("deliver").len();
    }
    acks += core.flush().expect("flush").len();
    assert_eq!(acks, schedule.len(), "every envelope must be acked");
    acks
}

/// Orders in the star rows' retire/restore ring, and the steps between
/// an order's retirement and its restoration (far enough apart that no
/// 64-report slice sees both).
const RING: usize = 64;
const LAG: usize = 16;

/// The endless single-row report stream of the star rows: a retire-only
/// prologue, then a cycle that returns the state to where it began.
struct StarStream {
    prologue: Vec<Update>,
    cycle: Vec<Update>,
}

impl StarStream {
    fn new(base: &DbState) -> StarStream {
        let orders = base.relation("Orders".into()).expect("base covers catalog");
        let items = base.relation("Lineitem".into()).expect("base covers catalog");
        let key_of = |rel: &Relation, t: &Tuple| {
            t.get(rel.attrs().index_of("orderkey".into()).expect("orderkey")).clone()
        };
        let one = |rel: &Relation, t: Tuple| {
            Relation::from_tuples(rel.attrs().clone(), [t]).expect("one row")
        };
        let groups: Vec<(Tuple, Vec<Tuple>)> = orders
            .iter()
            .take(RING)
            .map(|o| {
                let key = key_of(orders, &o);
                (o, items.iter().filter(|i| key_of(items, i) == key).collect())
            })
            .collect();
        assert_eq!(groups.len(), RING, "base state too small for the ring");
        // Line items leave before their order row and return after it.
        let retire = |g: &(Tuple, Vec<Tuple>), out: &mut Vec<Update>| {
            out.extend(g.1.iter().map(|i| Update::deleting("Lineitem", one(items, i.clone()))));
            out.push(Update::deleting("Orders", one(orders, g.0.clone())));
        };
        let restore = |g: &(Tuple, Vec<Tuple>), out: &mut Vec<Update>| {
            out.push(Update::inserting("Orders", one(orders, g.0.clone())));
            out.extend(g.1.iter().map(|i| Update::inserting("Lineitem", one(items, i.clone()))));
        };
        let mut prologue = Vec::new();
        for g in &groups[..LAG] {
            retire(g, &mut prologue);
        }
        let mut cycle = Vec::new();
        for j in 0..RING {
            retire(&groups[(LAG + j) % RING], &mut cycle);
            restore(&groups[j], &mut cycle);
        }
        StarStream { prologue, cycle }
    }

    fn get(&self, i: u64) -> &Update {
        match self.prologue.get(i as usize) {
            Some(u) => u,
            None => &self.cycle[(i as usize - self.prologue.len()) % self.cycle.len()],
        }
    }
}

/// `dwc serve`'s flagship spec and the wire-to-ack benchmark's base
/// state (scale 0.05, seed 1999).
fn star_spec_and_base() -> (WarehouseSpec, DbState) {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs/starschema.dwc");
    let text = std::fs::read_to_string(spec_path).expect("spec file ships with the repo");
    let (parsed, report) = dwc_analyze::specfile::parse_spec(&text, spec_path);
    assert!(!report.has_errors(), "{report}");
    let spec = WarehouseSpec::new(parsed.catalog, parsed.views).expect("shipped spec is valid");
    let base = dwc_starschema::generate(&dwc_starschema::ScaleConfig::scaled(0.05), 1999);
    (spec, base)
}

/// A fresh durable star warehouse over `base` in `dir`.
fn star_warehouse(
    spec: &WarehouseSpec,
    base: &DbState,
    dir: &Path,
) -> DurableWarehouse<FsMedium> {
    let aug = spec.clone().augment().expect("star warehouse augments");
    let state = aug.materialize(base).expect("W(base)");
    let integ = Integrator::from_state(aug, state, IntegratorConfig).expect("integrator");
    let ingest = IngestingIntegrator::new(integ, IngestConfig::default()).expect("ingestor");
    let medium = FsMedium::new(dir).expect("scratch dir");
    DurableWarehouse::create(medium, ingest, DurabilityConfig::default()).expect("creates")
}

/// `query-reply/{miss,hit}/{Q1,Q8}`: one `query` reply as a `dwc serve`
/// connection builds it from a parsed query, on the star spec at scale
/// 0.05. A miss looks the query up in an empty memo, evaluates it
/// against the published snapshot, renders the reply and stores it; a
/// hit finds the stored bytes. Either way the reply leaves in one write
/// (to a sink here).
fn query_rows(spec: &WarehouseSpec, base: &DbState, scratch_dirs: &mut Vec<PathBuf>) {
    let dir = scratch("query-reply");
    scratch_dirs.push(dir.clone());
    let client =
        ServerCore::new(star_warehouse(spec, base, &dir), BatchPolicy::default()).query_client();
    let workload = dwc_starschema::queries::workload();
    let group = dwc_bench::stamped("server");
    let mut out = LineBuf::new();
    for (name, long) in [("Q1", "Q1-dim-scan"), ("Q8", "Q8-bulk-join")] {
        let q = &workload.iter().find(|w| w.name == long).expect("fixed workload").expr;
        group.run(&format!("query-reply/miss/{name}"), || {
            let memo = ReplyMemo::new();
            assert!(memo.answer(&client, q.clone(), &mut out).is_none(), "an empty memo misses");
            out.flush_to(&mut io::sink()).expect("a sink accepts everything");
        });
        let memo = ReplyMemo::new();
        memo.answer(&client, q.clone(), &mut out);
        out.flush_to(&mut io::sink()).expect("a sink accepts everything");
        group.run(&format!("query-reply/hit/{name}"), || {
            let reply = memo.answer(&client, q.clone(), &mut out).expect("stored by the miss");
            LineBuf::flush_shared_to(&reply, &mut io::sink()).expect("a sink accepts everything");
        });
    }
}

/// `maintain-pass/star-b{1,64}/sf{0.05,0.5}`: one maintenance pass of
/// the star plan in process — the pass a group commit runs — over the
/// net delta of the first 1 or 64 reports of [`StarStream`], against the
/// scale-0.05 and scale-0.5 states. Each row carries the pass's
/// `rows_touched` (rows every operator produced, keys probed and delta
/// rows spliced), which must not grow with the state.
fn maintain_pass_rows(spec: &WarehouseSpec) {
    let aug = spec.clone().augment().expect("star warehouse augments");
    for (sf, label) in [(0.05, "sf0.05"), (0.5, "sf0.5")] {
        let base = dwc_starschema::generate(&dwc_starschema::ScaleConfig::scaled(sf), 1999);
        let w = aug.materialize(&base).expect("W(base)");
        let stream = StarStream::new(&base);
        for batch in [1u64, 64] {
            let net = Update::net((0..batch).map(|i| stream.get(i)))
                .expect("same headers")
                .expect("the stream never repeats a row");
            let plan = aug.compile_plan(&net.touched().collect()).expect("compiles");
            let (_, _, pass) = plan.apply_counted(&w, &net).expect("maintains");
            let group = dwc_bench::stamped("server")
                .field_num("reports", batch)
                .field_num("delta_rows", net.len() as u64)
                .field_num("rows_touched", pass.rows_touched);
            group.run(&format!("maintain-pass/star-b{batch}/{label}"), || {
                black_box(plan.apply_counted(&w, &net).expect("maintains"))
            });
        }
    }
}

/// The star stream past its prologue as sequenced envelopes of one
/// source: the cycle repeated until its length is a multiple of
/// `batch`, so consecutive `batch`-sized windows tile it. A full pass
/// over the pool returns the state to where it began; the next pass
/// re-offers it under a newer source epoch (which resets the sequence).
fn star_pool(stream: &StarStream, batch: usize) -> Vec<Envelope> {
    let cycle = stream.cycle.len();
    let (mut a, mut b) = (cycle, batch);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    let source = SourceId::new("bench");
    (0..cycle * (batch / a))
        .map(|i| Envelope {
            source: source.clone(),
            epoch: 1,
            seq: i as u64,
            report: stream.cycle[i % cycle].clone(),
        })
        .collect()
}

/// `ingest-step/star-b{1,64}`, `ingest-pass/star-b{1,64}` and
/// `wal-encode/star-b64`: the engine thread's in-memory work for one
/// group commit, in process at scale 0.05, over the steady-state
/// windows of the star stream.
///
/// * `ingest-step` is one [`IngestingIntegrator::offer_batch`] —
///   sequencing, validation, the fold into one net delta and the one
///   maintenance pass over it.
/// * `ingest-pass` is that pass alone, over the same windows' net
///   deltas against the same states, so `ingest-step / ingest-pass` is
///   what a step costs per unit of the paper's work.
/// * `wal-encode` is the commit's CPU before its append: the 64 frames
///   of one batch encoded into one reused buffer.
fn ingest_step_rows(spec: &WarehouseSpec, base: &DbState) {
    let stream = StarStream::new(base);
    let aug = spec.clone().augment().expect("star warehouse augments");
    let state = aug.materialize(base).expect("W(base)");
    for batch in [1usize, 64] {
        let integ = Integrator::from_state(aug.clone(), state.clone(), IntegratorConfig)
            .expect("integrator");
        let mut ing = IngestingIntegrator::new(integ, IngestConfig::default()).expect("ingestor");
        let source = SourceId::new("bench");
        for (seq, report) in stream.prologue.iter().enumerate() {
            let env = Envelope {
                source: source.clone(),
                epoch: 0,
                seq: seq as u64,
                report: report.clone(),
            };
            assert_eq!(ing.offer(&env), IngestOutcome::Applied(1));
        }
        let mut pool = star_pool(&stream, batch);
        // One untimed pass: every window applies in one pass, no fallback.
        // It also records each window's state and net delta for the
        // pass-only row.
        let mut passes = Vec::new();
        let mut plans = BTreeMap::new();
        for window in pool.chunks(batch) {
            let net = Update::net(window.iter().map(|e| &e.report))
                .expect("same headers")
                .expect("a window never repeats a row");
            let touched: Vec<_> = net.touched().collect();
            if !plans.contains_key(&touched) {
                let plan = aug.compile_plan(&touched.iter().copied().collect()).expect("compiles");
                plans.insert(touched.clone(), plan);
            }
            passes.push((ing.state().clone(), net, touched));
            let outcomes = ing.offer_batch(window);
            assert!(outcomes.iter().all(|o| *o == IngestOutcome::Applied(1)), "{outcomes:?}");
        }
        assert_eq!(ing.stats().fallbacks, 0);
        let group = dwc_bench::stamped("server")
            .field_num("reports", batch as u64)
            .field_num("windows", (pool.len() / batch) as u64);
        let (mut at, mut epoch) = (0usize, 2u64);
        group.run(&format!("ingest-step/star-b{batch}"), || {
            let window = &mut pool[at..at + batch];
            for e in window.iter_mut() {
                e.epoch = epoch;
            }
            let outcomes = ing.offer_batch(window);
            at += batch;
            if at == pool.len() {
                (at, epoch) = (0, epoch + 1);
            }
            outcomes
        });
        assert_eq!(ing.stats().fallbacks, 0);
        let mut at = 0;
        group.run(&format!("ingest-pass/star-b{batch}"), || {
            let (state, net, touched) = &passes[at];
            at = (at + 1) % passes.len();
            plans[touched].apply_counted(state, net).expect("maintains")
        });

        if batch == 64 {
            let records: Vec<WalRecord> =
                pool[..batch].iter().cloned().map(WalRecord::Offered).collect();
            let mut frames = Vec::new();
            group.run("wal-encode/star-b64", || {
                frames.clear();
                for r in &records {
                    encode_frame(&mut frames, r);
                }
                frames.len()
            });
        }
    }
}

/// `acks-per-sec/star-batch{1,64}-src1`: what a group commit costs per
/// envelope once each envelope's report has to be maintained.
fn star_rows(spec: &WarehouseSpec, base: &DbState, scratch_dirs: &mut Vec<PathBuf>) {
    let stream = StarStream::new(base);
    let (nproc, commit) = dwc_bench::host_stamp();
    let source = SourceId::new("bench");

    for &max_batch in &[1usize, 64] {
        let dir = scratch(&format!("star-b{max_batch}"));
        scratch_dirs.push(dir.clone());
        let dw = star_warehouse(spec, base, &dir);
        let mut core =
            ServerCore::new(dw, BatchPolicy { max_batch, max_wait_micros: 1_000_000 });
        let session = core.connect(source.clone()).session;
        let mut seq = 0u64;
        let mut deliver = |n: usize| {
            let mut acks = 0;
            for _ in 0..n {
                let envelope =
                    Envelope { source: source.clone(), epoch: 0, seq, report: stream.get(seq).clone() };
                acks += core.deliver(session, envelope, 0).expect("deliver").len();
                seq += 1;
            }
            acks += core.flush().expect("flush").len();
            assert_eq!(acks, n, "every envelope must be acked");
            acks
        };
        deliver(stream.prologue.len());
        let group = dwc_bench::stamped("server")
            .field_num("max_batch", max_batch as u64)
            .field_num("sources", 1)
            .field_num("envelopes_per_iter", ENVELOPES as u64);
        let stats = group.run(&format!("group-commit/star-batch{max_batch}-src1"), || {
            black_box(deliver(ENVELOPES))
        });
        let acks_per_sec =
            (ENVELOPES as u128 * 1_000_000_000 / u128::from(stats.median_ns.max(1))) as u64;
        println!(
            "{{\"group\":\"server\",\"bench\":\"acks-per-sec/star-batch{max_batch}-src1\",\"acks_per_sec\":{acks_per_sec},\"max_batch\":{max_batch},\"sources\":1,\"nproc\":{nproc},\"commit\":\"{commit}\"}}"
        );
    }
}

fn main() {
    let (nproc, commit) = dwc_bench::host_stamp();
    let mut scratch_dirs = Vec::new();
    let mut measured: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut modeled: BTreeMap<(usize, usize), u64> = BTreeMap::new();

    for &sources in &[1usize, 4] {
        let schedule = build_schedule(sources);
        for &max_batch in &[1usize, 16, 64] {
            // --- wall clock over the real filesystem ---
            let dir = scratch(&format!("b{max_batch}-s{sources}"));
            scratch_dirs.push(dir.clone());
            let medium = FsMedium::new(&dir).expect("scratch dir");
            let dw = DurableWarehouse::create(medium, fresh_ingest(), config())
                .expect("creates");
            let mut core = ServerCore::new(
                dw,
                BatchPolicy { max_batch, max_wait_micros: 1_000_000 },
            );
            let sessions: Vec<SessionId> = (0..sources)
                .map(|s| core.connect(SourceId::new(format!("src{s}"))).session)
                .collect();
            let group = dwc_bench::stamped("server")
                .field_num("max_batch", max_batch as u64)
                .field_num("sources", sources as u64)
                .field_num("envelopes_per_iter", ENVELOPES as u64);
            let stats = group.run(&format!("group-commit/batch{max_batch}-src{sources}"), || {
                black_box(pump(&mut core, &sessions, &schedule))
            });
            let acks_per_sec =
                (ENVELOPES as u128 * 1_000_000_000 / u128::from(stats.median_ns.max(1))) as u64;
            measured.insert((sources, max_batch), acks_per_sec);
            println!(
                "{{\"group\":\"server\",\"bench\":\"acks-per-sec/batch{max_batch}-src{sources}\",\"acks_per_sec\":{acks_per_sec},\"max_batch\":{max_batch},\"sources\":{sources},\"nproc\":{nproc},\"commit\":\"{commit}\"}}"
            );

            // --- deterministic SimDisk accounting + cost model ---
            let fs = SimDisk::default();
            let dw = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(), config())
                .expect("creates");
            let mut core = ServerCore::new(
                dw,
                BatchPolicy { max_batch, max_wait_micros: 1_000_000 },
            );
            let sessions: Vec<SessionId> = (0..sources)
                .map(|s| core.connect(SourceId::new(format!("src{s}"))).session)
                .collect();
            let syncs_before = fs.syncs();
            pump(&mut core, &sessions, &schedule);
            let fsyncs = fs.syncs() - syncs_before;
            let storage = core.warehouse().storage_stats();
            assert_eq!(storage.wal_syncs, fsyncs, "accounting cross-check");
            // Modeled cost per acked envelope: appends at unit cost,
            // fsyncs at FSYNC_COST; modeled rate is acks per kilo-unit.
            let cost = ENVELOPES as u64 + fsyncs * FSYNC_COST;
            let modeled_rate = ENVELOPES as u64 * 1_000 / cost;
            modeled.insert((sources, max_batch), modeled_rate);
            println!(
                "{{\"group\":\"server\",\"bench\":\"fsync-accounting/batch{max_batch}-src{sources}\",\"acks\":{ENVELOPES},\"fsyncs\":{fsyncs},\"modeled_acks_per_kunit\":{modeled_rate},\"max_batch\":{max_batch},\"sources\":{sources},\"nproc\":{nproc},\"commit\":\"{commit}\"}}"
            );
        }
    }

    // The headline claim, both ways: measured wall clock and the
    // deterministic accounting model. speedup_x100 is the ratio ×100.
    for &sources in &[1usize, 4] {
        for &batch in &[16usize, 64] {
            let measured_x100 =
                measured[&(sources, batch)] * 100 / measured[&(sources, 1)].max(1);
            let modeled_x100 = modeled[&(sources, batch)] * 100 / modeled[&(sources, 1)].max(1);
            println!(
                "{{\"group\":\"server\",\"bench\":\"claim/batch{batch}-vs-1-src{sources}\",\"measured_speedup_x100\":{measured_x100},\"modeled_speedup_x100\":{modeled_x100},\"threshold_x100\":500,\"nproc\":{nproc},\"commit\":\"{commit}\"}}"
            );
        }
    }

    let (spec, base) = star_spec_and_base();
    star_rows(&spec, &base, &mut scratch_dirs);
    maintain_pass_rows(&spec);
    ingest_step_rows(&spec, &base);
    query_rows(&spec, &base, &mut scratch_dirs);

    for dir in scratch_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
