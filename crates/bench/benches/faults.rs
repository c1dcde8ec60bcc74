//! Serving under a fallible medium: what degraded mode costs.
//!
//! Drives [`ServerCore`] end to end over the simulated disk
//! ([`SimDisk`]) at increasing transient-error rates (0‰ / 50‰ / 200‰ on
//! appends and fsyncs), reporting wall-clock acked envelopes per second
//! with the retry/backoff machinery absorbing every injected fault —
//! every run must still ack all `ENVELOPES` envelopes (the completeness
//! claim row pins that at exactly 100%). Alongside the wall clock, a
//! deterministic pass over the `sched` virtual clock models fsync
//! stalls (500µs per sync) and prices commit latency per batch cap,
//! pinning the claim that group commit amortizes a stalling medium:
//! batch = 16 sustains ≥ 5× the modeled acks/sec of batch = 1 under the
//! same stall. `scripts/bench.sh` collects every line into
//! `BENCH_faults.json`.

use dwc_relalg::{Catalog, DbState, Relation, Tuple, Update, Value};
use dwc_bench::DiskMedium;
use dwc_testkit::sched::VirtualClock;
use dwc_testkit::{MediumPlan, SimDisk};
use dwc_warehouse::channel::{Envelope, SequencedSource, SourceId};
use dwc_warehouse::ingest::{IngestConfig, IngestingIntegrator};
use dwc_warehouse::integrator::{Integrator, SourceSite};
use dwc_warehouse::server::{BatchPolicy, RetryPolicy, ServerCore, ServerError, SessionId};
use dwc_warehouse::{DurabilityConfig, DurableWarehouse, WarehouseSpec};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;

/// Acked envelopes per timed iteration (all configurations).
const ENVELOPES: usize = 64;

/// Modeled fsync stall for the virtual-clock pass, in microseconds.
const STALL_MICROS: u64 = 500;

/// Pinned plan seed — every iteration replays the same fault sequence
/// (chosen so each nonzero error rate injects at least one fault).
const SEED: u64 = 0xFA57_BE2C_0000_0015;

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

/// Short virtual backoffs: the retry schedule still doubles, but a
/// degraded run spends its time in IO, not in modeled waiting.
fn bench_retry() -> RetryPolicy {
    RetryPolicy { max_attempts: 4, base_backoff_micros: 10, max_backoff_micros: 160 }
}

/// `ENVELOPES` single-row inserts from one sequenced source.
fn build_schedule() -> Vec<Envelope> {
    let site = SourceSite::new(chain_catalog(), DbState::empty_for(&chain_catalog())).expect("site");
    let mut src = SequencedSource::new(SourceId::new("src0"), site);
    (0..ENVELOPES)
        .map(|i| {
            let v = i as i64;
            src.apply_update(&Update::inserting("R", row(&["a", "b"], &[v, v + 1])))
                .expect("source applies its own update")
        })
        .collect()
}

/// Delivers the whole schedule and drains every retry/heal deadline to
/// completion, returning the ack count. Transient-only plans always
/// converge; a wedged loop fails loudly through the tick budget.
fn drive(
    core: &mut ServerCore<DiskMedium>,
    session: SessionId,
    schedule: &[Envelope],
) -> usize {
    let mut acks = 0;
    let mut now = 0u64;
    let mut budget = 100_000u32;
    let mut tick = |core: &mut ServerCore<DiskMedium>, now: u64, acks: &mut usize| {
        budget = budget.checked_sub(1).expect("tick budget exhausted (wedged retry loop?)");
        *acks += core.tick(now).expect("transient-only plan never fails a tick").len();
    };
    for env in schedule {
        now += 10;
        loop {
            match core.deliver(session, env.clone(), now) {
                Ok(released) => {
                    acks += released.len();
                    break;
                }
                Err(ServerError::Busy { .. }) | Err(ServerError::ReadOnly { .. }) => {
                    now = now.max(core.next_deadline().expect("nacked with nothing pending"));
                    tick(core, now, &mut acks);
                }
                Err(e) => panic!("unexpected delivery error: {e}"),
            }
        }
        while core.next_deadline().is_some_and(|d| d <= now) {
            tick(core, now, &mut acks);
        }
    }
    acks += core.flush().expect("flush").len();
    while let Some(deadline) = core.next_deadline() {
        now = now.max(deadline);
        tick(core, now, &mut acks);
    }
    acks
}

/// One full serving run over a fresh faulty disk; returns (acks,
/// injected fault count, group commits).
fn run_once(plan: MediumPlan, max_batch: usize) -> (usize, u64, u64) {
    // Creation runs over a clean medium; the faults arm for serving.
    let fs = SimDisk::default();
    let dw = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(), config())
        .expect("create over a clean medium");
    fs.set_plan(plan);
    let mut core = ServerCore::new(dw, BatchPolicy { max_batch, max_wait_micros: 1_000 });
    core.set_retry_policy(bench_retry());
    let session = core.connect(SourceId::new("src0")).session;
    let acks = drive(&mut core, session, &build_schedule());
    let commits = core.warehouse().storage_stats().group_commits;
    (acks, fs.injected(), commits)
}

fn main() {
    let (nproc, commit) = dwc_bench::host_stamp();
    // --- wall clock at increasing transient-error rates ---
    for &permille in &[0u16, 50, 200] {
        let plan = MediumPlan {
            seed: SEED ^ u64::from(permille),
            append_permille: permille,
            sync_permille: permille,
            ..MediumPlan::clean()
        };
        // Deterministic side channel: fault/retry volume of one run.
        let (acks, injected, _) = run_once(plan.clone(), 16);
        assert_eq!(acks, ENVELOPES, "degraded mode must not lose envelopes");

        let group = dwc_bench::stamped("faults")
            .field_num("error_permille", u64::from(permille))
            .field_num("envelopes_per_iter", ENVELOPES as u64)
            .field_num("injected_per_run", injected);
        let stats = group.run(&format!("serve/transient-{permille}permille"), || {
            black_box(run_once(plan.clone(), 16).0)
        });
        let acks_per_sec =
            (ENVELOPES as u128 * 1_000_000_000 / u128::from(stats.median_ns.max(1))) as u64;
        println!(
            "{{\"group\":\"faults\",\"bench\":\"acks-per-sec/transient-{permille}permille\",\"acks_per_sec\":{acks_per_sec},\"error_permille\":{permille},\"injected_per_run\":{injected},\"nproc\":{nproc},\"commit\":\"{commit}\"}}"
        );
        // The completeness claim: every envelope acked despite faults.
        println!(
            "{{\"group\":\"faults\",\"bench\":\"claim/complete-at-{permille}permille\",\"acked_x100\":{},\"threshold_x100\":100,\"nproc\":{nproc},\"commit\":\"{commit}\"}}",
            acks * 100 / ENVELOPES
        );
    }

    // --- modeled fsync stalls over the virtual clock ---
    let mut modeled: BTreeMap<usize, u64> = BTreeMap::new();
    for &max_batch in &[1usize, 16] {
        let clock = Rc::new(RefCell::new(VirtualClock::new()));
        let plan = MediumPlan {
            seed: SEED,
            sync_latency_micros: STALL_MICROS,
            ..MediumPlan::clean()
        };
        let fs = SimDisk::with_clock(plan, Rc::clone(&clock));
        let dw = DurableWarehouse::create(DiskMedium(fs.clone()), fresh_ingest(), config())
            .expect("create");
        let after_create = clock.borrow().now();
        let mut core = ServerCore::new(dw, BatchPolicy { max_batch, max_wait_micros: 1_000 });
        let session = core.connect(SourceId::new("src0")).session;
        let acks = drive(&mut core, session, &build_schedule());
        assert_eq!(acks, ENVELOPES);
        let commits = core.warehouse().storage_stats().group_commits.max(1);
        let serve_micros = (clock.borrow().now() - after_create).max(1);
        let latency_per_commit = serve_micros / commits;
        let modeled_rate = ENVELOPES as u64 * 1_000_000 / serve_micros;
        modeled.insert(max_batch, modeled_rate);
        println!(
            "{{\"group\":\"faults\",\"bench\":\"fsync-stall/batch{max_batch}\",\"stall_micros\":{STALL_MICROS},\"commits\":{commits},\"modeled_commit_latency_micros\":{latency_per_commit},\"modeled_acks_per_sec\":{modeled_rate},\"max_batch\":{max_batch},\"nproc\":{nproc},\"commit\":\"{commit}\"}}"
        );
    }
    let amortized_x100 = modeled[&16] * 100 / modeled[&1].max(1);
    println!(
        "{{\"group\":\"faults\",\"bench\":\"claim/batch16-amortizes-stalls\",\"modeled_speedup_x100\":{amortized_x100},\"threshold_x100\":500,\"nproc\":{nproc},\"commit\":\"{commit}\"}}"
    );
}
