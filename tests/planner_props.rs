//! One-route ingest differential.
//!
//! Theorem 4.1 sends every maintenance strategy to the same state, so
//! the server makes no run-time choice: every report takes the
//! restricted incremental pass, which falls back to whole evaluation
//! step by step. This suite pins that the one route converges, however
//! a stream is sliced: over seeded random warehouses and update streams
//! on two specs, `offer_batch` one report per slice and the whole stream
//! as one slice both reach exactly the state the Theorem 4.1 oracle
//! `W(u(d))` prescribes, every report applies, and the slice counters
//! say how many passes ran with no fallback.
//!
//! Seed-deterministic on the dwc-testkit runner; verify.sh step 12
//! replays a pinned seed offline.

use dwc_testkit::prop::Runner;
use dwc_testkit::{tk_ensure, tk_ensure_eq};
use dwcomplements::relalg::gen::{self, StateGenConfig};
use dwcomplements::relalg::{Catalog, DbState, Delta, Update};
use dwcomplements::warehouse::integrator::{Integrator, IntegratorConfig};
use dwcomplements::warehouse::{
    Envelope, IngestConfig, IngestOutcome, IngestingIntegrator, SourceId, WarehouseSpec,
};

/// The specs the differential runs over: the paper's Figure 1 join
/// warehouse and the Example 2.3 projection split (different complement
/// shapes, different delta rules).
fn specs() -> Vec<(Catalog, Vec<(&'static str, &'static str)>)> {
    let mut fig1 = Catalog::new();
    fig1.add_schema("Sale", &["item", "clerk"]).expect("Sale");
    fig1.add_schema_with_key("Emp", &["clerk", "age"], &["clerk"])
        .expect("Emp");
    let mut ex23 = Catalog::new();
    ex23.add_schema_with_key("R1", &["A", "B", "C"], &["A"]).expect("R1");
    vec![
        (fig1, vec![("Sold", "Sale join Emp")]),
        (ex23, vec![("V1", "pi[A, B](R1)"), ("V2", "pi[A, C](R1)")]),
    ]
}

/// A stream of normalized reports walking `db0` through random target
/// states; returns the reports and the final source state.
fn random_stream(
    catalog: &Catalog,
    db0: &DbState,
    seed: u64,
    steps: u64,
) -> (Vec<Update>, DbState) {
    let cfg = StateGenConfig::new(24, 8);
    let mut cur = db0.clone();
    let mut reports = Vec::new();
    for step in 0..steps {
        let target = gen::random_state(catalog, &cfg, seed.wrapping_add(step).wrapping_mul(0x9e3779b97f4a7c15) | 1);
        let mut u = Update::new();
        for (name, t) in target.iter() {
            let current = cur.relation(name).expect("schema matches");
            u = u.with(
                name.as_str(),
                Delta::new(
                    t.difference(current).expect("same header"),
                    current.difference(t).expect("same header"),
                )
                .expect("disjoint by construction"),
            );
        }
        reports.push(u);
        cur = target;
    }
    (reports, cur)
}

fn ingestor(aug: &dwcomplements::warehouse::AugmentedWarehouse, state: &DbState) -> IngestingIntegrator {
    let integ = Integrator::from_state(aug.clone(), state.clone(), IntegratorConfig)
        .expect("state matches spec");
    IngestingIntegrator::new(integ, IngestConfig::default()).expect("spec passes the accept gate")
}

/// The one maintenance route converges bit-identically to the Theorem
/// 4.1 oracle `W(u(d))` over random update streams, offered one report
/// per slice and as one slice of the whole stream.
#[test]
fn one_route_converges_to_the_oracle_at_every_slicing() {
    Runner::new("planner_strategies_converge").cases(16).run(
        |rng| rng.next_u64(),
        |&seed| {
            for (catalog, views) in specs() {
                let aug = WarehouseSpec::parse(catalog.clone(), &views)
                    .expect("spec parses")
                    .augment()
                    .expect("spec augments");
                let db0 = gen::random_state(&catalog, &StateGenConfig::new(24, 8), seed);
                let state0 = aug.materialize(&db0).expect("materializes");
                let (reports, final_db) = random_stream(&catalog, &db0, seed, 5);
                let oracle = aug.materialize(&final_db).expect("oracle materializes");
                let envelopes: Vec<Envelope> = reports
                    .iter()
                    .enumerate()
                    .map(|(seq, report)| Envelope {
                        source: SourceId::new("diff"),
                        epoch: 0,
                        seq: seq as u64,
                        report: report.clone(),
                    })
                    .collect();
                let non_empty = reports.iter().filter(|r| !r.is_empty()).count();

                for len in [1, envelopes.len()] {
                    let mut ingest = ingestor(&aug, &state0);
                    for slice in envelopes.chunks(len) {
                        for (i, outcome) in ingest.offer_batch(slice).into_iter().enumerate() {
                            tk_ensure!(
                                outcome == IngestOutcome::Applied(1),
                                "slices of {len}: report {} not applied: {outcome:?}",
                                slice[i].seq
                            );
                        }
                    }
                    tk_ensure_eq!(ingest.state(), &oracle);
                    let stats = ingest.stats();
                    tk_ensure_eq!(stats.fallbacks, 0);
                    if len == 1 {
                        tk_ensure_eq!(stats.passes, non_empty);
                    } else {
                        tk_ensure!(stats.passes <= 1, "one slice ran {} passes", stats.passes);
                    }
                }
            }
            Ok(())
        },
    );
}
