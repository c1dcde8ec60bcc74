//! E21: adaptive maintenance vs the fixed strategies, end-to-end
//! through the ingest path.
//!
//! Each row times one `IngestingIntegrator::offer` of a single-tuple
//! report on a freshly cloned ingestor (the clone is identical
//! common-mode overhead across strategies) whose maintenance policy is
//! pinned to one strategy — or plans adaptively with a pre-warmed
//! decision cache, the steady state of a long-running server. Rows are
//! tagged with a `strategy` field so the sweep can be compared against
//! the raw `maintenance` group.
//!
//! A final `planner/choose` row times the bare cost-model ranking at
//! two state sizes six orders of magnitude apart: planning is O(plan),
//! tens of microseconds, never O(data).

use dwc_analyze::cost::CostConstants;
use dwc_analyze::planner::{choose, PlannerInputs, WorkloadProfile};
use dwc_bench::experiments::{fig1_catalog, fig1_state};
use dwc_bench::stamped;
use dwc_relalg::{RelName, Relation, Tuple, Update, Value};
use dwc_warehouse::integrator::{Integrator, IntegratorConfig};
use dwc_warehouse::planner::MaintenanceStrategy;
use dwc_warehouse::{
    AdaptivePolicy, Envelope, IngestConfig, IngestingIntegrator, SourceId, WarehouseSpec,
};
use std::hint::black_box;

fn insertion(i: usize, clerks: usize) -> Update {
    let mut rows = Relation::empty(dwc_relalg::AttrSet::from_names(&["clerk", "item"]));
    rows.insert(Tuple::new(vec![
        Value::str(&format!("clerk{}", i % clerks)),
        Value::str(&format!("bench-item{i}")),
    ]))
    .expect("arity");
    Update::inserting("Sale", rows)
}

fn envelope(seq: u64, i: usize, clerks: usize) -> Envelope {
    Envelope { source: SourceId::new("bench"), epoch: 0, seq, report: insertion(i, clerks) }
}

/// An ingestor over the scaled fig1 warehouse with `policy` installed
/// and one report already applied — decision cache warm, mirrors live.
fn warmed(n: usize, clerks: usize, policy: AdaptivePolicy) -> IngestingIntegrator {
    let catalog = fig1_catalog(false);
    let db = fig1_state(n, clerks, false, 42);
    let aug = WarehouseSpec::parse(catalog, &[("Sold", "Sale join Emp")])
        .expect("static spec")
        .augment()
        .expect("complement exists");
    let state = aug.materialize(&db).expect("materializes");
    let integ = Integrator::from_state(aug, state, IntegratorConfig { cache_inverses: true })
        .expect("state matches spec");
    let mut ingest =
        IngestingIntegrator::new(integ, IngestConfig::default()).expect("accept gate");
    ingest.set_policy(policy);
    ingest.offer(&envelope(0, 0, clerks));
    ingest
}

fn main() {
    for &n in &[1_000usize, 10_000] {
        let clerks = n / 4;
        let strategies: Vec<(&str, AdaptivePolicy)> = vec![
            ("adaptive", AdaptivePolicy::adaptive()),
            ("incremental", AdaptivePolicy::fixed(MaintenanceStrategy::Incremental)),
            (
                "incremental-mirrored",
                AdaptivePolicy::fixed(MaintenanceStrategy::MirroredIncremental),
            ),
            ("reconstruct", AdaptivePolicy::fixed(MaintenanceStrategy::Reconstruction)),
        ];
        for (tag, policy) in strategies {
            let base = warmed(n, clerks, policy);
            let next = envelope(1, 1, clerks);
            let group = stamped("maintenance-adaptive").field_str("strategy", tag);
            group.run(&format!("{tag}/{n}"), || {
                let mut ing = base.clone();
                black_box(ing.offer(&next))
            });
        }
        // The clone alone, for reading the common-mode overhead out of
        // the rows above.
        let base = warmed(n, clerks, AdaptivePolicy::off());
        stamped("maintenance-adaptive")
            .field_str("strategy", "clone-baseline")
            .run(&format!("clone-baseline/{n}"), || black_box(base.clone()));
    }

    // Bare planning cost, flat across six orders of magnitude of
    // (claimed) state size.
    let catalog = fig1_catalog(false);
    let aug = WarehouseSpec::parse(catalog.clone(), &[("Sold", "Sale join Emp")])
        .expect("static spec")
        .augment()
        .expect("complement exists");
    let definitions = aug.all_definitions();
    let inputs = PlannerInputs {
        catalog: aug.catalog(),
        definitions: &definitions,
        inverses: aug.inverse(),
    };
    let consts = CostConstants::calibrated();
    for rows in [10_000.0f64, 1e10] {
        let mut profile = WorkloadProfile::default();
        profile.base_rows.insert(RelName::new("Sale"), rows);
        profile.base_rows.insert(RelName::new("Emp"), rows / 4.0);
        for &view in definitions.keys() {
            profile.stored_rows.insert(view, rows);
        }
        profile.delta_rows.insert(RelName::new("Sale"), 1.0);
        profile.mirrors_cached = true;
        stamped("maintenance-adaptive")
            .field_str("strategy", "planner")
            .run(&format!("planner-choose/{}", rows as u64), || {
                black_box(choose(&inputs, &profile, &consts))
            });
    }
}
