//! E14 — ablation of the maintenance-plan optimizations.
//!
//! Example 4.1 read naively — substitute the inverse expression at every
//! base reference and evaluate — is correct but does the most work: the
//! reconstruction is re-derived per occurrence. E14 toggles the three
//! plan optimizations and times one insertion against the scaled Figure 1
//! warehouse, with wholesale reconstruction as the yardstick:
//!
//! * `naive`        — inline inverses, no folding, no memoization,
//! * `+materialize` — `R@inv` named once, evaluated at most once a pass,
//! * `+fold`        — stored-definition folding on top,
//! * `full`         — plus cross-step memoization (the default).
//!
//! Expected shape: naive slowest, full fastest; each knob helps. Since
//! the pass reads inverses only at the keys the delta reaches (DESIGN.md
//! §15), every configuration beats wholesale reconstruction.

use crate::report::{Cell, Table};
use dwc_relalg::{RelName, Relation, Tuple, Update, Value};
use dwc_warehouse::incremental::PlanOptions;
use dwc_warehouse::WarehouseSpec;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

fn insertion(n_emps: usize) -> Update {
    let mut rows = Relation::empty(dwc_relalg::AttrSet::from_names(&["clerk", "item"]));
    rows.insert(Tuple::new(vec![
        Value::str(&format!("clerk{}", n_emps / 2)),
        Value::str("ablation-item"),
    ]))
    .expect("arity");
    Update::inserting("Sale", rows)
}

/// Runs E14.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 4_000 } else { 10_000 };
    let reps = if quick { 64 } else { 8 };
    let n_emps = (n / 4).max(8);
    let catalog = super::fig1_catalog(false);
    let db = super::fig1_state(n, n_emps, false, 13);
    let aug = WarehouseSpec::parse(catalog, &[("Sold", "Sale join Emp")])
        .expect("static spec")
        .augment()
        .expect("complement exists");
    let w = aug.materialize(&db).expect("materializes");
    let u = insertion(n_emps).normalize(&db).expect("consistent");
    let touched: BTreeSet<RelName> = u.touched().collect();
    let oracle = aug
        .materialize(&u.apply(&db).expect("applies"))
        .expect("materializes");

    let configs: [(&str, PlanOptions); 4] = [
        ("naive (inline everything)", PlanOptions::naive()),
        (
            "+materialize inverses",
            PlanOptions {
                materialize_inverses: true,
                fold_stored: false,
                memoize_eval: false,
            },
        ),
        (
            "+fold stored defs",
            PlanOptions {
                materialize_inverses: true,
                fold_stored: true,
                memoize_eval: false,
            },
        ),
        ("full (default)", PlanOptions::default()),
    ];

    let mut t = Table::new(
        format!("E14: maintenance-plan optimization ablation, |Sale| = {n}, single insertion"),
        &["configuration", "plan size", "time/upd", "vs reconstruct", "exact"],
    );

    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            aug.maintain_by_reconstruction(&w, &u).expect("reconstructs"),
        );
    }
    let t_reconstruct = start.elapsed() / reps;

    for (label, opts) in configs {
        let plan = aug.compile_plan_with(&touched, opts).expect("compiles");
        let result = plan.apply(&w, &u).expect("maintains");
        let exact = result == oracle;
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(plan.apply(&w, &u).expect("maintains"));
        }
        let elapsed = start.elapsed() / reps;
        t.row(vec![
            Cell::from(label),
            Cell::from(plan.size()),
            Cell::from(elapsed),
            Cell::Float(t_reconstruct.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)),
            Cell::from(exact),
        ]);
    }
    t.row(vec![
        Cell::from("(reconstruct W∘u∘W⁻¹)"),
        Cell::from(0usize),
        Cell::from(t_reconstruct),
        Cell::Float(1.0),
        Cell::from(true),
    ]);

    t.note("every configuration is CORRECT; the ablation is purely about cost");
    t.note("naive is slowest: inlining re-derives the (delta-restricted) reconstruction per occurrence");
    let _ = Duration::ZERO;
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_configurations_are_exact_and_ordered() {
        let tables = super::run(true);
        let t = &tables[0];
        for c in t.column("exact") {
            assert_eq!(c.as_text(), Some("yes"));
        }
        let speedups: Vec<f64> = t
            .column("vs reconstruct")
            .iter()
            .map(|c| c.as_f64().unwrap())
            .collect();
        // naive must be the slowest configuration; full the fastest.
        let naive = speedups[0];
        let full = speedups[3];
        assert!(full > naive, "optimizations did not help: naive {naive}, full {full}");
        // plan sizes shrink monotonically from naive to folded
        let sizes: Vec<i64> = t.column("plan size").iter().map(|c| c.as_int().unwrap()).collect();
        assert!(sizes[0] > sizes[2], "folding should shrink the plan: {sizes:?}");
    }
}
