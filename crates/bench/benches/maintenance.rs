//! E1/E3/E8 timing backbone: per-update maintenance cost of the three
//! strategies on the scaled Figure 1 warehouse (timer-grade numbers for
//! EXPERIMENTS.md; the `exp_*` binaries report the communication
//! metrics).

use dwc_bench::experiments::{fig1_catalog, fig1_state};
use dwc_bench::stamped;
use dwc_relalg::{RelName, Relation, Tuple, Update, Value};
use dwc_warehouse::WarehouseSpec;
use std::collections::BTreeSet;
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

fn main() {
    let group = stamped("maintenance");
    for &n in &[1_000usize, 10_000] {
        let clerks = n / 4;
        let catalog = fig1_catalog(false);
        let db = fig1_state(n, clerks, false, 42);
        let spec = WarehouseSpec::parse(catalog, &[("Sold", "Sale join Emp")])
            .expect("static spec");
        let aug = spec.clone().augment().expect("complement exists");
        let w = aug.materialize(&db).expect("materializes");
        let touched: BTreeSet<RelName> = [RelName::new("Sale")].into();
        let plan = aug.compile_plan(&touched).expect("compiles");
        let u = insertion(0, clerks).normalize(&db).expect("consistent");

        group.run(&format!("incremental/{n}"), || {
            black_box(plan.apply(&w, &u).expect("maintains"))
        });
        let mirrors = aug.reconstruct_sources(&w).expect("reconstructs");
        group.run(&format!("incremental-mirrored/{n}"), || {
            black_box(plan.apply_with_mirrors(&w, &u, &mirrors).expect("maintains"))
        });
        group.run(&format!("reconstruct/{n}"), || {
            black_box(aug.maintain_by_reconstruction(&w, &u).expect("maintains"))
        });
        let db_next = u.apply(&db).expect("applies");
        group.run(&format!("recompute-at-source/{n}"), || {
            black_box(spec.materialize(&db_next).expect("materializes"))
        });
        group.run(&format!("plan-compilation/{n}"), || {
            black_box(aug.compile_plan(&touched).expect("compiles"))
        });
    }
}
