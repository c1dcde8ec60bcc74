//! E11 timing backbone: complement computation (cover enumeration) and
//! complement materialization cost.

use dwc_bench::experiments::{fig1_catalog, fig1_state};
use dwc_bench::stamped;
use dwc_core::constrained::{complement_with, ComplementOptions};
use dwc_core::psj::{NamedView, PsjView};
use dwc_starschema::star_warehouse;
use dwc_warehouse::WarehouseSpec;
use std::hint::black_box;

fn bench_computation() {
    let group = stamped("complement-computation");
    // Redundant key-projection views: worst case for cover multiplicity.
    for &k in &[4usize, 8, 12] {
        let width = 4;
        let mut cat = dwc_relalg::Catalog::new();
        let attrs: Vec<String> =
            std::iter::once("key".to_owned()).chain((0..width).map(|i| format!("a{i}"))).collect();
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        cat.add_schema_with_key("R", &attr_refs, &["key"]).expect("static");
        let views: Vec<NamedView> = (0..k)
            .map(|i| {
                NamedView::new(
                    format!("V{i}").as_str(),
                    PsjView::project_of(&cat, "R", &["key", &format!("a{}", i % width)])
                        .expect("static"),
                )
            })
            .collect();
        group.run(&format!("theorem-2.2/{k}"), || {
            black_box(
                complement_with(&cat, &views, &ComplementOptions::default())
                    .expect("complement"),
            )
        });
    }
    // The star schema (realistic shape).
    let (cat, views) = star_warehouse();
    group.run("theorem-2.2/star-schema", || {
        black_box(
            complement_with(&cat, &views, &ComplementOptions::default())
                .expect("complement"),
        )
    });
}

fn bench_materialization() {
    let group = stamped("complement-materialization");
    for &n in &[1_000usize, 10_000] {
        let catalog = fig1_catalog(false);
        let db = fig1_state(n, n / 4, false, 11);
        let aug = WarehouseSpec::parse(catalog, &[("Sold", "Sale join Emp")])
            .expect("static spec")
            .augment()
            .expect("complement exists");
        group.run(&format!("fig1/{n}"), || {
            black_box(aug.materialize(&db).expect("materializes"))
        });
    }
}

fn main() {
    bench_computation();
    bench_materialization();
}
