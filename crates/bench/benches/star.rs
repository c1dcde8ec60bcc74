//! E10 timing backbone: end-to-end star-schema maintenance throughput
//! and warehouse query answering at scale factors.

use dwc_starschema::queries::workload;
use dwc_starschema::{generate, star_warehouse, ScaleConfig, UpdateStream};
use dwc_bench::stamped;
use dwc_warehouse::integrator::{Integrator, SourceSite};
use dwc_warehouse::WarehouseSpec;
use std::hint::black_box;

fn bench_star_maintenance() {
    let group = stamped("star-maintenance").samples(10);
    for &sf in &[0.005f64, 0.02] {
        let (catalog, views) = star_warehouse();
        let spec = WarehouseSpec::new(catalog.clone(), views).expect("static spec");
        let db = generate(&ScaleConfig::scaled(sf), 99);
        let site = SourceSite::new(catalog, db.clone()).expect("valid");
        let integ0 = Integrator::initial_load(spec.clone().augment().expect("aug"), &site)
            .expect("load");

        group.run(&format!("integrator-30-updates/sf{sf}"), || {
            let mut integ = integ0.clone();
            let mut stream = UpdateStream::new(&db, 1);
            let mut shadow = db.clone();
            for _ in 0..30 {
                let u = stream.next();
                // the stream pre-normalizes against its own state
                u.apply_mut(&mut shadow).expect("applies");
                integ.on_report(&u).expect("maintains");
            }
            black_box(integ.state().total_tuples())
        });
    }
}

fn bench_star_queries() {
    let group = stamped("star-queries");
    let sf = 0.02;
    let (catalog, views) = star_warehouse();
    let spec = WarehouseSpec::new(catalog, views).expect("static spec");
    let aug = spec.augment().expect("complement exists");
    let db = generate(&ScaleConfig::scaled(sf), 99);
    let w = aug.materialize(&db).expect("materializes");
    for q in workload() {
        let translated = aug.translate_query(&q.expr).expect("translates");
        group.run(&format!("at-warehouse/{}", q.name), || {
            black_box(translated.eval(&w).expect("evaluates"))
        });
        group.run(&format!("at-source/{}", q.name), || {
            black_box(q.expr.eval(&db).expect("evaluates"))
        });
    }
}

fn main() {
    bench_star_maintenance();
    bench_star_queries();
}
