//! E8 — Example 4.1: incremental maintenance, delta-size sweep.
//!
//! The paper derives maintenance expressions for an insertion `s` into
//! `Sale` and replaces every base reference by its inverse, obtaining
//! expressions over warehouse views only. This experiment sweeps `|Δ|`
//! and the base size, timing:
//!
//! * `incremental` — the compiled maintenance plan (delta-sized work),
//! * `incr+mirrors` — the same expressions over whole materialized
//!   source mirrors,
//! * `reconstruct` — `W(u(W⁻¹(w)))` evaluated literally,
//!
//! all source-free. Expected shape: incremental wins for small deltas;
//! as `|Δ|` approaches the base size it converges with reconstruction
//! (the crossover).

use crate::report::{Cell, Table};
use dwc_relalg::{RelName, Relation, Tuple, Update, Value};
use dwc_warehouse::WarehouseSpec;
use std::collections::BTreeSet;
use std::time::Instant;

fn batch_insert(delta: usize, n_emps: usize, tag: usize) -> Update {
    let mut rows = Relation::empty(dwc_relalg::AttrSet::from_names(&["clerk", "item"]));
    for i in 0..delta {
        rows.insert(Tuple::new(vec![
            Value::str(&format!("clerk{}", i % n_emps)),
            Value::str(&format!("batch{tag}-item{i}")),
        ]))
        .expect("arity");
    }
    Update::inserting("Sale", rows)
}

/// Runs E8.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 500 } else { 20_000 };
    let deltas: &[usize] = if quick {
        &[1, 50]
    } else {
        &[1, 10, 100, 1_000, 10_000, 20_000]
    };
    let n_emps = (n / 4).max(8);
    let catalog = super::fig1_catalog(false);
    let db = super::fig1_state(n, n_emps, false, 3);
    let spec =
        WarehouseSpec::parse(catalog, &[("Sold", "Sale join Emp")]).expect("static spec");
    let aug = spec.augment().expect("complement exists");
    let w = aug.materialize(&db).expect("materializes");

    // Compile the plan once; it depends only on the touched set.
    let touched: BTreeSet<RelName> = [RelName::new("Sale")].into();
    let plan = aug.compile_plan(&touched).expect("compiles");

    let mut t = Table::new(
        format!("E8 (Ex 4.1): source-free maintenance, |Sale| = {n}, insertion batch sweep"),
        &["|delta|", "incremental", "incr+mirrors", "reconstruct", "speedup", "agree"],
    );

    // Mirrors: the materialized source reconstructions, a full source
    // copy (the trivial complement) the mirrored evaluation reads.
    let mirrors = aug.reconstruct_sources(&w).expect("reconstructs");
    // One untimed pass first: it builds the key indexes the stored
    // relations then keep across passes (DESIGN.md §15), so every row
    // times the steady state a serving warehouse is in.
    let warm = batch_insert(1, n_emps, deltas.len()).normalize(&db).expect("consistent");
    plan.apply(&w, &warm).expect("incremental");

    for (tag, &delta) in deltas.iter().enumerate() {
        let u = batch_insert(delta, n_emps, tag).normalize(&db).expect("consistent");

        let start = Instant::now();
        let w_inc = plan.apply(&w, &u).expect("incremental");
        let t_inc = start.elapsed();

        let start = Instant::now();
        let w_mir = plan.apply_with_mirrors(&w, &u, &mirrors).expect("mirrored");
        let t_mir = start.elapsed();

        let start = Instant::now();
        let w_rec = aug.maintain_by_reconstruction(&w, &u).expect("reconstruction");
        let t_rec = start.elapsed();

        let agree = w_inc == w_rec && w_mir == w_rec;
        t.row(vec![
            Cell::from(delta),
            Cell::from(t_inc),
            Cell::from(t_mir),
            Cell::from(t_rec),
            Cell::Float(t_rec.as_secs_f64() / t_inc.as_secs_f64().max(1e-9)),
            Cell::from(agree),
        ]);
    }

    t.note("paper claim: maintenance expressions reference warehouse views only (all three paths are source-free)");
    t.note("shape: incremental wins at small |delta|; speedup decays toward ~1x as |delta| -> |Sale|");
    t.note("incr+mirrors keeps a full source copy (Sec 6 remark) and evaluates whole relations over it; incremental reads only the keys the delta reaches");

    // Companion: the actual Example 4.1 maintenance expressions.
    let mut exprs = Table::new(
        "E8 companion: compiled maintenance expressions for insertions into Sale",
        &["stored relation", "delta+ (expression)", "delta- (expression)"],
    );
    for (name, d) in plan.steps() {
        exprs.row(vec![
            Cell::from(name.as_str()),
            Cell::from(d.plus.to_string()),
            Cell::from(d.minus.to_string()),
        ]);
    }
    exprs.note("compare Example 4.1: Sold' = Sold u (s x (pi_clerk,age(Sold) u C1)), etc.");
    vec![t, exprs]
}

#[cfg(test)]
mod tests {
    #[test]
    fn incremental_agrees_and_wins_at_small_delta() {
        // Quick mode times sub-millisecond runs on possibly loaded
        // hardware; correctness (`agree`) must hold on every run, the
        // timing assertion gets a few attempts.
        let mut best = f64::MIN;
        for _ in 0..3 {
            let tables = super::run(true);
            let t = &tables[0];
            for c in t.column("agree") {
                assert_eq!(c.as_text(), Some("yes"));
            }
            // The smallest delta should enjoy a clear speedup.
            best = best.max(t.column("speedup")[0].as_f64().unwrap());
            if best > 1.0 {
                return;
            }
        }
        panic!("no incremental advantage at delta=1 in 3 runs; best speedup {best}");
    }

    #[test]
    fn maintenance_expressions_reference_warehouse_only() {
        let tables = super::run(true);
        let exprs = &tables[1];
        for row in &exprs.rows {
            for cell in &row[1..] {
                let text = cell.as_text().unwrap();
                // Base names may appear only as complement names (C_*),
                // reported deltas (@ins/@del) or materialized inverse
                // reconstructions (@inv/@newinv) — never bare.
                let scrubbed = text.replace("C_Emp", "").replace("C_Sale", "");
                for base in ["Emp", "Sale"] {
                    for occurrence in scrubbed.split(base).skip(1) {
                        assert!(
                            occurrence.starts_with("@ins")
                                || occurrence.starts_with("@del")
                                || occurrence.starts_with("@inv")
                                || occurrence.starts_with("@newinv"),
                            "leaks base {base}: {text}"
                        );
                    }
                }
            }
        }
    }
}
