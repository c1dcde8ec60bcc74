//! E3 — Figure 3 / Theorem 4.1: the update-independence commuting diagram.
//!
//! Drive a mixed insert/delete stream against a scaled Figure 1 instance
//! and verify at every step that the incrementally maintained warehouse
//! equals `W(u(d))`, comparing three source-free maintenance paths:
//!
//! * `incremental` — compiled maintenance expressions (Example 4.1),
//! * `reconstruct` — the literal `W ∘ u ∘ W⁻¹` pipeline,
//! * `recompute*`  — recomputation from the true sources (the oracle;
//!   *not* source-free, shown for the time comparison).
//!
//! Expected shape: all three agree on every step; `incremental` beats
//! `reconstruct` for small deltas.

use crate::report::{Cell, Table};
use dwc_relalg::{DbState, Delta, Relation, Tuple, Update, Value};
use dwc_warehouse::WarehouseSpec;
use std::time::{Duration, Instant};

fn mixed_update(db: &DbState, i: usize, n_emps: usize) -> Update {
    // Insert one sale; every third step also delete an existing sale;
    // every fifth step churn an employee.
    let mut sale_ins = Relation::empty(dwc_relalg::AttrSet::from_names(&["clerk", "item"]));
    sale_ins
        .insert(Tuple::new(vec![
            Value::str(&format!("clerk{}", i % n_emps)),
            Value::str(&format!("hot-item{i}")),
        ]))
        .expect("arity");
    let mut u = Update::new().with("Sale", Delta::insert_only(sale_ins));
    if i.is_multiple_of(3) {
        let sale = db.relation(dwc_relalg::RelName::new("Sale")).expect("state");
        if let Some(victim) = sale.iter().next() {
            let mut del = Relation::empty(sale.attrs().clone());
            del.insert(victim).expect("arity");
            u = u.with("Sale", Delta::delete_only(del));
        }
    }
    if i.is_multiple_of(5) {
        let mut emp_ins = Relation::empty(dwc_relalg::AttrSet::from_names(&["age", "clerk"]));
        emp_ins
            .insert(Tuple::new(vec![
                Value::int(30 + (i as i64 % 20)),
                Value::str(&format!("newhire{i}")),
            ]))
            .expect("arity");
        u = u.with("Emp", Delta::insert_only(emp_ins));
    }
    u
}

/// Runs E3.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 200 } else { 10_000 };
    let steps = if quick { 6 } else { 30 };
    let catalog = super::fig1_catalog(false);
    let mut db = super::fig1_state(n, (n / 4).max(8), false, 9);
    let spec = WarehouseSpec::parse(catalog, &[("Sold", "Sale join Emp")])
        .expect("static spec");
    let aug = spec.augment().expect("complement exists");
    let mut w = aug.materialize(&db).expect("materializes");

    let n_emps = (n / 4).max(8);
    let mut all_agree = true;
    let mut t_inc = Duration::ZERO;
    let mut t_rec = Duration::ZERO;
    let mut t_oracle = Duration::ZERO;

    for i in 0..steps {
        let u = mixed_update(&db, i, n_emps)
            .normalize(&db)
            .expect("consistent");
        if u.is_empty() {
            continue;
        }

        let start = Instant::now();
        let w_inc = aug.maintain(&w, &u).expect("incremental maintenance");
        t_inc += start.elapsed();

        let start = Instant::now();
        let w_rec = aug.maintain_by_reconstruction(&w, &u).expect("reconstruction");
        t_rec += start.elapsed();

        db = u.apply(&db).expect("update applies");
        let start = Instant::now();
        let w_oracle = aug.materialize(&db).expect("materializes");
        t_oracle += start.elapsed();

        all_agree &= w_inc == w_oracle && w_rec == w_oracle;
        w = w_inc;
    }

    let per = |d: Duration| d / u32::try_from(steps).expect("fits");
    let mut t = Table::new(
        format!("E3 (Figure 3 / Thm 4.1): w' = W(u(d)) over {steps} mixed updates, |Sale| = {n}"),
        &["path", "source-free", "agrees with W(u(d))", "mean time/upd"],
    );
    t.row(vec![
        Cell::from("incremental"),
        Cell::from(true),
        Cell::from(all_agree),
        Cell::from(per(t_inc)),
    ]);
    t.row(vec![
        Cell::from("reconstruct"),
        Cell::from(true),
        Cell::from(all_agree),
        Cell::from(per(t_rec)),
    ]);
    t.row(vec![
        Cell::from("recompute*"),
        Cell::from(false),
        Cell::from(true),
        Cell::from(per(t_oracle)),
    ]);
    t.note("paper claim: the diagram commutes — maintained state = W(u(d)) at every step");
    t.note("incremental evaluates delta-sized expressions; reconstruct/recompute rebuild everything");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn diagram_commutes_in_quick_mode() {
        let tables = super::run(true);
        let t = &tables[0];
        for c in t.column("agrees with W(u(d))") {
            assert_eq!(c.as_text(), Some("yes"));
        }
        assert_eq!(t.rows.len(), 3);
    }
}
