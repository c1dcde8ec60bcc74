//! Substrate micro-benchmarks: the relational operators underlying every
//! experiment. Not tied to a paper artifact; these numbers calibrate the
//! engine so the experiment-level comparisons are interpretable.

use dwc_relalg::{AttrSet, DbState, RaExpr, Relation, Tuple, Value};
use dwc_bench::stamped;
use std::hint::black_box;

fn two_table_state(n: usize) -> DbState {
    let mut rng = dwc_relalg::gen::SplitMix64::new(7);
    let mut db = DbState::new();
    let mut row = |i: usize| {
        Tuple::new(vec![
            Value::int(i as i64),
            Value::int(rng.below(n as u64 / 2 + 1) as i64),
        ])
    };
    let r_rows: Vec<Tuple> = (0..n).map(&mut row).collect();
    let s_rows: Vec<Tuple> = (0..n).map(&mut row).collect();
    let header = AttrSet::from_names(&["a", "k"]);
    db.insert_relation("R", Relation::from_tuples(header, r_rows).expect("arity"));
    let header = AttrSet::from_names(&["b", "k"]);
    db.insert_relation("S", Relation::from_tuples(header, s_rows).expect("arity"));
    db
}

fn main() {
    let group = stamped("eval");
    for &n in &[1_000usize, 10_000] {
        let db = two_table_state(n);
        let cases = [
            ("hash-join", "R join S"),
            ("select", "sigma[a >= 10 and k < 100](R)"),
            ("project", "pi[k](R)"),
            ("union", "pi[k](R) union pi[k](S)"),
            ("difference", "pi[k](R) minus pi[k](S)"),
        ];
        for (name, text) in cases {
            let e = RaExpr::parse(text).expect("static query");
            group.run(&format!("{name}/{n}"), || {
                black_box(e.eval(&db).expect("evaluates"))
            });
        }

        // Index-probe join: a 16-row probe side against the large
        // relation, whose cached key index is built on the first
        // iteration and reused (via the shared Arc) on every subsequent
        // one — this isolates the probe cost from index construction.
        let r = db.relation("R".into()).expect("present").clone();
        let mut pdb = DbState::new();
        pdb.insert_relation("R", r.clone());
        let probe_rows: Vec<Tuple> = (0..16)
            .map(|i| Tuple::new(vec![Value::int(i), Value::int(i)]))
            .collect();
        let header = AttrSet::from_names(&["k", "p"]);
        pdb.insert_relation(
            "P",
            Relation::from_tuples(header, probe_rows).expect("arity"),
        );
        let pe = RaExpr::parse("R join P").expect("static query");
        group.run(&format!("index-probe-join/{n}"), || {
            black_box(pe.eval(&pdb).expect("evaluates"))
        });

        // Delta point lookup: a single-row insert+delete against the
        // large relation — the maintenance layers' innermost operation.
        let header = AttrSet::from_names(&["a", "k"]);
        let ins = Relation::from_tuples(
            header.clone(),
            vec![Tuple::new(vec![Value::int(-1), Value::int(-1)])],
        )
        .expect("arity");
        let del = Relation::from_tuples(
            header,
            vec![Tuple::new(vec![Value::int(0), Value::int(0)])],
        )
        .expect("arity");
        group.run(&format!("delta-point-lookup/{n}"), || {
            black_box(r.apply_delta(&ins, &del).expect("same header"))
        });
    }
}
