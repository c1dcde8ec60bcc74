//! Property tests of the relational substrate: parser/printer round
//! trips, simplifier semantics preservation, evaluator algebraic laws.

mod common;

use common::{chain_catalog, chain_state, gen_chain_rows, random_expr};
use dwc_testkit::prop::Runner;
use dwc_testkit::{tk_ensure, tk_ensure_eq};
use dwcomplements::relalg::eval::eval_all;
use dwcomplements::relalg::{RaExpr, RelName, Relation};

/// Printing and re-parsing is the identity on expressions.
#[test]
fn display_parse_roundtrip() {
    Runner::new("display_parse_roundtrip").cases(256).run(
        |rng| (rng.next_u64(), rng.below(4) as u32),
        |&(seed, depth)| {
            let catalog = chain_catalog();
            let e = random_expr(seed, depth, &catalog);
            let printed = e.to_string();
            let reparsed = RaExpr::parse(&printed).expect("printer output parses");
            tk_ensure_eq!(e, reparsed);
            Ok(())
        },
    );
}

/// The simplifier preserves semantics and never grows the expression.
#[test]
fn simplifier_preserves_semantics() {
    Runner::new("simplifier_preserves_semantics").cases(256).run(
        |rng| (rng.next_u64(), rng.below(4) as u32, gen_chain_rows(rng)),
        |(seed, depth, rows)| {
            let catalog = chain_catalog();
            let db = chain_state(rows);
            let e = random_expr(*seed, *depth, &catalog);
            let s = e.simplified(&catalog).expect("well-typed by construction");
            tk_ensure!(s.size() <= e.size(), "simplifier grew {e} to {s}");
            tk_ensure_eq!(e.eval(&db).expect("evaluates"), s.eval(&db).expect("evaluates"));
            Ok(())
        },
    );
}

/// One batch — one hash-consed compile, one memoized pass over several
/// expressions that share subtrees — agrees with evaluating each alone.
#[test]
fn cached_eval_agrees() {
    Runner::new("cached_eval_agrees").cases(128).run(
        |rng| (rng.next_u64(), rng.below(4) as u32, gen_chain_rows(rng)),
        |(seed, depth, rows)| {
            let catalog = chain_catalog();
            let db = chain_state(rows);
            let e = random_expr(*seed, *depth, &catalog);
            let f = random_expr(seed ^ 1, *depth, &catalog);
            let exprs = [e.clone(), f.clone(), e.clone().join(f), e];
            let names: Vec<RelName> =
                (0..exprs.len()).map(|i| RelName::new(&format!("X{i}"))).collect();
            let batch = eval_all(names.iter().zip(&exprs), &db).expect("evaluates");
            for (name, e) in names.iter().zip(&exprs) {
                let alone = e.eval(&db).expect("evaluates");
                tk_ensure_eq!(batch.relation(*name).expect("bound"), &alone);
            }
            Ok(())
        },
    );
}

/// Algebraic laws of the evaluated operators (set semantics).
#[test]
fn set_operator_laws() {
    Runner::new("set_operator_laws").cases(128).run(
        gen_chain_rows,
        |rows| {
            let db = chain_state(rows);
            let r = db.relation("R".into()).unwrap();
            let s_rel = {
                let sel = RaExpr::parse("sigma[a <= 3](R)").unwrap();
                sel.eval(&db).unwrap()
            };
            // union/intersection commute; difference antitone checks
            tk_ensure_eq!(r.union(&s_rel).unwrap(), s_rel.union(r).unwrap());
            tk_ensure_eq!(r.intersect(&s_rel).unwrap(), s_rel.intersect(r).unwrap());
            // A ∖ B ⊆ A, (A ∖ B) ∩ B = ∅
            let diff = r.difference(&s_rel).unwrap();
            tk_ensure!(diff.is_subset(r).unwrap());
            tk_ensure!(diff.intersect(&s_rel).unwrap().is_empty());
            // σ is a subset of its input and idempotent
            let sel = RaExpr::parse("sigma[b = 2](R)").unwrap().eval(&db).unwrap();
            tk_ensure!(sel.is_subset(r).unwrap());
            Ok(())
        },
    );
}

/// Natural join laws: commutativity and the degenerate cases.
#[test]
fn join_laws() {
    Runner::new("join_laws").cases(128).run(
        gen_chain_rows,
        |rows| {
            use dwcomplements::relalg::eval::natural_join;
            let db = chain_state(rows);
            let r = db.relation("R".into()).unwrap();
            let s = db.relation("S".into()).unwrap();
            let t = db.relation("T".into()).unwrap();
            tk_ensure_eq!(natural_join(r, s).unwrap(), natural_join(s, r).unwrap());
            // associativity across the chain
            let left = natural_join(&natural_join(r, s).unwrap(), t).unwrap();
            let right = natural_join(r, &natural_join(s, t).unwrap()).unwrap();
            tk_ensure_eq!(left, right);
            // self join is identity
            tk_ensure_eq!(natural_join(r, r).unwrap(), r.clone());
            // join with empty same-header relation is empty
            let empty = Relation::empty(r.attrs().clone());
            tk_ensure!(natural_join(r, &empty).unwrap().is_empty());
            Ok(())
        },
    );
}

/// π distributes over ∪ (but not ∖ — set semantics), σ commutes with ∪.
#[test]
fn projection_selection_distributivity() {
    Runner::new("projection_selection_distributivity").cases(128).run(
        gen_chain_rows,
        |rows| {
            let db = chain_state(rows);
            let lhs = RaExpr::parse("pi[b](R) union pi[b](S)").unwrap().eval(&db).unwrap();
            // (π over union needs same headers — project first, union after is the law we check)
            let r_b = RaExpr::parse("pi[b](R)").unwrap().eval(&db).unwrap();
            let s_b = RaExpr::parse("pi[b](S)").unwrap().eval(&db).unwrap();
            tk_ensure_eq!(lhs, r_b.union(&s_b).unwrap());

            let sel_union = RaExpr::parse("sigma[b = 1](pi[b](R) union pi[b](S))")
                .unwrap()
                .eval(&db)
                .unwrap();
            let union_sel =
                RaExpr::parse("sigma[b = 1](pi[b](R)) union sigma[b = 1](pi[b](S))")
                    .unwrap()
                    .eval(&db)
                    .unwrap();
            tk_ensure_eq!(sel_union, union_sel);
            Ok(())
        },
    );
}
