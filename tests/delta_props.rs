//! Property tests of the incremental delta rules: for every expression
//! and every update, applying the derived deltas to the old result gives
//! exactly the recomputed result, with the composing invariants
//! (Δ⁺ ⊆ E_new, Δ⁻ ∩ E_new = ∅).

mod common;

use common::{chain_catalog, chain_state, chain_update, gen_chain_rows, gen_chain_update_rows,
    random_expr};
use dwc_testkit::prop::Runner;
use dwc_testkit::{tk_ensure, tk_ensure_eq};
use dwcomplements::warehouse::delta::{delta_environment, derive, touched_set, DeltaResolver};

/// The fundamental delta-rule soundness property.
#[test]
fn incremental_equals_recompute() {
    Runner::new("incremental_equals_recompute").cases(128).run(
        |rng| {
            (
                rng.next_u64(),
                rng.below(4) as u32,
                gen_chain_rows(rng),
                gen_chain_update_rows(rng),
            )
        },
        |(seed, depth, state_rows, update_rows)| {
            let catalog = chain_catalog();
            let db = chain_state(state_rows);
            let update = chain_update(update_rows);
            let e = random_expr(*seed, *depth, &catalog);
            let touched = touched_set(&db, &update).expect("consistent");
            let resolver = DeltaResolver::new(&catalog);
            let d = derive(&e, &touched, &resolver).expect("derives");
            let env = delta_environment(&db, &update).expect("builds");

            let old = e.eval(&db).expect("evaluates");
            let incremental = d.apply(&old, &env).expect("applies");
            let recomputed = e
                .eval(&update.apply(&db).expect("updates"))
                .expect("evaluates");
            tk_ensure_eq!(&incremental, &recomputed);

            // Composing invariants.
            let plus = d.plus.eval(&env).expect("evaluates");
            let minus = d.minus.eval(&env).expect("evaluates");
            tk_ensure!(plus.is_subset(&recomputed).expect("same header"));
            tk_ensure!(minus.intersect(&recomputed).expect("same header").is_empty());
            Ok(())
        },
    );
}

/// No-op updates derive empty deltas after evaluation.
#[test]
fn noop_updates_change_nothing() {
    Runner::new("noop_updates_change_nothing").cases(128).run(
        |rng| (rng.next_u64(), rng.below(4) as u32, gen_chain_rows(rng)),
        |(seed, depth, rows)| {
            let catalog = chain_catalog();
            let db = chain_state(rows);
            let e = random_expr(*seed, *depth, &catalog);
            // Insert tuples that already exist, delete tuples that don't.
            let r = db.relation("R".into()).unwrap().clone();
            let ghost = common::relation_from(&["a", "b"], &[vec![99, 99]]);
            let update = dwcomplements::relalg::Update::new()
                .with("R", dwcomplements::relalg::Delta::insert_only(r))
                .with("R", dwcomplements::relalg::Delta::delete_only(ghost));
            let touched = touched_set(&db, &update).expect("consistent");
            tk_ensure!(touched.is_empty());
            let resolver = DeltaResolver::new(&catalog);
            let d = derive(&e, &touched, &resolver).expect("derives");
            let env = delta_environment(&db, &update).expect("builds");
            tk_ensure!(d.plus.eval(&env).expect("evaluates").is_empty());
            tk_ensure!(d.minus.eval(&env).expect("evaluates").is_empty());
            Ok(())
        },
    );
}

/// Delta application composes: two sequential updates maintained
/// incrementally equal the one-shot recomputation.
#[test]
fn sequential_composition() {
    Runner::new("sequential_composition").cases(64).run(
        |rng| {
            (
                rng.next_u64(),
                gen_chain_rows(rng),
                gen_chain_update_rows(rng),
                gen_chain_update_rows(rng),
            )
        },
        |(seed, state_rows, u1_rows, u2_rows)| {
            let catalog = chain_catalog();
            let e = random_expr(*seed, 3, &catalog);
            let resolver = DeltaResolver::new(&catalog);

            let mut current_db = chain_state(state_rows);
            let mut current = e.eval(&current_db).expect("evaluates");
            for u in [chain_update(u1_rows), chain_update(u2_rows)] {
                let touched = touched_set(&current_db, &u).expect("consistent");
                let d = derive(&e, &touched, &resolver).expect("derives");
                let env = delta_environment(&current_db, &u).expect("builds");
                current = d.apply(&current, &env).expect("applies");
                current_db = u.apply(&current_db).expect("updates");
            }
            tk_ensure_eq!(current, e.eval(&current_db).expect("evaluates"));
            Ok(())
        },
    );
}

/// The lemma behind one maintenance pass per group commit: a stream of
/// updates, each normalized w.r.t. the state it meets, folds through
/// `Update::net` into one update that is normalized w.r.t. the
/// *first* state and reaches the same final state. The tiny value
/// domain makes insert→delete, delete→re-insert and longer alternations
/// on the same tuple the common case, across all three relations.
#[test]
fn net_composition_of_normalized_streams_is_normalized_and_exact() {
    Runner::new("net_composition_of_normalized_streams_is_normalized_and_exact")
        .cases(128)
        .run(
            |rng| {
                let steps = 1 + rng.index(8);
                (
                    gen_chain_rows(rng),
                    (0..steps).map(|_| gen_chain_update_rows(rng)).collect::<Vec<_>>(),
                )
            },
            |(state_rows, stream)| {
                let first = chain_state(state_rows);
                let mut current = first.clone();
                let mut normalized = Vec::new();
                for rows in stream {
                    let u = chain_update(rows).normalize(&current).expect("normalizes");
                    current = u.apply(&current).expect("applies");
                    normalized.push(u);
                }
                let net = match dwcomplements::relalg::Update::net(&normalized)
                    .expect("same headers")
                {
                    Some(n) => n,
                    None => return Err("a sequentially normalized stream must compose".into()),
                };
                tk_ensure_eq!(net.apply(&first).expect("applies"), current);
                tk_ensure_eq!(net.normalize(&first).expect("normalizes"), net);
                Ok(())
            },
        );
}
