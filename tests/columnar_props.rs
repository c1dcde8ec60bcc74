//! Columnar-core differential suite: the dictionary-coded column
//! representation behind [`Relation`] must be observationally
//! *bit-identical* to the plain set semantics it replaced.
//!
//! The reference implementation retained here ([`NaiveRel`]) is the old
//! representation in miniature — a `BTreeSet<Tuple>` under a sorted
//! header, with every operator written as the textbook set
//! comprehension. Each property evaluates the same random input through
//! both engines and compares *ordered* row sequences, so any divergence
//! in canonical order, deduplication, join semantics, complement
//! materialization or maintenance strategy fails loudly.
//!
//! Everything is seed-deterministic on the dwc-testkit runner; a failure
//! prints a `DWC_TESTKIT_SEED` that replays it exactly (verify.sh step
//! 11 replays a pinned seed offline).

mod common;

use common::{chain_catalog, chain_state, chain_update, gen_chain_rows, gen_chain_update_rows,
    gen_rows, random_expr};
use dwc_testkit::prop::Runner;
use dwc_testkit::{tk_ensure_eq, SplitMix64};
use dwcomplements::relalg::{
    AttrSet, Catalog, DbState, Delta, RaExpr, RelName, Relation, Tuple, Update, Value,
};
use dwcomplements::warehouse::WarehouseSpec;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------
// The retained reference implementation: sets of tuples, nested loops
// ---------------------------------------------------------------------

/// The pre-columnar relation representation: an ordered set of tuples
/// under a sorted attribute header. `BTreeSet<Tuple>` iteration order
/// *is* the canonical value-lexicographic order the columnar core must
/// reproduce bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
struct NaiveRel {
    attrs: AttrSet,
    rows: BTreeSet<Tuple>,
}

impl NaiveRel {
    fn empty(attrs: AttrSet) -> NaiveRel {
        NaiveRel { attrs, rows: BTreeSet::new() }
    }

    /// Imports a columnar relation (used only to seed the reference
    /// side; all subsequent reference computation is naive).
    fn from_relation(rel: &Relation) -> NaiveRel {
        NaiveRel { attrs: rel.attrs().clone(), rows: rel.iter().collect() }
    }

    /// The canonical row sequence.
    fn ordered(&self) -> Vec<Tuple> {
        self.rows.iter().cloned().collect()
    }
}

/// Compares a columnar relation against the reference bit-for-bit:
/// header, length, and the exact iteration order.
macro_rules! ensure_same {
    ($col:expr, $naive:expr) => {{
        let col = $col;
        let naive = $naive;
        tk_ensure_eq!(col.attrs(), &naive.attrs);
        tk_ensure_eq!(col.len(), naive.rows.len());
        let got: Vec<Tuple> = col.iter().collect();
        tk_ensure_eq!(got, naive.ordered());
    }};
}

/// The textbook evaluator: every operator as a set comprehension over
/// `BTreeSet<Tuple>`, with nested-loop joins and per-tuple predicate
/// checks. No indexes, no dictionaries, no sharing.
fn naive_eval(expr: &RaExpr, env: &BTreeMap<RelName, NaiveRel>) -> NaiveRel {
    match expr {
        RaExpr::Base(name) => env.get(name).cloned().unwrap_or_else(|| {
            panic!("reference env lacks {name}")
        }),
        RaExpr::Empty(attrs) => NaiveRel::empty(attrs.clone()),
        RaExpr::Select(input, pred) => {
            let r = naive_eval(input, env);
            let rows = r
                .rows
                .iter()
                .filter(|t| pred.eval(t, &r.attrs).expect("well-typed predicate"))
                .cloned()
                .collect();
            NaiveRel { attrs: r.attrs, rows }
        }
        RaExpr::Project(input, wanted) => {
            let r = naive_eval(input, env);
            let positions = wanted.positions_in(&r.attrs).expect("subset header");
            let rows = r.rows.iter().map(|t| t.project(&positions)).collect();
            NaiveRel { attrs: wanted.clone(), rows }
        }
        RaExpr::Join(left, right) => {
            let l = naive_eval(left, env);
            let r = naive_eval(right, env);
            let out_attrs = l.attrs.union(&r.attrs);
            let common = l.attrs.intersect(&r.attrs);
            let lpos: Vec<usize> =
                common.iter().map(|a| l.attrs.index_of(a).expect("common")).collect();
            let rpos: Vec<usize> =
                common.iter().map(|a| r.attrs.index_of(a).expect("common")).collect();
            let mut rows = BTreeSet::new();
            for lt in &l.rows {
                for rt in &r.rows {
                    let hit = lpos
                        .iter()
                        .zip(&rpos)
                        .all(|(&i, &j)| lt.get(i) == rt.get(j));
                    if hit {
                        let vals: Vec<Value> = out_attrs
                            .iter()
                            .map(|a| match l.attrs.index_of(a) {
                                Some(i) => lt.get(i).clone(),
                                None => {
                                    rt.get(r.attrs.index_of(a).expect("in right")).clone()
                                }
                            })
                            .collect();
                        rows.insert(Tuple::new(vals));
                    }
                }
            }
            NaiveRel { attrs: out_attrs, rows }
        }
        RaExpr::Union(left, right) => {
            let l = naive_eval(left, env);
            let r = naive_eval(right, env);
            NaiveRel { attrs: l.attrs, rows: l.rows.union(&r.rows).cloned().collect() }
        }
        RaExpr::Diff(left, right) => {
            let l = naive_eval(left, env);
            let r = naive_eval(right, env);
            NaiveRel { attrs: l.attrs, rows: l.rows.difference(&r.rows).cloned().collect() }
        }
        RaExpr::Intersect(left, right) => {
            let l = naive_eval(left, env);
            let r = naive_eval(right, env);
            NaiveRel {
                attrs: l.attrs,
                rows: l.rows.intersection(&r.rows).cloned().collect(),
            }
        }
        RaExpr::Rename(input, pairs) => {
            let r = naive_eval(input, env);
            let renamed: Vec<_> = r
                .attrs
                .iter()
                .map(|a| {
                    pairs
                        .iter()
                        .find(|(from, _)| *from == a)
                        .map(|(_, to)| *to)
                        .unwrap_or(a)
                })
                .collect();
            let out_attrs = AttrSet::from_iter(renamed.iter().copied());
            let rows = r
                .rows
                .iter()
                .map(|t| {
                    let vals: Vec<Value> = out_attrs
                        .iter()
                        .map(|a| {
                            let src = renamed
                                .iter()
                                .position(|&x| x == a)
                                .expect("renamed header is a permutation");
                            t.get(src).clone()
                        })
                        .collect();
                    Tuple::new(vals)
                })
                .collect();
            NaiveRel { attrs: out_attrs, rows }
        }
    }
}

/// The reference image of a whole database state.
fn naive_env(db: &DbState) -> BTreeMap<RelName, NaiveRel> {
    db.iter().map(|(n, r)| (n, NaiveRel::from_relation(r))).collect()
}

/// Reference delta application: `(base ∖ del) ∪ ins`.
fn naive_apply_delta(base: &NaiveRel, ins: &NaiveRel, del: &NaiveRel) -> NaiveRel {
    let mut rows: BTreeSet<Tuple> = base.rows.difference(&del.rows).cloned().collect();
    rows.extend(ins.rows.iter().cloned());
    NaiveRel { attrs: base.attrs.clone(), rows }
}

// ---------------------------------------------------------------------
// Construction, mutation, set operations
// ---------------------------------------------------------------------

/// Mixed-type random tuples (collision-heavy small domains).
fn gen_tuples(rng: &mut SplitMix64, arity: usize, max: usize) -> Vec<Tuple> {
    let n = rng.index(max);
    (0..n)
        .map(|_| {
            Tuple::new(
                (0..arity)
                    .map(|_| match rng.below(4) {
                        0 => Value::int(rng.i64_in(0, 5)),
                        1 => Value::Bool(rng.bool()),
                        2 => Value::double(rng.i64_in(0, 8) as f64 / 2.0),
                        _ => Value::str(["x", "y", "z"][rng.index(3)]),
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Batch construction, incremental insert/remove, and the binary set
/// operations all land on the reference's canonical order exactly.
#[test]
fn construction_and_set_ops_match_reference() {
    Runner::new("construction_and_set_ops_match_reference").cases(256).run(
        |rng| rng.next_u64(),
        |&seed| {
            let mut rng = SplitMix64::new(seed);
            let arity = 1 + rng.index(3);
            let names: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let attrs = AttrSet::from_names(&name_refs);
            let a_tuples = gen_tuples(&mut rng, arity, 20);
            let b_tuples = gen_tuples(&mut rng, arity, 20);

            // Batch vs incremental construction vs the reference set.
            let batch = Relation::from_tuples(attrs.clone(), a_tuples.clone())
                .expect("arity matches");
            let mut incr = Relation::empty(attrs.clone());
            let mut naive = NaiveRel::empty(attrs.clone());
            for t in &a_tuples {
                incr.insert(t.clone()).expect("arity matches");
                naive.rows.insert(t.clone());
            }
            ensure_same!(&batch, &naive);
            tk_ensure_eq!(&batch, &incr);

            // Removal of an interleaved sample.
            for t in a_tuples.iter().step_by(3) {
                tk_ensure_eq!(incr.remove(t), naive.rows.remove(t));
            }
            ensure_same!(&incr, &naive);

            // Binary set operations against a second relation.
            let b = Relation::from_tuples(attrs.clone(), b_tuples.clone())
                .expect("arity matches");
            let nb = NaiveRel { attrs: attrs.clone(), rows: b_tuples.into_iter().collect() };
            ensure_same!(
                &incr.union(&b).expect("same header"),
                &NaiveRel {
                    attrs: attrs.clone(),
                    rows: naive.rows.union(&nb.rows).cloned().collect()
                }
            );
            ensure_same!(
                &incr.difference(&b).expect("same header"),
                &NaiveRel {
                    attrs: attrs.clone(),
                    rows: naive.rows.difference(&nb.rows).cloned().collect()
                }
            );
            ensure_same!(
                &incr.intersect(&b).expect("same header"),
                &NaiveRel {
                    attrs: attrs.clone(),
                    rows: naive.rows.intersection(&nb.rows).cloned().collect()
                }
            );

            // Delta application: insert wins over delete.
            ensure_same!(
                &incr.apply_delta(&b, &incr).expect("same header"),
                &naive_apply_delta(&naive, &nb, &naive)
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Whole-expression evaluation
// ---------------------------------------------------------------------

/// Random well-typed expressions over random chain states: the columnar
/// evaluator (cached key indexes, compiled predicates, dictionary
/// comparisons) agrees with the nested-loop reference row-for-row.
#[test]
fn eval_matches_reference() {
    Runner::new("eval_matches_reference").cases(192).run(
        |rng| (rng.next_u64(), rng.below(5) as u32, gen_chain_rows(rng)),
        |(seed, depth, rows)| {
            let catalog = chain_catalog();
            let db = chain_state(rows);
            let e = random_expr(*seed, *depth, &catalog);
            let col = e.eval(&db).expect("well-typed expression evaluates");
            let naive = naive_eval(&e, &naive_env(&db));
            ensure_same!(&col, &naive);
            Ok(())
        },
    );
}

/// Joins keep matching the reference when the *same* relation is probed
/// repeatedly — the cached key index path must return what a fresh
/// nested loop returns every time, including after mutation invalidates
/// the cache.
#[test]
fn repeated_joins_reuse_indexes_soundly() {
    Runner::new("repeated_joins_reuse_indexes_soundly").cases(128).run(
        |rng| (gen_rows(rng, 2, 24), gen_rows(rng, 2, 24), gen_rows(rng, 2, 6)),
        |(r_rows, s_rows, extra)| {
            let db = chain_state(&(r_rows.clone(), s_rows.clone(), vec![]));
            let e = RaExpr::parse("R join S").expect("parses");

            // Three evaluations over the identical shared state: the
            // second and third hit the cached index.
            let first = e.eval(&db).expect("evaluates");
            for _ in 0..2 {
                tk_ensure_eq!(e.eval(&db).expect("evaluates"), first);
            }
            ensure_same!(&first, &naive_eval(&e, &naive_env(&db)));

            // Mutate R (cache invalidation) and re-compare.
            let mut db2 = db.clone();
            let mut r2 = db2.relation("R".into()).expect("present").clone();
            for row in extra {
                let t = Tuple::new(row.iter().map(|&v| Value::int(v)).collect());
                r2.insert(t).expect("arity matches");
            }
            db2.insert_relation("R", r2);
            let second = e.eval(&db2).expect("evaluates");
            ensure_same!(&second, &naive_eval(&e, &naive_env(&db2)));
            Ok(())
        },
    );
}

/// Joins of ≥ 1024 tuples in total, with uniform keys and with one hot
/// key owning half of the probe side, match the nested-loop reference
/// row-for-row — the sizes at which the index probe emits many pairs
/// per key and the batch canonicalization does real work.
#[test]
fn large_joins_match_reference() {
    Runner::new("large_joins_match_reference").cases(8).run(
        |rng| (rng.next_u64(), 8 + rng.index(90) as i64, rng.bool()),
        |&(seed, modulus, skewed)| {
            // Canonical (sorted-header) tuple order: {a, k} and {b, k}.
            let mut left = Relation::empty(AttrSet::from_names(&["k", "a"]));
            let mut right = Relation::empty(AttrSet::from_names(&["k", "b"]));
            for i in 0..600i64 {
                let salt = (seed % 1_000) as i64 + i;
                let lk = if skewed && i % 2 == 0 { 0 } else { salt % modulus };
                left.insert(Tuple::new(vec![Value::int(i), Value::int(lk)])).expect("arity");
                right
                    .insert(Tuple::new(vec![Value::int(i * 3), Value::int(i % modulus)]))
                    .expect("arity");
            }
            let mut db = DbState::new();
            db.insert_relation("L", left);
            db.insert_relation("Rr", right);
            let e = RaExpr::base("L").join(RaExpr::base("Rr"));
            let col = e.eval(&db).expect("evaluates");
            ensure_same!(&col, &naive_eval(&e, &naive_env(&db)));
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Complements and the four maintenance strategies
// ---------------------------------------------------------------------

/// The Figure-1-shaped warehouse used by the maintenance differential:
/// Sale(clerk,item), Emp(age,clerk) with clerk the key, Sold = Sale ⋈
/// Emp. Augmentation adds the Theorem 2.2 complement views.
fn fig_spec() -> WarehouseSpec {
    let mut catalog = Catalog::new();
    catalog
        .add_schema_with_key("Sale", &["clerk", "item"], &["clerk", "item"])
        .expect("static schema");
    catalog
        .add_schema_with_key("Emp", &["age", "clerk"], &["clerk"])
        .expect("static schema");
    WarehouseSpec::parse(catalog, &[("Sold", "Sale join Emp")]).expect("static spec")
}

/// A random source state: collision-heavy sales, one row per clerk in
/// Emp (respecting the key).
fn fig_state(rng: &mut SplitMix64) -> DbState {
    let clerks = 1 + rng.index(5) as i64;
    let mut sale = Relation::empty(AttrSet::from_names(&["clerk", "item"]));
    for _ in 0..rng.index(24) {
        sale.insert(Tuple::new(vec![
            Value::int(rng.i64_in(0, clerks)),
            Value::int(rng.i64_in(0, 8)),
        ]))
        .expect("arity matches");
    }
    let mut emp = Relation::empty(AttrSet::from_names(&["age", "clerk"]));
    for c in 0..clerks {
        if rng.chance(4, 5) {
            emp.insert(Tuple::new(vec![Value::int(rng.i64_in(20, 60)), Value::int(c)]))
                .expect("arity matches");
        }
    }
    let mut db = DbState::new();
    db.insert_relation("Sale", sale);
    db.insert_relation("Emp", emp);
    db
}

/// A random Sale-only update (inserts and deletes, unnormalized).
fn fig_update(rng: &mut SplitMix64) -> Update {
    let clerks = 6;
    let mut ins = Relation::empty(AttrSet::from_names(&["clerk", "item"]));
    let mut del = Relation::empty(AttrSet::from_names(&["clerk", "item"]));
    for _ in 0..rng.index(6) {
        ins.insert(Tuple::new(vec![
            Value::int(rng.i64_in(0, clerks)),
            Value::int(rng.i64_in(0, 8)),
        ]))
        .expect("arity matches");
    }
    for _ in 0..rng.index(6) {
        del.insert(Tuple::new(vec![
            Value::int(rng.i64_in(0, clerks)),
            Value::int(rng.i64_in(0, 8)),
        ]))
        .expect("arity matches");
    }
    Update::new().with("Sale", Delta::new(ins, del).expect("same header"))
}

/// Complement materialization is bit-identical to naive recomputation
/// of every stored view definition, and all four maintenance strategies
/// — incremental, incremental-with-mirrors, reconstruction, and full
/// recompute at the source — converge on that same state.
#[test]
fn complements_and_maintenance_match_reference() {
    Runner::new("complements_and_maintenance_match_reference").cases(96).run(
        |rng| (rng.next_u64(), rng.next_u64()),
        |&(state_seed, update_seed)| {
            let spec = fig_spec();
            let aug = spec.augment().expect("complement exists");
            let db = fig_state(&mut SplitMix64::new(state_seed));
            let w = aug.materialize(&db).expect("materializes");

            // Complement check: every stored relation (views and
            // complement views alike) equals the naive evaluation of
            // its definition over the naive source image.
            let src_env = naive_env(&db);
            for name in aug.stored_relations() {
                let def = aug.definition_of(name).expect("stored relations have defs");
                let stored = w.relation(name).expect("materialized");
                ensure_same!(stored, &naive_eval(&def, &src_env));
            }

            // Four maintenance strategies on the same update.
            let u = fig_update(&mut SplitMix64::new(update_seed))
                .normalize(&db)
                .expect("consistent");
            let touched: BTreeSet<RelName> = u.touched().collect();
            let plan = aug.compile_plan(&touched).expect("compiles");

            let incremental = plan.apply(&w, &u).expect("maintains");
            let mirrors = aug.reconstruct_sources(&w).expect("reconstructs");
            let mirrored =
                plan.apply_with_mirrors(&w, &u, &mirrors).expect("maintains");
            let reconstructed = aug.maintain_by_reconstruction(&w, &u).expect("maintains");
            let db_next = u.apply(&db).expect("applies");
            let recomputed = aug.materialize(&db_next).expect("materializes");

            // All strategies agree with the naive recomputation of the
            // updated source, row for row.
            let next_env = naive_env(&db_next);
            for name in aug.stored_relations() {
                let def = aug.definition_of(name).expect("stored relations have defs");
                let expect = naive_eval(&def, &next_env);
                ensure_same!(incremental.relation(name).expect("maintained"), &expect);
                ensure_same!(mirrored.relation(name).expect("maintained"), &expect);
                ensure_same!(reconstructed.relation(name).expect("maintained"), &expect);
                ensure_same!(recomputed.relation(name).expect("materialized"), &expect);
            }
            Ok(())
        },
    );
}

/// The generic chain-catalog incremental rule (deltas derived per
/// expression) also matches a naive recompute through the reference
/// engine — the same property `delta_props` checks columnar-vs-columnar,
/// here checked columnar-vs-naive.
#[test]
fn derived_deltas_match_naive_recompute() {
    use dwcomplements::warehouse::delta::{delta_environment, derive, touched_set,
        DeltaResolver};
    Runner::new("derived_deltas_match_naive_recompute").cases(96).run(
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
            let db_next = update.apply(&db).expect("updates");
            ensure_same!(&incremental, &naive_eval(&e, &naive_env(&db_next)));
            Ok(())
        },
    );
}
