//! The broadest property test in the suite: Theorem 2.2 complements over
//! *randomly generated* catalogs (schemas, keys, acyclic inclusion
//! dependencies) and randomly generated PSJ warehouses, verified on
//! randomly generated constraint-satisfying states. Everything is
//! seed-deterministic; the testkit runner drives the seeds.

use dwc_testkit::prop::Runner;
use dwc_testkit::{tk_ensure, tk_ensure_eq};
use dwcomplements::core::constrained::{complement_with, ComplementOptions};
use dwcomplements::core::psj::{NamedView, PsjView};
use dwcomplements::relalg::gen::{random_state, SplitMix64, StateGenConfig};
use dwcomplements::relalg::{
    AttrSet, Catalog, CmpOp, InclusionDep, Operand, Predicate, RelName, Value,
};

/// Builds a random catalog: 2–4 relations over a shared pool of 6
/// attribute names (shared names create natural-join structure), each
/// with 2–4 attributes, ~70% chance of a single-attribute key, and a few
/// random acyclic inclusion dependencies over common attributes
/// containing the target's key.
fn random_catalog(seed: u64) -> Catalog {
    let mut rng = SplitMix64::new(seed ^ 0xCA7A_1061);
    let pool = ["a", "b", "c", "d", "e", "f"];
    let mut catalog = Catalog::new();
    let n_rel = 2 + rng.index(3);
    let mut specs: Vec<(String, Vec<&str>, Option<&str>)> = Vec::new();
    for i in 0..n_rel {
        let n_attr = 2 + rng.index(3);
        let mut attrs: Vec<&str> = Vec::new();
        while attrs.len() < n_attr {
            let a = pool[rng.index(pool.len())];
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
        attrs.sort_unstable();
        let key = rng.chance(7, 10).then(|| attrs[rng.index(attrs.len())]);
        specs.push((format!("R{i}"), attrs, key));
    }
    for (name, attrs, key) in &specs {
        match key {
            Some(k) => catalog.add_schema_with_key(name, attrs, &[k]).expect("valid"),
            None => catalog.add_schema(name, attrs).expect("valid"),
        };
    }
    // A few INDs: from a later relation into an earlier one (guarantees
    // acyclicity), over a shared attribute set containing the target key.
    for _ in 0..rng.index(3) {
        if specs.len() < 2 {
            break;
        }
        let to_idx = rng.index(specs.len() - 1);
        let from_idx = to_idx + 1 + rng.index(specs.len() - to_idx - 1);
        let (to_name, to_attrs, to_key) = &specs[to_idx];
        let (from_name, from_attrs, _) = &specs[from_idx];
        let Some(key) = to_key else { continue };
        if !from_attrs.contains(key) {
            continue;
        }
        // X = common attrs containing the key (take them all: maximal X).
        let common: Vec<&str> = to_attrs
            .iter()
            .filter(|a| from_attrs.contains(a))
            .copied()
            .collect();
        if !common.contains(key) {
            continue;
        }
        let _ = catalog.add_inclusion_dep(InclusionDep::new(
            from_name.as_str(),
            to_name.as_str(),
            AttrSet::from_names(&common),
        ));
    }
    catalog
}

/// Builds 1–4 random PSJ views over the catalog: random relation subsets
/// (join-connected or not), random conjunctive selections, random
/// projections.
fn random_views(catalog: &Catalog, seed: u64) -> Vec<NamedView> {
    let mut rng = SplitMix64::new(seed ^ 0x51EE_7A11);
    let names: Vec<RelName> = catalog.relation_names().collect();
    let n_views = 1 + rng.index(4);
    let mut views = Vec::new();
    for i in 0..n_views {
        // pick a non-empty relation subset
        let mut rels: Vec<RelName> = names
            .iter()
            .filter(|_| rng.chance(1, 2))
            .copied()
            .collect();
        if rels.is_empty() {
            rels.push(names[rng.index(names.len())]);
        }
        rels.sort_unstable();
        rels.dedup();
        let join_attrs = rels.iter().fold(AttrSet::empty(), |acc, &r| {
            acc.union(catalog.schema(r).expect("known").attrs())
        });
        // random selection: 0–2 conjuncts over the join attrs
        let mut selection = Predicate::True;
        for _ in 0..rng.index(3) {
            let attr = join_attrs.as_slice()[rng.index(join_attrs.len())];
            let op = match rng.below(3) {
                0 => CmpOp::Le,
                1 => CmpOp::Ge,
                _ => CmpOp::Ne,
            };
            selection = selection.and(Predicate::Cmp(
                Operand::Attr(attr),
                op,
                Operand::Const(Value::int(rng.below(6) as i64)),
            ));
        }
        // random projection: non-empty subset (bias toward keeping all)
        let keep: Vec<_> = join_attrs
            .iter()
            .filter(|_| rng.chance(4, 5))
            .collect();
        let projection = if keep.is_empty() {
            join_attrs.clone()
        } else {
            AttrSet::from_iter(keep)
        };
        let view = PsjView::new(catalog, rels, selection, projection).expect("well-formed");
        views.push(NamedView::new(format!("V{i}").as_str(), view));
    }
    views
}

/// The headline property: for ANY random catalog, warehouse and
/// constraint regime, the computed complement verifies on random
/// valid states (Definition 2.2 / Proposition 2.1 / Theorem 2.2).
#[test]
fn theorem_22_holds_on_random_warehouses() {
    Runner::new("theorem_22_holds_on_random_warehouses").cases(64).run(
        |rng| (rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.below(3) as u8),
        |&(cat_seed, view_seed, state_seed, regime)| {
            let catalog = random_catalog(cat_seed);
            let views = random_views(&catalog, view_seed);
            let opts = match regime {
                0 => ComplementOptions::unconstrained(),
                1 => ComplementOptions::keys_only(),
                _ => ComplementOptions::default(),
            };
            let comp = complement_with(&catalog, &views, &opts).expect("complement computes");
            let cfg = StateGenConfig::new(16, 5);
            for i in 0..3u64 {
                let db = random_state(&catalog, &cfg, state_seed.wrapping_add(i));
                let verdict = comp.verify_on(&catalog, &views, &db).expect("evaluates");
                tk_ensure_eq!(verdict, Ok(()));
            }
            Ok(())
        },
    );
}

/// The whole pipeline on random warehouses: augmentation, query
/// translation, and incremental maintenance all commute.
#[test]
fn pipeline_commutes_on_random_warehouses() {
    Runner::new("pipeline_commutes_on_random_warehouses").cases(64).run(
        |rng| (rng.next_u64(), rng.next_u64(), rng.next_u64()),
        |&(cat_seed, view_seed, state_seed)| {
            use dwcomplements::relalg::{Delta, Update};
            use dwcomplements::warehouse::WarehouseSpec;

            let catalog = random_catalog(cat_seed);
            let views = random_views(&catalog, view_seed);
            let spec = WarehouseSpec::new(catalog.clone(), views).expect("no collisions");
            let aug = spec.augment().expect("augments");
            let cfg = StateGenConfig::new(14, 5);
            let db = random_state(&catalog, &cfg, state_seed);
            let w = aug.materialize(&db).expect("materializes");

            // Query translation commutes for a projection of each base.
            for name in catalog.relation_names() {
                let q = dwcomplements::relalg::RaExpr::Base(name);
                let (src, wh) = aug.query_commutes(&q, &db).expect("evaluates");
                tk_ensure_eq!(src, wh);
            }

            // One multi-relation update, maintained incrementally.
            let target = random_state(&catalog, &cfg, state_seed.wrapping_add(17));
            let mut update = Update::new();
            for (name, t) in target.iter() {
                let cur = db.relation(name).expect("state");
                update = update.with(
                    name.as_str(),
                    Delta::new(
                        t.difference(cur).expect("same header"),
                        cur.difference(t).expect("same header"),
                    )
                    .expect("same header"),
                );
            }
            let update = update.normalize(&db).expect("consistent");
            if !update.is_empty() {
                let plan = aug.compile_plan(&update.touched().collect()).expect("compiles");
                let (w_next, deltas) = plan.apply_detailed(&w, &update).expect("maintains");
                let oracle = aug
                    .materialize(&update.apply(&db).expect("applies"))
                    .expect("materializes");
                tk_ensure_eq!(&w_next, &oracle);
                let reconstructed =
                    aug.maintain_by_reconstruction(&w, &update).expect("reconstructs");
                tk_ensure_eq!(&reconstructed, &oracle);
                // The reported net deltas are exactly new ∖ old / old ∖ new,
                // one per stored relation in plan order.
                let stepped: Vec<RelName> = deltas.iter().map(|d| d.name).collect();
                tk_ensure_eq!(stepped, aug.stored_relations());
                for d in &deltas {
                    let old = w.relation(d.name).expect("stored");
                    let new = oracle.relation(d.name).expect("stored");
                    tk_ensure_eq!(&d.inserted, &new.difference(old).expect("same header"));
                    tk_ensure_eq!(&d.deleted, &old.difference(new).expect("same header"));
                }
            }
            Ok(())
        },
    );
}

/// The maintenance pass evaluates a step from the reported delta when
/// its expressions are delta-sized and over whole relations otherwise.
/// On random warehouses and small random updates of random valid states,
/// every pass — whatever mix of the two its steps took — equals
/// `W(u(W⁻¹(w)))` (reconstruction) and `W(u(d))`, and its stored deltas
/// are exactly the net changes. Across the run both kinds of step must
/// occur, so the mixing is exercised.
#[test]
fn restricted_pass_equals_reconstruction_and_mixes_whole_steps() {
    use dwcomplements::relalg::{Delta, Relation, Update};
    use dwcomplements::warehouse::WarehouseSpec;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    static CASES: AtomicUsize = AtomicUsize::new(0);
    static RESTRICTED: AtomicUsize = AtomicUsize::new(0);
    static WHOLE: AtomicUsize = AtomicUsize::new(0);

    /// Up to two rows of `rel` (chosen by `rng`).
    fn pick(rel: &Relation, rng: &mut SplitMix64) -> Relation {
        let rows: Vec<_> = rel.iter().filter(|_| rng.chance(1, 4)).take(2).collect();
        Relation::from_tuples(rel.attrs().clone(), rows).expect("same header")
    }

    Runner::new("restricted_pass_equals_reconstruction_and_mixes_whole_steps").cases(64).run(
        |rng| (rng.next_u64(), rng.next_u64(), rng.next_u64()),
        |&(cat_seed, view_seed, state_seed)| {
            CASES.fetch_add(1, Relaxed);
            let catalog = random_catalog(cat_seed);
            let views = random_views(&catalog, view_seed);
            let aug = WarehouseSpec::new(catalog.clone(), views)
                .expect("no collisions")
                .augment()
                .expect("augments");
            let cfg = StateGenConfig::new(14, 5);
            let db = random_state(&catalog, &cfg, state_seed);
            let w = aug.materialize(&db).expect("materializes");
            let mut rng = SplitMix64::new(state_seed ^ 0xD1FF);
            for k in 0..4u64 {
                let other = random_state(&catalog, &cfg, state_seed.wrapping_add(k + 1));
                let mut update = Update::new();
                for (name, cur) in db.iter() {
                    let fresh = other.relation(name).expect("state").difference(cur).expect("same header");
                    let delta = Delta::new(pick(&fresh, &mut rng), pick(cur, &mut rng)).expect("same header");
                    update = update.with(name.as_str(), delta);
                }
                let update = update.normalize(&db).expect("consistent");
                if update.is_empty() {
                    continue;
                }
                let plan = aug.compile_plan(&update.touched().collect()).expect("compiles");
                let (w_next, deltas, pass) = plan.apply_counted(&w, &update).expect("maintains");
                RESTRICTED.fetch_add(pass.restricted_steps, Relaxed);
                WHOLE.fetch_add(pass.whole_steps, Relaxed);
                tk_ensure_eq!(pass.restricted_steps + pass.whole_steps, plan.steps().len());
                let reconstructed =
                    aug.maintain_by_reconstruction(&w, &update).expect("reconstructs");
                tk_ensure_eq!(&w_next, &reconstructed);
                let oracle = aug
                    .materialize(&update.apply(&db).expect("applies"))
                    .expect("materializes");
                tk_ensure_eq!(&w_next, &oracle);
                for d in &deltas {
                    let (old, new) = (w.relation(d.name).expect("stored"), oracle.relation(d.name).expect("stored"));
                    tk_ensure_eq!(&d.inserted, &new.difference(old).expect("same header"));
                    tk_ensure_eq!(&d.deleted, &old.difference(new).expect("same header"));
                }
            }
            Ok(())
        },
    );
    // A pinned single case (`DWC_TESTKIT_SEED`) need not meet both kinds.
    if CASES.load(Relaxed) >= 8 {
        assert!(RESTRICTED.load(Relaxed) > 0, "no step was evaluated from the delta");
        assert!(WHOLE.load(Relaxed) > 0, "no step fell back to whole relations");
    }
}

/// Plan order is a valid schedule: for random specs and touched sets,
/// every step's `plus`/`minus` reads `X@next` only for `X` at a strictly
/// smaller step index, so applying steps in order never reads a value
/// that has not been published yet.
#[test]
fn plan_steps_read_next_only_from_earlier_steps() {
    Runner::new("plan_steps_read_next_only_from_earlier_steps").cases(64).run(
        |rng| (rng.next_u64(), rng.next_u64(), rng.next_u64()),
        |&(cat_seed, view_seed, touch_seed)| {
            use dwcomplements::warehouse::incremental::next_name;
            use dwcomplements::warehouse::WarehouseSpec;
            use std::collections::{BTreeMap, BTreeSet};

            let catalog = random_catalog(cat_seed);
            let views = random_views(&catalog, view_seed);
            let aug = WarehouseSpec::new(catalog.clone(), views)
                .expect("no collisions")
                .augment()
                .expect("augments");
            let mut rng = SplitMix64::new(touch_seed);
            let names: Vec<RelName> = catalog.relation_names().collect();
            let mut touched: BTreeSet<RelName> =
                names.iter().filter(|_| rng.chance(1, 2)).copied().collect();
            touched.insert(names[rng.index(names.len())]);

            let plan = aug.compile_plan(&touched).expect("compiles");
            let position: BTreeMap<RelName, usize> = plan
                .steps()
                .iter()
                .enumerate()
                .map(|(i, (name, _))| (next_name(*name), i))
                .collect();
            for (i, (name, d)) in plan.steps().iter().enumerate() {
                for r in d.plus.base_relations().into_iter().chain(d.minus.base_relations()) {
                    if r.as_str().ends_with("@next") {
                        tk_ensure!(
                            position.get(&r).is_some_and(|&j| j < i),
                            "step {i} ({name}) reads {r}, which no earlier step publishes"
                        );
                    }
                }
            }
            Ok(())
        },
    );
}
