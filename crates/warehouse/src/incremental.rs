//! Maintenance expressions over warehouse views only (Example 4.1).
//!
//! For every stored relation `X` (warehouse view or complement view) with
//! definition `E_X` over `D`, the maintenance plan derives the delta
//! rules of [`crate::delta`] and then substitutes:
//!
//! * every *old* base reference `R` by `R@inv` — the reconstruction of
//!   `R` via its inverse expression `W⁻¹(R)` (Equation (4)),
//! * every *new* base reference `R@new` by `R@newinv` —
//!   `(W⁻¹(R) ∖ R@del) ∪ R@ins`, the post-update source state in
//!   warehouse terms plus the *reported* deltas.
//!
//! The `@inv`/`@newinv` relations are materialized **once per update**
//! from the old warehouse state (rather than inlining the inverse
//! expression at every occurrence — a naive inlining re-derives the
//! reconstruction once per occurrence and loses to wholesale
//! recomputation; see experiment E8). The result references only
//! warehouse relations and the reported `@ins`/`@del` relations: the
//! warehouse is update-independent (Theorem 4.1). Plans depend only on
//! *which* relations an update touches, so the integrator caches them
//! per touched-set.

use crate::delta::{self, DeltaExpr, DeltaResolver};
use crate::error::{Result, WarehouseError};
use crate::spec::AugmentedWarehouse;
use dwc_relalg::eval::{eval_arc, eval_cached, EvalCache};
use dwc_relalg::{DbState, RaExpr, RelName, Relation, Update};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The *net* change of one stored relation produced by a plan
/// application: `inserted ∩ old = ∅`, `deleted ⊆ old`, and
/// `new = (old ∖ deleted) ∪ inserted`. Consumed by downstream layers
/// (e.g. summary-table maintenance in `dwc-aggregates`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredDelta {
    /// The stored relation (view or complement view).
    pub name: RelName,
    /// Net insertions.
    pub inserted: Relation,
    /// Net deletions.
    pub deleted: Relation,
}

/// The name of the materialized inverse (old source state) of `r`.
pub fn inv_name(r: RelName) -> RelName {
    RelName::new(&format!("{r}@inv"))
}

/// The name of the materialized post-update source state of `r`.
pub fn newinv_name(r: RelName) -> RelName {
    RelName::new(&format!("{r}@newinv"))
}

/// The name under which a stored relation's *maintained* (post-update)
/// value is exposed to later maintenance steps of the same plan.
pub fn next_name(x: RelName) -> RelName {
    RelName::new(&format!("{x}@next"))
}

/// Compilation options for maintenance plans — the ablation axes of
/// experiment E14. The defaults are what [`AugmentedWarehouse::compile_plan`]
/// uses; turning them off reproduces the naive reading of Example 4.1
/// (inline every inverse occurrence, never reuse stored state), which
/// loses to wholesale reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Materialize each inverse reconstruction once per update (`R@inv`)
    /// instead of inlining the inverse expression at every occurrence.
    pub materialize_inverses: bool,
    /// Fold subexpressions equal to stored-relation definitions (old
    /// state and earlier steps' `@next` state) into reads.
    pub fold_stored: bool,
    /// Share one evaluation cache across all steps of an application.
    pub memoize_eval: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            materialize_inverses: true,
            fold_stored: true,
            memoize_eval: true,
        }
    }
}

impl PlanOptions {
    /// The naive Example 4.1 reading: substitute and evaluate literally.
    pub fn naive() -> Self {
        PlanOptions {
            materialize_inverses: false,
            fold_stored: false,
            memoize_eval: false,
        }
    }
}

/// A compiled maintenance plan for one touched-relation set.
#[derive(Clone, Debug)]
pub struct MaintenancePlan {
    touched: BTreeSet<RelName>,
    /// Inverse expressions to materialize once per update:
    /// `(base, inverse over warehouse names, also needs @newinv)`.
    inverses: Vec<(RelName, RaExpr, bool)>,
    /// In application order: a step reads only old stored state plus the
    /// `@next` values of steps at a strictly smaller index.
    steps: Vec<(RelName, DeltaExpr)>,
    memoize_eval: bool,
}

impl MaintenancePlan {
    /// The touched-relation set the plan was compiled for.
    pub fn touched(&self) -> &BTreeSet<RelName> {
        &self.touched
    }

    /// The per-stored-relation maintenance expressions.
    pub fn steps(&self) -> &[(RelName, DeltaExpr)] {
        &self.steps
    }

    /// The inverse materializations the plan performs per update.
    pub fn inverses(&self) -> impl Iterator<Item = (RelName, &RaExpr)> + '_ {
        self.inverses.iter().map(|(b, e, _)| (*b, e))
    }

    /// Total expression size (complexity metric for the experiments).
    pub fn size(&self) -> usize {
        self.steps.iter().map(|(_, d)| d.size()).sum::<usize>()
            + self.inverses.iter().map(|(_, e, _)| e.size()).sum::<usize>()
    }

    /// Applies the plan to a warehouse state given the *reported,
    /// normalized* update. No base relation is consulted: the evaluation
    /// environment is the old warehouse state plus the reported deltas
    /// plus the once-materialized inverse reconstructions.
    pub fn apply(&self, warehouse: &DbState, update: &Update) -> Result<DbState> {
        Ok(self.apply_impl(warehouse, update, None)?.0)
    }

    /// Like [`MaintenancePlan::apply`], additionally returning the net
    /// per-stored-relation deltas (for cascading maintenance, e.g.
    /// summary tables over fact views).
    pub fn apply_detailed(
        &self,
        warehouse: &DbState,
        update: &Update,
    ) -> Result<(DbState, Vec<StoredDelta>)> {
        self.apply_impl(warehouse, update, None)
    }

    /// Like [`MaintenancePlan::apply`], but takes pre-materialized source
    /// reconstructions (one relation per base name) instead of evaluating
    /// the inverse expressions. Mirrors cost a full source copy of
    /// storage — the trivial complement — and remove the per-update
    /// reconstruction scans; see [`crate::integrator::IntegratorConfig`].
    pub fn apply_with_mirrors(
        &self,
        warehouse: &DbState,
        update: &Update,
        mirrors: &DbState,
    ) -> Result<DbState> {
        Ok(self.apply_impl(warehouse, update, Some(mirrors))?.0)
    }

    /// Mirror-backed variant of [`MaintenancePlan::apply_detailed`].
    pub fn apply_with_mirrors_detailed(
        &self,
        warehouse: &DbState,
        update: &Update,
        mirrors: &DbState,
    ) -> Result<(DbState, Vec<StoredDelta>)> {
        self.apply_impl(warehouse, update, Some(mirrors))
    }

    fn apply_impl(
        &self,
        warehouse: &DbState,
        update: &Update,
        mirrors: Option<&DbState>,
    ) -> Result<(DbState, Vec<StoredDelta>)> {
        let mut env = warehouse.clone();
        for (r, d) in update.iter() {
            env.insert_relation(delta::ins_name(r), d.inserted().clone());
            env.insert_relation(delta::del_name(r), d.deleted().clone());
        }
        // Inverse reconstructions reference stored relations only (never
        // each other's `@inv`), so publishing each as it is built leaves
        // the later ones' inputs untouched.
        for (base, inv, needs_new) in &self.inverses {
            let old = match mirrors {
                Some(m) => m.relation_shared(*base)?,
                None => Arc::new(inv.eval(&env)?),
            };
            if *needs_new {
                let delta = update
                    .delta(*base)
                    .ok_or(WarehouseError::UpdateOutsideSources(*base))?;
                env.insert_relation(newinv_name(*base), delta.apply(&old)?);
            }
            env.insert_shared(inv_name(*base), old);
        }
        // Steps run in plan order (views before the complements that read
        // their `@next` values): each step reads only OLD stored
        // relations plus the `@next` values of earlier steps, published
        // into the environment as each step completes. One memoization
        // cache spans all steps: the delta rules repeat large
        // reconstruction subtrees across views.
        let cache = self.memoize_eval.then(EvalCache::new);
        let mut next = warehouse.clone();
        let mut deltas = Vec::with_capacity(self.steps.len());
        for (name, d) in &self.steps {
            let (plus, minus) = match &cache {
                Some(c) => (eval_cached(&d.plus, &env, c)?, eval_cached(&d.minus, &env, c)?),
                None => (eval_arc(&d.plus, &env)?, eval_arc(&d.minus, &env)?),
            };
            let old = warehouse.relation(*name)?;
            let new = old.apply_delta(&plus, &minus)?;
            // Net deltas: the rule invariants give plus ⊆ new and
            // minus ∩ new = ∅, so new∖old = plus∖old and old∖new = minus∩old.
            deltas.push(StoredDelta {
                name: *name,
                inserted: plus.difference(old)?,
                deleted: minus.intersect(old)?,
            });
            env.insert_relation(next_name(*name), new.clone());
            next.insert_relation(*name, new);
        }
        Ok((next, deltas))
    }
}

impl AugmentedWarehouse {
    /// Compiles the maintenance plan for updates touching exactly the
    /// given base relations (default options).
    pub fn compile_plan(&self, touched: &BTreeSet<RelName>) -> Result<MaintenancePlan> {
        self.compile_plan_with(touched, PlanOptions::default())
    }

    /// Plan compilation with explicit optimization options (E14's
    /// ablation knobs).
    pub fn compile_plan_with(
        &self,
        touched: &BTreeSet<RelName>,
        opts: PlanOptions,
    ) -> Result<MaintenancePlan> {
        for &r in touched {
            if !self.catalog().contains(r) {
                return Err(WarehouseError::UpdateOutsideSources(r));
            }
        }
        // Substitution for base references: old state → @inv; new state →
        // @newinv (both materialized once per update by `apply`) — or,
        // with materialization disabled, the inverse expression inlined
        // at every occurrence.
        let mut subst: BTreeMap<RelName, RaExpr> = BTreeMap::new();
        for (base, inv) in self.inverse() {
            if opts.materialize_inverses {
                subst.insert(*base, RaExpr::Base(inv_name(*base)));
                if touched.contains(base) {
                    subst.insert(delta::new_name(*base), RaExpr::Base(newinv_name(*base)));
                }
            } else {
                subst.insert(*base, inv.clone());
                if touched.contains(base) {
                    subst.insert(
                        delta::new_name(*base),
                        inv.clone()
                            .diff(RaExpr::Base(delta::del_name(*base)))
                            .union(RaExpr::Base(delta::ins_name(*base))),
                    );
                }
            }
        }
        // Headers for derivation come from the catalog (+@-names);
        // headers for the substituted result come from the warehouse
        // resolver (+@-names, +@inv names).
        let base_resolver = DeltaResolver::new(self.catalog());
        let warehouse_adapter = ResolverBox(self);
        let result_resolver = DeltaResolver::new(&warehouse_adapter);

        // Simplify definitions first: PSJ normal form carries identity
        // projections whose delta rules are needlessly expensive.
        // Process warehouse views before complement views: complements
        // subtract view expressions, so their maintenance expressions can
        // reuse the views' already-maintained new values (`@next`).
        let all_defs = self.all_definitions();
        let definitions: Vec<(RelName, RaExpr)> = self
            .stored_relations()
            .into_iter()
            .map(|name| {
                let def = all_defs
                    .get(&name)
                    .ok_or(WarehouseError::MissingDefinition(name))?;
                Ok((name, def.simplified(self.catalog())?))
            })
            .collect::<Result<_>>()?;

        // Old-state folding: a subexpression that equals a stored
        // relation's definition (with base references pointing at the
        // old reconstructions) *is* that stored relation — read it
        // instead of recomputing it.
        let old_patterns: Vec<(RaExpr, RelName)> = definitions
            .iter()
            .map(|(name, def)| (def.substitute(&subst), *name))
            .collect();
        // New-state folding: the new value of an *earlier* step is
        // available as `X@next`; its pattern is the definition with
        // touched base references pointing at the post-update sources.
        let mut new_subst = subst.clone();
        for base in self.inverse().keys() {
            if touched.contains(base) {
                new_subst.insert(*base, RaExpr::Base(newinv_name(*base)));
            }
        }

        let mut steps = Vec::new();
        let mut referenced: BTreeSet<RelName> = BTreeSet::new();
        let mut new_patterns: Vec<(RaExpr, RelName)> = Vec::new();
        for (name, def) in &definitions {
            let d = delta::derive(def, touched, &base_resolver)?;
            let fold = |e: RaExpr| -> Result<RaExpr> {
                let substituted = e.substitute(&subst);
                let folded = if opts.fold_stored {
                    fold_stored(&fold_stored(&substituted, &new_patterns), &old_patterns)
                } else {
                    substituted
                };
                Ok(folded.simplified(&result_resolver)?)
            };
            let step = DeltaExpr {
                plus: fold(d.plus)?,
                minus: fold(d.minus)?,
            };
            for e in [&step.plus, &step.minus] {
                referenced.extend(e.base_relations());
            }
            steps.push((*name, step));
            new_patterns.push((def.substitute(&new_subst), next_name(*name)));
        }

        // Materialize exactly the inverses the (simplified) steps use.
        let mut inverses = Vec::new();
        for (base, inv) in self.inverse() {
            let needs_old = referenced.contains(&inv_name(*base));
            let needs_new = referenced.contains(&newinv_name(*base));
            if needs_old || needs_new {
                inverses.push((*base, inv.clone(), needs_new));
            }
        }
        Ok(MaintenancePlan {
            touched: touched.clone(),
            inverses,
            steps,
            memoize_eval: opts.memoize_eval,
        })
    }
}

/// Crate-internal re-export of [`fold_stored`] for the independence
/// analysis (which folds co-stored view definitions the same way).
pub(crate) fn fold_stored_public(e: &RaExpr, patterns: &[(RaExpr, RelName)]) -> RaExpr {
    fold_stored(e, patterns)
}

/// Replaces (top-down) every subexpression that syntactically matches a
/// stored relation's old-state definition by a reference to that stored
/// relation.
fn fold_stored(e: &RaExpr, patterns: &[(RaExpr, RelName)]) -> RaExpr {
    for (pattern, name) in patterns {
        if e == pattern {
            return RaExpr::Base(*name);
        }
    }
    match e {
        RaExpr::Base(_) | RaExpr::Empty(_) => e.clone(),
        RaExpr::Select(i, p) => RaExpr::Select(fold_arc(i, patterns), p.clone()),
        RaExpr::Project(i, a) => RaExpr::Project(fold_arc(i, patterns), a.clone()),
        RaExpr::Join(l, r) => RaExpr::Join(fold_arc(l, patterns), fold_arc(r, patterns)),
        RaExpr::Union(l, r) => RaExpr::Union(fold_arc(l, patterns), fold_arc(r, patterns)),
        RaExpr::Diff(l, r) => RaExpr::Diff(fold_arc(l, patterns), fold_arc(r, patterns)),
        RaExpr::Intersect(l, r) => {
            RaExpr::Intersect(fold_arc(l, patterns), fold_arc(r, patterns))
        }
        RaExpr::Rename(i, p) => RaExpr::Rename(fold_arc(i, patterns), p.clone()),
    }
}

/// [`fold_stored`] over a shared subtree: returns the same allocation (a
/// refcount bump) when nothing inside the subtree matched a pattern.
fn fold_arc(e: &Arc<RaExpr>, patterns: &[(RaExpr, RelName)]) -> Arc<RaExpr> {
    for (pattern, name) in patterns {
        if **e == *pattern {
            return Arc::new(RaExpr::Base(*name));
        }
    }
    match e.as_ref() {
        RaExpr::Base(_) | RaExpr::Empty(_) => Arc::clone(e),
        RaExpr::Select(i, p) => {
            let fi = fold_arc(i, patterns);
            if Arc::ptr_eq(&fi, i) {
                Arc::clone(e)
            } else {
                Arc::new(RaExpr::Select(fi, p.clone()))
            }
        }
        RaExpr::Project(i, a) => {
            let fi = fold_arc(i, patterns);
            if Arc::ptr_eq(&fi, i) {
                Arc::clone(e)
            } else {
                Arc::new(RaExpr::Project(fi, a.clone()))
            }
        }
        RaExpr::Rename(i, p) => {
            let fi = fold_arc(i, patterns);
            if Arc::ptr_eq(&fi, i) {
                Arc::clone(e)
            } else {
                Arc::new(RaExpr::Rename(fi, p.clone()))
            }
        }
        RaExpr::Join(l, r)
        | RaExpr::Union(l, r)
        | RaExpr::Diff(l, r)
        | RaExpr::Intersect(l, r) => {
            let fl = fold_arc(l, patterns);
            let fr = fold_arc(r, patterns);
            if Arc::ptr_eq(&fl, l) && Arc::ptr_eq(&fr, r) {
                return Arc::clone(e);
            }
            Arc::new(match e.as_ref() {
                RaExpr::Join(..) => RaExpr::Join(fl, fr),
                RaExpr::Union(..) => RaExpr::Union(fl, fr),
                RaExpr::Diff(..) => RaExpr::Diff(fl, fr),
                _ => RaExpr::Intersect(fl, fr),
            })
        }
    }
}

/// Adapter: resolve stored-relation, base, and `@inv`/`@newinv` headers
/// via the warehouse.
struct ResolverBox<'a>(&'a AugmentedWarehouse);

impl dwc_relalg::expr::HeaderResolver for ResolverBox<'_> {
    fn header_of(&self, name: RelName) -> dwc_relalg::Result<dwc_relalg::AttrSet> {
        let s = name.as_str();
        if let Some(base) = s.strip_suffix("@inv").or_else(|| s.strip_suffix("@newinv")) {
            return self.0.catalog().header_of(RelName::new(base));
        }
        if let Some(stored) = s.strip_suffix("@next") {
            return self.0.resolver().header_of(RelName::new(stored));
        }
        self.0.resolver().header_of(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1_spec, fig1_state};
    use dwc_relalg::rel;

    #[test]
    fn example_41_maintenance_references_warehouse_only() {
        // Insert a set s into Sale; the maintenance expressions must
        // reference stored relations, reported deltas, and materialized
        // inverses only — and the inverses reference stored relations.
        let aug = fig1_spec().augment().unwrap();
        let touched: BTreeSet<RelName> = [RelName::new("Sale")].into();
        let plan = aug.compile_plan(&touched).unwrap();
        assert_eq!(plan.steps().len(), 3);
        let mut allowed: BTreeSet<RelName> = aug
            .stored_relations()
            .into_iter()
            .chain([RelName::new("Sale@ins"), RelName::new("Sale@del")])
            .collect();
        for (base, _) in plan.inverses() {
            allowed.insert(inv_name(base));
            allowed.insert(newinv_name(base));
        }
        for name in aug.stored_relations() {
            allowed.insert(next_name(name));
        }
        for (name, d) in plan.steps() {
            for r in d.plus.base_relations().iter().chain(d.minus.base_relations().iter()) {
                assert!(allowed.contains(r), "step {name} references {r}");
            }
        }
        let stored: BTreeSet<RelName> = aug.stored_relations().into_iter().collect();
        for (base, inv) in plan.inverses() {
            for r in inv.base_relations() {
                assert!(stored.contains(&r), "inverse of {base} references {r}");
            }
        }
    }

    #[test]
    fn plan_apply_matches_recompute_for_example_41_insertion() {
        // The paper's Example 4.1: insert ⟨Computer, Paula⟩ into Sale.
        let aug = fig1_spec().augment().unwrap();
        let db = fig1_state();
        let w = aug.materialize(&db).unwrap();
        let update = Update::inserting(
            "Sale",
            rel! { ["item", "clerk"] => ("Computer", "Paula") },
        );
        let normalized = update.normalize(&db).unwrap();
        let touched: BTreeSet<RelName> = normalized.touched().collect();
        let plan = aug.compile_plan(&touched).unwrap();
        let w_next = plan.apply(&w, &normalized).unwrap();
        let expected = aug.materialize(&update.apply(&db).unwrap()).unwrap();
        assert_eq!(w_next, expected);
        // Sold gains the Paula tuple; C_Emp loses Paula.
        assert_eq!(w_next.relation(RelName::new("Sold")).unwrap().len(), 4);
        assert!(w_next.relation(RelName::new("C_Emp")).unwrap().is_empty());
    }

    #[test]
    fn rejects_updates_outside_sources() {
        let aug = fig1_spec().augment().unwrap();
        let touched: BTreeSet<RelName> = [RelName::new("Sold")].into();
        assert!(matches!(
            aug.compile_plan(&touched),
            Err(WarehouseError::UpdateOutsideSources(_))
        ));
    }

    #[test]
    fn plan_size_and_inverse_accounting() {
        let aug = fig1_spec().augment().unwrap();
        let touched: BTreeSet<RelName> = [RelName::new("Sale")].into();
        let plan = aug.compile_plan(&touched).unwrap();
        assert!(plan.size() > 0);
        assert_eq!(plan.touched(), &touched);
        // Sale is touched, so its @newinv must be materialized; Emp's
        // old inverse is referenced by the join rules.
        let bases: Vec<RelName> = plan.inverses().map(|(b, _)| b).collect();
        assert!(bases.contains(&RelName::new("Sale")));
        assert!(bases.contains(&RelName::new("Emp")));
    }

    #[test]
    fn multi_relation_update_plan() {
        let aug = fig1_spec().augment().unwrap();
        let db = fig1_state();
        let w = aug.materialize(&db).unwrap();
        let update = Update::new()
            .with(
                "Sale",
                dwc_relalg::Delta::insert_only(
                    rel! { ["item", "clerk"] => ("Computer", "Paula") },
                ),
            )
            .with(
                "Emp",
                dwc_relalg::Delta::delete_only(rel! { ["clerk", "age"] => ("John", 25) }),
            )
            .normalize(&db)
            .unwrap();
        let touched: BTreeSet<RelName> = update.touched().collect();
        let plan = aug.compile_plan(&touched).unwrap();
        let w_next = plan.apply(&w, &update).unwrap();
        let expected = aug.materialize(&update.apply(&db).unwrap()).unwrap();
        assert_eq!(w_next, expected);
    }
}
