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
//! The result references only warehouse relations and the reported
//! `@ins`/`@del` relations: the warehouse is update-independent (Theorem
//! 4.1). Plans depend only on *which* relations an update touches, so the
//! integrator caches them per touched-set. A stored relation whose
//! definition reads no touched base gets no step: its new value is its
//! old one.
//!
//! ## Evaluation proportional to |Δ|
//!
//! `R@inv` and `R@newinv` are never materialized whole. Each step's
//! expressions are compiled once ([`dwc_relalg::eval::PassCompiler`])
//! with the two names *expanded* into `W⁻¹(R)` and
//! `(W⁻¹(R) ∖ R@del) ∪ R@ins`, and a pass evaluates a join, difference
//! or intersection with a delta-sized operand from that operand: the
//! other operand — an inverse, a stored relation, an earlier step's
//! `@next` value — is read only as `… ⋉ K` for the keys `K` the delta
//! side produced, pushed through Equation (4)'s unions, projections and
//! extension joins down to key-index probes of stored relations. A step
//! whose `plus`/`minus` are not delta-sized (say, a cartesian product
//! with a whole relation) evaluates those parts whole, computing each
//! inverse at most once per pass; Theorem 4.1 makes mixing the two safe.
//! DESIGN.md §15 states the eligibility rules. The stored deltas come
//! out of the final apply: [`Relation::apply_delta_net`] locates the Δ
//! rows in the old relation by binary search and splices them in, with
//! the relation's key indexes carried over. The mirrored evaluation
//! ([`MaintenancePlan::apply_with_mirrors`]) evaluates whole relations
//! over materialized source copies; only E4.1 and the columnar
//! differential call it.

use crate::delta::{self, DeltaExpr, DeltaResolver};
use crate::error::{Result, WarehouseError};
use crate::spec::AugmentedWarehouse;
use dwc_relalg::eval::{Pass, PassCompiler, PassExpr};
use dwc_relalg::expr::HeaderResolver;
use dwc_relalg::{AttrSet, DbState, RaExpr, RelName, Relation, Update};
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

impl StoredDelta {
    /// No change to `name`, whose value is `old`.
    fn none(name: RelName, old: &Relation) -> StoredDelta {
        let empty = Relation::empty(old.attrs().clone());
        StoredDelta { name, inserted: empty.clone(), deleted: empty }
    }
}

/// What one maintenance pass did ([`MaintenancePlan::apply_counted`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Steps whose `plus` and `minus` were both delta-sized, evaluated
    /// from the reported deltas alone.
    pub restricted_steps: usize,
    /// Steps with a part evaluated over whole relations.
    pub whole_steps: usize,
    /// Rows produced by every operator, plus every key probed into a
    /// stored relation, plus the delta rows spliced into stored ones.
    pub rows_touched: u64,
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
/// does the most work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Name each inverse reconstruction once (`R@inv`, evaluated at most
    /// once per pass) instead of inlining the inverse expression at
    /// every occurrence.
    pub materialize_inverses: bool,
    /// Fold subexpressions equal to stored-relation definitions (old
    /// state and earlier steps' `@next` state) into reads.
    pub fold_stored: bool,
    /// Share one pass memo across all steps of an application.
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

/// One compiled step: the stored relation, the name its new value is
/// published under, and its delta expressions compiled for a [`Pass`].
#[derive(Clone, Debug)]
struct CompiledStep {
    next: RelName,
    plus: PassExpr,
    minus: PassExpr,
}

/// A compiled maintenance plan for one touched-relation set.
#[derive(Clone, Debug)]
pub struct MaintenancePlan {
    touched: BTreeSet<RelName>,
    /// Per touched base: `(base, R@ins, R@del)`.
    reported: Vec<(RelName, RelName, RelName)>,
    /// Inverse expressions the mirrored path materializes per update:
    /// `(base, inverse over warehouse names, R@inv, R@newinv if needed)`.
    inverses: Vec<(RelName, RaExpr, RelName, Option<RelName>)>,
    /// Every stored relation in plan order, with the index of its step
    /// (`None`: its definition reads no touched base).
    order: Vec<(RelName, Option<usize>)>,
    /// In application order: a step reads only old stored state plus the
    /// `@next` values of steps at a strictly smaller index.
    steps: Vec<(RelName, DeltaExpr)>,
    /// `steps`, compiled for [`Pass`] evaluation.
    compiled: Vec<CompiledStep>,
    memoize_eval: bool,
}

impl MaintenancePlan {
    /// The touched-relation set the plan was compiled for.
    pub fn touched(&self) -> &BTreeSet<RelName> {
        &self.touched
    }

    /// The per-stored-relation maintenance expressions, for the stored
    /// relations whose definitions read a touched base.
    pub fn steps(&self) -> &[(RelName, DeltaExpr)] {
        &self.steps
    }

    /// The inverse reconstructions the plan's expressions read.
    pub fn inverses(&self) -> impl Iterator<Item = (RelName, &RaExpr)> + '_ {
        self.inverses.iter().map(|(b, e, _, _)| (*b, e))
    }

    /// Total expression size (complexity metric for the experiments).
    pub fn size(&self) -> usize {
        self.steps.iter().map(|(_, d)| d.size()).sum::<usize>()
            + self.inverses.iter().map(|(_, e, _, _)| e.size()).sum::<usize>()
    }

    /// The reported `@ins`/`@del` deltas, under their names.
    fn reported(&self, update: &Update) -> Result<Vec<(RelName, Relation)>> {
        let mut out = Vec::with_capacity(2 * self.reported.len());
        for &(base, ins, del) in &self.reported {
            let d = update
                .delta(base)
                .ok_or(WarehouseError::UpdateOutsideSources(base))?;
            out.extend([(ins, d.inserted().clone()), (del, d.deleted().clone())]);
        }
        Ok(out)
    }

    /// Applies the plan to a warehouse state given the *reported,
    /// normalized* update. No base relation is consulted: the evaluation
    /// environment is the old warehouse state plus the reported deltas,
    /// with the inverse reconstructions evaluated in place.
    pub fn apply(&self, warehouse: &DbState, update: &Update) -> Result<DbState> {
        Ok(self.apply_counted(warehouse, update)?.0)
    }

    /// Like [`MaintenancePlan::apply`], additionally returning the net
    /// per-stored-relation deltas (for cascading maintenance, e.g.
    /// summary tables over fact views), one per stored relation in plan
    /// order.
    pub fn apply_detailed(
        &self,
        warehouse: &DbState,
        update: &Update,
    ) -> Result<(DbState, Vec<StoredDelta>)> {
        let (next, deltas, _) = self.apply_counted(warehouse, update)?;
        Ok((next, deltas))
    }

    /// Like [`MaintenancePlan::apply_detailed`], also reporting what the
    /// pass did ([`PassStats`]).
    pub fn apply_counted(
        &self,
        warehouse: &DbState,
        update: &Update,
    ) -> Result<(DbState, Vec<StoredDelta>, PassStats)> {
        // Steps run in plan order (views before the complements that read
        // their `@next` values), each publishing its new value as it
        // completes; one pass memo spans all steps, since the delta rules
        // repeat reconstruction subtrees across views.
        let mut pass = Pass::new(warehouse, self.memoize_eval);
        for (name, rel) in self.reported(update)? {
            pass.bind(name, rel);
        }
        let mut stats = PassStats::default();
        let mut next = warehouse.clone();
        let mut deltas = Vec::with_capacity(self.order.len());
        for &(name, step) in &self.order {
            let old = warehouse.relation(name)?;
            let Some(i) = step else {
                deltas.push(StoredDelta::none(name, old));
                continue;
            };
            let c = &self.compiled[i];
            let (plus, minus) = (pass.eval(&c.plus)?, pass.eval(&c.minus)?);
            let (new, inserted, deleted) = old.apply_delta_net(&plus, &minus)?;
            pass.count(plus.len() + minus.len());
            if c.plus.is_delta_sized() && c.minus.is_delta_sized() {
                stats.restricted_steps += 1;
            } else {
                stats.whole_steps += 1;
            }
            deltas.push(StoredDelta { name, inserted, deleted });
            pass.bind(c.next, new.clone());
            next.insert_relation(name, new);
        }
        stats.rows_touched = pass.rows_touched();
        Ok((next, deltas, stats))
    }

    /// Like [`MaintenancePlan::apply`], but takes pre-materialized source
    /// reconstructions (one relation per base name) instead of evaluating
    /// the inverse expressions, and evaluates every step over whole
    /// relations. Mirrors cost a full source copy of storage — the
    /// trivial complement. The integrator never takes this path; E4.1
    /// and the columnar differential keep it as a second evaluation of
    /// the same delta rules.
    pub fn apply_with_mirrors(
        &self,
        warehouse: &DbState,
        update: &Update,
        mirrors: &DbState,
    ) -> Result<DbState> {
        let mut env = warehouse.clone();
        for (name, rel) in self.reported(update)? {
            env.insert_relation(name, rel);
        }
        for (base, _, inv, newinv) in &self.inverses {
            let old = mirrors.relation_shared(*base)?;
            if let Some(newinv) = newinv {
                let delta = update
                    .delta(*base)
                    .ok_or(WarehouseError::UpdateOutsideSources(*base))?;
                env.insert_relation(*newinv, delta.apply(&old)?);
            }
            env.insert_shared(*inv, old);
        }
        // Each step compiles once the `@next` values it reads are bound.
        let headers = NextHeaders(&env);
        let mut compiler = PassCompiler::new(&headers, &|_| false);
        let mut pass = Pass::new(&env, self.memoize_eval);
        let mut next = warehouse.clone();
        for &(name, step) in &self.order {
            let Some(i) = step else { continue };
            let d = &self.steps[i].1;
            let (plus, minus) = (compiler.compile(&d.plus)?, compiler.compile(&d.minus)?);
            let (plus, minus) = (pass.eval(&plus)?, pass.eval(&minus)?);
            let (new, _, _) = warehouse.relation(name)?.apply_delta_net(&plus, &minus)?;
            pass.bind(self.compiled[i].next, new.clone());
            next.insert_relation(name, new);
        }
        Ok(next)
    }
}

/// Headers on the mirrored path: a step's `X@next` has `X`'s header.
struct NextHeaders<'a>(&'a DbState);

impl HeaderResolver for NextHeaders<'_> {
    fn header_of(&self, name: RelName) -> dwc_relalg::Result<AttrSet> {
        match name.as_str().strip_suffix("@next") {
            Some(stored) => self.0.header_of(RelName::new(stored)),
            None => self.0.header_of(name),
        }
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
        let reported: Vec<(RelName, RelName, RelName)> = touched
            .iter()
            .map(|&r| (r, delta::ins_name(r), delta::del_name(r)))
            .collect();
        // Substitution for base references: old state → @inv; new state →
        // @newinv (both expanded in place by the pass) — or, with
        // materialization disabled, the inverse expression inlined at
        // every occurrence.
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
        // A relation without a step keeps its old value, which old-state
        // folding already reads.
        let mut new_subst = subst.clone();
        for base in self.inverse().keys() {
            if touched.contains(base) {
                new_subst.insert(*base, RaExpr::Base(newinv_name(*base)));
            }
        }

        let mut order = Vec::with_capacity(definitions.len());
        let mut steps = Vec::new();
        let mut referenced: BTreeSet<RelName> = BTreeSet::new();
        let mut new_patterns: Vec<(RaExpr, RelName)> = Vec::new();
        for (name, def) in &definitions {
            if def.base_relations().is_disjoint(touched) {
                order.push((*name, None));
                continue;
            }
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
            order.push((*name, Some(steps.len())));
            steps.push((*name, step));
            new_patterns.push((def.substitute(&new_subst), next_name(*name)));
        }

        // The inverses the (simplified) steps read: expanded in place for
        // a pass, materialized from mirrors on the mirrored path.
        let mut inverses = Vec::new();
        for (base, inv) in self.inverse() {
            let (old, new) = (inv_name(*base), newinv_name(*base));
            let needs_new = referenced.contains(&new);
            if referenced.contains(&old) || needs_new {
                inverses.push((*base, inv.clone(), old, needs_new.then_some(new)));
            }
        }

        // Delta-sized leaves: the reported deltas, and stored relations
        // whose definition is statically empty (a complement the
        // constraints prove ∅), before and after the update.
        let mut small: BTreeSet<RelName> = reported
            .iter()
            .flat_map(|&(_, ins, del)| [ins, del])
            .collect();
        for (name, def) in &definitions {
            if matches!(def, RaExpr::Empty(_)) {
                small.extend([*name, next_name(*name)]);
            }
        }
        let is_small = |name: RelName| small.contains(&name);
        let mut compiler = PassCompiler::new(&result_resolver, &is_small);
        for (base, inv, old, new) in &inverses {
            compiler.expand(*old, inv.clone());
            if let Some(new) = new {
                let (ins, del) = (delta::ins_name(*base), delta::del_name(*base));
                compiler.expand(
                    *new,
                    RaExpr::Base(*old).diff(RaExpr::Base(del)).union(RaExpr::Base(ins)),
                );
            }
        }
        let compiled = steps
            .iter()
            .map(|(name, d)| {
                Ok(CompiledStep {
                    next: next_name(*name),
                    plus: compiler.compile(&d.plus)?,
                    minus: compiler.compile(&d.minus)?,
                })
            })
            .collect::<Result<_>>()?;
        Ok(MaintenancePlan {
            touched: touched.clone(),
            reported,
            inverses,
            order,
            steps,
            compiled,
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

impl HeaderResolver for ResolverBox<'_> {
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
