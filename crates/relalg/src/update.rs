//! The update model.
//!
//! The paper treats an update `u` as a state transformer on `D`
//! (Definition 4.1, Figure 3). We represent `u` concretely as a set of
//! per-relation deltas — tuples to delete and tuples to insert — which is
//! exactly what decoupled sources report to the integrator in the
//! warehousing architecture of Figure 1. Applying an update yields
//! `d' = u(d)` with `r' = (r ∖ delete) ∪ insert` per relation.

use crate::database::DbState;
use crate::error::{RelalgError, Result};
use crate::relation::Relation;
use crate::symbol::RelName;
use std::collections::BTreeMap;
use std::fmt;

/// A delta on a single relation: tuples to delete, then tuples to insert.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delta {
    insert: Relation,
    delete: Relation,
}

impl Delta {
    /// Builds a delta; both sides must share a header.
    pub fn new(insert: Relation, delete: Relation) -> Result<Delta> {
        if insert.attrs() != delete.attrs() {
            return Err(RelalgError::HeaderMismatch {
                left: insert.attrs().clone(),
                right: delete.attrs().clone(),
            });
        }
        Ok(Delta { insert, delete })
    }

    /// A pure insertion.
    pub fn insert_only(insert: Relation) -> Delta {
        let delete = Relation::empty(insert.attrs().clone());
        Delta { insert, delete }
    }

    /// A pure deletion.
    pub fn delete_only(delete: Relation) -> Delta {
        let insert = Relation::empty(delete.attrs().clone());
        Delta { insert, delete }
    }

    /// The inserted tuples.
    pub fn inserted(&self) -> &Relation {
        &self.insert
    }

    /// The deleted tuples.
    pub fn deleted(&self) -> &Relation {
        &self.delete
    }

    /// True iff the delta changes nothing syntactically.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    /// Number of tuples mentioned (insertions + deletions) — the "size of
    /// the reported change" metric used by the experiments.
    pub fn len(&self) -> usize {
        self.insert.len() + self.delete.len()
    }

    /// Applies the delta to an instance: `(current ∖ delete) ∪ insert`.
    pub fn apply(&self, current: &Relation) -> Result<Relation> {
        current.apply_delta(&self.insert, &self.delete)
    }

    /// The cancelling sequential composition `self ; next` of two
    /// *sequentially normalized* deltas: `self` normalized w.r.t. some
    /// state `s₀`, `next` w.r.t. `self(s₀)`. A tuple inserted and then
    /// deleted (or deleted and then re-inserted) cancels to nothing:
    ///
    /// ```text
    /// insert = (self.insert ∖ next.delete) ∪ (next.insert ∖ self.delete)
    /// delete = (self.delete ∖ next.insert) ∪ (next.delete ∖ self.insert)
    /// ```
    ///
    /// Returns `None` when the pair *shows* that the premise is broken —
    /// a tuple inserted twice, or deleted twice, with nothing in
    /// between. See [`Update::then_net`] for the lemma.
    pub fn then_net(&self, next: &Delta) -> Result<Option<Delta>> {
        if !self.insert.intersect(&next.insert)?.is_empty()
            || !self.delete.intersect(&next.delete)?.is_empty()
        {
            return Ok(None);
        }
        let insert = self
            .insert
            .difference(&next.delete)?
            .union(&next.insert.difference(&self.delete)?)?;
        let delete = self
            .delete
            .difference(&next.insert)?
            .union(&next.delete.difference(&self.insert)?)?;
        Ok(Some(Delta { insert, delete }))
    }

    /// The *net effect* relative to `current`: deletions restricted to
    /// tuples actually present (and not re-inserted), insertions restricted
    /// to tuples actually new. Normalized deltas satisfy
    /// `delete ⊆ current`, `insert ∩ current = ∅` and
    /// `insert ∩ delete = ∅`, and produce the same next state.
    pub fn normalize(&self, current: &Relation) -> Result<Delta> {
        let (_, insert, delete) = current.apply_delta_net(&self.insert, &self.delete)?;
        Ok(Delta { insert, delete })
    }
}

/// An update `u` over `D`: one delta per touched relation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Update {
    deltas: BTreeMap<RelName, Delta>,
    /// Set when [`Update::with`] was asked to compose deltas with
    /// mismatched headers; surfaced as a typed error at application time
    /// so the builder API can stay infallible.
    invalid: Option<RelalgError>,
}

impl Update {
    /// The empty update.
    pub fn new() -> Update {
        Update::default()
    }

    /// Adds (or merges, by sequential composition on the same relation) a
    /// delta for `name`.
    ///
    /// Composing two deltas for the same relation with different headers
    /// is a schema error; the builder records it and every later
    /// [`Update::apply`]/[`Update::normalize`] call reports it as a
    /// [`RelalgError::HeaderMismatch`].
    pub fn with(mut self, name: impl Into<RelName>, delta: Delta) -> Update {
        let name = name.into();
        match self.deltas.remove(&name) {
            None => {
                self.deltas.insert(name, delta);
            }
            Some(first) => {
                // Sequential composition: apply `first`, then `delta`.
                // delete = first.delete ∪ (delta.delete ∖ first.insert)
                // insert = (first.insert ∖ delta.delete) ∪ delta.insert
                let composed = first.delete.union(&delta.delete).and_then(|delete| {
                    let insert = first
                        .insert
                        .difference(&delta.delete)
                        .and_then(|r| r.union(&delta.insert))?;
                    Ok(Delta { insert, delete })
                });
                match composed {
                    Ok(d) => {
                        self.deltas.insert(name, d);
                    }
                    Err(e) => {
                        // Keep the first delta and remember the mismatch.
                        self.deltas.insert(name, first);
                        self.invalid.get_or_insert(e);
                    }
                }
            }
        }
        self
    }

    /// The cancelled sequential composition `self ; next`: per relation
    /// [`Delta::then_net`], with deltas that cancel to nothing dropped.
    ///
    /// **Lemma.** Let `u₁ … u_k` each be normalized w.r.t. the state it
    /// meets (`u₁` w.r.t. `s₀`, `u₂` w.r.t. `u₁(s₀)`, …). Then the fold
    /// `n = u₁.then_net(u₂)….then_net(u_k)` is defined, is normalized
    /// w.r.t. `s₀` (`delete ⊆ s₀`, `insert ∩ s₀ = ∅`,
    /// `insert ∩ delete = ∅`), and `n(s₀) = u_k(…u₁(s₀)…)`. Per tuple
    /// `t`, normalization makes the stream's operations on `t` alternate,
    /// starting with an insert iff `t ∉ s₀`; the fold keeps `t` in
    /// `insert` (resp. `delete`) exactly while that alternation stands at
    /// an odd count from `t ∉ s₀` (resp. `t ∈ s₀`), which is both the
    /// normal form and the net effect. This is what lets one maintenance
    /// pass over `n` stand in for `k` passes (Theorem 4.1 holds for an
    /// arbitrary update, so for `n` as for each `uᵢ`).
    ///
    /// Returns `Ok(None)` when the composition can *see* the premise
    /// fail — some tuple inserted twice or deleted twice with nothing in
    /// between; callers then apply the updates one at a time.
    pub fn then_net(mut self, next: &Update) -> Result<Option<Update>> {
        self.check_valid()?;
        next.check_valid()?;
        for (&name, delta) in &next.deltas {
            let composed = match self.deltas.remove(&name) {
                None => delta.clone(),
                Some(first) => match first.then_net(delta)? {
                    Some(d) => d,
                    None => return Ok(None),
                },
            };
            if !composed.is_empty() {
                self.deltas.insert(name, composed);
            }
        }
        Ok(Some(self))
    }

    /// The header mismatch recorded by [`Update::with`], if any, as an
    /// error. Maintenance paths that never call [`Update::apply`] (the
    /// incremental plans) check this before they accept a report.
    pub fn check_valid(&self) -> Result<()> {
        match &self.invalid {
            None => Ok(()),
            Some(e) => Err(e.clone()),
        }
    }

    /// Shorthand for an insertion-only update on one relation.
    pub fn inserting(name: impl Into<RelName>, rows: Relation) -> Update {
        Update::new().with(name, Delta::insert_only(rows))
    }

    /// Shorthand for a deletion-only update on one relation.
    pub fn deleting(name: impl Into<RelName>, rows: Relation) -> Update {
        Update::new().with(name, Delta::delete_only(rows))
    }

    /// The delta for `name`, if any.
    pub fn delta(&self, name: RelName) -> Option<&Delta> {
        self.deltas.get(&name)
    }

    /// Iterates `(relation, delta)` pairs sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (RelName, &Delta)> + '_ {
        self.deltas.iter().map(|(&n, d)| (n, d))
    }

    /// Names of the relations touched.
    pub fn touched(&self) -> impl Iterator<Item = RelName> + '_ {
        self.deltas.keys().copied()
    }

    /// True iff no relation is touched.
    pub fn is_empty(&self) -> bool {
        self.deltas.values().all(Delta::is_empty)
    }

    /// Total reported-change size.
    pub fn len(&self) -> usize {
        self.deltas.values().map(Delta::len).sum()
    }

    /// Applies the update, producing the next database state `u(d)`.
    /// Untouched relations are shared unchanged.
    pub fn apply(&self, db: &DbState) -> Result<DbState> {
        let mut next = db.clone();
        self.apply_mut(&mut next)?;
        Ok(next)
    }

    /// In-place application.
    pub fn apply_mut(&self, db: &mut DbState) -> Result<()> {
        self.check_valid()?;
        for (&name, delta) in &self.deltas {
            let current = db.relation(name)?;
            let next = delta.apply(current)?;
            db.insert_relation(name, next);
        }
        Ok(())
    }

    /// Normalizes every delta against `db` (see [`Delta::normalize`]).
    pub fn normalize(&self, db: &DbState) -> Result<Update> {
        self.check_valid()?;
        let mut out = Update::new();
        for (&name, delta) in &self.deltas {
            let normalized = delta.normalize(db.relation(name)?)?;
            if !normalized.is_empty() {
                out.deltas.insert(name, normalized);
            }
        }
        Ok(out)
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.deltas.is_empty() {
            return write!(f, "(no-op update)");
        }
        for (name, d) in &self.deltas {
            writeln!(f, "{name}: +{} -{}", d.insert.len(), d.delete.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrSet;
    use crate::rel;

    fn emp() -> Relation {
        rel! { ["clerk", "age"] => ("Mary", 23), ("John", 25), ("Paula", 32) }
    }

    #[test]
    fn delta_header_check() {
        let ins = rel! { ["a"] => (1,) };
        let del = rel! { ["b"] => (2,) };
        assert!(Delta::new(ins, del).is_err());
    }

    #[test]
    fn apply_delete_then_insert() {
        let d = Delta::new(
            rel! { ["clerk", "age"] => ("Zoe", 40) },
            rel! { ["clerk", "age"] => ("Mary", 23) },
        )
        .unwrap();
        let next = d.apply(&emp()).unwrap();
        assert_eq!(next.len(), 3);
        assert!(next.contains(&rel! { ["clerk", "age"] => ("Zoe", 40) }.iter().next().unwrap().clone()));
    }

    #[test]
    fn overlapping_insert_wins_over_delete() {
        // t in both delete and insert: (r ∖ del) ∪ ins keeps it.
        let t = rel! { ["clerk", "age"] => ("Mary", 23) };
        let d = Delta::new(t.clone(), t.clone()).unwrap();
        let next = d.apply(&emp()).unwrap();
        assert_eq!(next, emp());
    }

    #[test]
    fn normalize_produces_net_effect() {
        let d = Delta::new(
            // "John 25" already present, "Zoe 40" is new
            rel! { ["clerk", "age"] => ("John", 25), ("Zoe", 40) },
            // "Ghost" not present, "Paula 32" is
            rel! { ["clerk", "age"] => ("Ghost", 1), ("Paula", 32) },
        )
        .unwrap();
        let n = d.normalize(&emp()).unwrap();
        assert_eq!(n.inserted(), &rel! { ["clerk", "age"] => ("Zoe", 40) });
        assert_eq!(n.deleted(), &rel! { ["clerk", "age"] => ("Paula", 32) });
        assert_eq!(n.apply(&emp()).unwrap(), d.apply(&emp()).unwrap());
    }

    #[test]
    fn update_apply_and_composition() {
        let mut db = DbState::new();
        db.insert_relation("Emp", emp());
        let u = Update::inserting("Emp", rel! { ["clerk", "age"] => ("Zoe", 40) });
        let db2 = u.apply(&db).unwrap();
        assert_eq!(db2.relation(RelName::new("Emp")).unwrap().len(), 4);

        // Composition on the same relation: insert then delete the same tuple.
        let u = Update::new()
            .with("Emp", Delta::insert_only(rel! { ["clerk", "age"] => ("Zoe", 40) }))
            .with("Emp", Delta::delete_only(rel! { ["clerk", "age"] => ("Zoe", 40) }));
        let db3 = u.apply(&db).unwrap();
        assert_eq!(db3, db);

        // Delete then insert the same tuple keeps it.
        let u = Update::new()
            .with("Emp", Delta::delete_only(rel! { ["clerk", "age"] => ("Mary", 23) }))
            .with("Emp", Delta::insert_only(rel! { ["clerk", "age"] => ("Mary", 23) }));
        let db4 = u.apply(&db).unwrap();
        assert_eq!(db4, db);
    }

    #[test]
    fn net_composition_cancels_and_refuses_visible_breaches() {
        let zoe = rel! { ["clerk", "age"] => ("Zoe", 40) };
        let mary = rel! { ["clerk", "age"] => ("Mary", 23) };
        let ins = |r: &Relation| Update::inserting("Emp", r.clone());
        let del = |r: &Relation| Update::deleting("Emp", r.clone());
        // insert → delete and delete → re-insert cancel to the no-op
        // update: no relation touched, not merely an empty delta.
        let n = ins(&zoe).then_net(&del(&zoe)).unwrap().unwrap();
        assert_eq!(n, Update::new());
        let n = del(&mary).then_net(&ins(&mary)).unwrap().unwrap();
        assert_eq!(n.touched().count(), 0);
        // insert → delete → insert is one net insert.
        let n = ins(&zoe)
            .then_net(&del(&zoe))
            .and_then(|n| n.unwrap().then_net(&ins(&zoe)))
            .unwrap()
            .unwrap();
        assert_eq!(n, ins(&zoe));
        // Independent tuples and relations accumulate.
        let n = ins(&zoe)
            .then_net(&del(&mary).with("Sale", Delta::insert_only(rel! { ["item"] => ("Mac",) })))
            .unwrap()
            .unwrap();
        assert_eq!(n.len(), 3);
        assert_eq!(n.touched().count(), 2);
        // Twice the same way with nothing in between: not sequentially
        // normalized, and visibly so.
        assert_eq!(ins(&zoe).then_net(&ins(&zoe)).unwrap(), None);
        assert_eq!(del(&mary).then_net(&del(&mary)).unwrap(), None);
        // A recorded header mismatch stays an error.
        let bad = ins(&zoe).with("Emp", Delta::insert_only(rel! { ["other"] => (1,) }));
        assert!(ins(&mary).then_net(&bad).is_err());
    }

    #[test]
    fn mismatched_composition_surfaces_at_apply() {
        let mut db = DbState::new();
        db.insert_relation("Emp", emp());
        let u = Update::new()
            .with("Emp", Delta::insert_only(rel! { ["clerk", "age"] => ("Zoe", 40) }))
            .with("Emp", Delta::insert_only(rel! { ["other"] => (1,) }));
        let err = u.apply(&db).unwrap_err();
        assert!(matches!(err, RelalgError::HeaderMismatch { .. }));
        assert!(u.normalize(&db).is_err());
    }

    #[test]
    fn update_on_unknown_relation_errors() {
        let db = DbState::new();
        let u = Update::inserting("Nope", rel! { ["a"] => (1,) });
        assert!(u.apply(&db).is_err());
    }

    #[test]
    fn update_len_and_emptiness() {
        let u = Update::new();
        assert!(u.is_empty());
        let u = Update::inserting("Emp", Relation::empty(AttrSet::from_names(&["clerk", "age"])));
        assert!(u.is_empty());
        let u = Update::inserting("Emp", rel! { ["clerk", "age"] => ("Zoe", 40) });
        assert!(!u.is_empty());
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn normalize_update_drops_noops() {
        let mut db = DbState::new();
        db.insert_relation("Emp", emp());
        let u = Update::inserting("Emp", rel! { ["clerk", "age"] => ("Mary", 23) });
        let n = u.normalize(&db).unwrap();
        assert!(n.is_empty());
        assert_eq!(n.iter().count(), 0);
    }
}
