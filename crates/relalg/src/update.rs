//! The update model.
//!
//! The paper treats an update `u` as a state transformer on `D`
//! (Definition 4.1, Figure 3). We represent `u` concretely as a set of
//! per-relation deltas — tuples to delete and tuples to insert — which is
//! exactly what decoupled sources report to the integrator in the
//! warehousing architecture of Figure 1. Applying an update yields
//! `d' = u(d)` with `r' = (r ∖ delete) ∪ insert` per relation.

use crate::columns::{Code, Columns};
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

    /// The net effect of `reports` applied in order: their cancelled
    /// sequential composition, one delta per relation they leave changed.
    ///
    /// **Lemma.** Let `u₁ … u_k` each be normalized w.r.t. the state it
    /// meets (`u₁` w.r.t. `s₀`, `u₂` w.r.t. `u₁(s₀)`, …). Then the net
    /// `n` is defined, is normalized w.r.t. `s₀` (`delete ⊆ s₀`,
    /// `insert ∩ s₀ = ∅`, `insert ∩ delete = ∅`), and
    /// `n(s₀) = u_k(…u₁(s₀)…)`. Per tuple `t`, normalization makes the
    /// stream's operations on `t` alternate, starting with an insert iff
    /// `t ∉ s₀`; `n` keeps `t` in `insert` (resp. `delete`) exactly when
    /// that alternation has odd length from `t ∉ s₀` (resp. `t ∈ s₀`),
    /// which is both the normal form and the net effect. This is what
    /// lets one maintenance pass over `n` stand in for `k` passes
    /// (Theorem 4.1 holds for an arbitrary update, so for `n` as for each
    /// `uᵢ`).
    ///
    /// **One step.** The lemma makes the net a per-tuple question, so it
    /// is answered per tuple: every relation's reported rows are gathered
    /// with their report index and side, sorted so that each tuple's
    /// occurrences sit together in stream order, and walked once through
    /// the state machine below; each side of the net is then built once
    /// from the surviving dictionary codes. No intermediate net is
    /// materialized, so the cost is `O(m log m)` in the `m` reported
    /// tuples, not `O(k · |n|)`. A relation only one report touches keeps
    /// that report's delta as it is.
    ///
    /// The state machine is the pairwise composition `a ; b` — `insert =
    /// (a.insert ∖ b.delete) ∪ (b.insert ∖ a.delete)`, `delete =
    /// (a.delete ∖ b.insert) ∪ (b.delete ∖ a.insert)` — read per tuple, so
    /// the result equals folding the reports two at a time in every case
    /// the fold is defined, reports that are not normalized included.
    ///
    /// Returns `Ok(None)` when the stream *shows* that the premise fails —
    /// some tuple inserted twice, or deleted twice, with nothing in
    /// between — at a point before any error below; callers then apply
    /// the reports one at a time. Returns `Err` for the first report in
    /// stream order that carries a header mismatch recorded by
    /// [`Update::with`] ([`Update::check_valid`]), or that reports a
    /// relation under a header other than the one it was first reported
    /// with.
    pub fn net<'a>(reports: impl IntoIterator<Item = &'a Update>) -> Result<Option<Update>> {
        // Each relation's deltas in stream order, tagged with their
        // report's index; gathering stops at the first error, and only
        // what precedes it can show a breach.
        let mut touched: Vec<(RelName, Vec<(u32, &'a Delta)>)> = Vec::new();
        let mut error = None;
        'reports: for (k, report) in reports.into_iter().enumerate() {
            if let Err(e) = report.check_valid() {
                error = Some(e);
                break;
            }
            for (&name, delta) in &report.deltas {
                let at = match touched.iter().position(|(n, _)| *n == name) {
                    Some(at) => at,
                    None => {
                        touched.push((name, Vec::new()));
                        touched.len() - 1
                    }
                };
                let deltas = &mut touched[at].1;
                if let Some((_, first)) = deltas.first() {
                    if first.insert.attrs() != delta.insert.attrs() {
                        error = Some(RelalgError::HeaderMismatch {
                            left: first.insert.attrs().clone(),
                            right: delta.insert.attrs().clone(),
                        });
                        break 'reports;
                    }
                }
                deltas.push((k as u32, delta));
            }
        }
        let mut net = Update::new();
        for (name, deltas) in touched {
            let delta = match deltas.as_slice() {
                [(_, only)] => (*only).clone(),
                _ => match net_delta(&deltas) {
                    Some(delta) => delta,
                    None => return Ok(None),
                },
            };
            if !delta.is_empty() {
                net.deltas.insert(name, delta);
            }
        }
        match error {
            Some(e) => Err(e),
            None => Ok(Some(net)),
        }
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

/// One reported tuple: its codes' offset in the gathered rows, the index
/// of the report that carries it, and the side (`true` = inserted).
type Occurrence = (usize, u32, bool);

/// The net of one relation's deltas in stream order (report index,
/// delta; one header), or `None` when some tuple is inserted twice or
/// deleted twice with nothing in between — see [`Update::net`].
fn net_delta(deltas: &[(u32, &Delta)]) -> Option<Delta> {
    let header = deltas[0].1.insert.attrs();
    let arity = header.len();
    let mut rows: Vec<Code> = Vec::new();
    let mut seen: Vec<Occurrence> = Vec::new();
    for &(k, delta) in deltas {
        for (side, rel) in [(true, &delta.insert), (false, &delta.delete)] {
            let cols = rel.columns();
            for i in 0..cols.len() {
                seen.push((rows.len(), k, side));
                rows.extend((0..arity).map(|j| cols.col(j)[i]));
            }
        }
    }
    // Equal codes are equal tuples, so raw code order groups each
    // tuple's occurrences together, in stream order within the group.
    let row = |at: usize| &rows[at..at + arity];
    seen.sort_unstable_by(|a, b| row(a.0).cmp(row(b.0)).then(a.1.cmp(&b.1)));
    let (mut ins, mut del) = ((Vec::new(), 0), (Vec::new(), 0));
    let mut group = seen.as_slice();
    while let Some(&(at, _, _)) = group.first() {
        let len = group.iter().take_while(|o| row(o.0) == row(at)).count();
        // (in the net's insert, in the net's delete), composed with each
        // report's (inserted, deleted) for this tuple in turn.
        let (mut i, mut d) = (false, false);
        let mut occ = &group[..len];
        while let Some(&(_, k, _)) = occ.first() {
            let n = occ.iter().take_while(|o| o.1 == k).count();
            let a = occ[..n].iter().any(|o| o.2);
            let b = occ[..n].iter().any(|o| !o.2);
            if (i && a) || (d && b) {
                return None;
            }
            (i, d) = ((i && !b) || (a && !d), (d && !a) || (b && !i));
            occ = &occ[n..];
        }
        for (keep, (flat, count)) in [(i, &mut ins), (d, &mut del)] {
            if keep {
                flat.extend_from_slice(row(at));
                *count += 1;
            }
        }
        group = &group[len..];
    }
    let side = |(flat, count): (Vec<Code>, usize)| {
        Relation::from_parts(header.clone(), Columns::from_unsorted_rows(arity, count, flat))
    };
    Some(Delta { insert: side(ins), delete: side(del) })
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
        let net = |reports: &[Update]| Update::net(reports);
        // insert → delete and delete → re-insert cancel to the no-op
        // update: no relation touched, not merely an empty delta.
        let n = net(&[ins(&zoe), del(&zoe)]).unwrap().unwrap();
        assert_eq!(n, Update::new());
        let n = net(&[del(&mary), ins(&mary)]).unwrap().unwrap();
        assert_eq!(n.touched().count(), 0);
        // insert → delete → insert is one net insert.
        let n = net(&[ins(&zoe), del(&zoe), ins(&zoe)]).unwrap().unwrap();
        assert_eq!(n, ins(&zoe));
        // Independent tuples and relations accumulate.
        let n = net(&[
            ins(&zoe),
            del(&mary).with("Sale", Delta::insert_only(rel! { ["item"] => ("Mac",) })),
        ])
        .unwrap()
        .unwrap();
        assert_eq!(n.len(), 3);
        assert_eq!(n.touched().count(), 2);
        // Twice the same way with nothing in between: not sequentially
        // normalized, and visibly so.
        assert_eq!(net(&[ins(&zoe), ins(&zoe)]).unwrap(), None);
        assert_eq!(net(&[del(&mary), del(&mary)]).unwrap(), None);
        // A recorded header mismatch stays an error.
        let bad = ins(&zoe).with("Emp", Delta::insert_only(rel! { ["other"] => (1,) }));
        assert!(net(&[ins(&mary), bad]).is_err());
    }

    #[test]
    fn net_of_nothing_and_of_one_report() {
        assert_eq!(Update::net([]).unwrap(), Some(Update::new()));
        let u = Update::inserting("Emp", rel! { ["clerk", "age"] => ("Zoe", 40) })
            .with("Sale", Delta::delete_only(rel! { ["item"] => ("Mac",) }));
        assert_eq!(Update::net([&u]).unwrap(), Some(u));
        // A report's empty delta leaves no trace in the net.
        let empty = Update::inserting("Emp", Relation::empty(AttrSet::from_names(&["clerk", "age"])));
        assert_eq!(Update::net([&empty]).unwrap(), Some(Update::new()));
    }

    #[test]
    fn a_breach_before_an_error_is_a_breach_and_after_it_an_error() {
        let zoe = rel! { ["clerk", "age"] => ("Zoe", 40) };
        let ins = || Update::inserting("Emp", zoe.clone());
        let bad = ins().with("Emp", Delta::insert_only(rel! { ["other"] => (1,) }));
        assert_eq!(Update::net(&[ins(), ins(), bad.clone()]).unwrap(), None);
        assert!(Update::net(&[ins(), bad, ins()]).is_err());
        // A relation reported under two headers is an error, too.
        let other = Update::inserting("Emp", rel! { ["other"] => (1,) });
        let err = Update::net(&[ins(), other.clone()]).unwrap_err();
        assert!(matches!(err, RelalgError::HeaderMismatch { .. }));
        assert_eq!(Update::net(&[ins(), ins(), other]).unwrap(), None);
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
