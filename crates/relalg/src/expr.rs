//! The relational algebra AST.
//!
//! Views, queries, complements, inverse expressions and maintenance
//! expressions are all values of [`RaExpr`]. The variant set matches the
//! algebra the paper uses: selection, projection, natural join, union,
//! difference (plus intersection and attribute renaming for convenience,
//! and a constant empty relation which the complement algebra produces
//! when a complement is provably empty).

use crate::attrs::AttrSet;
use crate::database::DbState;
use crate::error::{RelalgError, Result};
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::schema::Catalog;
use crate::symbol::{Attr, RelName};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A relational algebra expression.
///
/// Children are [`Arc`]-shared: cloning an expression is a shallow
/// reference-count bump, and rewrites that leave a subtree untouched
/// ([`RaExpr::substitute`], the maintenance layer's stored-state folding)
/// return the *same* allocation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RaExpr {
    /// A reference to a named relation (base relation or stored view).
    Base(RelName),
    /// The constant empty relation over the given header.
    Empty(AttrSet),
    /// `σ_pred(input)`.
    Select(Arc<RaExpr>, Predicate),
    /// `π_attrs(input)`; `attrs ⊆ attrs(input)` is required.
    Project(Arc<RaExpr>, AttrSet),
    /// Natural join `left ⋈ right` (cartesian product when headers are
    /// disjoint).
    Join(Arc<RaExpr>, Arc<RaExpr>),
    /// `left ∪ right` (same headers required).
    Union(Arc<RaExpr>, Arc<RaExpr>),
    /// `left ∖ right` (same headers required).
    Diff(Arc<RaExpr>, Arc<RaExpr>),
    /// `left ∩ right` (same headers required).
    Intersect(Arc<RaExpr>, Arc<RaExpr>),
    /// `ρ` — renames attributes; pairs are `(from, to)`.
    Rename(Arc<RaExpr>, Vec<(Attr, Attr)>),
}

/// Anything that can resolve the header of a named relation: a [`Catalog`]
/// (schema-level) or a [`DbState`] (instance-level, e.g. for warehouse
/// states whose views are not catalogued base relations).
pub trait HeaderResolver {
    /// The attribute set of `name`.
    fn header_of(&self, name: RelName) -> Result<AttrSet>;
}

impl HeaderResolver for Catalog {
    fn header_of(&self, name: RelName) -> Result<AttrSet> {
        Ok(self.schema(name)?.attrs().clone())
    }
}

impl HeaderResolver for DbState {
    fn header_of(&self, name: RelName) -> Result<AttrSet> {
        Ok(self.relation(name)?.attrs().clone())
    }
}

/// A resolver over two layered sources; the first one wins.
impl<A: HeaderResolver, B: HeaderResolver> HeaderResolver for (&A, &B) {
    fn header_of(&self, name: RelName) -> Result<AttrSet> {
        self.0.header_of(name).or_else(|_| self.1.header_of(name))
    }
}

impl RaExpr {
    /// Reference to a named relation.
    pub fn base(name: impl Into<RelName>) -> RaExpr {
        RaExpr::Base(name.into())
    }

    /// The constant empty relation over `attrs`.
    pub fn empty(attrs: AttrSet) -> RaExpr {
        RaExpr::Empty(attrs)
    }

    /// `σ_pred(self)`.
    pub fn select(self, pred: Predicate) -> RaExpr {
        RaExpr::Select(Arc::new(self), pred)
    }

    /// `π_attrs(self)`.
    pub fn project(self, attrs: AttrSet) -> RaExpr {
        RaExpr::Project(Arc::new(self), attrs)
    }

    /// `π` onto named attributes.
    pub fn project_names(self, names: &[&str]) -> RaExpr {
        self.project(AttrSet::from_names(names))
    }

    /// Natural join.
    pub fn join(self, other: RaExpr) -> RaExpr {
        RaExpr::Join(Arc::new(self), Arc::new(other))
    }

    /// Set union.
    pub fn union(self, other: RaExpr) -> RaExpr {
        RaExpr::Union(Arc::new(self), Arc::new(other))
    }

    /// Set difference.
    pub fn diff(self, other: RaExpr) -> RaExpr {
        RaExpr::Diff(Arc::new(self), Arc::new(other))
    }

    /// Set intersection.
    pub fn intersect(self, other: RaExpr) -> RaExpr {
        RaExpr::Intersect(Arc::new(self), Arc::new(other))
    }

    /// Attribute renaming.
    pub fn rename(self, pairs: Vec<(Attr, Attr)>) -> RaExpr {
        RaExpr::Rename(Arc::new(self), pairs)
    }

    /// Joins all expressions in `items` left to right; `None` if empty.
    pub fn join_all(items: impl IntoIterator<Item = RaExpr>) -> Option<RaExpr> {
        items.into_iter().reduce(RaExpr::join)
    }

    /// Unions all expressions in `items` left to right; `None` if empty.
    pub fn union_all(items: impl IntoIterator<Item = RaExpr>) -> Option<RaExpr> {
        items.into_iter().reduce(RaExpr::union)
    }

    /// Infers the output header, validating the expression against the
    /// resolver (this is the static type check of the algebra).
    pub fn attrs(&self, resolver: &impl HeaderResolver) -> Result<AttrSet> {
        match self {
            RaExpr::Base(name) => resolver.header_of(*name),
            RaExpr::Empty(attrs) => Ok(attrs.clone()),
            RaExpr::Select(input, pred) => {
                let header = input.attrs(resolver)?;
                for a in pred.attrs().iter() {
                    if !header.contains(a) {
                        return Err(RelalgError::UnknownAttribute { attr: a, header });
                    }
                }
                Ok(header)
            }
            RaExpr::Project(input, wanted) => {
                let header = input.attrs(resolver)?;
                if !wanted.is_subset(&header) {
                    return Err(RelalgError::ProjectionNotSubset {
                        wanted: wanted.clone(),
                        header,
                    });
                }
                Ok(wanted.clone())
            }
            RaExpr::Join(l, r) => Ok(l.attrs(resolver)?.union(&r.attrs(resolver)?)),
            RaExpr::Union(l, r) | RaExpr::Diff(l, r) | RaExpr::Intersect(l, r) => {
                let lh = l.attrs(resolver)?;
                let rh = r.attrs(resolver)?;
                if lh != rh {
                    return Err(RelalgError::HeaderMismatch { left: lh, right: rh });
                }
                Ok(lh)
            }
            RaExpr::Rename(input, pairs) => {
                let header = input.attrs(resolver)?;
                rename_header(&header, pairs)
            }
        }
    }

    /// The set of named relations the expression refers to.
    pub fn base_relations(&self) -> std::collections::BTreeSet<RelName> {
        let mut out = std::collections::BTreeSet::new();
        self.visit(&mut |e| {
            if let RaExpr::Base(n) = e {
                out.insert(*n);
            }
        });
        out
    }

    /// Depth-first traversal.
    pub fn visit(&self, f: &mut impl FnMut(&RaExpr)) {
        f(self);
        match self {
            RaExpr::Base(_) | RaExpr::Empty(_) => {}
            RaExpr::Select(i, _) | RaExpr::Project(i, _) | RaExpr::Rename(i, _) => {
                i.visit(f);
            }
            RaExpr::Join(l, r)
            | RaExpr::Union(l, r)
            | RaExpr::Diff(l, r)
            | RaExpr::Intersect(l, r) => {
                l.visit(f);
                r.visit(f);
            }
        }
    }

    /// Replaces every reference to a named relation by the mapped
    /// expression (identity for unmapped names). This is the workhorse of
    /// the paper's Step 3: substituting the inverse expressions `W⁻¹` for
    /// base relations turns a source query into a warehouse query
    /// (Theorem 3.1) and a maintenance expression into one over warehouse
    /// views only (Example 4.1).
    pub fn substitute(&self, map: &BTreeMap<RelName, RaExpr>) -> RaExpr {
        match self {
            RaExpr::Base(n) => map.get(n).cloned().unwrap_or(RaExpr::Base(*n)),
            RaExpr::Empty(a) => RaExpr::Empty(a.clone()),
            RaExpr::Select(i, p) => RaExpr::Select(Self::subst_arc(i, map), p.clone()),
            RaExpr::Project(i, a) => RaExpr::Project(Self::subst_arc(i, map), a.clone()),
            RaExpr::Join(l, r) => {
                RaExpr::Join(Self::subst_arc(l, map), Self::subst_arc(r, map))
            }
            RaExpr::Union(l, r) => {
                RaExpr::Union(Self::subst_arc(l, map), Self::subst_arc(r, map))
            }
            RaExpr::Diff(l, r) => {
                RaExpr::Diff(Self::subst_arc(l, map), Self::subst_arc(r, map))
            }
            RaExpr::Intersect(l, r) => {
                RaExpr::Intersect(Self::subst_arc(l, map), Self::subst_arc(r, map))
            }
            RaExpr::Rename(i, p) => RaExpr::Rename(Self::subst_arc(i, map), p.clone()),
        }
    }

    /// [`RaExpr::substitute`] over a shared subtree: returns the *same*
    /// allocation (a refcount bump) when the subtree contains no mapped
    /// base relation, so substitution only reallocates the spine that
    /// actually changes.
    fn subst_arc(e: &Arc<RaExpr>, map: &BTreeMap<RelName, RaExpr>) -> Arc<RaExpr> {
        match e.as_ref() {
            RaExpr::Base(n) => match map.get(n) {
                Some(r) => Arc::new(r.clone()),
                None => Arc::clone(e),
            },
            RaExpr::Empty(_) => Arc::clone(e),
            RaExpr::Select(i, p) => {
                let si = Self::subst_arc(i, map);
                if Arc::ptr_eq(&si, i) {
                    Arc::clone(e)
                } else {
                    Arc::new(RaExpr::Select(si, p.clone()))
                }
            }
            RaExpr::Project(i, a) => {
                let si = Self::subst_arc(i, map);
                if Arc::ptr_eq(&si, i) {
                    Arc::clone(e)
                } else {
                    Arc::new(RaExpr::Project(si, a.clone()))
                }
            }
            RaExpr::Rename(i, p) => {
                let si = Self::subst_arc(i, map);
                if Arc::ptr_eq(&si, i) {
                    Arc::clone(e)
                } else {
                    Arc::new(RaExpr::Rename(si, p.clone()))
                }
            }
            RaExpr::Join(l, r)
            | RaExpr::Union(l, r)
            | RaExpr::Diff(l, r)
            | RaExpr::Intersect(l, r) => {
                let sl = Self::subst_arc(l, map);
                let sr = Self::subst_arc(r, map);
                if Arc::ptr_eq(&sl, l) && Arc::ptr_eq(&sr, r) {
                    return Arc::clone(e);
                }
                Arc::new(match e.as_ref() {
                    RaExpr::Join(..) => RaExpr::Join(sl, sr),
                    RaExpr::Union(..) => RaExpr::Union(sl, sr),
                    RaExpr::Diff(..) => RaExpr::Diff(sl, sr),
                    _ => RaExpr::Intersect(sl, sr),
                })
            }
        }
    }

    /// Number of AST nodes (a cheap complexity measure reported by the
    /// experiments).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Evaluates the expression against a state. See [`crate::eval`].
    pub fn eval(&self, db: &DbState) -> Result<Relation> {
        crate::eval::eval(self, db)
    }

    /// Parses the textual form. See [`crate::parse`] for the grammar.
    pub fn parse(text: &str) -> Result<RaExpr> {
        crate::parse::parse_expr(text)
    }

    /// Algebraic simplification. See [`crate::simplify`].
    pub fn simplified(&self, resolver: &impl HeaderResolver) -> Result<RaExpr> {
        crate::simplify::simplify(self, resolver)
    }
}

/// Applies rename pairs to a header, validating that sources exist and
/// that targets do not collide.
pub fn rename_header(header: &AttrSet, pairs: &[(Attr, Attr)]) -> Result<AttrSet> {
    let sources = AttrSet::from_iter(pairs.iter().map(|(f, _)| *f));
    if sources.len() != pairs.len() {
        // Duplicate source attribute.
        let (f, t) = pairs[0];
        return Err(RelalgError::BadRename {
            from: f,
            to: t,
            header: header.clone(),
        });
    }
    let mut out: Vec<Attr> = Vec::with_capacity(header.len());
    for a in header.iter() {
        match pairs.iter().find(|(f, _)| *f == a) {
            Some(&(_, t)) => out.push(t),
            None => out.push(a),
        }
    }
    for (f, t) in pairs {
        if !header.contains(*f) {
            return Err(RelalgError::BadRename {
                from: *f,
                to: *t,
                header: header.clone(),
            });
        }
    }
    let result = AttrSet::from_iter(out.iter().copied());
    if result.len() != header.len() {
        let (f, t) = pairs[0];
        return Err(RelalgError::BadRename {
            from: f,
            to: t,
            header: header.clone(),
        });
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_schema("Sale", &["item", "clerk"]).unwrap();
        c.add_schema_with_key("Emp", &["clerk", "age"], &["clerk"]).unwrap();
        c
    }

    #[test]
    fn header_inference_join() {
        let c = catalog();
        let sold = RaExpr::base("Sale").join(RaExpr::base("Emp"));
        assert_eq!(
            sold.attrs(&c).unwrap(),
            AttrSet::from_names(&["item", "clerk", "age"])
        );
    }

    #[test]
    fn header_inference_errors() {
        let c = catalog();
        assert!(RaExpr::base("Nope").attrs(&c).is_err());
        // projection outside header
        let e = RaExpr::base("Sale").project_names(&["age"]);
        assert!(matches!(
            e.attrs(&c),
            Err(RelalgError::ProjectionNotSubset { .. })
        ));
        // selection on unknown attribute
        let e = RaExpr::base("Sale").select(Predicate::attr_eq("age", 1));
        assert!(matches!(e.attrs(&c), Err(RelalgError::UnknownAttribute { .. })));
        // union of different headers
        let e = RaExpr::base("Sale").union(RaExpr::base("Emp"));
        assert!(matches!(e.attrs(&c), Err(RelalgError::HeaderMismatch { .. })));
    }

    #[test]
    fn rename_header_inference() {
        let c = catalog();
        let e = RaExpr::base("Emp").rename(vec![(Attr::new("age"), Attr::new("years"))]);
        assert_eq!(e.attrs(&c).unwrap(), AttrSet::from_names(&["clerk", "years"]));
        // rename source missing
        let e = RaExpr::base("Emp").rename(vec![(Attr::new("zzz"), Attr::new("w"))]);
        assert!(matches!(e.attrs(&c), Err(RelalgError::BadRename { .. })));
        // rename collides with existing attr
        let e = RaExpr::base("Emp").rename(vec![(Attr::new("age"), Attr::new("clerk"))]);
        assert!(matches!(e.attrs(&c), Err(RelalgError::BadRename { .. })));
        // swap is fine
        let e = RaExpr::base("Emp").rename(vec![
            (Attr::new("age"), Attr::new("clerk")),
            (Attr::new("clerk"), Attr::new("age")),
        ]);
        assert_eq!(e.attrs(&c).unwrap(), AttrSet::from_names(&["clerk", "age"]));
    }

    #[test]
    fn base_relations_collects_all() {
        let e = RaExpr::base("Sale")
            .join(RaExpr::base("Emp"))
            .union(RaExpr::base("Sale").join(RaExpr::base("Emp")));
        let names: Vec<&str> = e.base_relations().iter().map(|n| n.as_str()).collect();
        assert_eq!(names, vec!["Emp", "Sale"]);
    }

    #[test]
    fn substitution_replaces_bases() {
        let inverse: BTreeMap<RelName, RaExpr> = [(
            RelName::new("Emp"),
            RaExpr::base("Sold")
                .project_names(&["clerk", "age"])
                .union(RaExpr::base("C1")),
        )]
        .into();
        let q = RaExpr::base("Emp").project_names(&["clerk"]);
        let rewritten = q.substitute(&inverse);
        assert_eq!(
            rewritten,
            RaExpr::base("Sold")
                .project_names(&["clerk", "age"])
                .union(RaExpr::base("C1"))
                .project_names(&["clerk"])
        );
        // Unmapped names stay.
        let q = RaExpr::base("Sale");
        assert_eq!(q.substitute(&inverse), RaExpr::base("Sale"));
    }

    #[test]
    fn size_counts_nodes() {
        let e = RaExpr::base("Sale").join(RaExpr::base("Emp")).project_names(&["clerk"]);
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn layered_resolver() {
        let c = catalog();
        let mut w = DbState::new();
        w.insert_relation("C1", Relation::empty(AttrSet::from_names(&["clerk", "age"])));
        let layered = (&c, &w);
        assert!(RaExpr::base("Emp").attrs(&layered).is_ok());
        assert!(RaExpr::base("C1").attrs(&layered).is_ok());
        assert!(RaExpr::base("C9").attrs(&layered).is_err());
    }

    #[test]
    fn join_all_union_all() {
        assert_eq!(RaExpr::join_all(vec![]), None);
        let e = RaExpr::join_all(vec![RaExpr::base("A"), RaExpr::base("B"), RaExpr::base("C")])
            .unwrap();
        assert_eq!(
            e,
            RaExpr::base("A").join(RaExpr::base("B")).join(RaExpr::base("C"))
        );
        let u = RaExpr::union_all(vec![RaExpr::base("A")]).unwrap();
        assert_eq!(u, RaExpr::base("A"));
    }
}
