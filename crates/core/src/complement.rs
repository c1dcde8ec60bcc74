//! The complement artifact.
//!
//! A [`Complement`] packages what the paper's algorithms produce:
//!
//! * one complement view `C_i` per base relation `R_i`, defined over `D`
//!   (Equations (1) and (3)) — these are the auxiliary views to
//!   materialize at the warehouse, and
//! * the inverse expressions `R_i = …` over warehouse names (views ∪
//!   complements; Equations (2) and (4)) — the mapping `W⁻¹` used for
//!   query translation (Theorem 3.1) and maintenance (Theorem 4.1).
//!
//! [`Complement::verify_on`] checks the complement property of
//! Definition 2.2 directly on a state: evaluating every inverse
//! expression against the materialized warehouse must reproduce the base
//! relations. By Proposition 2.1 this is equivalent to injectivity of
//! `d ↦ (V(d), C(d))` on the states checked.

use crate::error::Result;
use crate::psj::NamedView;
use dwc_relalg::eval::eval_all;
use dwc_relalg::expr::HeaderResolver;
use dwc_relalg::{AttrSet, Catalog, DbState, RaExpr, RelName};
use std::collections::BTreeMap;
use std::fmt;

/// One complement view `C_i` for base relation `R_i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComplementEntry {
    /// The base relation this entry complements.
    pub base: RelName,
    /// The complement view's name (e.g. `C_Emp`).
    pub name: RelName,
    /// The definition of the complement view over `D`.
    pub definition: RaExpr,
}

impl ComplementEntry {
    /// True iff the definition is syntactically the empty relation — the
    /// algorithm proved the complement empty (as in Examples 2.3/2.4).
    pub fn is_provably_empty(&self) -> bool {
        matches!(self.definition, RaExpr::Empty(_))
    }
}

/// A complement of a warehouse: complement views plus inverse expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Complement {
    entries: Vec<ComplementEntry>,
    /// `R_i → expression over warehouse names` (Equation (4)).
    inverse: BTreeMap<RelName, RaExpr>,
}

impl Complement {
    /// Packages entries and inverse expressions.
    pub fn new(entries: Vec<ComplementEntry>, inverse: BTreeMap<RelName, RaExpr>) -> Complement {
        Complement { entries, inverse }
    }

    /// The complement views, one per base relation, sorted by base name.
    pub fn entries(&self) -> &[ComplementEntry] {
        &self.entries
    }

    /// The entry complementing `base`.
    pub fn entry_for(&self, base: RelName) -> Option<&ComplementEntry> {
        self.entries.iter().find(|e| e.base == base)
    }

    /// The inverse map `R_i → expression over warehouse names`.
    pub fn inverse(&self) -> &BTreeMap<RelName, RaExpr> {
        &self.inverse
    }

    /// The inverse expression for one base relation.
    pub fn inverse_of(&self, base: RelName) -> Option<&RaExpr> {
        self.inverse.get(&base)
    }

    /// Names of all complement views that are not provably empty (the
    /// ones that actually need storage).
    pub fn stored_names(&self) -> impl Iterator<Item = RelName> + '_ {
        self.entries
            .iter()
            .filter(|e| !e.is_provably_empty())
            .map(|e| e.name)
    }

    /// Materializes the complement views against a base state: one
    /// expression over `db` per `C_i` (Proposition 2.2: one difference
    /// per base relation), all in one pass.
    pub fn materialize(&self, db: &DbState) -> Result<DbState> {
        Ok(eval_all(self.entries.iter().map(|e| (e.name, &e.definition)), db)?)
    }

    /// Total number of tuples the complement stores on `db` — the
    /// auxiliary-storage metric of the experiments.
    pub fn materialized_size(&self, db: &DbState) -> Result<usize> {
        Ok(self.materialize(db)?.total_tuples())
    }

    /// Materializes the full warehouse state `W(d) = (V(d), C(d))` in
    /// one pass: the complement definitions embed the view expressions
    /// (Equations (1)/(3) subtract projections of the views), so each
    /// shared subtree evaluates once.
    pub fn warehouse_state(&self, views: &[NamedView], db: &DbState) -> Result<DbState> {
        let views = views.iter().map(|v| (v.name(), v.to_expr()));
        let entries = self.entries.iter().map(|e| (e.name, e.definition.clone()));
        Ok(eval_all(views.chain(entries), db)?)
    }

    /// Verifies the complement property (Definition 2.2) on one state:
    /// every base relation must be recomputable from the warehouse state
    /// via its inverse expression. Returns the offending base relation on
    /// failure.
    pub fn verify_on(
        &self,
        catalog: &Catalog,
        views: &[NamedView],
        db: &DbState,
    ) -> Result<std::result::Result<(), RelName>> {
        let w = self.warehouse_state(views, db)?;
        for name in catalog.relation_names() {
            let Some(inv) = self.inverse.get(&name) else {
                return Ok(Err(name));
            };
            let recomputed = inv.eval(&w).map_err(crate::error::CoreError::from)?;
            if &recomputed != db.relation(name).map_err(crate::error::CoreError::from)? {
                return Ok(Err(name));
            }
        }
        Ok(Ok(()))
    }

    /// Verifies the complement property on many states; returns the first
    /// failing `(state index, base relation)` if any.
    pub fn verify_all<'a>(
        &self,
        catalog: &Catalog,
        views: &[NamedView],
        states: impl IntoIterator<Item = &'a DbState>,
    ) -> Result<std::result::Result<(), (usize, RelName)>> {
        for (i, db) in states.into_iter().enumerate() {
            if let Err(base) = self.verify_on(catalog, views, db)? {
                return Ok(Err((i, base)));
            }
        }
        Ok(Ok(()))
    }

    /// A header resolver for warehouse-name expressions: view names map
    /// to their projections, complement names to their base relation's
    /// attributes, and base names resolve through the catalog (useful for
    /// intermediate expressions during construction).
    pub fn resolver<'a>(
        &'a self,
        catalog: &'a Catalog,
        views: &'a [NamedView],
    ) -> ComplementResolver<'a> {
        ComplementResolver {
            catalog,
            views,
            complement: self,
        }
    }
}

/// See [`Complement::resolver`].
pub struct ComplementResolver<'a> {
    catalog: &'a Catalog,
    views: &'a [NamedView],
    complement: &'a Complement,
}

impl HeaderResolver for ComplementResolver<'_> {
    fn header_of(&self, name: RelName) -> dwc_relalg::Result<AttrSet> {
        if let Some(v) = self.views.iter().find(|v| v.name() == name) {
            return Ok(v.header().clone());
        }
        if let Some(e) = self.complement.entries.iter().find(|e| e.name == name) {
            return Ok(self.catalog.schema(e.base)?.attrs().clone());
        }
        self.catalog.header_of(name)
    }
}

impl fmt::Display for Complement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "{} = {}", e.name, e.definition)?;
        }
        for (base, inv) in &self.inverse {
            writeln!(f, "{base} = {inv}")?;
        }
        Ok(())
    }
}

/// Derives a fresh complement-view name `{prefix}{base}` and checks it
/// against existing names.
pub fn complement_name(
    prefix: &str,
    base: RelName,
    taken: &mut std::collections::BTreeSet<RelName>,
) -> Result<RelName> {
    let name = RelName::new(&format!("{prefix}{base}"));
    if !taken.insert(name) {
        return Err(crate::error::CoreError::NameCollision(name));
    }
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psj::PsjView;
    use dwc_relalg::rel;

    /// Hand-built complement for the Figure 1 warehouse (Example 1.1):
    /// C1 = Emp ∖ π_{clerk,age}(Sold), C2 = Sale ∖ π_{item,clerk}(Sold),
    /// with inverses Emp = π(Sold) ∪ C1 and Sale = π(Sold) ∪ C2.
    fn fig1() -> (Catalog, Vec<NamedView>, Complement, DbState) {
        let mut c = Catalog::new();
        c.add_schema("Sale", &["item", "clerk"]).unwrap();
        c.add_schema_with_key("Emp", &["clerk", "age"], &["clerk"]).unwrap();
        let views = vec![NamedView::new(
            "Sold",
            PsjView::join_of(&c, &["Sale", "Emp"]).unwrap(),
        )];
        let sold_d = views[0].to_expr();
        let entries = vec![
            ComplementEntry {
                base: RelName::new("Emp"),
                name: RelName::new("C1"),
                definition: RaExpr::base("Emp")
                    .diff(sold_d.clone().project_names(&["clerk", "age"])),
            },
            ComplementEntry {
                base: RelName::new("Sale"),
                name: RelName::new("C2"),
                definition: RaExpr::base("Sale")
                    .diff(sold_d.clone().project_names(&["item", "clerk"])),
            },
        ];
        let inverse: BTreeMap<RelName, RaExpr> = [
            (
                RelName::new("Emp"),
                RaExpr::base("Sold")
                    .project_names(&["clerk", "age"])
                    .union(RaExpr::base("C1")),
            ),
            (
                RelName::new("Sale"),
                RaExpr::base("Sold")
                    .project_names(&["item", "clerk"])
                    .union(RaExpr::base("C2")),
            ),
        ]
        .into();
        let comp = Complement::new(entries, inverse);
        let mut db = DbState::new();
        db.insert_relation(
            "Sale",
            rel! { ["item", "clerk"] => ("TV set", "Mary"), ("VCR", "Mary"), ("PC", "John") },
        );
        db.insert_relation(
            "Emp",
            rel! { ["clerk", "age"] => ("Mary", 23), ("John", 25), ("Paula", 32) },
        );
        (c, views, comp, db)
    }

    #[test]
    fn materialize_matches_example_11() {
        let (_, _, comp, db) = fig1();
        let m = comp.materialize(&db).unwrap();
        // C1 = {(Paula, 32)}: Paula sells nothing.
        assert_eq!(
            m.relation(RelName::new("C1")).unwrap(),
            &rel! { ["clerk", "age"] => ("Paula", 32) }
        );
        // C2 = ∅: every sale's clerk is in Emp.
        assert!(m.relation(RelName::new("C2")).unwrap().is_empty());
        assert_eq!(comp.materialized_size(&db).unwrap(), 1);
    }

    #[test]
    fn verify_on_fig1_state_succeeds() {
        let (c, views, comp, db) = fig1();
        assert_eq!(comp.verify_on(&c, &views, &db).unwrap(), Ok(()));
    }

    #[test]
    fn verify_detects_broken_inverse() {
        let (c, views, mut comp, db) = fig1();
        // Sabotage: claim Emp can be recomputed from Sold alone.
        comp.inverse.insert(
            RelName::new("Emp"),
            RaExpr::base("Sold").project_names(&["clerk", "age"]),
        );
        assert_eq!(
            comp.verify_on(&c, &views, &db).unwrap(),
            Err(RelName::new("Emp"))
        );
        let states = [db];
        assert_eq!(
            comp.verify_all(&c, &views, states.iter()).unwrap(),
            Err((0, RelName::new("Emp")))
        );
    }

    #[test]
    fn verify_reports_missing_inverse() {
        let (c, views, mut comp, db) = fig1();
        comp.inverse.remove(&RelName::new("Sale"));
        assert_eq!(
            comp.verify_on(&c, &views, &db).unwrap(),
            Err(RelName::new("Sale"))
        );
    }

    #[test]
    fn warehouse_state_contains_views_and_complements() {
        let (_, views, comp, db) = fig1();
        let w = comp.warehouse_state(&views, &db).unwrap();
        assert!(w.contains(RelName::new("Sold")));
        assert!(w.contains(RelName::new("C1")));
        assert!(w.contains(RelName::new("C2")));
        assert_eq!(w.relation(RelName::new("Sold")).unwrap().len(), 3);
    }

    #[test]
    fn resolver_resolves_all_name_kinds() {
        let (c, views, comp, _) = fig1();
        let r = comp.resolver(&c, &views);
        assert_eq!(
            r.header_of(RelName::new("Sold")).unwrap(),
            AttrSet::from_names(&["item", "clerk", "age"])
        );
        assert_eq!(
            r.header_of(RelName::new("C1")).unwrap(),
            AttrSet::from_names(&["clerk", "age"])
        );
        assert_eq!(
            r.header_of(RelName::new("Emp")).unwrap(),
            AttrSet::from_names(&["clerk", "age"])
        );
        assert!(r.header_of(RelName::new("ZZZ")).is_err());
    }

    #[test]
    fn complement_name_collision() {
        let mut taken = std::collections::BTreeSet::new();
        taken.insert(RelName::new("C_Emp"));
        let err = complement_name("C_", RelName::new("Emp"), &mut taken).unwrap_err();
        assert!(matches!(err, crate::error::CoreError::NameCollision(_)));
        let ok = complement_name("C_", RelName::new("Sale"), &mut taken).unwrap();
        assert_eq!(ok, RelName::new("C_Sale"));
    }

    #[test]
    fn stored_names_skip_empty() {
        let (_, _, mut comp, _) = fig1();
        comp.entries[1].definition = RaExpr::empty(AttrSet::from_names(&["item", "clerk"]));
        let names: Vec<RelName> = comp.stored_names().collect();
        assert_eq!(names, vec![RelName::new("C1")]);
    }
}
