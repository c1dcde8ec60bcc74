//! Warehouse specifications and augmentation.
//!
//! A [`WarehouseSpec`] is the paper's pair (D, V): base relation schemata
//! with constraints, plus the PSJ view definitions evaluated and stored
//! at the warehouse. [`WarehouseSpec::augment`] performs Step 1 of the
//! paper's algorithm (Section 5): compute a complement `C` of `V` and
//! form the augmented warehouse `W = V ∪ C`, which Proposition 2.1 makes
//! a one-to-one image of the database state.

use crate::error::{Result, WarehouseError};
use dwc_core::complement::ComplementResolver;
use dwc_core::constrained::ComplementOptions;
use dwc_core::psj::definitions;
use dwc_core::unionfact::{complement_for, UnionFactView};
use dwc_core::{Complement, NamedView, PsjView};
use dwc_relalg::eval::eval_all;
use dwc_relalg::expr::HeaderResolver;
use dwc_relalg::{AttrSet, Catalog, DbState, RaExpr, RelName};
use std::collections::BTreeMap;

/// The pair (D, V): sources and view definitions (plain PSJ views plus
/// optional union-integrated fact tables, cf. Section 5).
#[derive(Clone, Debug)]
pub struct WarehouseSpec {
    catalog: Catalog,
    views: Vec<NamedView>,
    union_facts: Vec<UnionFactView>,
}

impl WarehouseSpec {
    /// Builds a specification; view names must be distinct from each
    /// other and from base relation names.
    pub fn new(catalog: Catalog, views: Vec<NamedView>) -> Result<WarehouseSpec> {
        let mut seen: std::collections::BTreeSet<RelName> =
            catalog.relation_names().collect();
        for v in &views {
            if !seen.insert(v.name()) {
                return Err(WarehouseError::Core(dwc_core::CoreError::NameCollision(
                    v.name(),
                )));
            }
        }
        Ok(WarehouseSpec {
            catalog,
            views,
            union_facts: Vec::new(),
        })
    }

    /// Adds a union-integrated fact table (Section 5). Its name must not
    /// collide with base relations, views, or other fact tables.
    pub fn with_union_fact(mut self, uf: UnionFactView) -> Result<WarehouseSpec> {
        let clash = self.catalog.contains(uf.name())
            || self.views.iter().any(|v| v.name() == uf.name())
            || self.union_facts.iter().any(|u| u.name() == uf.name());
        if clash {
            return Err(WarehouseError::Core(dwc_core::CoreError::NameCollision(
                uf.name(),
            )));
        }
        self.union_facts.push(uf);
        Ok(self)
    }

    /// Convenience: parses each `(name, expression)` pair as a PSJ view.
    pub fn parse(catalog: Catalog, views: &[(&str, &str)]) -> Result<WarehouseSpec> {
        let parsed = views
            .iter()
            .map(|(name, text)| {
                let expr = RaExpr::parse(text).map_err(WarehouseError::from)?;
                let psj = PsjView::from_expr(&catalog, &expr).map_err(WarehouseError::from)?;
                Ok(NamedView::new(*name, psj))
            })
            .collect::<Result<Vec<_>>>()?;
        WarehouseSpec::new(catalog, parsed)
    }

    /// The source catalog `D`.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The view definitions `V`.
    pub fn views(&self) -> &[NamedView] {
        &self.views
    }

    /// The union-integrated fact tables.
    pub fn union_facts(&self) -> &[UnionFactView] {
        &self.union_facts
    }

    /// Materializes the *unaugmented* warehouse state `⟨V1(d), …, Vk(d)⟩`.
    pub fn materialize(&self, db: &DbState) -> Result<DbState> {
        let exprs = self
            .views
            .iter()
            .map(|v| (v.name(), v.to_expr()))
            .chain(self.union_facts.iter().map(|u| (u.name(), u.to_expr())));
        Ok(eval_all(exprs, db)?)
    }

    /// Runs the static analyzer over this specification under the
    /// ingestion ([`dwc_analyze::Gate::Accept`]) gate, without evaluating
    /// any relation. Returns the full report (warnings and all) when the
    /// spec is acceptable, and `Err(WarehouseError::SpecRejected)` with
    /// the rendered error diagnostics when it is not.
    ///
    /// Lossy-spec findings (`C201`, `L301`, `L302`) pass this gate as
    /// warnings: Proposition 2.2 keeps such warehouses correct via
    /// full-copy complements. Only defects the complement machinery
    /// cannot compensate for — type errors, name collisions, cyclic or
    /// ill-formed dependency sets — reject the spec.
    pub fn verify_static(&self) -> Result<dwc_analyze::Report> {
        let report = dwc_analyze::analyze(
            &self.catalog,
            &self.views,
            &self.union_facts,
            &dwc_analyze::AnalyzeOptions::accept(),
        );
        if report.has_errors() {
            return Err(WarehouseError::SpecRejected {
                diagnostics: report.errors().map(|d| d.to_string()).collect(),
            });
        }
        Ok(report)
    }

    /// Step 1 of the paper's algorithm: computes a complement under the
    /// default options and augments the warehouse with it.
    pub fn augment(self) -> Result<AugmentedWarehouse> {
        self.augment_with(&ComplementOptions::default())
    }

    /// Augmentation with explicit complement options (used by the
    /// constraint-ablation experiments). Statically verifies the spec
    /// ([`WarehouseSpec::verify_static`]) before computing anything.
    pub fn augment_with(self, opts: &ComplementOptions) -> Result<AugmentedWarehouse> {
        self.verify_static()?;
        let complement =
            complement_for(&self.catalog, &self.views, &self.union_facts, opts)?;
        Ok(AugmentedWarehouse {
            spec: self,
            complement,
        })
    }
}

/// The augmented warehouse `W = V ∪ C` with its inverse mapping `W⁻¹`.
#[derive(Clone, Debug)]
pub struct AugmentedWarehouse {
    spec: WarehouseSpec,
    complement: Complement,
}

impl AugmentedWarehouse {
    /// The underlying specification.
    pub fn spec(&self) -> &WarehouseSpec {
        &self.spec
    }

    /// The source catalog `D`.
    pub fn catalog(&self) -> &Catalog {
        self.spec.catalog()
    }

    /// The view definitions `V`.
    pub fn views(&self) -> &[NamedView] {
        self.spec.views()
    }

    /// The complement `C`.
    pub fn complement(&self) -> &Complement {
        &self.complement
    }

    /// The inverse mapping `W⁻¹`: base relation → expression over
    /// warehouse names (Equation (4)).
    pub fn inverse(&self) -> &BTreeMap<RelName, RaExpr> {
        self.complement.inverse()
    }

    /// Materializes the full warehouse state `W(d) = (V(d), C(d))`
    /// (including union fact tables) in one pass: the complement
    /// definitions embed the view expressions, so the shared subtrees
    /// evaluate once.
    pub fn materialize(&self, db: &DbState) -> Result<DbState> {
        Ok(eval_all(self.all_definitions(), db)?)
    }

    /// Names of all stored relations (views, union fact tables, and
    /// complement views; the order — views first, complements last — is
    /// the maintenance-plan step order).
    pub fn stored_relations(&self) -> Vec<RelName> {
        let mut out: Vec<RelName> = self.views().iter().map(|v| v.name()).collect();
        out.extend(self.spec.union_facts().iter().map(|u| u.name()));
        out.extend(self.complement.entries().iter().map(|e| e.name));
        out
    }

    /// The definition over `D` of a stored relation (view, union fact
    /// table, or complement).
    pub fn definition_of(&self, name: RelName) -> Option<RaExpr> {
        if let Some(v) = self.views().iter().find(|v| v.name() == name) {
            return Some(v.to_expr());
        }
        if let Some(u) = self.spec.union_facts().iter().find(|u| u.name() == name) {
            return Some(u.to_expr());
        }
        self.complement
            .entries()
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.definition.clone())
    }

    /// All stored-relation definitions over `D`.
    pub fn all_definitions(&self) -> BTreeMap<RelName, RaExpr> {
        let mut defs = definitions(self.views());
        for u in self.spec.union_facts() {
            defs.insert(u.name(), u.to_expr());
        }
        for e in self.complement.entries() {
            defs.insert(e.name, e.definition.clone());
        }
        defs
    }

    /// A header resolver covering base relations, views, union fact
    /// tables and complements.
    pub fn resolver(&self) -> WarehouseResolver<'_> {
        WarehouseResolver {
            inner: self.complement.resolver(self.catalog(), self.views()),
            union_facts: self.spec.union_facts(),
        }
    }

    /// Reconstructs the full database state from a warehouse state via
    /// `W⁻¹` (the paper's Step 1.2 artifact put to work): one inverse
    /// expression per base relation, all in one pass, so the subtrees
    /// the inverses share evaluate once.
    pub fn reconstruct_sources(&self, warehouse: &DbState) -> Result<DbState> {
        Ok(eval_all(self.inverse(), warehouse)?)
    }
}

/// See [`AugmentedWarehouse::resolver`].
pub struct WarehouseResolver<'a> {
    inner: ComplementResolver<'a>,
    union_facts: &'a [UnionFactView],
}

impl HeaderResolver for WarehouseResolver<'_> {
    fn header_of(&self, name: RelName) -> dwc_relalg::Result<AttrSet> {
        if let Some(u) = self.union_facts.iter().find(|u| u.name() == name) {
            return Ok(u.header().clone());
        }
        self.inner.header_of(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1_catalog, fig1_spec, fig1_state};
    use dwc_relalg::rel;

    #[test]
    fn parse_builds_psj_views() {
        let spec = fig1_spec();
        assert_eq!(spec.views().len(), 1);
        assert_eq!(spec.views()[0].name(), RelName::new("Sold"));
        assert!(spec.views()[0].view().is_sj(spec.catalog()));
    }

    #[test]
    fn parse_rejects_non_psj() {
        let err = WarehouseSpec::parse(
            fig1_catalog(),
            &[("Bad", "pi[clerk](Sale) union pi[clerk](Emp)")],
        )
        .unwrap_err();
        assert!(matches!(err, WarehouseError::Core(_)));
    }

    #[test]
    fn name_collisions_rejected() {
        let c = fig1_catalog();
        // view named like a base relation
        assert!(WarehouseSpec::parse(c.clone(), &[("Emp", "Sale join Emp")]).is_err());
        // duplicate view names
        assert!(WarehouseSpec::parse(
            c,
            &[("V", "Sale join Emp"), ("V", "pi[clerk, age](Emp)")]
        )
        .is_err());
    }

    #[test]
    fn materialize_unaugmented() {
        let spec = fig1_spec();
        let w = spec.materialize(&fig1_state()).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.relation(RelName::new("Sold")).unwrap().len(), 3);
    }

    #[test]
    fn augment_produces_working_inverse() {
        let aug = fig1_spec().augment().unwrap();
        let db = fig1_state();
        let w = aug.materialize(&db).unwrap();
        assert_eq!(w.len(), 3); // Sold, C_Sale, C_Emp
        let reconstructed = aug.reconstruct_sources(&w).unwrap();
        assert_eq!(reconstructed, db);
    }

    #[test]
    fn stored_relations_and_definitions() {
        let aug = fig1_spec().augment().unwrap();
        let stored = aug.stored_relations();
        assert_eq!(stored.len(), 3);
        for name in stored {
            let def = aug.definition_of(name).unwrap();
            // definitions are over D only
            for base in def.base_relations() {
                assert!(aug.catalog().contains(base), "{base} not a base relation");
            }
        }
        assert!(aug.definition_of(RelName::new("Nope")).is_none());
        assert_eq!(aug.all_definitions().len(), 3);
    }

    fn union_fact_spec() -> WarehouseSpec {
        use dwc_core::unionfact::UnionFactView;
        use dwc_relalg::Value;
        let mut c = Catalog::new();
        c.add_schema_with_key("OrdParis", &["okey", "site", "amount"], &["okey"]).unwrap();
        c.add_schema_with_key("OrdLyon", &["okey", "site", "amount"], &["okey"]).unwrap();
        let uf = UnionFactView::new(
            &c,
            "AllOrders",
            "site",
            vec![
                (
                    Value::str("paris"),
                    dwc_core::PsjView::of_base(&c, "OrdParis").unwrap(),
                ),
                (
                    Value::str("lyon"),
                    dwc_core::PsjView::of_base(&c, "OrdLyon").unwrap(),
                ),
            ],
        )
        .unwrap();
        WarehouseSpec::new(c, vec![]).unwrap().with_union_fact(uf).unwrap()
    }

    fn union_fact_state() -> DbState {
        let mut d = DbState::new();
        d.insert_relation(
            "OrdParis",
            rel! { ["okey", "site", "amount"] => (1, "paris", 10), (2, "paris", 20) },
        );
        d.insert_relation(
            "OrdLyon",
            rel! { ["okey", "site", "amount"] => (7, "lyon", 70), (8, "lyon", 80) },
        );
        d
    }

    #[test]
    fn union_fact_roundtrip_and_maintenance() {
        use dwc_relalg::{Delta, Update};
        let aug = union_fact_spec().augment().unwrap();
        let db = union_fact_state();
        let w = aug.materialize(&db).unwrap();
        assert!(w.contains(RelName::new("AllOrders")));
        assert_eq!(w.relation(RelName::new("AllOrders")).unwrap().len(), 4);
        // reconstruction works through sigma-on-union inverses
        assert_eq!(aug.reconstruct_sources(&w).unwrap(), db);
        // query translation over the multi-site sources
        let q = RaExpr::parse("sigma[amount >= 50](OrdLyon) union sigma[amount >= 50](OrdParis)")
            .unwrap();
        let (src, wh) = aug.query_commutes(&q, &db).unwrap();
        assert_eq!(src, wh);
        // incremental maintenance of the union fact table
        let u = Update::new()
            .with(
                "OrdParis",
                Delta::insert_only(rel! { ["okey", "site", "amount"] => (3, "paris", 30) }),
            )
            .with(
                "OrdLyon",
                Delta::delete_only(rel! { ["okey", "site", "amount"] => (8, "lyon", 80) }),
            )
            .normalize(&db)
            .unwrap();
        let w_next = aug.maintain_checked(&db, &w, &u).unwrap();
        assert_eq!(w_next.relation(RelName::new("AllOrders")).unwrap().len(), 4);
    }

    #[test]
    fn union_fact_name_collisions_rejected() {
        use dwc_core::unionfact::UnionFactView;
        use dwc_relalg::Value;
        let spec = union_fact_spec();
        let c = spec.catalog().clone();
        let dup = UnionFactView::new(
            &c,
            "AllOrders",
            "site",
            vec![(Value::str("x"), dwc_core::PsjView::of_base(&c, "OrdParis").unwrap())],
        )
        .unwrap();
        assert!(spec.with_union_fact(dup).is_err());
    }

    #[test]
    fn augment_with_unconstrained_options() {
        let aug = fig1_spec()
            .augment_with(&ComplementOptions::unconstrained())
            .unwrap();
        let db = fig1_state();
        let w = aug.materialize(&db).unwrap();
        let reconstructed = aug.reconstruct_sources(&w).unwrap();
        assert_eq!(reconstructed, db);
    }
}
