#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # dwc-analyze — static plan/complement verifier
//!
//! Everything in this crate runs **without evaluating any relation**:
//! analysis cost is `O(plan)` in the size of catalogs and view
//! definitions, never `O(data)`.
//!
//! Three analysis families, reported through [`Report`] as structured
//! [`Diagnostic`]s with stable codes:
//!
//! * **Typing** (`A` codes, [`typecheck`]) — schema inference over
//!   [`dwc_relalg::RaExpr`] plans with attribute provenance and
//!   multi-error collection.
//! * **Certification** (`C` codes, [`certify`]) — the preconditions of
//!   the paper's Theorem 2.2: acyclic inclusion dependencies (with an
//!   explicit cycle witness), keys that survive projection, and
//!   extension-join covers; distinguishes *certified* reconstruction
//!   (statically lossless, `I901`) from *trusted* reconstruction (the
//!   complement compensates at run time, `C203`).
//! * **Hygiene lints** (`L` codes, [`lints`]) — statically-unsatisfiable
//!   selections, duplicate view definitions, dead subplans.
//!
//! A fourth family (`S` codes, [`srclint`]) checks the workspace's own
//! source tree: no panicking calls in library code, no stray thread
//! spawns, `#![forbid(unsafe_code)]` everywhere.
//!
//! A fifth family (`P` codes, [`cost`] + [`planner`]) prices the
//! *maintenance* of certified warehouses: static per-node cardinality
//! and cost estimates over the certified plans, and a chooser ranking
//! four update strategies of Theorem 4.1 — the choice is purely a cost
//! question since every strategy converges to the same state. The
//! chooser is a static what-if (`dwc analyze --cost`); the server runs
//! one route.
//!
//! ## Gates
//!
//! The same analysis serves two policies ([`Gate`]):
//!
//! * [`Gate::Certify`] — the `dwc analyze` CLI default. Spec defects
//!   that make reconstruction lossy-by-accident (`C201`, `L301`) or a
//!   view vacuous (`L302`) are **errors**.
//! * [`Gate::Accept`] — used by `WarehouseSpec::verify_static` before a
//!   configuration is accepted. Only defects that break the complement
//!   machinery itself (type errors, name collisions, cyclic or
//!   ill-formed dependencies) are errors; the lossy-spec findings
//!   degrade to warnings because Proposition 2.2 keeps such warehouses
//!   correct via full-copy complements.

pub mod certify;
pub mod cost;
pub mod diag;
pub mod lints;
pub mod planner;
pub mod specfile;
pub mod srclint;
pub mod typecheck;

pub use diag::{Code, Diagnostic, Report, Severity};

use dwc_core::covers::DEFAULT_MAX_SOURCES;
use dwc_core::psj::NamedView;
use dwc_core::unionfact::UnionFactView;
use dwc_relalg::{Catalog, RelName};
use std::collections::BTreeSet;

/// Which findings reject a specification. See the crate docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Full certification: lossy specs and vacuous views are errors.
    Certify,
    /// Ingestion gate: only complement-breaking defects are errors.
    Accept,
}

/// Options for [`analyze`].
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// The severity policy.
    pub gate: Gate,
    /// Cover-search source limit (the search is exponential in it);
    /// exceeding it degrades certification to `W401`, never to `O(2^n)`
    /// work.
    pub max_cover_sources: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions::certify()
    }
}

impl AnalyzeOptions {
    /// Options for the full certification gate.
    pub fn certify() -> AnalyzeOptions {
        AnalyzeOptions {
            gate: Gate::Certify,
            max_cover_sources: DEFAULT_MAX_SOURCES,
        }
    }

    /// Options for the ingestion (accept) gate.
    pub fn accept() -> AnalyzeOptions {
        AnalyzeOptions {
            gate: Gate::Accept,
            max_cover_sources: DEFAULT_MAX_SOURCES,
        }
    }
}

/// Statically analyzes a warehouse specification `(D, V)` — catalog,
/// named PSJ views, and union-integrated fact tables — and returns the
/// full diagnostic report. Purely syntactic/schematic: no relation
/// instance is consulted.
pub fn analyze(
    catalog: &Catalog,
    views: &[NamedView],
    union_facts: &[UnionFactView],
    opts: &AnalyzeOptions,
) -> Report {
    let mut report = Report::new();

    // Name collisions (A007): views and fact tables against base
    // relations and each other.
    let mut taken: BTreeSet<RelName> = catalog.relation_names().collect();
    let declared = views
        .iter()
        .map(|v| (v.name(), "view"))
        .chain(union_facts.iter().map(|u| (u.name(), "fact table")));
    for (name, kind) in declared {
        if !taken.insert(name) {
            report.push(
                Code::A007NameCollision,
                Severity::Error,
                format!("{kind} {name}"),
                format!("name `{name}` is already in use"),
            );
        }
    }

    // Catalog-level constraints: C101 (cycle, with witness) / C102.
    certify::certify_catalog(catalog, &mut report);
    let catalog_broken = report.has_errors();

    // Union-fact branches participate in reconstruction exactly like
    // plain views (cf. `dwc_core::unionfact::complement_for`).
    let mut all_views = views.to_vec();
    for uf in union_facts {
        all_views.extend(uf.branch_views());
    }

    // Per-view typing with provenance. PSJ construction already
    // validates shapes, so this mostly guards against views built
    // against a different catalog than the one being analyzed.
    for v in &all_views {
        typecheck::infer(
            catalog,
            &v.to_expr(),
            &format!("view {}", v.name()),
            &mut report,
        );
    }

    // Theorem 2.2 certification is only meaningful over a well-formed
    // catalog; on a broken one the report already carries the errors.
    if !catalog_broken {
        certify::certify_relations(catalog, &all_views, opts, &mut report);
    }

    lints::lint_views(catalog, &all_views, opts, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_core::psj::PsjView;

    fn fig1() -> (Catalog, Vec<NamedView>) {
        let mut c = Catalog::new();
        c.add_schema("Sale", &["item", "clerk"]).unwrap();
        c.add_schema_with_key("Emp", &["clerk", "age"], &["clerk"]).unwrap();
        let views = vec![NamedView::new(
            "Sold",
            PsjView::join_of(&c, &["Sale", "Emp"]).unwrap(),
        )];
        (c, views)
    }

    #[test]
    fn fig1_passes_certification() {
        let (c, views) = fig1();
        let report = analyze(&c, &views, &[], &AnalyzeOptions::certify());
        assert!(!report.has_errors(), "{report}");
        // But it is informative, not silent.
        assert!(!report.is_empty());
    }

    #[test]
    fn view_named_like_base_is_a007() {
        let (c, _) = fig1();
        let views = vec![NamedView::new("Emp", PsjView::of_base(&c, "Emp").unwrap())];
        let report = analyze(&c, &views, &[], &AnalyzeOptions::accept());
        assert!(report.has_code(Code::A007NameCollision));
        assert!(report.has_errors());
    }

    #[test]
    fn accept_gate_tolerates_keyless_split() {
        let mut c = Catalog::new();
        c.add_schema("R", &["a", "b", "c"]).unwrap();
        let views = vec![
            NamedView::new("V1", PsjView::project_of(&c, "R", &["a", "b"]).unwrap()),
            NamedView::new("V2", PsjView::project_of(&c, "R", &["a", "c"]).unwrap()),
        ];
        let certified = analyze(&c, &views, &[], &AnalyzeOptions::certify());
        assert!(certified.has_errors());
        let accepted = analyze(&c, &views, &[], &AnalyzeOptions::accept());
        assert!(!accepted.has_errors(), "{accepted}");
        assert!(accepted.has_code(Code::C201KeylessReassembly));
    }

    #[test]
    fn union_fact_branches_are_analyzed() {
        use dwc_relalg::Value;
        let mut c = Catalog::new();
        c.add_schema_with_key("OrdParis", &["okey", "site", "amount"], &["okey"]).unwrap();
        c.add_schema_with_key("OrdLyon", &["okey", "site", "amount"], &["okey"]).unwrap();
        let uf = UnionFactView::new(
            &c,
            "AllOrders",
            "site",
            vec![
                (Value::str("paris"), PsjView::of_base(&c, "OrdParis").unwrap()),
                (Value::str("lyon"), PsjView::of_base(&c, "OrdLyon").unwrap()),
            ],
        )
        .unwrap();
        let report = analyze(&c, &[], std::slice::from_ref(&uf), &AnalyzeOptions::certify());
        assert!(!report.has_errors(), "{report}");
        // Both sources are recoverable from their branches.
        assert!(report.has_code(Code::I901CertifiedEmptyComplement)
            || report.has_code(Code::C203TrustedNotCertified));
    }
}
