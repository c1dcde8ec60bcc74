//! The warehousing architecture of Figure 1.
//!
//! A [`SourceSite`] plays an operational database: it owns the authoritative
//! state, applies updates, and *reports* the normalized deltas. Crucially
//! it counts every query evaluated against it ([`SourceSite::answer`]),
//! so "the warehouse never queries the sources" is a measured property,
//! not an assumption.
//!
//! The [`Integrator`] owns the materialized warehouse state `W(d)` and
//! maintains it from reported deltas alone, caching one maintenance plan
//! per touched-relation set. It also answers source queries at the
//! warehouse (query independence, Section 3).

use crate::error::{Result, WarehouseError};
use crate::incremental::{MaintenancePlan, StoredDelta};
use crate::spec::AugmentedWarehouse;
use dwc_relalg::{Catalog, DbState, RaExpr, RelName, Relation, Update};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Cumulative access statistics of a source site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Number of queries evaluated against the site.
    pub queries: usize,
    /// Total tuples read by those queries (sum of the sizes of every base
    /// relation each query touches — a bandwidth proxy).
    pub tuples_read: usize,
    /// Number of updates applied.
    pub updates: usize,
}

/// A decoupled operational source database.
#[derive(Clone, Debug)]
pub struct SourceSite {
    catalog: Catalog,
    db: DbState,
    queries: Cell<usize>,
    tuples_read: Cell<usize>,
    updates: Cell<usize>,
}

impl SourceSite {
    /// Wraps a state; `db` must cover the catalog.
    pub fn new(catalog: Catalog, db: DbState) -> Result<SourceSite> {
        db.check_headers(&catalog)?;
        Ok(SourceSite {
            catalog,
            db,
            queries: Cell::new(0),
            tuples_read: Cell::new(0),
            updates: Cell::new(0),
        })
    }

    /// The site's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Read-only access to the authoritative state — for test oracles.
    /// Does *not* count as a source query.
    pub fn oracle_state(&self) -> &DbState {
        &self.db
    }

    /// Applies an update and returns the normalized delta report the
    /// site sends to the integrator (solid arrow in Figure 1).
    ///
    /// Rejections are typed, never panics: an update touching a relation
    /// outside the catalog raises [`WarehouseError::UpdateOutsideSources`],
    /// a delta whose header disagrees with the relation's schema raises
    /// [`WarehouseError::ReportHeaderMismatch`]. Application is staged:
    /// on any error the authoritative state is untouched.
    pub fn apply_update(&mut self, update: &Update) -> Result<Update> {
        for (r, delta) in update.iter() {
            if !self.catalog.contains(r) {
                return Err(WarehouseError::UpdateOutsideSources(r));
            }
            let schema = self.catalog.schema(r)?;
            if delta.inserted().attrs() != schema.attrs() {
                return Err(WarehouseError::ReportHeaderMismatch {
                    relation: r,
                    expected: schema.attrs().clone(),
                    got: delta.inserted().attrs().clone(),
                });
            }
        }
        let normalized = update.normalize(&self.db)?;
        // Stage-then-swap: a failure below must not leave the
        // authoritative state with only some relations updated.
        let next = normalized.apply(&self.db)?;
        self.db = next;
        self.updates.set(self.updates.get() + 1);
        Ok(normalized)
    }

    /// Evaluates a query against the source, *counting the access*
    /// (dashed arrow in Figure 1 — the thing independence avoids).
    pub fn answer(&self, q: &RaExpr) -> Result<Relation> {
        self.count_query(q);
        Ok(q.eval(&self.db)?)
    }

    /// Bumps the access counters for `q`: one query, plus the sizes of
    /// every base relation it touches as a bandwidth proxy.
    pub(crate) fn count_query(&self, q: &RaExpr) {
        self.queries.set(self.queries.get() + 1);
        let mut read = 0;
        for base in q.base_relations() {
            read += self.db.relation(base).map(Relation::len).unwrap_or(0);
        }
        self.tuples_read.set(self.tuples_read.get() + read);
    }

    /// The access counters.
    pub fn stats(&self) -> SourceStats {
        SourceStats {
            queries: self.queries.get(),
            tuples_read: self.tuples_read.get(),
            updates: self.updates.get(),
        }
    }

    /// Resets the access counters.
    pub fn reset_stats(&self) {
        self.queries.set(0);
        self.tuples_read.set(0);
        self.updates.set(0);
    }
}

/// Cumulative integrator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegratorStats {
    /// Delta reports processed.
    pub updates_processed: usize,
    /// Tuples contained in those reports.
    pub delta_tuples: usize,
    /// Maintenance plans compiled (cache misses).
    pub plans_compiled: usize,
    /// Queries answered at the warehouse.
    pub queries_answered: usize,
}

/// Integrator tuning: nothing is left to tune. Kept as a field-less type
/// so `Integrator::from_state(aug, state, IntegratorConfig::default())`
/// still compiles; ROADMAP 8e removes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegratorConfig;

/// The integrator of Figure 1: maintains `W(d)` from delta reports alone.
#[derive(Clone, Debug)]
pub struct Integrator {
    aug: AugmentedWarehouse,
    warehouse: DbState,
    plans: BTreeMap<Vec<RelName>, MaintenancePlan>,
    stats: IntegratorStats,
}

impl Integrator {
    /// Initial load: materializes `W(d)` from the source state. This is
    /// the only moment the integrator sees base data (and it is counted
    /// at the site as a query per stored relation).
    pub fn initial_load(aug: AugmentedWarehouse, site: &SourceSite) -> Result<Integrator> {
        let mut warehouse = DbState::new();
        for name in aug.stored_relations() {
            let def = aug
                .definition_of(name)
                .ok_or(WarehouseError::MissingDefinition(name))?;
            warehouse.insert_relation(name, site.answer(&def)?);
        }
        Ok(Integrator::around(aug, warehouse))
    }

    /// Rebuilds an integrator around an already-materialized warehouse
    /// state — the restore half of [`crate::storage`]'s snapshot cycle.
    /// No source is consulted. The state is *trusted* here; recovery
    /// cross-checks it separately before serving. Never fails; the
    /// `Result` and the `config` argument stay until ROADMAP 8e.
    pub fn from_state(
        aug: AugmentedWarehouse,
        state: DbState,
        _config: IntegratorConfig,
    ) -> Result<Integrator> {
        Ok(Integrator::around(aug, state))
    }

    fn around(aug: AugmentedWarehouse, warehouse: DbState) -> Integrator {
        Integrator { aug, warehouse, plans: BTreeMap::new(), stats: IntegratorStats::default() }
    }

    /// Overwrites the counters — used by snapshot restore so a replayed
    /// prefix reproduces the full run's statistics exactly.
    pub(crate) fn restore_stats(&mut self, stats: IntegratorStats) {
        self.stats = stats;
    }

    /// The warehouse definition.
    pub fn warehouse(&self) -> &AugmentedWarehouse {
        &self.aug
    }

    /// The current materialized warehouse state.
    pub fn state(&self) -> &DbState {
        &self.warehouse
    }

    /// Processes a delta report (already normalized by the source). No
    /// source access happens here — by construction the maintenance plan
    /// references warehouse relations and the report only.
    pub fn on_report(&mut self, report: &Update) -> Result<()> {
        self.on_report_detailed(report).map(drop)
    }

    /// Like [`Integrator::on_report`], additionally returning the net
    /// per-stored-relation deltas, for cascading layers (summary tables).
    ///
    /// This is the one maintenance route: the plan's restricted pass
    /// ([`MaintenancePlan::apply_detailed`]), which falls back to whole
    /// evaluation step by step where a step is not delta-sized.
    /// Application is transactional: the next state is staged in full
    /// before it is committed, so an evaluation error leaves the
    /// integrator exactly as it was.
    pub fn on_report_detailed(&mut self, report: &Update) -> Result<Vec<StoredDelta>> {
        if report.is_empty() {
            return Ok(Vec::new());
        }
        let touched: Vec<RelName> = report.touched().collect();
        if !self.plans.contains_key(&touched) {
            let set = touched.iter().copied().collect();
            let plan = self.aug.compile_plan(&set)?;
            self.plans.insert(touched.clone(), plan);
            self.stats.plans_compiled += 1;
        }
        let (next, deltas) = self.plans[&touched].apply_detailed(&self.warehouse, report)?;
        self.warehouse = next;
        self.stats.updates_processed += 1;
        self.stats.delta_tuples += report.len();
        Ok(deltas)
    }

    /// Replaces the warehouse state wholesale. This is the commit half of
    /// the recovery paths in [`crate::ingest`] (and the
    /// corruption-injection hook of the chaos suites); normal maintenance
    /// goes through [`Integrator::on_report`].
    pub fn force_state(&mut self, state: DbState) {
        self.warehouse = state;
    }

    /// The source-free fallback: rebuilds every stored relation through
    /// the literal `W ∘ u ∘ W⁻¹` pipeline
    /// ([`AugmentedWarehouse::maintain_by_reconstruction`]) instead of
    /// the incremental plans. Used by the ingestion layer to repair
    /// sequence gaps (where `update` is a composition of several backed-up
    /// reports, possibly unnormalized with respect to the current state).
    /// Still zero source queries.
    pub fn recover_by_reconstruction(&mut self, update: &Update) -> Result<()> {
        let next = self.aug.maintain_by_reconstruction(&self.warehouse, update)?;
        // Counted only once the swap is in: a failed rebuild leaves the
        // integrator exactly as it was, counters included.
        self.force_state(next);
        self.stats.updates_processed += 1;
        self.stats.delta_tuples += update.len();
        Ok(())
    }

    /// Answers a source query at the warehouse (query independence).
    pub fn answer(&mut self, q: &RaExpr) -> Result<Relation> {
        self.stats.queries_answered += 1;
        self.aug.answer_at_warehouse(q, &self.warehouse)
    }

    /// The integrator's counters.
    pub fn stats(&self) -> IntegratorStats {
        self.stats
    }

    /// Auxiliary storage currently used by complement views, in tuples.
    pub fn complement_storage(&self) -> usize {
        self.aug
            .complement()
            .entries()
            .iter()
            .filter_map(|e| self.warehouse.relation(e.name).ok())
            .map(Relation::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1_spec, fig1_state};
    use dwc_relalg::{gen, rel};

    fn setup() -> (SourceSite, Integrator) {
        let spec = fig1_spec();
        let catalog = spec.catalog().clone();
        let aug = spec.augment().unwrap();
        let site = SourceSite::new(catalog, fig1_state()).unwrap();
        let integ = Integrator::initial_load(aug, &site).unwrap();
        (site, integ)
    }

    #[test]
    fn initial_load_counts_source_access() {
        let (site, integ) = setup();
        assert_eq!(site.stats().queries, 3); // Sold, C_Sale, C_Emp
        assert!(site.stats().tuples_read > 0);
        assert_eq!(integ.state().len(), 3);
    }

    #[test]
    fn maintenance_without_any_source_access() {
        let (mut site, mut integ) = setup();
        site.reset_stats();
        let report = site
            .apply_update(&Update::inserting(
                "Sale",
                rel! { ["item", "clerk"] => ("Computer", "Paula") },
            ))
            .unwrap();
        integ.on_report(&report).unwrap();
        // Zero queries: this is what update independence *means*.
        assert_eq!(site.stats().queries, 0);
        assert_eq!(site.stats().updates, 1);
        // And the warehouse is exactly W(u(d)).
        let expected = integ.warehouse().materialize(site.oracle_state()).unwrap();
        assert_eq!(integ.state(), &expected);
        assert_eq!(integ.stats().updates_processed, 1);
    }

    #[test]
    fn plan_cache_hits_on_repeated_shapes() {
        let (mut site, mut integ) = setup();
        for i in 0..5 {
            let report = site
                .apply_update(&Update::inserting(
                    "Sale",
                    rel! { ["item", "clerk"] => (format!("item{i}").as_str(), "Mary") },
                ))
                .unwrap();
            integ.on_report(&report).unwrap();
        }
        assert_eq!(integ.stats().updates_processed, 5);
        assert_eq!(integ.stats().plans_compiled, 1);
    }

    #[test]
    fn queries_answered_at_warehouse_match_source() {
        let (mut site, mut integ) = setup();
        let report = site
            .apply_update(&Update::deleting(
                "Emp",
                rel! { ["clerk", "age"] => ("John", 25) },
            ))
            .unwrap();
        integ.on_report(&report).unwrap();
        site.reset_stats();
        let q = RaExpr::parse("pi[clerk](Sale) union pi[clerk](Emp)").unwrap();
        let at_wh = integ.answer(&q).unwrap();
        let at_src = site.answer(&q).unwrap(); // oracle comparison
        assert_eq!(at_wh, at_src);
        assert_eq!(site.stats().queries, 1); // only the oracle access
        assert_eq!(integ.stats().queries_answered, 1);
    }

    #[test]
    fn long_random_stream_stays_exact() {
        let (mut site, mut integ) = setup();
        let cfg = gen::StateGenConfig::new(10, 5);
        for seed in 0..15u64 {
            let target = gen::random_state(site.catalog(), &cfg, 3000 + seed);
            let mut u = Update::new();
            for (name, t) in target.iter() {
                let cur = site.oracle_state().relation(name).unwrap();
                u = u.with(
                    name.as_str(),
                    dwc_relalg::Delta::new(
                        t.difference(cur).unwrap(),
                        cur.difference(t).unwrap(),
                    )
                    .unwrap(),
                );
            }
            let report = site.apply_update(&u).unwrap();
            integ.on_report(&report).unwrap();
            let expected = integ.warehouse().materialize(site.oracle_state()).unwrap();
            assert_eq!(integ.state(), &expected, "diverged at seed {seed}");
        }
        assert_eq!(site.stats().queries, 3); // just the initial load
    }

    #[test]
    fn empty_reports_are_ignored() {
        let (mut site, mut integ) = setup();
        let report = site
            .apply_update(&Update::inserting(
                "Sale",
                rel! { ["item", "clerk"] => ("TV set", "Mary") }, // already present
            ))
            .unwrap();
        assert!(report.is_empty());
        integ.on_report(&report).unwrap();
        assert_eq!(integ.stats().updates_processed, 0);
    }

    #[test]
    fn update_outside_catalog_rejected_at_site() {
        let (mut site, _) = setup();
        let err = site
            .apply_update(&Update::inserting("Ghost", rel! { ["x"] => (1,) }))
            .unwrap_err();
        assert!(matches!(err, WarehouseError::UpdateOutsideSources(_)));
    }

    #[test]
    fn complement_storage_metric() {
        let (_, integ) = setup();
        // C_Emp = {(Paula, 32)}, C_Sale = ∅ on the Figure 1 state.
        assert_eq!(integ.complement_storage(), 1);
    }
}
