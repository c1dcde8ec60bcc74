//! The adaptive maintenance policy: the warehouse-side consumer of the
//! static cost planner ([`dwc_analyze::planner`]).
//!
//! Theorem 4.1 makes every maintenance strategy converge to the same
//! state, so the ingestion path is free to pick whichever the cost
//! model predicts cheapest — per report, per size class. This module
//! owns that decision loop:
//!
//! * [`AdaptivePolicy`] caches `choose()` verdicts by *(touched
//!   relations, delta size class, state size class)* so steady-state
//!   ingestion pays zero planning cost — re-planning happens only when
//!   a report's shape crosses a power-of-two size boundary;
//! * `maintain_with_policy` dispatches the chosen strategy onto the
//!   [`Integrator`] and feeds the observed touched-row count back;
//! * mispredictions (observed rows far outside the predicted envelope,
//!   see [`dwc_analyze::planner::misprediction`]) raise `DWC-P201`,
//!   bump a counter, and flush the decision cache so the next report
//!   re-plans against fresh statistics.
//!
//! This module and `analyze::planner` are the only library homes of
//! concrete strategy dispatch — srclint rule S507 enforces that.

use crate::error::Result;
use crate::integrator::Integrator;
use dwc_analyze::cost::CostConstants;
use dwc_analyze::planner::{
    choose, misprediction, report_choice, report_misprediction, PlannerInputs, WorkloadProfile,
};
use dwc_analyze::Report;
use dwc_relalg::{RelName, Update};
use std::collections::BTreeMap;

pub use dwc_analyze::planner::MaintenanceStrategy;

/// How the policy treats incoming reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PolicyMode {
    /// No planning: the integrator's default path (mirrored when
    /// mirrors are cached). This is the backward-compatible default.
    #[default]
    Off,
    /// Plan per size class and dispatch the predicted-cheapest strategy.
    Adaptive,
    /// Always dispatch one pinned strategy (benchmark/diagnostic mode);
    /// the planner still runs on cache misses so predictions and
    /// mispredictions stay observable.
    Fixed(MaintenanceStrategy),
}

/// Counters the policy keeps (surfaced through server stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Reports routed through the policy while active.
    pub decisions: u64,
    /// Cache-miss plans actually computed.
    pub plans: u64,
    /// Decisions resolved to plain incremental maintenance.
    pub chosen_incremental: u64,
    /// Decisions resolved to mirrored-incremental maintenance.
    pub chosen_mirrored: u64,
    /// Decisions resolved to wholesale reconstruction (either of the
    /// two recompute strategies — at ingest both land on the
    /// source-free reconstruction path).
    pub chosen_reconstruction: u64,
    /// `DWC-P201` mispredictions observed (each flushes the cache).
    pub mispredictions: u64,
    /// Maintenance passes dispatched — counted whether or not the policy
    /// is active. One per non-empty report offered alone; one per
    /// ingested slice (or replay group) whose net delta is non-empty.
    pub passes: u64,
    /// Slices the ingestor rolled back and re-ran one report per pass
    /// (the coalesced pass failed, or the reports would not compose).
    pub fallbacks: u64,
}

/// A cached verdict for one (touched, Δ-class, state-class) key.
#[derive(Clone, Copy, Debug)]
struct Decision {
    strategy: MaintenanceStrategy,
    predicted_rows: f64,
}

/// Size-class key: replanning is triggered by *order-of-magnitude*
/// changes, not per-report jitter.
type ClassKey = (Vec<RelName>, u32, u32);

fn log2_class(n: usize) -> u32 {
    usize::BITS - (n + 1).leading_zeros()
}

/// The per-ingestor adaptive maintenance policy. The *decision cache*
/// is never persisted (it is pure derived state — Theorem 4.1 makes
/// WAL replay strategy-independent), but the configured [`PolicyMode`]
/// is written into the storage manifest and re-armed on recovery, so a
/// warehouse that was running adaptively keeps running adaptively
/// after a crash instead of silently falling back to the inert mode.
#[derive(Clone, Debug, Default)]
pub struct AdaptivePolicy {
    mode: PolicyMode,
    consts: CostConstants,
    decisions: BTreeMap<ClassKey, Decision>,
    stats: PolicyStats,
    log: Report,
}

impl AdaptivePolicy {
    /// The inert policy (default): reports take the integrator's plain
    /// path untouched.
    pub fn off() -> AdaptivePolicy {
        AdaptivePolicy::default()
    }

    /// A policy that plans and dispatches adaptively.
    pub fn adaptive() -> AdaptivePolicy {
        AdaptivePolicy { mode: PolicyMode::Adaptive, ..AdaptivePolicy::default() }
    }

    /// A policy pinned to one strategy (the planner still logs what it
    /// *would* have chosen).
    pub fn fixed(strategy: MaintenanceStrategy) -> AdaptivePolicy {
        AdaptivePolicy { mode: PolicyMode::Fixed(strategy), ..AdaptivePolicy::default() }
    }

    /// The current mode.
    pub fn mode(&self) -> PolicyMode {
        self.mode
    }

    /// Whether reports are routed through the planner at all.
    pub fn is_active(&self) -> bool {
        self.mode != PolicyMode::Off
    }

    /// The policy's counters.
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// Counts one slice re-run one report per pass.
    pub(crate) fn note_fallback(&mut self) {
        self.stats.fallbacks += 1;
    }

    /// Drains the accumulated `DWC-P001`/`P101`/`P201` diagnostics.
    pub fn take_diagnostics(&mut self) -> Report {
        std::mem::take(&mut self.log)
    }

    /// Plans (or recalls) the strategy for `report` against the
    /// integrator's current statistics.
    fn decide(&mut self, integ: &Integrator, report: &Update) -> Decision {
        self.stats.decisions += 1;
        let mut touched: Vec<RelName> = report.touched().collect();
        touched.sort_unstable();
        let key: ClassKey = (
            touched,
            log2_class(report.len()),
            log2_class(integ.state().total_tuples()),
        );
        if let Some(d) = self.decisions.get(&key) {
            return *d;
        }
        let choice = self.plan(integ, report);
        let strategy = match self.mode {
            PolicyMode::Fixed(s) => s,
            _ => choice.chosen,
        };
        let d = Decision { strategy, predicted_rows: choice.predicted_rows };
        self.decisions.insert(key, d);
        d
    }

    /// A cache-miss plan: builds a [`WorkloadProfile`] from the
    /// integrator's live counters — O(stored relations) map reads plus,
    /// when mirrors are cached, one distinct-count probe per keyed
    /// source relation (amortized over every cache hit that follows).
    fn plan(&mut self, integ: &Integrator, report: &Update) -> dwc_analyze::planner::PlanChoice {
        self.stats.plans += 1;
        let aug = integ.warehouse();
        let catalog = aug.catalog();
        let definitions = aug.all_definitions();
        let inverses = aug.inverse();

        let mut profile = WorkloadProfile::default();
        for name in aug.stored_relations() {
            if let Ok(rel) = integ.state().relation(name) {
                profile.stored_rows.insert(name, rel.len() as f64);
            }
        }
        for (name, delta) in report.iter() {
            profile.delta_rows.insert(name, delta.len() as f64);
        }
        profile.mirrors_cached = integ.config().cache_inverses;
        // The decoupled ingest path never has a queryable source.
        profile.source_reachable = false;
        if let Some(mirrors) = integ.mirrors_state() {
            for (name, rel) in mirrors.iter() {
                profile.base_rows.insert(name, rel.len() as f64);
                if let Ok(Some(key)) = catalog.key_of(name) {
                    if let Ok(d) = rel.distinct_count(key) {
                        profile.distinct.push((name, key.clone(), d as f64));
                    }
                }
            }
        }

        let inputs =
            PlannerInputs { catalog, definitions: &definitions, inverses };
        let choice = choose(&inputs, &profile, &self.consts);
        report_choice(&choice, &format!("ingest Δ({})", report.len()), &mut self.log);
        match choice.chosen {
            MaintenanceStrategy::Incremental => self.stats.chosen_incremental += 1,
            MaintenanceStrategy::MirroredIncremental => self.stats.chosen_mirrored += 1,
            MaintenanceStrategy::Reconstruction | MaintenanceStrategy::RecomputeAtSource => {
                self.stats.chosen_reconstruction += 1
            }
        }
        choice
    }

    /// Feeds the observed touched-row count back: far outside the
    /// predicted envelope ⇒ `DWC-P201`, counter bump, cache flush (the
    /// statistics the cached decisions were planned against are stale).
    fn observe(&mut self, predicted_rows: f64, actual_rows: f64) {
        if misprediction(predicted_rows, actual_rows) {
            self.stats.mispredictions += 1;
            report_misprediction("ingest", predicted_rows, actual_rows, &mut self.log);
            self.decisions.clear();
        }
    }
}

/// Routes one report through the policy: plans (or recalls) a strategy,
/// dispatches it on the integrator, and feeds the observation back.
/// With the policy [`PolicyMode::Off`] this is exactly
/// [`Integrator::on_report`].
pub(crate) fn maintain_with_policy(
    policy: &mut AdaptivePolicy,
    integ: &mut Integrator,
    report: &Update,
) -> Result<()> {
    if report.is_empty() {
        return Ok(());
    }
    policy.stats.passes += 1;
    if !policy.is_active() {
        return integ.on_report(report);
    }
    let decision = policy.decide(integ, report);
    let actual = match decision.strategy {
        MaintenanceStrategy::Incremental => {
            touched_rows(report, &integ.on_report_detailed_with(report, false)?)
        }
        MaintenanceStrategy::MirroredIncremental => {
            touched_rows(report, &integ.on_report_detailed_with(report, true)?)
        }
        // At ingest there is no source; a pinned recompute-at-source
        // degrades to the source-free reconstruction (same fixpoint by
        // Theorem 4.1).
        MaintenanceStrategy::Reconstruction | MaintenanceStrategy::RecomputeAtSource => {
            integ.recover_by_reconstruction(report)?;
            let stored: usize = integ
                .warehouse()
                .stored_relations()
                .iter()
                .filter_map(|&n| integ.state().relation(n).ok())
                .map(dwc_relalg::Relation::len)
                .sum();
            report.len() + stored
        }
    };
    policy.observe(decision.predicted_rows, actual as f64);
    Ok(())
}

/// The manifest byte persisting a [`PolicyMode`] across restarts (the
/// planner is the only module allowed to name concrete strategies —
/// rule S507 — so the storage layer stores this opaque byte).
pub(crate) fn mode_to_byte(mode: PolicyMode) -> u8 {
    match mode {
        PolicyMode::Off => 0,
        PolicyMode::Adaptive => 1,
        PolicyMode::Fixed(MaintenanceStrategy::Incremental) => 2,
        PolicyMode::Fixed(MaintenanceStrategy::MirroredIncremental) => 3,
        PolicyMode::Fixed(MaintenanceStrategy::Reconstruction) => 4,
        PolicyMode::Fixed(MaintenanceStrategy::RecomputeAtSource) => 5,
    }
}

/// Rebuilds a policy from its persisted manifest byte. Unknown bytes
/// (from a newer version) degrade to the inert policy rather than
/// failing recovery — the mode is tuning, not state.
pub(crate) fn policy_from_byte(byte: u8) -> AdaptivePolicy {
    match byte {
        1 => AdaptivePolicy::adaptive(),
        2 => AdaptivePolicy::fixed(MaintenanceStrategy::Incremental),
        3 => AdaptivePolicy::fixed(MaintenanceStrategy::MirroredIncremental),
        4 => AdaptivePolicy::fixed(MaintenanceStrategy::Reconstruction),
        5 => AdaptivePolicy::fixed(MaintenanceStrategy::RecomputeAtSource),
        _ => AdaptivePolicy::off(),
    }
}

/// What maintenance actually touched: the reported delta plus every
/// stored relation's net delta.
fn touched_rows(report: &Update, deltas: &[crate::incremental::StoredDelta]) -> usize {
    report.len()
        + deltas
            .iter()
            .map(|d| d.inserted.len() + d.deleted.len())
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::{Integrator, IntegratorConfig};
    use crate::spec::WarehouseSpec;
    use dwc_relalg::{rel, Catalog, DbState};

    fn fig1_integrator(cache_inverses: bool) -> Integrator {
        fig1_integrator_sized(cache_inverses, 2)
    }

    /// `n` pre-existing sales split over the two clerks — big enough
    /// (hundreds) to land the cost model in its calibrated regime.
    fn fig1_integrator_sized(cache_inverses: bool, n: usize) -> Integrator {
        use dwc_relalg::{Relation, Value};
        let mut catalog = Catalog::new();
        catalog.add_schema("Sale", &["item", "clerk"]).unwrap();
        catalog
            .add_schema_with_key("Emp", &["clerk", "age"], &["clerk"])
            .unwrap();
        let aug = WarehouseSpec::parse(catalog, &[("Sold", "Sale join Emp")])
            .unwrap()
            .augment()
            .unwrap();
        let mut db = DbState::new();
        let clerks = ["John", "Paula"];
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::str(&format!("sku{i}")),
                    Value::str(clerks[i % clerks.len()]),
                ]
            })
            .collect();
        db.insert_relation(
            "Sale",
            Relation::from_rows(&["item", "clerk"], rows).unwrap(),
        );
        db.insert_relation(
            "Emp",
            rel! { ["clerk", "age"] => ("John", 25), ("Paula", 32) },
        );
        let state = aug.materialize(&db).unwrap();
        Integrator::from_state(aug, state, IntegratorConfig { cache_inverses }).unwrap()
    }

    fn insert_sale(i: i64) -> Update {
        Update::inserting(
            "Sale",
            rel! { ["item", "clerk"] => (format!("item{i}"), "John") },
        )
    }

    #[test]
    fn off_policy_is_transparent() {
        let mut a = fig1_integrator(true);
        let mut b = fig1_integrator(true);
        let mut policy = AdaptivePolicy::off();
        for i in 0..4 {
            let u = insert_sale(i);
            maintain_with_policy(&mut policy, &mut a, &u).unwrap();
            b.on_report(&u).unwrap();
        }
        assert_eq!(a.state(), b.state());
        // Inert means no decisions; the pass counter runs regardless.
        assert_eq!(policy.stats(), PolicyStats { passes: 4, ..PolicyStats::default() });
        assert!(policy.take_diagnostics().is_empty());
    }

    #[test]
    fn adaptive_converges_with_plain_maintenance_and_caches_decisions() {
        let mut adaptive = fig1_integrator_sized(true, 500);
        let mut plain = fig1_integrator_sized(true, 500);
        let mut policy = AdaptivePolicy::adaptive();
        for i in 0..8 {
            let u = insert_sale(i);
            maintain_with_policy(&mut policy, &mut adaptive, &u).unwrap();
            plain.on_report(&u).unwrap();
        }
        assert_eq!(adaptive.state(), plain.state());
        let stats = policy.stats();
        assert_eq!(stats.decisions, 8);
        // Re-plans happen only when the growing state crosses a
        // power-of-two size class, not per report.
        assert!(stats.plans < stats.decisions, "{stats:?}");
        // Mirrors are cached, so the calibrated model picks mirrored.
        assert_eq!(stats.chosen_mirrored, stats.plans);
        let log = policy.take_diagnostics();
        assert!(log.has_code(dwc_analyze::Code::P101StrategyChosen));
        assert!(log.to_json_lines().contains(r#""data":{"chosen":"#));
    }

    #[test]
    fn every_fixed_strategy_reaches_the_same_state() {
        let oracle = {
            let mut i = fig1_integrator(true);
            for k in 0..4 {
                i.on_report(&insert_sale(k)).unwrap();
            }
            i.state().clone()
        };
        for strategy in MaintenanceStrategy::ALL {
            let mut integ = fig1_integrator(true);
            let mut policy = AdaptivePolicy::fixed(strategy);
            for k in 0..4 {
                maintain_with_policy(&mut policy, &mut integ, &insert_sale(k)).unwrap();
            }
            assert_eq!(integ.state(), &oracle, "strategy {strategy} diverged");
        }
    }

    #[test]
    fn misprediction_fires_and_flushes_the_cache() {
        let mut integ = fig1_integrator(true);
        let mut policy = AdaptivePolicy::adaptive();
        maintain_with_policy(&mut policy, &mut integ, &insert_sale(0)).unwrap();
        assert_eq!(policy.stats().mispredictions, 0);
        // Force the envelope: pretend the plan predicted nothing but
        // maintenance touched plenty.
        policy.observe(0.0, 1_000.0);
        assert_eq!(policy.stats().mispredictions, 1);
        assert!(policy.decisions.is_empty());
        assert!(policy
            .take_diagnostics()
            .has_code(dwc_analyze::Code::P201Misprediction));
    }

    #[test]
    fn size_classes_group_reports_logarithmically() {
        assert_eq!(log2_class(0), log2_class(0));
        assert_eq!(log2_class(2), log2_class(2));
        assert!(log2_class(1) < log2_class(100));
        assert!(log2_class(100) < log2_class(100_000));
        // Neighbors inside one power of two share a class.
        assert_eq!(log2_class(40), log2_class(60));
    }
}
