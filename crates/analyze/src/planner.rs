//! The certified maintenance planner: ranks four update-processing
//! strategies and emits its decisions as structured `DWC-PNNN`
//! diagnostics.
//!
//! Theorem 4.1 guarantees every strategy lands on the same state
//! `w' = W(u(W⁻¹(w)))`, so the choice is *purely* a cost question — and
//! because the analyzer certified the plans statically (PR 4), the cost
//! question is answerable statically too, from relation/delta sizes and
//! key selectivities via [`crate::cost`]. The four strategies:
//!
//! * **incremental** — evaluate the delta rules of each touched view
//!   from the reported delta, reading the stored state (and the inverse
//!   mapping `W⁻¹`) only at the keys the delta reaches: priced as the
//!   delta rows plus their `estimate_delta` fan-out, each an index probe;
//! * **incremental-mirrored** — the delta rules over whole relations,
//!   with `W⁻¹` cached as mirrors that are merged in place (E4.1 only;
//!   the integrator keeps no mirrors);
//! * **reconstruct** — recompute `u(W⁻¹(w))` wholesale and re-apply
//!   every view definition (the Theorem 4.1 oracle);
//! * **recompute-at-source** — ask the (reachable) source for fresh
//!   extents and re-materialize; never available to the decoupled
//!   ingest path, always available to `dwc analyze --cost` what-ifs.
//!
//! [`choose`] returns the ranking plus a predicted *touched-rows* figure.
//! It is a static what-if only: `dwc analyze --cost` prints it, and the
//! server does not consult it. Since restricted incremental maintenance
//! costs O(|Δ| · fan-out) per step and reconstruction O(|state|), the
//! costs no longer cross on any served workload, so every report takes
//! the restricted incremental route (EXPERIMENTS E33).

use crate::cost::{estimate, estimate_delta, CostConstants, TableStats};
use crate::diag::{Code, Report, Severity};
use dwc_relalg::{Catalog, RaExpr, RelName};
use std::collections::{BTreeMap, BTreeSet};

/// A maintenance strategy the chooser can rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MaintenanceStrategy {
    /// Delta rules over a freshly derived inverse image.
    Incremental,
    /// Delta rules over cached source mirrors.
    MirroredIncremental,
    /// Full Theorem 4.1 reconstruction.
    Reconstruction,
    /// Re-materialize from a reachable source.
    RecomputeAtSource,
}

impl MaintenanceStrategy {
    /// Every strategy, in ranking-table order.
    pub const ALL: [MaintenanceStrategy; 4] = [
        MaintenanceStrategy::Incremental,
        MaintenanceStrategy::MirroredIncremental,
        MaintenanceStrategy::Reconstruction,
        MaintenanceStrategy::RecomputeAtSource,
    ];

    /// The stable label used in diagnostics, bench rows and EXPERIMENTS
    /// tables (matches the BENCH_eval.json maintenance group names).
    pub fn as_str(self) -> &'static str {
        match self {
            MaintenanceStrategy::Incremental => "incremental",
            MaintenanceStrategy::MirroredIncremental => "incremental-mirrored",
            MaintenanceStrategy::Reconstruction => "reconstruct",
            MaintenanceStrategy::RecomputeAtSource => "recompute-at-source",
        }
    }
}

impl std::fmt::Display for MaintenanceStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the planner knows about the workload at decision time. All
/// sizes are *statistics*, not data: building one costs a handful of
/// map insertions (plus optional pre-measured distinct counts).
#[derive(Clone, Debug, Default)]
pub struct WorkloadProfile {
    /// Row counts of the source relations (estimated from the inverse
    /// expressions when absent — see [`choose`]).
    pub base_rows: BTreeMap<RelName, f64>,
    /// Row counts of the stored views/complements.
    pub stored_rows: BTreeMap<RelName, f64>,
    /// Reported delta sizes per touched base relation.
    pub delta_rows: BTreeMap<RelName, f64>,
    /// Measured distinct counts `(relation, attrs, count)` — refine the
    /// estimator's square-root heuristic when mirrors are at hand.
    pub distinct: Vec<(RelName, dwc_relalg::AttrSet, f64)>,
    /// Whether source mirrors are cached (mirrored-incremental needs
    /// them).
    pub mirrors_cached: bool,
    /// Whether a source can answer queries (recompute-at-source needs
    /// one; the decoupled ingest path never has one).
    pub source_reachable: bool,
}

/// The static context the planner ranks against: catalog plus the
/// certified view definitions and inverse expressions of the augmented
/// warehouse.
#[derive(Clone, Copy, Debug)]
pub struct PlannerInputs<'a> {
    /// Source-relation schemas and keys.
    pub catalog: &'a Catalog,
    /// Stored relation → its definition over the source relations.
    pub definitions: &'a BTreeMap<RelName, RaExpr>,
    /// Source relation → its inverse (`W⁻¹` component) over the stored
    /// relations.
    pub inverses: &'a BTreeMap<RelName, RaExpr>,
}

/// One strategy's predicted total for a delta.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrategyCost {
    /// The strategy.
    pub strategy: MaintenanceStrategy,
    /// Whether the workload can run it at all (mirrors cached, source
    /// reachable). Unavailable strategies are ranked last regardless of
    /// cost.
    pub available: bool,
    /// Predicted total, nanoseconds.
    pub cost_ns: f64,
}

/// Per-view attribution of the prediction.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewEstimate {
    /// The stored relation.
    pub view: RelName,
    /// Predicted tuples its delta touches.
    pub delta_rows: f64,
    /// Predicted cost of its delta rules (incremental path), ns.
    pub incremental_ns: f64,
    /// Predicted cost of re-evaluating its definition, ns.
    pub recompute_ns: f64,
}

/// The chooser's verdict for one delta profile.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanChoice {
    /// The cheapest available strategy.
    pub chosen: MaintenanceStrategy,
    /// All four totals, in [`MaintenanceStrategy::ALL`] order.
    pub totals: Vec<StrategyCost>,
    /// Per-view attribution (affected views only).
    pub per_view: Vec<ViewEstimate>,
    /// Predicted tuples touched overall: reported delta plus every
    /// affected view's delta.
    pub predicted_rows: f64,
    /// The chosen strategy's predicted total, ns.
    pub predicted_ns: f64,
}

/// Ranks the four strategies for one delta profile. Purely arithmetic
/// over the certified expressions: O(total plan nodes), no data access.
pub fn choose(
    inputs: &PlannerInputs<'_>,
    profile: &WorkloadProfile,
    consts: &CostConstants,
) -> PlanChoice {
    // Statistics over the *stored* state: inverse expressions read it.
    let mut stored_stats = TableStats::new();
    // Statistics over the *source* state: definitions read it. Base rows
    // missing from the profile are estimated from their inverse below.
    let mut base_stats = TableStats::new();
    for name in inputs.catalog.relation_names() {
        base_stats.declare_from_catalog(
            inputs.catalog,
            name,
            profile.base_rows.get(&name).copied().unwrap_or(0.0),
        );
    }
    for (name, attrs, count) in &profile.distinct {
        base_stats.set_distinct(*name, attrs.clone(), *count);
    }
    // Stored headers are inferable from the definitions (the estimator
    // propagates headers structurally), keys are not tracked.
    for (&view, def) in inputs.definitions {
        let rows = profile.stored_rows.get(&view).copied().unwrap_or(0.0);
        let header = estimate(def, &base_stats, consts).attrs().cloned();
        match header {
            Some(h) => stored_stats.declare(view, h, None, rows),
            None => stored_stats.set_rows(view, rows),
        }
    }
    // Fill in missing base sizes from the inverse expressions.
    for name in inputs.catalog.relation_names() {
        if profile.base_rows.contains_key(&name) {
            continue;
        }
        if let Some(inv) = inputs.inverses.get(&name) {
            base_stats.set_rows(name, estimate(inv, &stored_stats, consts).rows);
        }
    }

    let touched: BTreeSet<RelName> = profile
        .delta_rows
        .iter()
        .filter(|&(_, &n)| n > 0.0)
        .map(|(&r, _)| r)
        .collect();
    // Statistics for the delta-substituted definitions: touched bases
    // shrink to their delta size, untouched bases keep their full size
    // (the delta rules join the delta against them).
    let mut delta_stats = base_stats.clone();
    for (&r, &n) in &profile.delta_rows {
        delta_stats.set_rows(r, n);
    }

    let affected: Vec<RelName> = inputs
        .definitions
        .iter()
        .filter(|(_, def)| def.base_relations().iter().any(|b| touched.contains(b)))
        .map(|(&v, _)| v)
        .collect();
    let needed_bases: BTreeSet<RelName> = affected
        .iter()
        .flat_map(|v| inputs.definitions[v].base_relations())
        .collect();

    let reported: f64 = profile.delta_rows.values().sum();
    let mut per_view = Vec::new();
    let mut delta_total = 0.0;
    let mut whole_total = 0.0;
    let mut predicted_rows = reported;
    for &view in &affected {
        let def = &inputs.definitions[&view];
        let stored = profile.stored_rows.get(&view).copied().unwrap_or(0.0);
        // Predicted *churn* uses the delta calculus, not the substituted
        // cardinality: a minus against an untouched base is not churn.
        let delta_rows = estimate_delta(def, &base_stats, &profile.delta_rows, consts);
        // The incremental pass evaluates the delta rules (insertion and
        // deletion sides) from the delta: every reported row and every
        // row it fans out to is one key-index probe into a stored
        // relation — the probe `join_probe_ns` was calibrated on — plus
        // its splice into the stored extent. A rule with no keyed way to
        // the delta (a cartesian product) fans out to the whole other
        // side, which `estimate_delta` already counts. The splice's run
        // copy (~1 ns per stored row) is paid by every strategy alike
        // and is left out.
        let per_row_ns = consts.join_probe_ns + consts.apply_ns;
        let incremental_ns =
            2.0 * (def.size() as f64 * consts.node_ns + (reported + delta_rows) * per_row_ns);
        // The mirrored path evaluates the substituted definition whole,
        // twice, and merges the result into the stored extent.
        let d = estimate(def, &delta_stats, consts);
        whole_total += 2.0 * d.cost_ns + stored * consts.apply_ns;
        let recompute_ns = estimate(def, &base_stats, consts).cost_ns;
        predicted_rows += delta_rows;
        delta_total += incremental_ns;
        per_view.push(ViewEstimate {
            view,
            delta_rows,
            incremental_ns,
            recompute_ns,
        });
    }

    // Shared (strategy-level) terms.
    let mirror_merge_ns: f64 = needed_bases
        .iter()
        .map(|b| base_stats.rows(*b).unwrap_or(0.0) * consts.apply_ns)
        .sum();
    let inverse_all_ns: f64 = inputs
        .inverses
        .values()
        .map(|inv| estimate(inv, &stored_stats, consts).cost_ns)
        .sum();
    let recompute_all_ns: f64 = inputs
        .definitions
        .values()
        .map(|def| estimate(def, &base_stats, consts).cost_ns)
        .sum();
    let swap_all_ns: f64 = profile.stored_rows.values().sum::<f64>() * consts.apply_ns;

    let totals: Vec<StrategyCost> = MaintenanceStrategy::ALL
        .iter()
        .map(|&strategy| {
            let (available, cost_ns) = match strategy {
                MaintenanceStrategy::Incremental => (true, delta_total),
                MaintenanceStrategy::MirroredIncremental => {
                    (profile.mirrors_cached, mirror_merge_ns + whole_total)
                }
                MaintenanceStrategy::Reconstruction => {
                    (true, inverse_all_ns + recompute_all_ns + swap_all_ns)
                }
                MaintenanceStrategy::RecomputeAtSource => (
                    profile.source_reachable,
                    recompute_all_ns
                        + inputs.definitions.len() as f64 * consts.query_ns
                        + swap_all_ns,
                ),
            };
            StrategyCost {
                strategy,
                available,
                cost_ns,
            }
        })
        .collect();

    let chosen = totals
        .iter()
        .filter(|t| t.available)
        .min_by(|a, b| a.cost_ns.total_cmp(&b.cost_ns))
        .map(|t| t.strategy)
        // Incremental is always available; this arm is unreachable but
        // keeps the function total.
        .unwrap_or(MaintenanceStrategy::Incremental);
    let predicted_ns = totals
        .iter()
        .find(|t| t.strategy == chosen)
        .map(|t| t.cost_ns)
        .unwrap_or(0.0);

    PlanChoice {
        chosen,
        totals,
        per_view,
        predicted_rows,
        predicted_ns,
    }
}

/// Emits the choice as diagnostics: one `DWC-P001` per affected view
/// (cost estimate with a machine-readable payload) and one `DWC-P101`
/// for the chosen strategy with all four predicted totals.
pub fn report_choice(choice: &PlanChoice, at: &str, report: &mut Report) {
    for v in &choice.per_view {
        report.push_with_data(
            Code::P001CostEstimate,
            Severity::Info,
            format!("{at}: view {}", v.view),
            format!(
                "predicted Δrows ≈ {:.1}; delta rules ≈ {:.1} µs, recompute ≈ {:.1} µs",
                v.delta_rows,
                v.incremental_ns / 1_000.0,
                v.recompute_ns / 1_000.0
            ),
            format!(
                r#"{{"view":"{}","delta_rows":{:.1},"incremental_ns":{:.0},"recompute_ns":{:.0}}}"#,
                v.view, v.delta_rows, v.incremental_ns, v.recompute_ns
            ),
        );
    }
    let mut totals_json = String::from("{");
    for (i, t) in choice.totals.iter().enumerate() {
        if i > 0 {
            totals_json.push(',');
        }
        totals_json.push_str(&format!(
            r#""{}":{{"available":{},"cost_ns":{:.0}}}"#,
            t.strategy, t.available, t.cost_ns
        ));
    }
    totals_json.push('}');
    report.push_with_data(
        Code::P101StrategyChosen,
        Severity::Info,
        at,
        format!(
            "chose {} (predicted ≈ {:.1} µs, predicted rows ≈ {:.1})",
            choice.chosen,
            choice.predicted_ns / 1_000.0,
            choice.predicted_rows
        ),
        format!(
            r#"{{"chosen":"{}","predicted_ns":{:.0},"predicted_rows":{:.1},"totals":{totals_json}}}"#,
            choice.chosen, choice.predicted_ns, choice.predicted_rows
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_relalg::AttrSet;

    fn fig1() -> (Catalog, BTreeMap<RelName, RaExpr>, BTreeMap<RelName, RaExpr>) {
        let mut catalog = Catalog::new();
        catalog.add_schema("Sale", &["item", "clerk"]).expect("Sale");
        catalog
            .add_schema_with_key("Emp", &["clerk", "age"], &["clerk"])
            .expect("Emp");
        let mut definitions = BTreeMap::new();
        definitions.insert(
            RelName::new("Sold"),
            RaExpr::parse("Sale join Emp").expect("def"),
        );
        definitions.insert(
            RelName::new("C_Sale"),
            RaExpr::parse("Sale minus pi[item, clerk](Sale join Emp)").expect("def"),
        );
        let mut inverses = BTreeMap::new();
        inverses.insert(
            RelName::new("Sale"),
            RaExpr::parse("pi[item, clerk](Sold) union C_Sale").expect("inv"),
        );
        inverses.insert(
            RelName::new("Emp"),
            RaExpr::parse("pi[clerk, age](Sold)").expect("inv"),
        );
        (catalog, definitions, inverses)
    }

    fn profile(n: f64, delta: f64) -> WorkloadProfile {
        let mut p = WorkloadProfile::default();
        p.base_rows.insert(RelName::new("Sale"), n);
        p.base_rows.insert(RelName::new("Emp"), n / 4.0);
        p.stored_rows.insert(RelName::new("Sold"), n);
        p.stored_rows.insert(RelName::new("C_Sale"), n / 10.0);
        p.delta_rows.insert(RelName::new("Sale"), delta);
        p.mirrors_cached = true;
        p.source_reachable = false;
        p
    }

    fn cost_of(choice: &PlanChoice, s: MaintenanceStrategy) -> f64 {
        choice
            .totals
            .iter()
            .find(|t| t.strategy == s)
            .expect("total")
            .cost_ns
    }

    #[test]
    fn small_delta_prefers_incremental_then_mirrored_then_reconstruction() {
        let (catalog, definitions, inverses) = fig1();
        let inputs = PlannerInputs {
            catalog: &catalog,
            definitions: &definitions,
            inverses: &inverses,
        };
        let choice = choose(&inputs, &profile(10_000.0, 1.0), &CostConstants::calibrated());
        // The incremental pass probes from the delta; the mirrored path
        // merges a whole source copy and evaluates whole relations.
        assert_eq!(choice.chosen, MaintenanceStrategy::Incremental);
        let cost = |s| cost_of(&choice, s);
        assert!(cost(MaintenanceStrategy::Incremental) < cost(MaintenanceStrategy::MirroredIncremental));
        assert!(cost(MaintenanceStrategy::MirroredIncremental) < cost(MaintenanceStrategy::Reconstruction));
        // Recompute-at-source is cheapest here but unreachable.
        let rec = choice
            .totals
            .iter()
            .find(|t| t.strategy == MaintenanceStrategy::RecomputeAtSource)
            .expect("total");
        assert!(!rec.available);
        assert!(choice.predicted_rows >= 1.0);
    }

    #[test]
    fn without_mirrors_incremental_wins() {
        let (catalog, definitions, inverses) = fig1();
        let inputs = PlannerInputs {
            catalog: &catalog,
            definitions: &definitions,
            inverses: &inverses,
        };
        let mut p = profile(10_000.0, 1.0);
        p.mirrors_cached = false;
        let choice = choose(&inputs, &p, &CostConstants::calibrated());
        assert_eq!(choice.chosen, MaintenanceStrategy::Incremental);
    }

    #[test]
    fn huge_delta_prefers_wholesale_recompute() {
        let (catalog, definitions, inverses) = fig1();
        let inputs = PlannerInputs {
            catalog: &catalog,
            definitions: &definitions,
            inverses: &inverses,
        };
        // A delta five times the state: re-running the delta rules twice
        // costs more than one wholesale pass. Without a source that
        // means reconstruction…
        let mut p = profile(10_000.0, 50_000.0);
        p.mirrors_cached = false;
        let choice = choose(&inputs, &p, &CostConstants::calibrated());
        assert_eq!(choice.chosen, MaintenanceStrategy::Reconstruction);
        // …and with one, recompute-at-source (skips the inverse pass —
        // the BENCH_eval.json ranking: recompute ≈ 1.1 ms vs
        // reconstruct ≈ 4.2 ms at n=10000).
        p.source_reachable = true;
        let choice = choose(&inputs, &p, &CostConstants::calibrated());
        assert_eq!(choice.chosen, MaintenanceStrategy::RecomputeAtSource);
    }

    #[test]
    fn base_rows_are_inferred_from_inverses_when_missing() {
        let (catalog, definitions, inverses) = fig1();
        let inputs = PlannerInputs {
            catalog: &catalog,
            definitions: &definitions,
            inverses: &inverses,
        };
        let mut p = profile(10_000.0, 1.0);
        p.base_rows.clear(); // planner must survive on stored sizes only
        let choice = choose(&inputs, &p, &CostConstants::calibrated());
        assert_eq!(choice.chosen, MaintenanceStrategy::Incremental);
    }

    #[test]
    fn incremental_price_is_flat_in_stored_rows_at_a_one_row_delta() {
        // The pass touches O(|Δ| · fan-out) rows, so ten times the state
        // at a one-row Δ must move the predicted incremental cost by
        // less than 2×.
        let (catalog, definitions, inverses) = fig1();
        let inputs = PlannerInputs {
            catalog: &catalog,
            definitions: &definitions,
            inverses: &inverses,
        };
        let c = CostConstants::calibrated();
        let small = cost_of(&choose(&inputs, &profile(10_000.0, 1.0), &c), MaintenanceStrategy::Incremental);
        let large = cost_of(&choose(&inputs, &profile(100_000.0, 1.0), &c), MaintenanceStrategy::Incremental);
        assert!(large < 2.0 * small, "{small} → {large}");
        // Reconstruction, by contrast, is O(|state|).
        let rec = |n| cost_of(&choose(&inputs, &profile(n, 1.0), &c), MaintenanceStrategy::Reconstruction);
        assert!(rec(100_000.0) > 5.0 * rec(10_000.0));
    }

    #[test]
    fn diagnostics_carry_machine_readable_payloads() {
        let (catalog, definitions, inverses) = fig1();
        let inputs = PlannerInputs {
            catalog: &catalog,
            definitions: &definitions,
            inverses: &inverses,
        };
        let choice = choose(&inputs, &profile(1_000.0, 4.0), &CostConstants::calibrated());
        let mut report = Report::new();
        report_choice(&choice, "test", &mut report);
        assert!(report.has_code(Code::P001CostEstimate));
        assert!(report.has_code(Code::P101StrategyChosen));
        let json = report.to_json_lines();
        assert!(json.contains(r#""code":"DWC-P101""#));
        assert!(json.contains(r#""data":{"chosen":"#));
        assert!(json.contains(r#""incremental-mirrored":{"available":true"#));
    }

    #[test]
    fn planning_is_flat_in_data_size() {
        // Same expressions, state sizes a million times apart: the walk
        // does identical work (this is an API property — the profile is
        // numbers, there is no data to read).
        let (catalog, definitions, inverses) = fig1();
        let inputs = PlannerInputs {
            catalog: &catalog,
            definitions: &definitions,
            inverses: &inverses,
        };
        for n in [1e3, 1e9] {
            let choice = choose(&inputs, &profile(n, 1.0), &CostConstants::calibrated());
            assert_eq!(choice.totals.len(), 4);
        }
        // Distinct hints plug in without changing the shape.
        let mut p = profile(1e6, 1.0);
        p.distinct
            .push((RelName::new("Sale"), AttrSet::from_names(&["clerk"]), 250.0));
        let choice = choose(&inputs, &p, &CostConstants::calibrated());
        assert!(choice.predicted_rows.is_finite());
    }
}
