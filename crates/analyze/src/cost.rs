//! Static cost and cardinality estimation for relational plans.
//!
//! The maintenance planner (see [`crate::planner`]) must compare four
//! strategies whose costs depend on how big intermediate results get —
//! but it must do so *without reading any data*: analysis stays O(plan),
//! flat tens of microseconds while the warehouse holds millions of rows.
//! This module therefore estimates, bottom-up over an [`RaExpr`], the
//! output cardinality and evaluation cost of every node from three kinds
//! of static input:
//!
//! * relation sizes supplied by the caller ([`TableStats`] rows);
//! * key declarations from the catalog — a join whose shared attributes
//!   contain one side's key fans out by at most the other side's
//!   matching count, exactly the PR 4 extension-join certificates;
//! * optional *measured* distinct counts (`Relation::distinct_count`),
//!   which refine the default square-root distinct-value heuristic.
//!
//! Per-operator constants are calibrated against the BENCH_eval.json
//! medians recorded by `scripts/bench.sh` (see
//! [`CostConstants::calibrated`]); DESIGN.md §13 derives each one.

use dwc_relalg::{AttrSet, Catalog, RaExpr, RelName};
use std::collections::BTreeMap;

/// Selectivity assumed for a selection predicate. The analyzer knows the
/// predicate's shape but not the data distribution; one third is the
/// classic textbook default and matches the fig1 bench workloads within
/// a small factor.
pub const SELECT_SELECTIVITY: f64 = 1.0 / 3.0;

/// Per-operator cost constants, in nanoseconds per tuple (plus a fixed
/// per-node term). These are *ratios*, not absolute truths: the planner
/// only ever compares strategy totals built from the same constants, so
/// what matters is that the relative weights track the measured engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostConstants {
    /// Reading one stored tuple (scan / iteration).
    pub scan_ns: f64,
    /// Evaluating a selection predicate on one tuple.
    pub select_ns: f64,
    /// Projecting one input tuple (includes its share of dedup).
    pub project_ns: f64,
    /// One input tuple of a union/difference/intersection merge.
    pub setop_ns: f64,
    /// Indexing one build-side tuple of a join.
    pub join_build_ns: f64,
    /// Probing one probe-side tuple of a join.
    pub join_probe_ns: f64,
    /// Merging one tuple of a delta into a stored relation or mirror.
    pub apply_ns: f64,
    /// Fixed overhead per plan node (dispatch, allocation, cache probe).
    pub node_ns: f64,
    /// Fixed overhead per round trip to a decoupled source (only paid by
    /// recompute-at-source).
    pub query_ns: f64,
}

impl CostConstants {
    /// Constants calibrated against the `BENCH_eval.json` medians
    /// recorded after the PR 8 columnar core (August, 1 core; the file
    /// has since been re-recorded on a faster host and the constants
    /// not refit — only their ratios matter to the planner):
    ///
    /// * `select/1000` ≈ 25 µs ⇒ ~25 ns per input tuple;
    /// * `project/10000` ≈ 779 µs over ~10k tuples ⇒ ~78 ns, rounded to
    ///   70 with the per-node term absorbing the rest;
    /// * `union/10000` and `difference/10000` ≈ 1.6 ms over 2×10k input
    ///   tuples ⇒ ~80 ns; 55 here because maintenance-path merges reuse
    ///   buffers (the `incremental` groups run ~30% below raw eval);
    /// * `hash-join/10000` ≈ 4.4 ms over 2×10k tuples ⇒ ~220 ns split
    ///   asymmetrically between build (90) and probe (45) plus output;
    /// * `delta-point-lookup` ≈ 5.7 µs flat ⇒ the 600 ns per-node term
    ///   plus a handful of probes;
    /// * `plan-compilation` flat ≈ 54 µs bounds what an entire analysis
    ///   pass may cost — everything here is arithmetic on the estimates,
    ///   far below that.
    pub fn calibrated() -> CostConstants {
        CostConstants {
            scan_ns: 6.0,
            select_ns: 25.0,
            project_ns: 70.0,
            setop_ns: 55.0,
            join_build_ns: 90.0,
            join_probe_ns: 45.0,
            apply_ns: 30.0,
            node_ns: 600.0,
            query_ns: 2_000.0,
        }
    }
}

impl Default for CostConstants {
    fn default() -> CostConstants {
        CostConstants::calibrated()
    }
}

/// Static statistics the estimator walks against: per-relation row
/// counts, headers, keys, and optional measured distinct counts.
///
/// Headers and keys normally come from the [`Catalog`]; rows and
/// distincts from whoever holds the data (or from assumptions, for the
/// purely static `dwc analyze --cost` path).
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    rows: BTreeMap<RelName, f64>,
    attrs: BTreeMap<RelName, AttrSet>,
    keys: BTreeMap<RelName, AttrSet>,
    distinct: BTreeMap<(RelName, AttrSet), f64>,
}

impl TableStats {
    /// An empty statistics table.
    pub fn new() -> TableStats {
        TableStats::default()
    }

    /// Declares every catalog relation with the same assumed row count.
    pub fn from_catalog(catalog: &Catalog, default_rows: f64) -> TableStats {
        let mut stats = TableStats::new();
        for name in catalog.relation_names() {
            stats.declare_from_catalog(catalog, name, default_rows);
        }
        stats
    }

    /// Declares one relation with header/key taken from the catalog.
    /// Unknown names are ignored (the estimator then treats them as
    /// empty), keeping this usable on partially-declared bundles.
    pub fn declare_from_catalog(&mut self, catalog: &Catalog, name: RelName, rows: f64) {
        if let Ok(attrs) = catalog.attrs_of(name) {
            self.attrs.insert(name, attrs.clone());
        }
        if let Ok(Some(key)) = catalog.key_of(name) {
            self.keys.insert(name, key.clone());
        }
        self.rows.insert(name, rows.max(0.0));
    }

    /// Declares a relation explicitly (stored views have no catalog
    /// schema; their headers are inferred by the planner).
    pub fn declare(&mut self, name: RelName, attrs: AttrSet, key: Option<AttrSet>, rows: f64) {
        self.attrs.insert(name, attrs);
        if let Some(k) = key {
            self.keys.insert(name, k);
        }
        self.rows.insert(name, rows.max(0.0));
    }

    /// Overrides the row count of an already-declared relation.
    pub fn set_rows(&mut self, name: RelName, rows: f64) {
        self.rows.insert(name, rows.max(0.0));
    }

    /// Records a measured distinct count for an attribute combination
    /// (from `Relation::distinct_count`); it takes precedence over the
    /// square-root heuristic.
    pub fn set_distinct(&mut self, name: RelName, attrs: AttrSet, count: f64) {
        self.distinct.insert((name, attrs), count.max(0.0));
    }

    /// The declared row count, if any.
    pub fn rows(&self, name: RelName) -> Option<f64> {
        self.rows.get(&name).copied()
    }

    /// The declared header, if any.
    pub fn attrs(&self, name: RelName) -> Option<&AttrSet> {
        self.attrs.get(&name)
    }

    /// Estimated number of distinct values of `attrs` in `name`:
    /// a measured count if recorded; the full row count when `attrs`
    /// contains the declared key (keys are unique); otherwise the
    /// square-root heuristic `√rows` — the standard guess when nothing
    /// is known about the distribution. Always clamped to `[1, rows]`
    /// (0 for empty relations).
    pub fn distinct_on(&self, name: RelName, attrs: &AttrSet) -> f64 {
        let rows = self.rows(name).unwrap_or(0.0);
        if rows <= 0.0 {
            return 0.0;
        }
        if let Some(&d) = self.distinct.get(&(name, attrs.clone())) {
            return d.clamp(1.0, rows);
        }
        if let Some(key) = self.keys.get(&name) {
            if key.is_subset(attrs) {
                return rows;
            }
        }
        rows.sqrt().clamp(1.0, rows)
    }
}

/// The estimate derived for one plan node: output cardinality, total
/// cost of evaluating the subtree, and (when statically known) the
/// output header plus the base relation the node's rows descend from —
/// the latter lets join selectivity consult base-relation distinct
/// counts through selections and projections.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cost of evaluating the whole subtree, nanoseconds.
    pub cost_ns: f64,
    attrs: Option<AttrSet>,
    source: Option<RelName>,
}

impl Estimate {
    /// The statically-derived output header, when known (renames with
    /// unknown inputs lose it; everything else propagates).
    pub fn attrs(&self) -> Option<&AttrSet> {
        self.attrs.as_ref()
    }

    /// Distinct values of `shared` among this node's rows: the base
    /// relation's statistic when the node descends from one, the row
    /// count itself when the node's header *is* `shared` (its rows are a
    /// set of those attributes), else the square-root heuristic. Clamped
    /// to the node's estimated rows.
    fn distinct_on(&self, shared: &AttrSet, stats: &TableStats) -> f64 {
        if self.rows <= 0.0 {
            return 0.0;
        }
        if self.attrs.as_ref() == Some(shared) {
            return self.rows;
        }
        let base = self
            .source
            .filter(|&b| {
                stats
                    .attrs(b)
                    .map(|a| shared.is_subset(a))
                    .unwrap_or(false)
            })
            .map(|b| stats.distinct_on(b, shared));
        match base {
            Some(d) => d.clamp(1.0, self.rows.max(1.0)),
            None => self.rows.sqrt().clamp(1.0, self.rows),
        }
    }
}

/// Estimates cardinality and cost for `expr`, bottom-up. Purely
/// arithmetic: O(plan nodes), never touches relation instances.
pub fn estimate(expr: &RaExpr, stats: &TableStats, c: &CostConstants) -> Estimate {
    match expr {
        RaExpr::Base(name) => {
            let rows = stats.rows(*name).unwrap_or(0.0);
            Estimate {
                rows,
                cost_ns: c.node_ns + rows * c.scan_ns,
                attrs: stats.attrs(*name).cloned(),
                source: Some(*name),
            }
        }
        RaExpr::Empty(attrs) => Estimate {
            rows: 0.0,
            cost_ns: c.node_ns,
            attrs: Some(attrs.clone()),
            source: None,
        },
        RaExpr::Select(input, _) => {
            let i = estimate(input, stats, c);
            Estimate {
                rows: i.rows * SELECT_SELECTIVITY,
                cost_ns: i.cost_ns + c.node_ns + i.rows * c.select_ns,
                attrs: i.attrs,
                source: i.source,
            }
        }
        RaExpr::Project(input, attrs) => {
            let i = estimate(input, stats, c);
            // Output rows = distinct values of the kept attributes among
            // the input's rows.
            let rows = i.distinct_on(attrs, stats).min(i.rows);
            Estimate {
                rows,
                cost_ns: i.cost_ns + c.node_ns + i.rows * c.project_ns,
                attrs: Some(attrs.clone()),
                source: i.source,
            }
        }
        RaExpr::Join(left, right) => {
            let l = estimate(left, stats, c);
            let r = estimate(right, stats, c);
            let rows = match (&l.attrs, &r.attrs) {
                (Some(la), Some(ra)) => {
                    let shared = la.intersect(ra);
                    if shared.is_empty() {
                        l.rows * r.rows // cartesian product
                    } else {
                        let dl = l.distinct_on(&shared, stats);
                        let dr = r.distinct_on(&shared, stats);
                        let d = dl.max(dr).max(1.0);
                        (l.rows * r.rows / d).min(l.rows * r.rows)
                    }
                }
                // Headers unknown: assume a key join (no fan-out).
                _ => l.rows.max(r.rows),
            };
            let (small, big) = if l.rows <= r.rows {
                (l.rows, r.rows)
            } else {
                (r.rows, l.rows)
            };
            let attrs = match (&l.attrs, &r.attrs) {
                (Some(la), Some(ra)) => Some(la.union(ra)),
                _ => None,
            };
            Estimate {
                rows,
                cost_ns: l.cost_ns
                    + r.cost_ns
                    + c.node_ns
                    + small * c.join_build_ns
                    + big * c.join_probe_ns
                    + rows * c.scan_ns,
                attrs,
                source: None,
            }
        }
        RaExpr::Union(left, right) => {
            let l = estimate(left, stats, c);
            let r = estimate(right, stats, c);
            Estimate {
                rows: l.rows + r.rows,
                cost_ns: l.cost_ns + r.cost_ns + c.node_ns + (l.rows + r.rows) * c.setop_ns,
                attrs: l.attrs.or(r.attrs),
                source: None,
            }
        }
        RaExpr::Diff(left, right) => {
            let l = estimate(left, stats, c);
            let r = estimate(right, stats, c);
            Estimate {
                rows: l.rows, // upper bound: nothing subtracted
                cost_ns: l.cost_ns + r.cost_ns + c.node_ns + (l.rows + r.rows) * c.setop_ns,
                attrs: l.attrs.or(r.attrs),
                source: None,
            }
        }
        RaExpr::Intersect(left, right) => {
            let l = estimate(left, stats, c);
            let r = estimate(right, stats, c);
            Estimate {
                rows: l.rows.min(r.rows),
                cost_ns: l.cost_ns + r.cost_ns + c.node_ns + (l.rows + r.rows) * c.setop_ns,
                attrs: l.attrs.or(r.attrs),
                source: None,
            }
        }
        RaExpr::Rename(input, pairs) => {
            let i = estimate(input, stats, c);
            let attrs = i.attrs.as_ref().map(|a| {
                AttrSet::from_iter(a.iter().map(|x| {
                    pairs
                        .iter()
                        .find(|(from, _)| *from == x)
                        .map(|&(_, to)| to)
                        .unwrap_or(x)
                }))
            });
            Estimate {
                rows: i.rows,
                cost_ns: i.cost_ns + c.node_ns,
                attrs,
                // Renamed columns no longer line up with base statistics.
                source: None,
            }
        }
    }
}

/// Estimated rows *changed* in the output of `expr` when each base
/// relation changes by `deltas` rows. Where [`estimate`] answers "how
/// big is the result", this answers "how much of it moves" — the
/// planner's predicted touched-rows figure:
///
/// * a delta entering one side of a join fans out by the *other* side's
///   rows-per-matching-value (so a one-row insert against a skew-free
///   keyed side predicts one changed row, not the whole join);
/// * selections thin deltas by [`SELECT_SELECTIVITY`]; projections and
///   renames pass them through;
/// * set operations move at most the sum of their input deltas — in
///   particular a `minus` against a large *untouched* base contributes
///   nothing, unlike the substituted-definition cardinality which would
///   count that whole base as churn.
pub fn estimate_delta(
    expr: &RaExpr,
    stats: &TableStats,
    deltas: &BTreeMap<RelName, f64>,
    c: &CostConstants,
) -> f64 {
    delta_walk(expr, stats, deltas, c).1
}

/// The recursive half of [`estimate_delta`]: the node's full estimate
/// (for fan-out arithmetic) alongside its delta cardinality.
fn delta_walk(
    expr: &RaExpr,
    stats: &TableStats,
    deltas: &BTreeMap<RelName, f64>,
    c: &CostConstants,
) -> (Estimate, f64) {
    let full = estimate(expr, stats, c);
    let d = match expr {
        RaExpr::Base(name) => deltas.get(name).copied().unwrap_or(0.0),
        RaExpr::Empty(_) => 0.0,
        RaExpr::Select(input, _) => delta_walk(input, stats, deltas, c).1 * SELECT_SELECTIVITY,
        RaExpr::Project(input, _) | RaExpr::Rename(input, _) => {
            delta_walk(input, stats, deltas, c).1
        }
        RaExpr::Join(left, right) => {
            let (le, ld) = delta_walk(left, stats, deltas, c);
            let (re, rd) = delta_walk(right, stats, deltas, c);
            match (le.attrs(), re.attrs()) {
                (Some(la), Some(ra)) => {
                    let shared = la.intersect(ra);
                    if shared.is_empty() {
                        // Cartesian: every delta row pairs with the
                        // whole other side.
                        ld * re.rows + rd * le.rows
                    } else {
                        let fan_l = le.rows / le.distinct_on(&shared, stats).max(1.0);
                        let fan_r = re.rows / re.distinct_on(&shared, stats).max(1.0);
                        ld * fan_r.max(1.0) + rd * fan_l.max(1.0)
                    }
                }
                // Headers unknown: assume a key join (no fan-out).
                _ => ld + rd,
            }
        }
        RaExpr::Union(left, right) | RaExpr::Diff(left, right) | RaExpr::Intersect(left, right) => {
            delta_walk(left, stats, deltas, c).1 + delta_walk(right, stats, deltas, c).1
        }
    };
    (full, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_relalg::Catalog;

    /// The fig1 catalog: Sale(item, clerk) keyless, Emp(clerk*, age).
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_schema("Sale", &["item", "clerk"]).expect("Sale");
        c.add_schema_with_key("Emp", &["clerk", "age"], &["clerk"])
            .expect("Emp");
        c
    }

    fn est(expr: &str, stats: &TableStats) -> Estimate {
        let e = RaExpr::parse(expr).expect("parse");
        estimate(&e, stats, &CostConstants::calibrated())
    }

    #[test]
    fn base_and_select_and_project() {
        let mut stats = TableStats::from_catalog(&catalog(), 900.0);
        stats.set_rows(RelName::new("Emp"), 100.0);
        let b = est("Sale", &stats);
        assert_eq!(b.rows, 900.0);
        let s = est("sigma[item = 'TV'](Sale)", &stats);
        assert!(s.rows < 400.0 && s.rows > 200.0);
        // Projecting onto the key keeps every row; Emp's key is clerk.
        let p = est("pi[clerk](Emp)", &stats);
        assert_eq!(p.rows, 100.0);
        // Projecting a keyless relation falls back to sqrt.
        let p = est("pi[clerk](Sale)", &stats);
        assert_eq!(p.rows, 30.0);
    }

    use dwc_relalg::RelName;

    #[test]
    fn key_join_does_not_fan_out() {
        let mut stats = TableStats::from_catalog(&catalog(), 1000.0);
        stats.set_rows(RelName::new("Emp"), 250.0);
        // Shared attr {clerk} ⊇ key(Emp): each Sale row meets ≤ 1 Emp row,
        // so |Sale ⋈ Emp| ≈ |Sale|.
        let j = est("Sale join Emp", &stats);
        assert_eq!(j.rows, 1000.0);
        // Costs accumulate: the join costs more than either scan.
        assert!(j.cost_ns > est("Sale", &stats).cost_ns);
    }

    #[test]
    fn measured_distincts_refine_the_fan_out() {
        let mut stats = TableStats::from_catalog(&catalog(), 2000.0);
        stats.set_rows(RelName::new("Emp"), 1.0);
        // A 1-row ΔEmp joined with Sale: fan-out = |Sale| / distinct clerks.
        let heuristic = est("Sale join Emp", &stats).rows;
        assert!((heuristic - 2000.0 / (2000.0f64).sqrt()).abs() < 1e-6);
        stats.set_distinct(
            RelName::new("Sale"),
            AttrSet::from_names(&["clerk"]),
            4.0,
        );
        let measured = est("Sale join Emp", &stats).rows;
        assert!((measured - 500.0).abs() < 1e-6);
    }

    #[test]
    fn set_ops_and_rename_and_empty() {
        let stats = TableStats::from_catalog(&catalog(), 100.0);
        assert_eq!(est("Sale union Sale", &stats).rows, 200.0);
        assert_eq!(est("Sale minus Sale", &stats).rows, 100.0);
        assert_eq!(est("Sale intersect Sale", &stats).rows, 100.0);
        let r = est("rho[clerk -> seller](Sale)", &stats);
        assert_eq!(r.rows, 100.0);
        assert!(r.attrs().expect("header").contains(dwc_relalg::Attr::new("seller")));
    }

    #[test]
    fn delta_calculus_sees_fan_out_but_not_untouched_bulk() {
        let mut stats = TableStats::from_catalog(&catalog(), 2000.0);
        stats.set_rows(RelName::new("Emp"), 100.0);
        let sold = RaExpr::parse("Sale join Emp").expect("parse");
        let c_sale = RaExpr::parse("Sale minus pi[item, clerk](Sale join Emp)").expect("parse");
        let c = CostConstants::calibrated();

        // One Sale row against the keyed Emp side: one changed row.
        let mut d_sale = BTreeMap::new();
        d_sale.insert(RelName::new("Sale"), 1.0);
        assert!((estimate_delta(&sold, &stats, &d_sale, &c) - 1.0).abs() < 1e-6);
        // The minus against the full (untouched-by-the-join-output)
        // base moves by the delta, not by |Sale|.
        assert!(estimate_delta(&c_sale, &stats, &d_sale, &c) < 10.0);

        // One Emp row against keyless Sale: fans out by the heuristic
        // rows-per-clerk (√2000 ≈ 45), nowhere near the full 2000.
        let mut d_emp = BTreeMap::new();
        d_emp.insert(RelName::new("Emp"), 1.0);
        let fan = estimate_delta(&sold, &stats, &d_emp, &c);
        assert!(fan > 10.0 && fan < 100.0, "{fan}");
        // A measured distinct count sharpens the prediction.
        stats.set_distinct(RelName::new("Sale"), AttrSet::from_names(&["clerk"]), 10.0);
        let measured = estimate_delta(&sold, &stats, &d_emp, &c);
        assert!((measured - 200.0).abs() < 1e-6, "{measured}");
        // Untouched plans never move.
        assert_eq!(estimate_delta(&sold, &stats, &BTreeMap::new(), &c), 0.0);
    }

    #[test]
    fn estimation_is_data_free_and_cheap() {
        // A deep plan over huge assumed relations estimates instantly —
        // the walk is O(nodes), rows only appear as f64 arithmetic.
        let stats = TableStats::from_catalog(&catalog(), 1e12);
        let e = est("pi[clerk](sigma[item = 'TV'](Sale join Emp))", &stats);
        assert!(e.rows > 0.0);
        assert!(e.cost_ns > 0.0);
    }
}
