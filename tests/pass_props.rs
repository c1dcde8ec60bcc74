//! The maintenance pass touches O(|Δ| · fan-out) rows, not O(|state|).
//!
//! A pass counts every row an operator produced, every key it probed
//! into a stored relation and every delta row it spliced in
//! (`PassStats::rows_touched`). On the star schema at three state sizes
//! a hundred times apart, a lone operational report (a new order with
//! its line items, a cancellation, a new customer, a re-priced line
//! item) must stay under `C · |Δ| · fan-out` with one `C` for all three
//! sizes, where the fan-out is the data's own: the most line items of
//! one order or orders of one customer. Every step of the star plans is
//! evaluated from the delta; none reads a relation whole.
//!
//! On arbitrary expression shapes, restricted evaluation is exact: with
//! any subset of the leaves declared delta-sized, a pass equals whole
//! evaluation, with its memo on and off.

mod common;

use common::{chain_catalog, chain_state, gen_rows, random_expr};
use dwc_testkit::prop::Runner;
use dwc_testkit::{tk_ensure, tk_ensure_eq, SplitMix64};
use dwcomplements::relalg::eval::{Pass, PassCompiler};
use dwcomplements::relalg::{Attr, AttrSet, Catalog, DbState, RaExpr, RelName};
use dwcomplements::starschema::{generate, star_warehouse, ScaleConfig, UpdateStream};
use dwcomplements::warehouse::spec::AugmentedWarehouse;
use dwcomplements::warehouse::WarehouseSpec;
use std::collections::BTreeSet;

/// The one constant of the bound, for every state size. (At seed 1999
/// the worst report measures 1.4 · |Δ| · fan-out; a pass reading any star
/// fact table whole would touch thousands of rows at scale 0.5.)
const C: u64 = 4;

/// The most rows of `rel` sharing one value of `attr`.
fn max_group(db: &DbState, rel: &str, attr: &str) -> usize {
    let rel = db.relation(RelName::new(rel)).expect("star relation");
    let at = rel.attrs().index_of(Attr::new(attr)).expect("star attribute");
    let mut counts = std::collections::BTreeMap::new();
    for t in rel.iter() {
        *counts.entry(t.get(at).clone()).or_insert(0usize) += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

struct Sized {
    sf: f64,
    base: DbState,
    warehouse: DbState,
    fan_out: u64,
}

fn star() -> (AugmentedWarehouse, Vec<Sized>) {
    let (catalog, views) = star_warehouse();
    let aug = WarehouseSpec::new(catalog, views).expect("star spec").augment().expect("augments");
    let sizes = [0.005, 0.05, 0.5]
        .into_iter()
        .map(|sf| {
            let base = generate(&ScaleConfig::scaled(sf), 1999);
            let warehouse = aug.materialize(&base).expect("W(base)");
            let fan_out = max_group(&base, "Lineitem", "orderkey")
                .max(max_group(&base, "Orders", "custkey"))
                .max(1) as u64;
            Sized { sf, base, warehouse, fan_out }
        })
        .collect();
    (aug, sizes)
}

#[test]
fn rows_touched_by_a_lone_report_are_bounded_by_its_delta_at_every_size() {
    let (aug, sizes) = star();
    Runner::new("rows_touched_by_a_lone_report_are_bounded_by_its_delta_at_every_size")
        .cases(32)
        .run(
            |rng| rng.next_u64(),
            |&seed| {
                for s in &sizes {
                    let report = UpdateStream::new(&s.base, seed).next();
                    let touched: BTreeSet<RelName> = report.touched().collect();
                    let plan = aug.compile_plan(&touched).expect("compiles");
                    let (next, _, pass) = plan.apply_counted(&s.warehouse, &report).expect("maintains");
                    tk_ensure_eq!(pass.whole_steps, 0);
                    let bound = C * report.len() as u64 * s.fan_out;
                    tk_ensure!(
                        pass.rows_touched <= bound,
                        "sf {}: {} rows touched for |Δ| = {} (fan-out {}), bound {bound}",
                        s.sf,
                        pass.rows_touched,
                        report.len(),
                        s.fan_out
                    );
                    // The oracle, where it is cheap enough to run per case.
                    if s.sf < 0.1 {
                        let oracle = aug
                            .materialize(&report.apply(&s.base).expect("applies"))
                            .expect("W(u(d))");
                        tk_ensure_eq!(&next, &oracle);
                    }
                }
                Ok(())
            },
        );
}

/// A chain-catalog expression with ρ nodes: [`random_expr`] subtrees
/// under renames, joins and set operations. (An arm local to this suite,
/// so the shared generator's streams are unchanged.) Renaming onto `a`,
/// `b` or `c` makes new join keys with the chain relations.
fn shaped(rng: &mut SplitMix64, depth: u32, catalog: &Catalog) -> (RaExpr, AttrSet) {
    let typed = |e: RaExpr| {
        let attrs = e.attrs(catalog).expect("well-typed by construction");
        (e, attrs)
    };
    if depth == 0 || rng.chance(1, 4) {
        return typed(random_expr(rng.next_u64(), rng.below(3) as u32, catalog));
    }
    match rng.below(3) {
        0 => {
            let (e, attrs) = shaped(rng, depth - 1, catalog);
            let from = attrs.as_slice()[rng.index(attrs.len())];
            let fresh: Vec<Attr> = ["a", "b", "c", "x", "y"]
                .into_iter()
                .map(Attr::new)
                .filter(|a| !attrs.contains(*a))
                .collect();
            if fresh.is_empty() {
                return (e, attrs);
            }
            typed(e.rename(vec![(from, fresh[rng.index(fresh.len())])]))
        }
        1 => {
            let (l, _) = shaped(rng, depth - 1, catalog);
            let (r, _) = shaped(rng, depth - 1, catalog);
            typed(l.join(r))
        }
        _ => {
            let (l, la) = shaped(rng, depth - 1, catalog);
            let (r, ra) = shaped(rng, depth - 1, catalog);
            let common = la.intersect(&ra);
            if common.is_empty() {
                return (l, la);
            }
            let (l, r) = (l.project(common.clone()), r.project(common));
            typed(match rng.below(3) {
                0 => l.union(r),
                1 => l.diff(r),
                _ => l.intersect(r),
            })
        }
    }
}

#[test]
fn restricted_evaluation_of_arbitrary_shapes_equals_whole_evaluation() {
    Runner::new("restricted_evaluation_of_arbitrary_shapes_equals_whole_evaluation")
        .cases(256)
        .run(
            |rng| {
                // Delta-sized relations stay a few rows, the others up to
                // 40, so restrictions probe rather than read whole.
                let mask = rng.below(8);
                let mut rows =
                    |i: u64, arity| gen_rows(rng, arity, if mask >> i & 1 == 1 { 4 } else { 40 });
                let (r, s, t) = (rows(0, 2), rows(1, 2), rows(2, 1));
                (rng.next_u64(), rng.below(5) as u32, mask, (r, s, t))
            },
            |(seed, depth, mask, rows)| {
                let catalog = chain_catalog();
                let db = chain_state(rows);
                let (e, _) = shaped(&mut SplitMix64::new(*seed), *depth, &catalog);
                let small: Vec<RelName> = ["R", "S", "T"]
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, n)| RelName::new(n))
                    .collect();
                let is_small = |n: RelName| small.contains(&n);
                let compiled = PassCompiler::new(&catalog, &is_small)
                    .compile(&e)
                    .expect("compiles");
                let whole = e.eval(&db).expect("evaluates");
                for memoize in [true, false] {
                    let got = Pass::new(&db, memoize).eval(&compiled).expect("evaluates");
                    tk_ensure!(
                        *got == whole,
                        "memoize {memoize}, delta-sized {small:?}: {e}\n{got:?}\n!= {whole:?}"
                    );
                }
                Ok(())
            },
        );
}
