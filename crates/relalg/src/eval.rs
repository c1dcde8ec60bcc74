//! Expression evaluation.
//!
//! A straightforward but non-naive evaluator: joins are hash joins keyed
//! on the common attributes (building on the smaller input, probing with
//! a reused borrowed-value scratch key), selections compile their
//! predicate once, projections precompute positional mappings. Set
//! semantics fall out of [`Relation`]'s ordered-set storage.
//!
//! ## One thread
//!
//! Evaluation runs on the calling thread, children left to right, so
//! the leftmost error is the one reported. The memo cache
//! ([`EvalCache`]) is keyed by `Arc<RaExpr>` with a precomputed
//! structural hash, so a hit or an insert never clones or re-walks an
//! expression tree. (DESIGN.md, "Evaluation is serial, and why", has
//! the measurements that retired the fork–join layer.)

use crate::attrs::AttrSet;
use crate::columns::{Code, Columns, KeyIndex};
use crate::database::DbState;
use crate::error::{RelalgError, Result};
use crate::expr::{rename_header, RaExpr};
use crate::relation::Relation;
use crate::tuple::ColSource;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A process-stable structural hash (SipHash with fixed keys via
/// [`DefaultHasher::new`]): identical expressions hash identically,
/// independent of any `RandomState`.
fn stable_hash(expr: &RaExpr) -> u64 {
    let mut h = DefaultHasher::new();
    expr.hash(&mut h);
    h.finish()
}

/// A memo-cache key: a shared expression handle plus its precomputed
/// structural hash. Hashing writes the stored hash (no tree walk), and
/// equality fast-paths on pointer identity — substitution shares
/// untouched subtrees, so repeated subexpressions usually *are* the same
/// allocation.
struct CacheKey {
    hash: u64,
    expr: Arc<RaExpr>,
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.expr, &other.expr) || self.expr == other.expr)
    }
}

impl Eq for CacheKey {}

/// A memoization cache for [`eval_cached`]. Entries are keyed by shared
/// expression handles with precomputed hashes, so a hit or an insert
/// never clones an expression tree.
///
/// The cache is only valid for the database state it was filled against;
/// the maintenance layer creates one per update application, on the one
/// thread that runs the pass (the `RefCell` makes the type `!Sync`).
#[derive(Default)]
pub struct EvalCache {
    map: RefCell<HashMap<CacheKey, Arc<Relation>>>,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    fn get(&self, hash: u64, expr: &Arc<RaExpr>) -> Option<Arc<Relation>> {
        let key = CacheKey { hash, expr: Arc::clone(expr) };
        self.map.borrow().get(&key).cloned()
    }

    fn insert(&self, hash: u64, expr: &Arc<RaExpr>, rel: Arc<Relation>) {
        let key = CacheKey { hash, expr: Arc::clone(expr) };
        self.map.borrow_mut().insert(key, rel);
    }

    /// Number of memoized subexpressions.
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// True iff nothing has been memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a structurally equal expression has been memoized (test
    /// and diagnostics helper — takes the linear-time structural hash).
    pub fn contains(&self, expr: &RaExpr) -> bool {
        let hash = stable_hash(expr);
        self.map.borrow().keys().any(|k| k.hash == hash && *k.expr == *expr)
    }
}

/// Evaluates `expr` against `db`, producing a fresh relation.
pub fn eval(expr: &RaExpr, db: &DbState) -> Result<Relation> {
    let arc = eval_arc(expr, db)?;
    Ok(Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone()))
}

/// Evaluation producing a shareable handle; base references are returned
/// without copying their tuples.
pub fn eval_arc(expr: &RaExpr, db: &DbState) -> Result<Arc<Relation>> {
    // Children are Arc-shared, so this clone is a shallow spine copy.
    eval_rec(&Arc::new(expr.clone()), db, None)
}

/// Memoizing evaluation: identical subexpressions are evaluated once per
/// cache lifetime. The warehouse maintenance plans share one cache across
/// all maintenance expressions of a single update, where the delta rules
/// repeat large reconstruction subtrees; the cache must not outlive the
/// database state it was filled against.
pub fn eval_cached(expr: &RaExpr, db: &DbState, cache: &EvalCache) -> Result<Arc<Relation>> {
    eval_rec(&Arc::new(expr.clone()), db, Some(cache))
}

/// The recursive core shared by [`eval_arc`] and [`eval_cached`]:
/// consults/fills the optional cache around a left-to-right walk.
fn eval_rec(
    expr: &Arc<RaExpr>,
    db: &DbState,
    cache: Option<&EvalCache>,
) -> Result<Arc<Relation>> {
    let hash = cache.map(|c| (c, stable_hash(expr.as_ref())));
    if let Some((c, h)) = hash {
        if let Some(hit) = c.get(h, expr) {
            return Ok(hit);
        }
    }
    let result: Arc<Relation> = match expr.as_ref() {
        RaExpr::Base(name) => db.relation_shared(*name)?,
        RaExpr::Empty(attrs) => Arc::new(Relation::empty(attrs.clone())),
        RaExpr::Select(input, pred) => {
            let rel = eval_rec(input, db, cache)?;
            let compiled = pred.compile(rel.attrs())?;
            Arc::new(rel.select_compiled(&compiled))
        }
        RaExpr::Project(input, wanted) => Arc::new(eval_rec(input, db, cache)?.project(wanted)?),
        RaExpr::Join(l, r) => {
            let (l, r) = (eval_rec(l, db, cache)?, eval_rec(r, db, cache)?);
            Arc::new(natural_join(&l, &r)?)
        }
        RaExpr::Union(l, r) => {
            let (l, r) = (eval_rec(l, db, cache)?, eval_rec(r, db, cache)?);
            Arc::new(l.union(&r)?)
        }
        RaExpr::Diff(l, r) => {
            let (l, r) = (eval_rec(l, db, cache)?, eval_rec(r, db, cache)?);
            Arc::new(l.difference(&r)?)
        }
        RaExpr::Intersect(l, r) => {
            let (l, r) = (eval_rec(l, db, cache)?, eval_rec(r, db, cache)?);
            Arc::new(l.intersect(&r)?)
        }
        RaExpr::Rename(input, pairs) => {
            let rel = eval_rec(input, db, cache)?;
            Arc::new(rename_relation(&rel, pairs)?)
        }
    };
    if let Some((c, h)) = hash {
        c.insert(h, expr, Arc::clone(&result));
    }
    Ok(result)
}

/// Natural join of two relation instances. Degenerates to the cartesian
/// product when the headers are disjoint and to intersection when they are
/// equal. The join probes the *larger* side's cached sorted key index
/// ([`crate::columns::KeyIndex`]) with the smaller side's key codes — the
/// index is built once per column store and shared through its `Arc`, so
/// repeated joins against a stored relation (maintenance plans, the eval
/// cache, epoch readers) skip the build entirely. Matched row pairs are
/// gathered column-wise and canonicalized in one batch, so the result is
/// independent of probe order.
pub fn natural_join(left: &Relation, right: &Relation) -> Result<Relation> {
    if left.attrs() == right.attrs() {
        return left.intersect(right);
    }
    let common = left.attrs().intersect(right.attrs());
    let out_attrs = left.attrs().union(right.attrs());
    if left.is_empty() || right.is_empty() {
        return Ok(Relation::empty(out_attrs));
    }
    // Index the larger side, probe with the smaller.
    let (big, small) = if left.len() >= right.len() {
        (left, right)
    } else {
        (right, left)
    };
    // `big` plays "left" in the output layout; common attributes carry
    // equal values on both sides, so the choice does not affect results.
    let layout = join_layout(big.attrs(), small.attrs(), &out_attrs)?;
    let bcols = big.columns();
    let scols = small.columns();

    let pairs: Vec<(u32, u32)> = if common.is_empty() {
        // Cartesian product.
        (0..bcols.len() as u32)
            .flat_map(|b| (0..scols.len() as u32).map(move |s| (b, s)))
            .collect()
    } else {
        let big_positions =
            common
                .positions_in(big.attrs())
                .ok_or_else(|| RelalgError::ProjectionNotSubset {
                    wanted: common.clone(),
                    header: big.attrs().clone(),
                })?;
        let small_positions =
            common
                .positions_in(small.attrs())
                .ok_or_else(|| RelalgError::ProjectionNotSubset {
                    wanted: common.clone(),
                    header: small.attrs().clone(),
                })?;
        let index = bcols.index_for(&big_positions);
        probe_pairs(bcols, scols, &index, &small_positions)
    };

    // Column-wise gather of the matched pairs, then one canonicalization.
    let arity = layout.len();
    let mut flat: Vec<Code> = Vec::with_capacity(pairs.len() * arity);
    for &(b, s) in &pairs {
        for src in &layout {
            flat.push(match *src {
                ColSource::Left(i) => bcols.col(i)[b as usize],
                ColSource::Right(i) => scols.col(i)[s as usize],
            });
        }
    }
    Ok(Relation::from_parts(
        out_attrs,
        Columns::from_unsorted_rows(arity, pairs.len(), flat),
    ))
}

/// Probes the big side's key index with every small-side row, emitting
/// matching `(big_row, small_row)` pairs. Pure `u32` work: the key
/// scratch is reused and no value is resolved or hashed.
fn probe_pairs(
    big: &Columns,
    small: &Columns,
    index: &KeyIndex,
    small_positions: &[usize],
) -> Vec<(u32, u32)> {
    let mut key: Vec<Code> = vec![0; small_positions.len()];
    let mut out = Vec::new();
    for s in 0..small.len() as u32 {
        for (k, &p) in key.iter_mut().zip(small_positions) {
            *k = small.col(p)[s as usize];
        }
        for &b in index.probe(big, &key) {
            out.push((b, s));
        }
    }
    out
}

/// For each output column, where to fetch it from: common and left-only
/// attributes come from the left (build) tuple, right-only attributes from
/// the right (probe) tuple.
fn join_layout(left: &AttrSet, right: &AttrSet, out: &AttrSet) -> Result<Vec<ColSource>> {
    out.iter()
        .map(|a| {
            if let Some(i) = left.index_of(a) {
                Ok(ColSource::Left(i))
            } else {
                right
                    .index_of(a)
                    .map(ColSource::Right)
                    .ok_or(RelalgError::UnknownAttribute {
                        attr: a,
                        header: right.clone(),
                    })
            }
        })
        .collect()
}

/// Applies an attribute renaming to an instance; the tuple layout is
/// permuted to match the new sorted header.
pub fn rename_relation(rel: &Relation, pairs: &[(crate::symbol::Attr, crate::symbol::Attr)]) -> Result<Relation> {
    let new_header = rename_header(rel.attrs(), pairs)?;
    // old attr for each new attr
    let back: Vec<usize> = new_header
        .iter()
        .map(|new_attr| {
            let old_attr = pairs
                .iter()
                .find(|(_, t)| *t == new_attr)
                .map(|&(f, _)| f)
                .unwrap_or(new_attr);
            rel.attrs()
                .index_of(old_attr)
                .ok_or(RelalgError::UnknownAttribute {
                    attr: old_attr,
                    header: rel.attrs().clone(),
                })
        })
        .collect::<Result<_>>()?;
    // Same codes, permuted columns: gather row-major through `back` and
    // canonicalize once for the new header's sort order.
    let cols = rel.columns();
    let arity = back.len();
    let mut flat: Vec<Code> = Vec::with_capacity(cols.len() * arity);
    for i in 0..cols.len() {
        for &p in &back {
            flat.push(cols.col(p)[i]);
        }
    }
    Ok(Relation::from_parts(
        new_header,
        Columns::from_unsorted_rows(arity, cols.len(), flat),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::rel;
    use crate::symbol::Attr;

    fn fig1_db() -> DbState {
        let mut d = DbState::new();
        d.insert_relation(
            "Sale",
            rel! { ["item", "clerk"] => ("TV set", "Mary"), ("VCR", "Mary"), ("PC", "John") },
        );
        d.insert_relation(
            "Emp",
            rel! { ["clerk", "age"] => ("Mary", 23), ("John", 25), ("Paula", 32) },
        );
        d
    }

    #[test]
    fn eval_cached_agrees_with_eval_and_hits() {
        let db = fig1_db();
        let cache = EvalCache::new();
        let e = RaExpr::parse(
            "pi[clerk]((Sale join Emp)) union pi[clerk]((Sale join Emp))",
        )
        .unwrap();
        let cached = eval_cached(&e, &db, &cache).unwrap();
        assert_eq!(*cached, e.eval(&db).unwrap());
        // The join and its projection each appear once in the cache even
        // though the expression contains them twice.
        let join = RaExpr::parse("Sale join Emp").unwrap();
        assert!(cache.contains(&join));
        let before = cache.len();
        // Cache reuse across a second evaluation.
        let again = eval_cached(&e, &db, &cache).unwrap();
        assert_eq!(again, cached);
        assert_eq!(cache.len(), before);
    }

    #[test]
    fn base_and_empty() {
        let db = fig1_db();
        assert_eq!(RaExpr::base("Sale").eval(&db).unwrap().len(), 3);
        assert!(RaExpr::base("Nope").eval(&db).is_err());
        let e = RaExpr::empty(AttrSet::from_names(&["x"]));
        assert_eq!(e.eval(&db).unwrap().len(), 0);
    }

    #[test]
    fn fig1_sold_join() {
        // Sold = Sale ⋈ Emp has 3 tuples (Paula sells nothing).
        let db = fig1_db();
        let sold = RaExpr::base("Sale").join(RaExpr::base("Emp")).eval(&db).unwrap();
        assert_eq!(sold.len(), 3);
        assert_eq!(sold.attrs(), &AttrSet::from_names(&["age", "clerk", "item"]));
        // Check one joined tuple: (23, 'Mary', 'TV set') in {age, clerk, item} order.
        let expected = rel! { ["age", "clerk", "item"] =>
            (23, "Mary", "TV set"), (23, "Mary", "VCR"), (25, "John", "PC") };
        assert_eq!(sold, expected);
    }

    #[test]
    fn join_disjoint_headers_is_product() {
        let mut db = DbState::new();
        db.insert_relation("A", rel! { ["x"] => (1,), (2,) });
        db.insert_relation("B", rel! { ["y"] => (10,), (20,), (30,) });
        let p = RaExpr::base("A").join(RaExpr::base("B")).eval(&db).unwrap();
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn join_equal_headers_is_intersection() {
        let mut db = DbState::new();
        db.insert_relation("A", rel! { ["x"] => (1,), (2,) });
        db.insert_relation("B", rel! { ["x"] => (2,), (3,) });
        let p = RaExpr::base("A").join(RaExpr::base("B")).eval(&db).unwrap();
        assert_eq!(p, rel! { ["x"] => (2,) });
    }

    #[test]
    fn join_with_empty_side() {
        let mut db = DbState::new();
        db.insert_relation("A", rel! { ["x"] => (1,) });
        db.insert_relation("B", Relation::empty(AttrSet::from_names(&["x", "y"])));
        let p = RaExpr::base("A").join(RaExpr::base("B")).eval(&db).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.attrs(), &AttrSet::from_names(&["x", "y"]));
    }

    #[test]
    fn select_and_project() {
        let db = fig1_db();
        let q = RaExpr::base("Sale")
            .select(Predicate::attr_eq("clerk", "Mary"))
            .project_names(&["item"]);
        let r = q.eval(&db).unwrap();
        assert_eq!(r, rel! { ["item"] => ("TV set",), ("VCR",) });
    }

    #[test]
    fn union_diff_intersect() {
        let db = fig1_db();
        let sale_clerks = RaExpr::base("Sale").project_names(&["clerk"]);
        let emp_clerks = RaExpr::base("Emp").project_names(&["clerk"]);
        let union = sale_clerks.clone().union(emp_clerks.clone()).eval(&db).unwrap();
        assert_eq!(union, rel! { ["clerk"] => ("Mary",), ("John",), ("Paula",) });
        let diff = emp_clerks.clone().diff(sale_clerks.clone()).eval(&db).unwrap();
        assert_eq!(diff, rel! { ["clerk"] => ("Paula",) });
        let both = emp_clerks.intersect(sale_clerks).eval(&db).unwrap();
        assert_eq!(both, rel! { ["clerk"] => ("Mary",), ("John",) });
    }

    #[test]
    fn example_11_complement_c1() {
        // C1 = Emp ∖ π_{clerk,age}(Sold) = {(Paula, 32)}.
        let db = fig1_db();
        let sold = RaExpr::base("Sale").join(RaExpr::base("Emp"));
        let c1 = RaExpr::base("Emp").diff(sold.project_names(&["clerk", "age"]));
        let r = c1.eval(&db).unwrap();
        assert_eq!(r, rel! { ["clerk", "age"] => ("Paula", 32) });
    }

    #[test]
    fn rename_eval_permutes_layout() {
        let db = fig1_db();
        let e = RaExpr::base("Emp").rename(vec![(Attr::new("age"), Attr::new("years"))]);
        let r = e.eval(&db).unwrap();
        assert_eq!(r.attrs(), &AttrSet::from_names(&["clerk", "years"]));
        // {clerk, years}: clerk first now (was age first in {age, clerk}).
        let expected = rel! { ["clerk", "years"] => ("Mary", 23), ("John", 25), ("Paula", 32) };
        assert_eq!(r, expected);
    }

    #[test]
    fn rename_then_join_on_new_name() {
        // Self-join Emp with a renamed copy to find pairs with equal age.
        let mut db = fig1_db();
        db.insert_relation("Emp2", rel! { ["colleague", "age"] => ("Zoe", 23), ("Abe", 40) });
        let e = RaExpr::base("Emp").join(RaExpr::base("Emp2"));
        let r = e.eval(&db).unwrap();
        // join on common attr age: Mary(23) matches Zoe(23).
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn build_side_swap_is_transparent() {
        // Larger left side triggers the swap; result must be identical.
        let mut db = DbState::new();
        db.insert_relation("Big", rel! { ["k", "a"] => (1, 10), (2, 20), (3, 30), (4, 40) });
        db.insert_relation("Small", rel! { ["k", "b"] => (2, 200), (3, 300) });
        let ab = RaExpr::base("Big").join(RaExpr::base("Small")).eval(&db).unwrap();
        let ba = RaExpr::base("Small").join(RaExpr::base("Big")).eval(&db).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 2);
    }
}
