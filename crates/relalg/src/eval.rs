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
//! ([`EvalCache`]) is keyed by `Arc<RaExpr>` plus a structural hash.
//! [`eval_cached`] hashes the whole tree once, bottom-up (each node's
//! hash is folded from its children's), so a lookup or an insert never
//! re-hashes a subtree; a hit on a different allocation of an equal
//! expression still compares the two trees. (DESIGN.md, "Evaluation is
//! serial, and why", has the measurements that retired the fork–join
//! layer.)
//!
//! ## Maintenance passes
//!
//! [`PassCompiler`] compiles a maintenance plan's expressions once into
//! hash-consed [`PassExpr`] trees that know, per node, their header and
//! whether they are *delta-sized* (built from the reported `@ins`/`@del`
//! relations). A [`Pass`] evaluates them so that the work is
//! proportional to the delta: a join, difference or intersection with a
//! delta-sized operand evaluates that operand first and evaluates the
//! other one only *restricted* to the keys it produced — the restriction
//! is pushed through σ/π/ρ/∪/∖/∩/⋈ and through named expansions (the
//! warehouse's inverse expressions) down to key-index probes of stored
//! relations. Everything else is evaluated whole, exactly as
//! [`eval_cached`] would.

use crate::attrs::AttrSet;
use crate::columns::{self, Code, Columns, KeyIndex};
use crate::database::DbState;
use crate::error::{RelalgError, Result};
use crate::expr::{rename_header, HeaderResolver, RaExpr};
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::symbol::{Attr, RelName};
use crate::tuple::ColSource;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A node's structural hash, from its variant, its own fields and its
/// children's hashes. SipHash with fixed keys
/// ([`DefaultHasher::new`]), so equal expressions hash equally in every
/// process, independent of any `RandomState`.
fn node_hash(e: &RaExpr, children: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    std::mem::discriminant(e).hash(&mut h);
    match e {
        RaExpr::Base(name) => name.hash(&mut h),
        RaExpr::Empty(attrs) | RaExpr::Project(_, attrs) => attrs.hash(&mut h),
        RaExpr::Select(_, pred) => pred.hash(&mut h),
        RaExpr::Rename(_, pairs) => pairs.hash(&mut h),
        RaExpr::Join(..) | RaExpr::Union(..) | RaExpr::Diff(..) | RaExpr::Intersect(..) => {}
    }
    for &c in children {
        h.write_u64(c);
    }
    h.finish()
}

/// The children of a node, left to right.
fn children(e: &RaExpr) -> [Option<&Arc<RaExpr>>; 2] {
    match e {
        RaExpr::Base(_) | RaExpr::Empty(_) => [None, None],
        RaExpr::Select(i, _) | RaExpr::Project(i, _) | RaExpr::Rename(i, _) => [Some(i), None],
        RaExpr::Join(l, r) | RaExpr::Union(l, r) | RaExpr::Diff(l, r) | RaExpr::Intersect(l, r) => {
            [Some(l), Some(r)]
        }
    }
}

/// Appends the structural hash and subtree size of every node of `e` in
/// pre-order, computing each hash from its children's: one walk, each
/// node hashed once. Returns the hash of `e`.
fn hash_tree(e: &RaExpr, out: &mut Vec<(u64, usize)>) -> u64 {
    let slot = out.len();
    out.push((0, 0));
    let mut kids = [0u64; 2];
    let mut n = 0;
    for child in children(e).into_iter().flatten() {
        kids[n] = hash_tree(child, out);
        n += 1;
    }
    let hash = node_hash(e, &kids[..n]);
    out[slot] = (hash, out.len() - slot);
    hash
}

/// A memo-cache key: a shared expression handle plus its structural
/// hash. Hashing writes the stored hash (no tree walk), and equality
/// fast-paths on pointer identity — substitution shares untouched
/// subtrees, so repeated subexpressions usually *are* the same
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
/// expression handles with their structural hashes, so a hit or an
/// insert never clones an expression tree.
///
/// The cache is only valid for the database state it was filled against;
/// callers create one per evaluation batch, on one thread (the `RefCell`
/// makes the type `!Sync`).
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
    /// and diagnostics helper).
    pub fn contains(&self, expr: &RaExpr) -> bool {
        let hash = hash_tree(expr, &mut Vec::new());
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
    eval_rec(&Arc::new(expr.clone()), db, None, 0)
}

/// Memoizing evaluation: identical subexpressions are evaluated once per
/// cache lifetime. Reconstruction and materialization share one cache
/// across every definition of a warehouse, whose inverse subtrees
/// repeat; the cache must not outlive the database state it was filled
/// against.
pub fn eval_cached(expr: &RaExpr, db: &DbState, cache: &EvalCache) -> Result<Arc<Relation>> {
    let mut hashes = Vec::new();
    hash_tree(expr, &mut hashes);
    eval_rec(&Arc::new(expr.clone()), db, Some((cache, &hashes)), 0)
}

/// The recursive core shared by [`eval_arc`] and [`eval_cached`]:
/// consults/fills the optional cache around a left-to-right walk. With a
/// cache, `hashes` holds [`hash_tree`]'s pre-order table and `at` is
/// this node's slot in it.
fn eval_rec(
    expr: &Arc<RaExpr>,
    db: &DbState,
    cache: Option<(&EvalCache, &[(u64, usize)])>,
    at: usize,
) -> Result<Arc<Relation>> {
    let hash = cache.map(|(c, hashes)| (c, hashes[at].0));
    if let Some((c, h)) = hash {
        if let Some(hit) = c.get(h, expr) {
            return Ok(hit);
        }
    }
    // Slots of the children: the first follows this node, the second
    // follows the first child's subtree.
    let left = at + 1;
    let right = match (cache, children(expr)) {
        (Some((_, hashes)), [Some(_), Some(_)]) => left + hashes[left].1,
        _ => 0,
    };
    let result: Arc<Relation> = match expr.as_ref() {
        RaExpr::Base(name) => db.relation_shared(*name)?,
        RaExpr::Empty(attrs) => Arc::new(Relation::empty(attrs.clone())),
        RaExpr::Select(input, pred) => {
            let rel = eval_rec(input, db, cache, left)?;
            let compiled = pred.compile(rel.attrs())?;
            Arc::new(rel.select_compiled(&compiled))
        }
        RaExpr::Project(input, wanted) => {
            Arc::new(eval_rec(input, db, cache, left)?.project(wanted)?)
        }
        RaExpr::Join(l, r) => {
            let (l, r) = (eval_rec(l, db, cache, left)?, eval_rec(r, db, cache, right)?);
            Arc::new(natural_join(&l, &r)?)
        }
        RaExpr::Union(l, r) => {
            let (l, r) = (eval_rec(l, db, cache, left)?, eval_rec(r, db, cache, right)?);
            Arc::new(l.union(&r)?)
        }
        RaExpr::Diff(l, r) => {
            let (l, r) = (eval_rec(l, db, cache, left)?, eval_rec(r, db, cache, right)?);
            Arc::new(l.difference(&r)?)
        }
        RaExpr::Intersect(l, r) => {
            let (l, r) = (eval_rec(l, db, cache, left)?, eval_rec(r, db, cache, right)?);
            Arc::new(l.intersect(&r)?)
        }
        RaExpr::Rename(input, pairs) => {
            let rel = eval_rec(input, db, cache, left)?;
            Arc::new(rename_relation(&rel, pairs)?)
        }
    };
    if let Some((c, h)) = hash {
        c.insert(h, expr, Arc::clone(&result));
    }
    Ok(result)
}

/// One node of a compiled maintenance expression ([`PassExpr`]).
#[derive(Debug)]
struct PassNode {
    /// Structural hash (from the children's hashes; used for
    /// hash-consing at compile time).
    hash: u64,
    /// The node's output header.
    attrs: AttrSet,
    /// Delta-sized: built from the reported deltas, so evaluating it
    /// whole costs `O(|Δ| · fan-out)` (see [`PassCompiler`]).
    small: bool,
    op: PassOp,
}

#[derive(Debug)]
enum PassOp {
    Rel(RelName),
    Empty,
    Select(Arc<PassNode>, Predicate),
    Project(Arc<PassNode>),
    Rename(Arc<PassNode>, Vec<(Attr, Attr)>),
    Join(Arc<PassNode>, Arc<PassNode>),
    Union(Arc<PassNode>, Arc<PassNode>),
    Diff(Arc<PassNode>, Arc<PassNode>),
    Intersect(Arc<PassNode>, Arc<PassNode>),
}

impl PassOp {
    fn kids(&self) -> [Option<&Arc<PassNode>>; 2] {
        match self {
            PassOp::Rel(_) | PassOp::Empty => [None, None],
            PassOp::Select(i, _) | PassOp::Project(i) | PassOp::Rename(i, _) => [Some(i), None],
            PassOp::Join(l, r) | PassOp::Union(l, r) | PassOp::Diff(l, r) | PassOp::Intersect(l, r) => {
                [Some(l), Some(r)]
            }
        }
    }

    /// Equality for hash-consing: children are already consed, so equal
    /// subtrees are the same allocation and compare by pointer.
    fn same(&self, other: &PassOp) -> bool {
        let kids_same = self
            .kids()
            .iter()
            .zip(other.kids().iter())
            .all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            });
        kids_same
            && match (self, other) {
                (PassOp::Rel(a), PassOp::Rel(b)) => a == b,
                (PassOp::Empty, PassOp::Empty)
                | (PassOp::Project(_), PassOp::Project(_))
                | (PassOp::Join(..), PassOp::Join(..))
                | (PassOp::Union(..), PassOp::Union(..))
                | (PassOp::Diff(..), PassOp::Diff(..))
                | (PassOp::Intersect(..), PassOp::Intersect(..)) => true,
                (PassOp::Select(_, a), PassOp::Select(_, b)) => a == b,
                (PassOp::Rename(_, a), PassOp::Rename(_, b)) => a == b,
                _ => false,
            }
    }
}

/// A maintenance expression compiled by a [`PassCompiler`]: hash-consed
/// (equal subtrees of every expression compiled by one compiler are one
/// allocation, so a [`Pass`] evaluates each once), with headers and
/// delta-sizedness decided per node.
#[derive(Clone, Debug)]
pub struct PassExpr {
    root: Arc<PassNode>,
}

impl PassExpr {
    /// Whether the whole expression is delta-sized, i.e. a [`Pass`]
    /// evaluates it in `O(|Δ| · fan-out)` without reading any stored
    /// relation whole.
    pub fn is_delta_sized(&self) -> bool {
        self.root.small
    }
}

/// Compiles expressions into [`PassExpr`]s. The caller names the
/// *delta-sized* relations (the reported `@ins`/`@del` deltas and
/// relations known to be empty) and may *expand* names into
/// expressions (the warehouse's `R@inv ↦ W⁻¹(R)`), which a pass then
/// evaluates — whole or restricted — in place of an environment lookup.
///
/// Delta-sizedness is structural: a leaf is delta-sized iff the caller
/// says so; σ/π/ρ inherit it; `A ∪ B` needs both operands; `A ∖ B`
/// needs `A`; `A ∩ B` needs either; `A ⋈ B` needs either *and* a shared
/// attribute (a cartesian product with a whole relation is not
/// delta-sized).
pub struct PassCompiler<'a> {
    headers: &'a dyn HeaderResolver,
    small: &'a dyn Fn(RelName) -> bool,
    expansions: HashMap<RelName, RaExpr>,
    expanded: HashMap<RelName, Arc<PassNode>>,
    consed: HashMap<u64, Vec<Arc<PassNode>>>,
}

impl<'a> PassCompiler<'a> {
    /// A compiler resolving leaf headers through `headers` and asking
    /// `small` which leaves are delta-sized.
    pub fn new(headers: &'a dyn HeaderResolver, small: &'a dyn Fn(RelName) -> bool) -> Self {
        PassCompiler {
            headers,
            small,
            expansions: HashMap::new(),
            expanded: HashMap::new(),
            consed: HashMap::new(),
        }
    }

    /// Evaluates every reference to `name` as `expr` instead (`expr` may
    /// reference other expanded names, but not `name` itself).
    pub fn expand(&mut self, name: RelName, expr: RaExpr) {
        self.expansions.insert(name, expr);
    }

    /// Compiles one expression.
    pub fn compile(&mut self, e: &RaExpr) -> Result<PassExpr> {
        Ok(PassExpr { root: self.node(e)? })
    }

    fn node(&mut self, e: &RaExpr) -> Result<Arc<PassNode>> {
        let (op, attrs, small) = match e {
            RaExpr::Base(name) => {
                if let Some(n) = self.expanded.get(name) {
                    return Ok(Arc::clone(n));
                }
                if let Some(x) = self.expansions.remove(name) {
                    let n = self.node(&x)?;
                    self.expanded.insert(*name, Arc::clone(&n));
                    return Ok(n);
                }
                (PassOp::Rel(*name), self.headers.header_of(*name)?, (self.small)(*name))
            }
            RaExpr::Empty(attrs) => (PassOp::Empty, attrs.clone(), true),
            RaExpr::Select(i, p) => {
                let i = self.node(i)?;
                let (attrs, small) = (i.attrs.clone(), i.small);
                (PassOp::Select(i, p.clone()), attrs, small)
            }
            RaExpr::Project(i, attrs) => {
                let i = self.node(i)?;
                let small = i.small;
                (PassOp::Project(i), attrs.clone(), small)
            }
            RaExpr::Rename(i, pairs) => {
                let i = self.node(i)?;
                let (attrs, small) = (rename_header(&i.attrs, pairs)?, i.small);
                (PassOp::Rename(i, pairs.clone()), attrs, small)
            }
            RaExpr::Join(l, r) => {
                let (l, r) = (self.node(l)?, self.node(r)?);
                let keyed = !l.attrs.is_disjoint(&r.attrs);
                let small = (l.small && r.small) || ((l.small || r.small) && keyed);
                let attrs = l.attrs.union(&r.attrs);
                (PassOp::Join(l, r), attrs, small)
            }
            RaExpr::Union(l, r) => {
                let (l, r) = (self.node(l)?, self.node(r)?);
                let (attrs, small) = (l.attrs.clone(), l.small && r.small);
                (PassOp::Union(l, r), attrs, small)
            }
            RaExpr::Diff(l, r) => {
                let (l, r) = (self.node(l)?, self.node(r)?);
                let (attrs, small) = (l.attrs.clone(), l.small);
                (PassOp::Diff(l, r), attrs, small)
            }
            RaExpr::Intersect(l, r) => {
                let (l, r) = (self.node(l)?, self.node(r)?);
                let (attrs, small) = (l.attrs.clone(), l.small || r.small);
                (PassOp::Intersect(l, r), attrs, small)
            }
        };
        let kids: Vec<u64> = op.kids().iter().flatten().map(|k| k.hash).collect();
        let hash = node_hash(e, &kids);
        let bucket = self.consed.entry(hash).or_default();
        if let Some(n) = bucket.iter().find(|n| n.attrs == attrs && n.op.same(&op)) {
            return Ok(Arc::clone(n));
        }
        let n = Arc::new(PassNode { hash, attrs, small, op });
        bucket.push(Arc::clone(&n));
        Ok(n)
    }
}

/// One maintenance pass: evaluates [`PassExpr`]s against an environment
/// that grows as the pass publishes maintained relations, memoizing
/// every whole (exact) result by node, and counting the rows it touches.
pub struct Pass {
    env: DbState,
    memo: Option<HashMap<usize, Arc<Relation>>>,
    rows: u64,
}

impl Pass {
    /// A pass over `env`; `memoize: false` re-evaluates shared subtrees
    /// (the E14 ablation).
    pub fn new(env: DbState, memoize: bool) -> Pass {
        Pass {
            env,
            memo: memoize.then(HashMap::new),
            rows: 0,
        }
    }

    /// Makes `rel` visible to later evaluations as `name`. Results
    /// memoized so far stay valid: they cannot have read a name that was
    /// not yet published.
    pub fn bind(&mut self, name: RelName, rel: Relation) {
        self.env.insert_relation(name, rel);
    }

    /// Rows touched so far: every row an operator produced plus every key
    /// probed into a stored relation.
    pub fn rows_touched(&self) -> u64 {
        self.rows
    }

    /// Adds rows touched outside the evaluator (the caller's probes).
    pub fn count(&mut self, rows: usize) {
        self.rows += rows as u64;
    }

    /// The exact value of `e`.
    pub fn eval(&mut self, e: &PassExpr) -> Result<Arc<Relation>> {
        self.whole(&e.root)
    }

    fn empty(n: &PassNode) -> Arc<Relation> {
        Arc::new(Relation::empty(n.attrs.clone()))
    }

    /// The exact value of `n`, memoized. A join, difference or
    /// intersection with a delta-sized operand evaluates that operand
    /// first, stops if it is empty, and restricts the other operand to
    /// its keys.
    fn whole(&mut self, n: &Arc<PassNode>) -> Result<Arc<Relation>> {
        let key = Arc::as_ptr(n) as usize;
        if let Some(hit) = self.memo.as_ref().and_then(|m| m.get(&key)) {
            return Ok(Arc::clone(hit));
        }
        let out = match &n.op {
            PassOp::Rel(name) => return self.env.relation_shared(*name),
            PassOp::Empty => Pass::empty(n),
            PassOp::Select(i, pred) => {
                let rel = self.whole(i)?;
                Arc::new(rel.select_compiled(&pred.compile(rel.attrs())?))
            }
            PassOp::Project(i) => Arc::new(self.whole(i)?.project(&n.attrs)?),
            PassOp::Rename(i, pairs) => Arc::new(rename_relation(&*self.whole(i)?, pairs)?),
            PassOp::Union(l, r) => {
                let (a, b) = (self.whole(l)?, self.whole(r)?);
                Arc::new(a.union(&b)?)
            }
            PassOp::Join(l, r) | PassOp::Intersect(l, r) => {
                // Drive from the delta-sized side (the left when both are).
                let (first, second) = if !l.small && r.small { (r, l) } else { (l, r) };
                let a = self.whole(first)?;
                if a.is_empty() {
                    Pass::empty(n)
                } else {
                    let b = self.driven(first, &a, second)?;
                    Arc::new(match n.op {
                        PassOp::Join(..) => natural_join(&a, &b)?,
                        _ => a.intersect(&b)?,
                    })
                }
            }
            PassOp::Diff(l, r) => {
                let a = self.whole(l)?;
                if a.is_empty() {
                    a
                } else {
                    let b = self.driven(l, &a, r)?;
                    Arc::new(a.difference(&b)?)
                }
            }
        };
        self.rows += out.len() as u64;
        if let Some(memo) = self.memo.as_mut() {
            memo.insert(key, Arc::clone(&out));
        }
        Ok(out)
    }

    /// The operand `other` of a binary node whose operand `first`
    /// evaluated to `a`: restricted to `a`'s keys on their shared
    /// attributes when `first` is delta-sized, whole otherwise.
    fn driven(&mut self, first: &PassNode, a: &Relation, other: &Arc<PassNode>) -> Result<Arc<Relation>> {
        let shared = first.attrs.intersect(&other.attrs);
        if !first.small || shared.is_empty() {
            return self.whole(other);
        }
        let keys = if shared == *a.attrs() { a.clone() } else { a.project(&shared)? };
        self.restrict(other, &keys)
    }

    /// Some relation `R'` with `R' ⋉ keys = n ⋉ keys` (`keys`' header is
    /// a subset of `n`'s): exact on every row matching a key, arbitrary
    /// elsewhere. That is all a caller joining, subtracting or
    /// intersecting against rows carrying those keys can observe, and it
    /// composes through every operator; over-approximating (returning
    /// more rows, up to the whole of `n`) is always sound.
    fn restrict(&mut self, n: &Arc<PassNode>, keys: &Relation) -> Result<Arc<Relation>> {
        if n.small || keys.attrs().is_empty() {
            return self.whole(n);
        }
        if keys.is_empty() {
            return Ok(Pass::empty(n));
        }
        let out = match &n.op {
            PassOp::Rel(name) => {
                let rel = self.env.relation_shared(*name)?;
                self.rows += keys.len() as u64;
                semijoin(&rel, keys)?
            }
            PassOp::Empty => Pass::empty(n),
            PassOp::Select(i, pred) => {
                let rel = self.restrict(i, keys)?;
                Arc::new(rel.select_compiled(&pred.compile(rel.attrs())?))
            }
            PassOp::Project(i) => Arc::new(self.restrict(i, keys)?.project(&n.attrs)?),
            PassOp::Rename(i, pairs) => {
                let back: Vec<(Attr, Attr)> = pairs
                    .iter()
                    .filter(|(_, to)| keys.attrs().contains(*to))
                    .map(|&(from, to)| (to, from))
                    .collect();
                let inner = self.restrict(i, &rename_relation(keys, &back)?)?;
                Arc::new(rename_relation(&inner, pairs)?)
            }
            PassOp::Union(l, r) => {
                let (a, b) = (self.restrict(l, keys)?, self.restrict(r, keys)?);
                Arc::new(a.union(&b)?)
            }
            PassOp::Diff(l, r) | PassOp::Intersect(l, r) => {
                let a = self.restrict(l, keys)?;
                if a.is_empty() {
                    a
                } else {
                    let b = self.restrict(r, keys)?;
                    Arc::new(match n.op {
                        PassOp::Diff(..) => a.difference(&b)?,
                        _ => a.intersect(&b)?,
                    })
                }
            }
            PassOp::Join(l, r) => {
                // Restrict the side the keys reach (the left when both
                // do), then the other side to the first's join keys.
                let (first, second) = if keys.attrs().is_disjoint(&l.attrs) { (r, l) } else { (l, r) };
                let reach = keys.attrs().intersect(&first.attrs);
                let first_keys = if reach == *keys.attrs() { keys.clone() } else { keys.project(&reach)? };
                let a = self.restrict(first, &first_keys)?;
                if a.is_empty() {
                    Pass::empty(n)
                } else {
                    let shared = first.attrs.intersect(&second.attrs);
                    let b = if shared.is_empty() {
                        self.whole(second)?
                    } else {
                        self.restrict(second, &a.project(&shared)?)?
                    };
                    Arc::new(natural_join(&a, &b)?)
                }
            }
        };
        self.rows += out.len() as u64;
        Ok(out)
    }
}

/// `rel ⋉ keys` (`keys`' header a subset of `rel`'s): one probe of
/// `rel`'s cached key index per key row — or, on the whole header, one
/// binary search of canonical order. With as many keys as a quarter of
/// `rel`, probing would cost more than the relation itself, which is then
/// returned whole (a sound over-approximation, see [`Pass`]).
fn semijoin(rel: &Arc<Relation>, keys: &Relation) -> Result<Arc<Relation>> {
    if keys.len().saturating_mul(4) >= rel.len() {
        return Ok(Arc::clone(rel));
    }
    let positions = keys
        .attrs()
        .positions_in(rel.attrs())
        .ok_or_else(|| RelalgError::ProjectionNotSubset {
            wanted: keys.attrs().clone(),
            header: rel.attrs().clone(),
        })?;
    let cols = rel.columns();
    let kcols = keys.columns();
    let rows = if positions.len() == rel.attrs().len() {
        columns::find_rows(cols, kcols)
    } else {
        let index = cols.index_for(&positions);
        let mut key: Vec<Code> = vec![0; positions.len()];
        let mut rows = Vec::new();
        for i in 0..kcols.len() {
            for (j, k) in key.iter_mut().enumerate() {
                *k = kcols.col(j)[i];
            }
            rows.extend_from_slice(index.probe(cols, &key));
        }
        rows.sort_unstable();
        rows.dedup();
        rows
    };
    Ok(Arc::new(Relation::from_parts(
        rel.attrs().clone(),
        cols.gather_sorted(&rows),
    )))
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
