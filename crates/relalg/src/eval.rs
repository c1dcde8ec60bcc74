//! Expression evaluation: one evaluator for queries, materialization,
//! reconstruction and maintenance.
//!
//! Every evaluation compiles its expressions with a [`PassCompiler`] into
//! hash-consed [`PassExpr`] trees and runs them through a [`Pass`].
//! Compilation type-checks each node against its operands' headers (the
//! checks of [`RaExpr::attrs`]), compiles every σ's predicate once into
//! its node, and decides per node whether it is *delta-sized*. Equal
//! subtrees of every expression one compiler compiles are one node.
//!
//! A pass evaluates a node *whole* (its exact value) or *restricted* to a
//! set of keys. Operators are non-naive: joins probe the larger side's
//! cached key index with the smaller side's codes, projections
//! precompute positional mappings, and set semantics fall out of
//! [`Relation`]'s ordered-set storage. A join, difference or
//! intersection with a delta-sized operand evaluates that operand first,
//! stops if it is empty, and evaluates the other operand only restricted
//! to the keys it produced — pushed through σ/π/ρ/∪/∖/∩/⋈ and through
//! named expansions (the warehouse's inverse expressions) down to
//! key-index probes of stored relations. A compiler that marks no leaf
//! delta-sized — [`eval`], [`eval_all`] — yields plain memoized whole
//! evaluation; maintenance marks the reported `@ins`/`@del` deltas.
//!
//! The memo lives as long as its [`Pass`]. It keeps the whole result of
//! every node the pass may meet more than once — a shared node, or a
//! delta-sized one, which restrictions evaluate whole — keyed by the
//! node, which the memo holds so that no other node can take its
//! address. A pass is only valid for the environment it
//! borrows plus what it [binds](Pass::bind) while it runs; [`eval`]
//! and [`eval_all`] make one per call.
//!
//! Evaluation runs on the calling thread, children left to right, and
//! every type error surfaces at compile time, so the leftmost error is
//! the one reported whatever a short-circuit skips. (DESIGN.md,
//! "Evaluation is serial, and why", has the measurements that retired
//! the fork–join layer.)

use crate::attrs::AttrSet;
use crate::columns::{self, Code, Columns, KeyIndex};
use crate::database::DbState;
use crate::error::{RelalgError, Result};
use crate::expr::{rename_header, HeaderResolver, RaExpr};
use crate::predicate::CompiledPred;
use crate::relation::Relation;
use crate::symbol::{Attr, RelName};
use crate::tuple::ColSource;
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Evaluates `expr` against `db`, producing a fresh relation.
pub fn eval(expr: &RaExpr, db: &DbState) -> Result<Relation> {
    let compiled = PassCompiler::new(db, &no_leaf).compile(expr)?;
    let mut pass = Pass::new(db, true);
    let rel = pass.eval(&compiled)?;
    drop(pass);
    Ok(Arc::unwrap_or_clone(rel))
}

/// Evaluates named expressions against `db` with one compiler and one
/// memoized pass, so a subexpression shared by several of them (or
/// repeated within one) is evaluated once, into a state holding each
/// result under its name. The error is that of the first expression, in
/// order, that does not type-check.
pub fn eval_all<N: Borrow<RelName>, E: Borrow<RaExpr>>(
    named: impl IntoIterator<Item = (N, E)>,
    db: &DbState,
) -> Result<DbState> {
    let mut compiler = PassCompiler::new(db, &no_leaf);
    let compiled = named
        .into_iter()
        .map(|(name, e)| Ok((*name.borrow(), compiler.compile(e.borrow())?)))
        .collect::<Result<Vec<_>>>()?;
    let mut pass = Pass::new(db, true);
    let mut out = DbState::new();
    for (name, e) in &compiled {
        out.insert_shared(*name, pass.eval(e)?);
    }
    Ok(out)
}

/// Marks no leaf delta-sized: whole evaluation.
fn no_leaf(_: RelName) -> bool {
    false
}

/// The multiply-rotate hash rustc uses internally, for maps keyed by what
/// the program makes — node addresses, interned names — and for a node's
/// content hash. Input can make content hashes collide, which only costs
/// consing; the consing table itself keeps the default hasher.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves an aligned address's low bits zero, and a
        // table picks its bucket from the low bits.
        self.0.rotate_left(26)
    }
}

type FxBuild = BuildHasherDefault<Fx>;

/// One node of a compiled expression ([`PassExpr`]).
#[derive(Debug)]
struct PassNode {
    /// The output header of an operator that defines one; empty for σ,
    /// ∪, ∖ and ∩, which keep their left input's ([`PassNode::attrs`]).
    header: AttrSet,
    /// Delta-sized: built from the reported deltas, so evaluating it
    /// whole costs `O(|Δ| · fan-out)` (see [`PassCompiler`]).
    small: bool,
    /// Reached from more than one place in what its compiler compiled;
    /// set when consing (or an expansion) finds the node again. A hint
    /// that publishes no other data (`Relaxed`): a stale read costs one
    /// re-evaluation, never a wrong result.
    shared: AtomicBool,
    op: PassOp,
}

impl PassNode {
    /// The node's output header.
    fn attrs(&self) -> &AttrSet {
        match &self.op {
            PassOp::Select(i, _)
            | PassOp::Union(i, _)
            | PassOp::Diff(i, _)
            | PassOp::Intersect(i, _) => i.attrs(),
            _ => &self.header,
        }
    }
}

/// A compiled subtree. Children are consed, so equal subtrees are one
/// allocation: a `Node` compares and hashes by address.
#[derive(Clone, Debug)]
struct Node(Arc<PassNode>);

impl Node {
    /// Whether a pass may meet the node's whole value more than once:
    /// it is shared, or delta-sized — the one kind of node a restriction
    /// evaluates whole, once per restricted ancestor.
    fn memoized(&self) -> bool {
        self.small || self.shared.load(Ordering::Relaxed)
    }

    fn share(&self) -> Node {
        self.shared.store(true, Ordering::Relaxed);
        self.clone()
    }
}

impl std::ops::Deref for Node {
    type Target = PassNode;

    fn deref(&self) -> &PassNode {
        &self.0
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Node {}

impl Hash for Node {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(Arc::as_ptr(&self.0) as usize);
    }
}

#[derive(Debug, PartialEq, Eq, Hash)]
enum PassOp {
    Rel(RelName),
    Empty,
    /// The predicate compiled over the input's header.
    Select(Node, CompiledPred),
    Project(Node),
    Rename(Node, Vec<(Attr, Attr)>),
    Join(Node, Node),
    Union(Node, Node),
    Diff(Node, Node),
    Intersect(Node, Node),
}

/// An expression compiled by a [`PassCompiler`]: hash-consed (equal
/// subtrees of every expression compiled by one compiler are one
/// allocation, so a [`Pass`] evaluates each once), type-checked, with
/// headers and delta-sizedness decided per node.
#[derive(Clone, Debug)]
pub struct PassExpr {
    root: Node,
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
/// relations known to be empty; none, for plain evaluation) and may
/// *expand* names into expressions (the warehouse's `R@inv ↦ W⁻¹(R)`),
/// which a pass then evaluates — whole or restricted — in place of an
/// environment lookup.
///
/// Compilation is the algebra's static type check: it fails, with the
/// leftmost offending node's error, on an unknown relation, a σ over an
/// attribute its input lacks, a π beyond its input's header, `∪`/`∖`/`∩`
/// over different headers, or an invalid ρ.
///
/// Delta-sizedness is structural: a leaf is delta-sized iff the caller
/// says so; σ/π/ρ inherit it; `A ∪ B` needs both operands; `A ∖ B`
/// needs `A`; `A ∩ B` needs either; `A ⋈ B` needs either *and* a shared
/// attribute (a cartesian product with a whole relation is not
/// delta-sized).
pub struct PassCompiler<'a> {
    headers: &'a dyn HeaderResolver,
    small: &'a dyn Fn(RelName) -> bool,
    expansions: HashMap<RelName, RaExpr, FxBuild>,
    expanded: HashMap<RelName, Node, FxBuild>,
    /// The first node compiled with each content hash. A different node
    /// with the same hash is left unconsed: consing only saves work.
    consed: HashMap<u64, Node>,
}

impl<'a> PassCompiler<'a> {
    /// A compiler resolving leaf headers through `headers` and asking
    /// `small` which leaves are delta-sized.
    pub fn new(headers: &'a dyn HeaderResolver, small: &'a dyn Fn(RelName) -> bool) -> Self {
        PassCompiler {
            headers,
            small,
            expansions: HashMap::default(),
            expanded: HashMap::default(),
            consed: HashMap::with_capacity(16),
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

    fn node(&mut self, e: &RaExpr) -> Result<Node> {
        let (op, attrs, small) = match e {
            RaExpr::Base(name) => {
                if let Some(n) = self.expanded.get(name) {
                    return Ok(n.share());
                }
                if let Some(x) = self.expansions.remove(name) {
                    let n = self.node(&x)?;
                    self.expanded.insert(*name, n.clone());
                    return Ok(n);
                }
                (PassOp::Rel(*name), self.headers.header_of(*name)?, (self.small)(*name))
            }
            RaExpr::Empty(attrs) => (PassOp::Empty, attrs.clone(), true),
            RaExpr::Select(i, p) => {
                let i = self.node(i)?;
                let compiled = p.compile(i.attrs())?;
                let small = i.small;
                (PassOp::Select(i, compiled), AttrSet::empty(), small)
            }
            RaExpr::Project(i, attrs) => {
                let i = self.node(i)?;
                if !attrs.is_subset(i.attrs()) {
                    return Err(RelalgError::ProjectionNotSubset {
                        wanted: attrs.clone(),
                        header: i.attrs().clone(),
                    });
                }
                let small = i.small;
                (PassOp::Project(i), attrs.clone(), small)
            }
            RaExpr::Rename(i, pairs) => {
                let i = self.node(i)?;
                let (attrs, small) = (rename_header(i.attrs(), pairs)?, i.small);
                (PassOp::Rename(i, pairs.clone()), attrs, small)
            }
            RaExpr::Join(l, r) => {
                let (l, r) = (self.node(l)?, self.node(r)?);
                let keyed = !l.attrs().is_disjoint(r.attrs());
                let small = (l.small && r.small) || ((l.small || r.small) && keyed);
                let attrs = l.attrs().union(r.attrs());
                (PassOp::Join(l, r), attrs, small)
            }
            RaExpr::Union(l, r) | RaExpr::Diff(l, r) | RaExpr::Intersect(l, r) => {
                let (l, r) = (self.node(l)?, self.node(r)?);
                if l.attrs() != r.attrs() {
                    return Err(RelalgError::HeaderMismatch {
                        left: l.attrs().clone(),
                        right: r.attrs().clone(),
                    });
                }
                let attrs = AttrSet::empty();
                match e {
                    RaExpr::Union(..) => {
                        let small = l.small && r.small;
                        (PassOp::Union(l, r), attrs, small)
                    }
                    RaExpr::Diff(..) => {
                        let small = l.small;
                        (PassOp::Diff(l, r), attrs, small)
                    }
                    _ => {
                        let small = l.small || r.small;
                        (PassOp::Intersect(l, r), attrs, small)
                    }
                }
            }
        };
        let hash = FxBuild::default().hash_one((&attrs, &op));
        let slot = self.consed.entry(hash);
        if let Entry::Occupied(hit) = &slot {
            if hit.get().header == attrs && hit.get().op == op {
                return Ok(hit.get().share());
            }
        }
        let shared = AtomicBool::new(false);
        let node = Node(Arc::new(PassNode { header: attrs, small, shared, op }));
        if let Entry::Vacant(slot) = slot {
            slot.insert(node.clone());
        }
        Ok(node)
    }
}

/// One evaluation pass: evaluates [`PassExpr`]s against an environment
/// it borrows, overlaid with the relations it publishes as it goes,
/// memoizing the whole (exact) result of every shared or delta-sized
/// node, and counting the rows it touches.
pub struct Pass<'e> {
    env: &'e DbState,
    /// What the pass published, newest last; few names, compared by id.
    bound: Vec<(RelName, Arc<Relation>)>,
    /// Whole results by node. A key holds its node, so no other node can
    /// take its address while the entry lives.
    memo: Option<HashMap<Node, Arc<Relation>, FxBuild>>,
    rows: u64,
}

impl<'e> Pass<'e> {
    /// A pass over `env`; `memoize: false` re-evaluates shared subtrees
    /// (the E14 ablation).
    pub fn new(env: &'e DbState, memoize: bool) -> Pass<'e> {
        Pass {
            env,
            bound: Vec::new(),
            memo: memoize.then(HashMap::default),
            rows: 0,
        }
    }

    /// Makes `rel` visible to later evaluations as `name`, over any
    /// relation of that name in the environment. Results memoized so far
    /// stay valid: they cannot have read a name that was not yet
    /// published.
    pub fn bind(&mut self, name: RelName, rel: Relation) {
        self.bound.push((name, Arc::new(rel)));
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

    /// The published or environment relation a leaf `n` names, which
    /// must carry the header `n` was compiled with.
    fn lookup(&self, n: &PassNode, name: RelName) -> Result<Arc<Relation>> {
        let rel = match self.bound.iter().rev().find(|(bound, _)| *bound == name) {
            Some((_, rel)) => Arc::clone(rel),
            None => self.env.relation_shared(name)?,
        };
        if rel.attrs() != n.attrs() {
            return Err(RelalgError::HeaderMismatch {
                left: n.attrs().clone(),
                right: rel.attrs().clone(),
            });
        }
        Ok(rel)
    }

    fn empty(n: &PassNode) -> Arc<Relation> {
        Arc::new(Relation::empty(n.attrs().clone()))
    }

    /// The exact value of `n`, memoized. A join, difference or
    /// intersection with a delta-sized operand evaluates that operand
    /// first, stops if it is empty, and restricts the other operand to
    /// its keys.
    fn whole(&mut self, n: &Node) -> Result<Arc<Relation>> {
        let memo = self.memo.is_some() && n.memoized();
        if let Some(hit) = self.memo.as_ref().filter(|_| memo).and_then(|m| m.get(n)) {
            return Ok(Arc::clone(hit));
        }
        let out = match &n.op {
            PassOp::Rel(name) => return self.lookup(n, *name),
            PassOp::Empty => Pass::empty(n),
            PassOp::Select(i, pred) => Arc::new(self.whole(i)?.select_compiled(pred)),
            PassOp::Project(i) => Arc::new(self.whole(i)?.project(n.attrs())?),
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
        if let Some(m) = self.memo.as_mut().filter(|_| memo) {
            m.insert(n.clone(), Arc::clone(&out));
        }
        Ok(out)
    }

    /// The operand `other` of a binary node whose operand `first`
    /// evaluated to `a`: restricted to `a`'s keys on their shared
    /// attributes when `first` is delta-sized, whole otherwise.
    fn driven(&mut self, first: &PassNode, a: &Relation, other: &Node) -> Result<Arc<Relation>> {
        let shared = first.attrs().intersect(other.attrs());
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
    fn restrict(&mut self, n: &Node, keys: &Relation) -> Result<Arc<Relation>> {
        if n.small || keys.attrs().is_empty() {
            return self.whole(n);
        }
        if keys.is_empty() {
            return Ok(Pass::empty(n));
        }
        let out = match &n.op {
            PassOp::Rel(name) => {
                let rel = self.lookup(n, *name)?;
                self.rows += keys.len() as u64;
                semijoin(&rel, keys)?
            }
            PassOp::Empty => Pass::empty(n),
            PassOp::Select(i, pred) => Arc::new(self.restrict(i, keys)?.select_compiled(pred)),
            PassOp::Project(i) => Arc::new(self.restrict(i, keys)?.project(n.attrs())?),
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
                let (first, second) =
                    if keys.attrs().is_disjoint(l.attrs()) { (r, l) } else { (l, r) };
                let reach = keys.attrs().intersect(first.attrs());
                let first_keys = if reach == *keys.attrs() { keys.clone() } else { keys.project(&reach)? };
                let a = self.restrict(first, &first_keys)?;
                if a.is_empty() {
                    Pass::empty(n)
                } else {
                    let shared = first.attrs().intersect(second.attrs());
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
/// repeated joins against a stored relation (maintenance passes, epoch
/// readers) skip the build entirely. Matched row pairs are
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

    /// `A` is empty, so a short-circuit on it would skip the right
    /// operand; `B` has no attribute `zz` and no `q`.
    fn typed_db() -> DbState {
        let mut d = DbState::new();
        d.insert_relation("A", Relation::empty(AttrSet::from_names(&["a", "b"])));
        d.insert_relation("B", rel! { ["a", "c"] => (1, 2) });
        d
    }

    #[test]
    fn type_errors_are_not_hidden_by_an_empty_operand() {
        let db = typed_db();
        for (text, variant) in [
            ("A minus pi[a](B)", "HeaderMismatch"),
            ("A minus sigma[zz = 1](pi[a,c](B))", "UnknownAttribute"),
            ("A join sigma[zz = 1](B)", "UnknownAttribute"),
            ("A intersect pi[a,q](B)", "ProjectionNotSubset"),
        ] {
            let err = RaExpr::parse(text).unwrap().eval(&db).unwrap_err();
            assert!(format!("{err:?}").starts_with(variant), "{text}: {err:?}");
        }
    }

    #[test]
    fn one_compiler_conses_equal_subtrees_across_a_batch() {
        let db = fig1_db();
        let e = RaExpr::parse("pi[clerk](Sale join Emp) union pi[clerk](Sale join Emp)").unwrap();
        let join = RaExpr::parse("Sale join Emp").unwrap();
        let mut compiler = PassCompiler::new(&db, &no_leaf);
        let (a, b) = (compiler.compile(&e).unwrap(), compiler.compile(&join).unwrap());
        let PassOp::Union(l, r) = &a.root.op else { panic!("{:?}", a.root.op) };
        assert_eq!(l, r);
        let PassOp::Project(j) = &l.op else { panic!("{:?}", l.op) };
        assert_eq!(j, &b.root);
        let (x, y) = (RelName::new("X"), RelName::new("Y"));
        let batch = eval_all([(x, &e), (y, &join)], &db).unwrap();
        assert_eq!(batch.relation(x).unwrap(), &rel! { ["clerk"] => ("Mary",), ("John",) });
        assert_eq!(batch.relation(y).unwrap().len(), 3);
    }

    #[test]
    fn a_memo_entry_outlives_the_expression_that_filled_it() {
        // Same shape, different constant: were the memo keyed by a bare
        // address, the second node could reuse the first's freed one and
        // read its stale result.
        let db = fig1_db();
        let mut pass = Pass::new(&db, true);
        for clerk in ["Mary", "John", "Paula", "Mary"] {
            let sel = RaExpr::base("Sale").select(Predicate::attr_eq("clerk", clerk));
            let e = sel.clone().union(sel);
            let compiled = PassCompiler::new(&db, &no_leaf).compile(&e).unwrap();
            assert_eq!(*pass.eval(&compiled).unwrap(), eval(&e, &db).unwrap(), "{clerk}");
        }
    }

    #[test]
    fn a_pass_reads_its_bindings_over_the_environment() {
        let db = fig1_db();
        let e = RaExpr::parse("pi[clerk](Sale)").unwrap();
        let compiled = PassCompiler::new(&db, &no_leaf).compile(&e).unwrap();
        let mut pass = Pass::new(&db, false);
        pass.bind(RelName::new("Sale"), rel! { ["item", "clerk"] => ("PC", "Zoe") });
        assert_eq!(*pass.eval(&compiled).unwrap(), rel! { ["clerk"] => ("Zoe",) });
        pass.bind(RelName::new("Sale"), rel! { ["item"] => ("PC",) });
        assert!(matches!(pass.eval(&compiled), Err(RelalgError::HeaderMismatch { .. })));
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
