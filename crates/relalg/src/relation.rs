//! Set-semantics relations.
//!
//! A [`Relation`] is a sorted attribute header plus a set of tuples of
//! matching arity. The paper's constructions (complements, the one-to-one
//! mapping of Proposition 2.1, the correctness criteria of Theorems
//! 3.1/4.1) all rely on relations being *sets* with a well-defined
//! equality and deterministic iteration.
//!
//! Storage is columnar ([`crate::columns`]): values are interned into a
//! global dictionary and each attribute is a vector of `u32` codes, rows
//! kept in canonical (value-lexicographic) order. Equality, ordering,
//! iteration order, printing and the binary codec are bit-identical to
//! the former `BTreeSet<Tuple>` representation; what changes is cost —
//! set operations are sorted merges over code columns, a small
//! `apply_delta` is a binary-search splice that carries the key indexes
//! over, membership is a binary search, and joins probe a cached sorted
//! key index (see [`crate::eval`]). The column store is behind an `Arc`:
//! cloning a relation is a reference bump, and epoch snapshot readers or
//! a pass memo holding the same store share its warm key indexes.

use crate::attrs::AttrSet;
use crate::columns::{self, Code, Columns};
use crate::error::{RelalgError, Result};
use crate::predicate::CompiledPred;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A relation instance: a header and a set of tuples of matching arity.
#[derive(Clone)]
pub struct Relation {
    attrs: AttrSet,
    cols: Arc<Columns>,
}

impl Default for Relation {
    fn default() -> Relation {
        Relation::empty(AttrSet::empty())
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.attrs == other.attrs
            && (Arc::ptr_eq(&self.cols, &other.cols) || self.cols == other.cols)
    }
}

impl Eq for Relation {}

impl PartialOrd for Relation {
    fn partial_cmp(&self, other: &Relation) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Relation {
    fn cmp(&self, other: &Relation) -> std::cmp::Ordering {
        match self.attrs.cmp(&other.attrs) {
            std::cmp::Ordering::Equal => {}
            o => return o,
        }
        if Arc::ptr_eq(&self.cols, &other.cols) {
            return std::cmp::Ordering::Equal;
        }
        columns::cmp_lex(&self.cols, &other.cols)
    }
}

impl Relation {
    /// The empty relation over the given header.
    pub fn empty(attrs: AttrSet) -> Relation {
        let cols = Arc::new(Columns::empty(attrs.len()));
        Relation { attrs, cols }
    }

    /// Builds a relation from a header given as attribute names (in any
    /// order) and rows aligned with *that* order. Rows are permuted into
    /// canonical (sorted-header) order and canonicalized in one batch.
    pub fn from_rows<R>(names: &[&str], rows: impl IntoIterator<Item = R>) -> Result<Relation>
    where
        R: IntoIterator<Item = Value>,
    {
        let given: Vec<crate::symbol::Attr> =
            names.iter().map(|n| crate::symbol::Attr::new(n)).collect();
        let attrs = AttrSet::from_iter(given.iter().copied());
        if attrs.len() != given.len() {
            return Err(RelalgError::ArityMismatch {
                expected: attrs.len(),
                got: given.len(),
            });
        }
        // attr → index in the given order, built once; the permutation
        // lookup is then O(1) per attribute instead of a linear scan.
        let where_given: HashMap<crate::symbol::Attr, usize> =
            given.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        // permutation[k] = index (in the given row) of the k-th canonical attr
        let permutation: Vec<usize> = attrs
            .iter()
            .map(|a| {
                where_given
                    .get(&a)
                    .copied()
                    .ok_or_else(|| RelalgError::UnknownAttribute {
                        attr: a,
                        header: attrs.clone(),
                    })
            })
            .collect::<Result<_>>()?;
        let arity = permutation.len();
        let mut flat: Vec<Code> = Vec::new();
        let mut nrows = 0usize;
        for row in rows {
            let row: Vec<Value> = row.into_iter().collect();
            if row.len() != arity {
                return Err(RelalgError::ArityMismatch {
                    expected: arity,
                    got: row.len(),
                });
            }
            flat.extend(permutation.iter().map(|&i| columns::intern(&row[i])));
            nrows += 1;
        }
        Ok(Relation {
            attrs,
            cols: Arc::new(Columns::from_unsorted_rows(arity, nrows, flat)),
        })
    }

    /// Builds a relation from tuples already in canonical column order —
    /// the batch counterpart of an [`Relation::insert`] loop: one
    /// canonicalization instead of per-tuple ordered insertion.
    pub fn from_tuples(attrs: AttrSet, tuples: impl IntoIterator<Item = Tuple>) -> Result<Relation> {
        let arity = attrs.len();
        let mut flat: Vec<Code> = Vec::new();
        let mut nrows = 0usize;
        for t in tuples {
            if t.arity() != arity {
                return Err(RelalgError::ArityMismatch {
                    expected: arity,
                    got: t.arity(),
                });
            }
            flat.extend(t.values().iter().map(columns::intern));
            nrows += 1;
        }
        Ok(Relation {
            attrs,
            cols: Arc::new(Columns::from_unsorted_rows(arity, nrows, flat)),
        })
    }

    /// Wraps an already-canonical column store (crate-internal: the
    /// operators in [`crate::eval`] and the codec build stores directly).
    pub(crate) fn from_parts(attrs: AttrSet, cols: Columns) -> Relation {
        debug_assert_eq!(attrs.len(), cols.arity());
        Relation {
            attrs,
            cols: Arc::new(cols),
        }
    }

    /// The shared column store (crate-internal; everything outside
    /// `relalg` goes through tuples so it cannot bypass the index layer).
    pub(crate) fn columns(&self) -> &Arc<Columns> {
        &self.cols
    }

    /// The header.
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Number of distinct values taken by `attrs` across the relation —
    /// the cardinality statistic the maintenance planner's selectivity
    /// model consumes. Counted along the cached sorted key index over
    /// those columns, so repeated calls (and subsequent joins on the same
    /// attributes) share one index build. `attrs` must be a subset of the
    /// header; the empty set yields `min(1, len)`.
    pub fn distinct_count(&self, attrs: &AttrSet) -> Result<usize> {
        let positions = attrs.positions_in(&self.attrs).ok_or_else(|| {
            let missing = attrs
                .iter()
                .find(|a| !self.attrs.contains(*a))
                .unwrap_or_else(|| crate::symbol::Attr::new("?"));
            RelalgError::UnknownAttribute {
                attr: missing,
                header: self.attrs.clone(),
            }
        })?;
        Ok(self.cols.distinct_on(&positions))
    }

    /// Membership test: a binary search on canonical order, comparing
    /// values directly so the probe never grows the dictionary.
    pub fn contains(&self, t: &Tuple) -> bool {
        t.arity() == self.attrs.len() && self.cols.find_row(t.values()).is_ok()
    }

    /// Inserts a tuple (must match arity); returns whether it was new.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        if t.arity() != self.attrs.len() {
            return Err(RelalgError::ArityMismatch {
                expected: self.attrs.len(),
                got: t.arity(),
            });
        }
        match self.cols.find_row(t.values()) {
            Ok(_) => Ok(false),
            Err(at) => {
                let codes: Vec<Code> = t.values().iter().map(columns::intern).collect();
                Arc::make_mut(&mut self.cols).insert_row(at, &codes);
                Ok(true)
            }
        }
    }

    /// Removes a tuple; returns whether it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if t.arity() != self.attrs.len() {
            return false;
        }
        match self.cols.find_row(t.values()) {
            Ok(at) => {
                Arc::make_mut(&mut self.cols).remove_row(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates tuples in canonical order. Rows are resolved through the
    /// dictionary up front (one short-lived guard), so no lock is held
    /// while the caller consumes the iterator.
    pub fn iter(&self) -> Rows {
        Rows {
            vals: self.cols.resolve_rows(),
            arity: self.attrs.len(),
            n: self.cols.len(),
            front: 0,
        }
    }

    fn require_same_header(&self, other: &Relation) -> Result<()> {
        if self.attrs != other.attrs {
            return Err(RelalgError::HeaderMismatch {
                left: self.attrs.clone(),
                right: other.attrs.clone(),
            });
        }
        Ok(())
    }

    /// `self ∪ other` (same header required): a sorted merge into buffers
    /// allocated once at the combined capacity. Empty operands degrade to
    /// a reference bump on the other side.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        self.require_same_header(other)?;
        if Arc::ptr_eq(&self.cols, &other.cols) {
            return Ok(self.clone());
        }
        Ok(Relation {
            attrs: self.attrs.clone(),
            cols: Arc::new(columns::union(&self.cols, &other.cols)),
        })
    }

    /// `self ∖ other` (same header required): a sorted merge; when either
    /// side is empty the answer is `self` by reference bump.
    pub fn difference(&self, other: &Relation) -> Result<Relation> {
        self.require_same_header(other)?;
        if other.is_empty() || self.is_empty() {
            return Ok(self.clone());
        }
        if Arc::ptr_eq(&self.cols, &other.cols) {
            return Ok(Relation::empty(self.attrs.clone()));
        }
        Ok(Relation {
            attrs: self.attrs.clone(),
            cols: Arc::new(columns::difference(&self.cols, &other.cols)),
        })
    }

    /// `self ∩ other` (same header required): a sorted merge; empty
    /// operands short-circuit.
    pub fn intersect(&self, other: &Relation) -> Result<Relation> {
        self.require_same_header(other)?;
        if self.is_empty() || Arc::ptr_eq(&self.cols, &other.cols) {
            return Ok(self.clone());
        }
        if other.is_empty() {
            return Ok(Relation::empty(self.attrs.clone()));
        }
        Ok(Relation {
            attrs: self.attrs.clone(),
            cols: Arc::new(columns::intersect(&self.cols, &other.cols)),
        })
    }

    /// `|self ∩ other|` (same header required): the merge walk of
    /// [`Relation::intersect`] counting matches instead of collecting
    /// them, so a disjointness check allocates nothing.
    pub fn intersection_len(&self, other: &Relation) -> Result<usize> {
        self.require_same_header(other)?;
        Ok(columns::intersection_len(&self.cols, &other.cols))
    }

    /// `π_Z(self)`; `Z` must be a subset of the header. (The paper's
    /// convention that `π_Z(R) = ∅` when `Z ⊄ attr(R)` is applied one
    /// level up, in the PSJ layer, where it is a deliberate notational
    /// device rather than a silent coercion.)
    pub fn project(&self, wanted: &AttrSet) -> Result<Relation> {
        let Some(positions) = wanted.positions_in(&self.attrs) else {
            return Err(RelalgError::ProjectionNotSubset {
                wanted: wanted.clone(),
                header: self.attrs.clone(),
            });
        };
        Ok(Relation {
            attrs: wanted.clone(),
            cols: Arc::new(self.cols.project(&positions)),
        })
    }

    /// Keeps the tuples satisfying `keep`, visited in canonical order.
    pub fn filter(&self, mut keep: impl FnMut(&Tuple) -> bool) -> Relation {
        let arity = self.attrs.len();
        let resolved = self.cols.resolve_rows();
        let mut kept: Vec<u32> = Vec::new();
        for i in 0..self.cols.len() {
            let t: Tuple = resolved[i * arity..(i + 1) * arity]
                .iter()
                .map(|v| (*v).clone())
                .collect();
            if keep(&t) {
                kept.push(i as u32);
            }
        }
        Relation {
            attrs: self.attrs.clone(),
            cols: Arc::new(self.cols.gather_sorted(&kept)),
        }
    }

    /// Selection over a compiled predicate as a tight column scan: rows
    /// are resolved once and evaluated as value slices — no per-row tuple
    /// materialization (the evaluator's σ path).
    pub(crate) fn select_compiled(&self, pred: &CompiledPred) -> Relation {
        let arity = self.attrs.len();
        let resolved = self.cols.resolve_rows();
        let mut kept: Vec<u32> = Vec::new();
        for i in 0..self.cols.len() {
            if pred.eval_values(&resolved[i * arity..(i + 1) * arity]) {
                kept.push(i as u32);
            }
        }
        Relation {
            attrs: self.attrs.clone(),
            cols: Arc::new(self.cols.gather_sorted(&kept)),
        }
    }

    /// True iff `self ⊆ other` (same header required).
    pub fn is_subset(&self, other: &Relation) -> Result<bool> {
        self.require_same_header(other)?;
        if Arc::ptr_eq(&self.cols, &other.cols) {
            return Ok(true);
        }
        Ok(columns::is_subset(&self.cols, &other.cols))
    }

    /// `(self ∖ delete) ∪ insert` — the delta-composition identity every
    /// maintenance path ends with. Deltas are usually tiny compared to
    /// `self`: a small one is located by binary search and spliced in
    /// with run copies, and the new store inherits `self`'s key indexes
    /// patched rather than rebuilt; a large one is one three-way merge
    /// pass. An empty delta is a reference bump.
    pub fn apply_delta(&self, insert: &Relation, delete: &Relation) -> Result<Relation> {
        Ok(self.apply_delta_with(insert, delete, false)?.0)
    }

    /// [`Relation::apply_delta`] also returning the *net* change: the
    /// tuples of `insert` not already present and the tuples of `delete`
    /// actually removed (`new ∖ self`, `self ∖ new`). For a small delta
    /// both fall out of the splice positions, so no further set operation
    /// runs.
    pub fn apply_delta_net(
        &self,
        insert: &Relation,
        delete: &Relation,
    ) -> Result<(Relation, Relation, Relation)> {
        let (new, net) = self.apply_delta_with(insert, delete, true)?;
        let (inserted, deleted) = net.unwrap_or_else(|| (insert.clone(), delete.clone()));
        Ok((new, inserted, deleted))
    }

    /// The shared core of [`Relation::apply_delta`] and
    /// [`Relation::apply_delta_net`]; the net change is computed only when
    /// asked for (`None` for an empty delta, which is its own net).
    fn apply_delta_with(
        &self,
        insert: &Relation,
        delete: &Relation,
        net: bool,
    ) -> Result<(Relation, Option<(Relation, Relation)>)> {
        self.require_same_header(insert)?;
        self.require_same_header(delete)?;
        if insert.is_empty() && delete.is_empty() {
            return Ok((self.clone(), None));
        }
        let with = |cols: Columns| Relation {
            attrs: self.attrs.clone(),
            cols: Arc::new(cols),
        };
        if (insert.len() + delete.len()).saturating_mul(SPLICE_RATIO) <= self.len() {
            let at = columns::locate(&self.cols, &insert.cols, &delete.cols);
            let new = with(columns::splice(&self.cols, &insert.cols, &at));
            return Ok((
                new,
                net.then(|| {
                    (
                        with(insert.cols.gather_sorted(&at.inserted_rows())),
                        with(self.cols.gather_sorted(at.deleted_rows())),
                    )
                }),
            ));
        }
        let new = with(columns::apply_delta(&self.cols, &insert.cols, &delete.cols));
        let net = if net {
            Some((insert.difference(self)?, delete.intersect(self)?.difference(insert)?))
        } else {
            None
        };
        Ok((new, net))
    }
}

/// A delta is spliced rather than merged while `|Δ| · SPLICE_RATIO ≤
/// |base|`: then its `|Δ| log |base|` binary-search probes cost less than
/// the merge's `|base|` row comparisons.
const SPLICE_RATIO: usize = 8;

/// Owning iterator over a relation's tuples in canonical order; rows were
/// resolved through the dictionary when the iterator was created, so
/// advancing it takes no locks.
pub struct Rows {
    vals: Vec<&'static Value>,
    arity: usize,
    n: usize,
    front: usize,
}

impl Iterator for Rows {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.front >= self.n {
            return None;
        }
        let row = &self.vals[self.front * self.arity..(self.front + 1) * self.arity];
        self.front += 1;
        Some(row.iter().map(|v| (*v).clone()).collect())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.front;
        (left, Some(left))
    }

    fn nth(&mut self, k: usize) -> Option<Tuple> {
        self.front = self.front.saturating_add(k).min(self.n);
        self.next()
    }
}

impl ExactSizeIterator for Rows {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.attrs)?;
        for t in self.iter() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Builds a [`Relation`] literal:
///
/// ```
/// use dwc_relalg::rel;
/// let r = rel! { ["item", "clerk"] => ("TV set", "Mary"), ("PC", "John") };
/// assert_eq!(r.len(), 2);
/// ```
#[macro_export]
macro_rules! rel {
    { [$($name:expr),* $(,)?] => $(($($v:expr),* $(,)?)),* $(,)? } => {
        $crate::Relation::from_rows(
            &[$($name),*],
            vec![$(vec![$($crate::Value::from($v)),*]),*] as Vec<Vec<$crate::Value>>,
        ).expect("rel! literal is well-formed") // lint:allow expect -- macro contract: literals are checked at the use site
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sale() -> Relation {
        Relation::from_rows(
            &["item", "clerk"],
            vec![
                vec![Value::str("TV set"), Value::str("Mary")],
                vec![Value::str("VCR"), Value::str("Mary")],
                vec![Value::str("PC"), Value::str("John")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_permutes_into_canonical_order() {
        // Header sorted => {clerk, item}; row given as (item, clerk).
        let r = sale();
        assert_eq!(r.attrs().to_string(), "{clerk, item}");
        let first = r.iter().next().unwrap();
        // Canonical order of first (lexicographically least) tuple: John, PC.
        assert_eq!(first.get(0), &Value::str("John"));
        assert_eq!(first.get(1), &Value::str("PC"));
    }

    #[test]
    fn from_rows_rejects_wrong_arity() {
        let err = Relation::from_rows(&["a", "b"], vec![vec![Value::int(1)]]).unwrap_err();
        assert!(matches!(err, RelalgError::ArityMismatch { expected: 2, got: 1 }));
    }

    #[test]
    fn from_rows_rejects_duplicate_attrs() {
        let err =
            Relation::from_rows(&["a", "a"], Vec::<Vec<Value>>::new()).unwrap_err();
        assert!(matches!(err, RelalgError::ArityMismatch { .. }));
    }

    #[test]
    fn distinct_count_per_attribute_combination() {
        let r = sale();
        let clerk = AttrSet::from_names(&["clerk"]);
        let item = AttrSet::from_names(&["item"]);
        let both = AttrSet::from_names(&["clerk", "item"]);
        assert_eq!(r.distinct_count(&clerk).unwrap(), 2); // Mary, John
        assert_eq!(r.distinct_count(&item).unwrap(), 3);
        assert_eq!(r.distinct_count(&both).unwrap(), r.len());
        assert_eq!(r.distinct_count(&AttrSet::empty()).unwrap(), 1);
        let empty = Relation::empty(r.attrs().clone());
        assert_eq!(empty.distinct_count(&clerk).unwrap(), 0);
        assert_eq!(empty.distinct_count(&AttrSet::empty()).unwrap(), 0);
        assert!(r.distinct_count(&AttrSet::from_names(&["ghost"])).is_err());
    }

    #[test]
    fn set_semantics_dedup() {
        let r = Relation::from_rows(
            &["a"],
            vec![vec![Value::int(1)], vec![Value::int(1)], vec![Value::int(2)]],
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn union_difference_intersect() {
        let a = Relation::from_rows(&["x"], vec![vec![Value::int(1)], vec![Value::int(2)]])
            .unwrap();
        let b = Relation::from_rows(&["x"], vec![vec![Value::int(2)], vec![Value::int(3)]])
            .unwrap();
        assert_eq!(a.union(&b).unwrap().len(), 3);
        assert_eq!(a.difference(&b).unwrap().len(), 1);
        assert_eq!(a.intersect(&b).unwrap().len(), 1);
    }

    #[test]
    fn header_mismatch_is_an_error() {
        let a = Relation::empty(AttrSet::from_names(&["x"]));
        let b = Relation::empty(AttrSet::from_names(&["y"]));
        assert!(a.union(&b).is_err());
        assert!(a.difference(&b).is_err());
        assert!(a.intersect(&b).is_err());
        assert!(a.is_subset(&b).is_err());
    }

    #[test]
    fn project_subset_and_error() {
        let r = sale();
        let p = r.project(&AttrSet::from_names(&["clerk"])).unwrap();
        assert_eq!(p.len(), 2); // Mary, John — set semantics collapse
        assert!(r.project(&AttrSet::from_names(&["age"])).is_err());
    }

    #[test]
    fn project_empty_set_of_attrs() {
        let r = sale();
        let p = r.project(&AttrSet::empty()).unwrap();
        // π_{}(R) for non-empty R is the single empty tuple (dee).
        assert_eq!(p.len(), 1);
        let e = Relation::empty(r.attrs().clone());
        assert_eq!(e.project(&AttrSet::empty()).unwrap().len(), 0);
    }

    #[test]
    fn project_non_prefix_recanonicalizes() {
        // {a, b} with rows whose b-order inverts the a-order; π_b must be
        // re-sorted, not a truncation of the row order.
        let r = rel! { ["a", "b"] => (1, 9), (2, 3) };
        let p = r.project(&AttrSet::from_names(&["b"])).unwrap();
        let rows: Vec<Tuple> = p.iter().collect();
        assert_eq!(rows[0], Tuple::new(vec![Value::int(3)]));
        assert_eq!(rows[1], Tuple::new(vec![Value::int(9)]));
    }

    #[test]
    fn rel_macro() {
        let r = rel! { ["item", "clerk"] => ("TV set", "Mary"), ("PC", "John") };
        assert_eq!(r.len(), 2);
        assert_eq!(r.attrs(), &AttrSet::from_names(&["item", "clerk"]));
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = Relation::empty(AttrSet::from_names(&["x"]));
        let t = Tuple::new(vec![Value::int(7)]);
        assert!(r.insert(t.clone()).unwrap());
        assert!(!r.insert(t.clone()).unwrap());
        assert!(r.contains(&t));
        assert!(r.remove(&t));
        assert!(!r.remove(&t));
        assert!(r.insert(Tuple::new(vec![])).is_err());
    }

    #[test]
    fn insert_on_shared_store_does_not_mutate_the_other_handle() {
        // Clone = shared Arc; inserting into one must copy-on-write.
        let a = rel! { ["x"] => (1,), (2,) };
        let mut b = a.clone();
        b.insert(Tuple::new(vec![Value::int(3)])).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
        assert_ne!(a, b);
    }

    #[test]
    fn apply_delta_insert_wins_over_delete() {
        let base = rel! { ["x"] => (1,), (2,) };
        let ins = rel! { ["x"] => (2,), (3,) };
        let del = rel! { ["x"] => (2,) };
        let out = base.apply_delta(&ins, &del).unwrap();
        assert_eq!(out, rel! { ["x"] => (1,), (2,), (3,) });
        // Empty deltas: a reference bump, not a copy.
        let same = base.apply_delta(
            &Relation::empty(base.attrs().clone()),
            &Relation::empty(base.attrs().clone()),
        )
        .unwrap();
        assert_eq!(same, base);
    }

    #[test]
    fn relation_ordering_matches_row_lexicographic_order() {
        let a = rel! { ["x"] => (1,), (2,) };
        let b = rel! { ["x"] => (1,), (3,) };
        let prefix = rel! { ["x"] => (1,) };
        assert!(a < b);
        assert!(prefix < a, "shorter prefix sorts first");
        assert_eq!(a.cmp(&a.clone()), std::cmp::Ordering::Equal);
    }

    #[test]
    fn iter_is_canonical_and_owned() {
        let r = sale();
        let rows: Vec<Tuple> = r.iter().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r.iter().nth(2), Some(rows[2].clone()));
        assert_eq!(r.iter().nth(3), None);
        assert_eq!(r.iter().len(), 3);
    }

    #[test]
    fn from_tuples_batches_like_inserts() {
        let attrs = AttrSet::from_names(&["x"]);
        let tuples = vec![
            Tuple::new(vec![Value::int(2)]),
            Tuple::new(vec![Value::int(1)]),
            Tuple::new(vec![Value::int(2)]),
        ];
        let batch = Relation::from_tuples(attrs.clone(), tuples.clone()).unwrap();
        let mut looped = Relation::empty(attrs.clone());
        for t in tuples {
            looped.insert(t).unwrap();
        }
        assert_eq!(batch, looped);
        assert!(Relation::from_tuples(attrs, vec![Tuple::new(vec![])]).is_err());
    }
}
