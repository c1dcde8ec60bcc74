//! Columnar relation storage: a global value dictionary plus per-relation
//! code columns with cached sorted key indexes.
//!
//! Every [`Value`] that enters a relation is interned once into a global
//! dictionary (the [`crate::symbol`] pattern, extended to full values) and
//! handled as a `u32` [`Code`] thereafter. A [`Columns`] store keeps one
//! `Vec<Code>` per attribute of the sorted header, with rows in *canonical
//! order* — the value-lexicographic order the old `BTreeSet<Tuple>`
//! representation iterated in — so printing, equality, ordering and the
//! binary codec are bit-identical to the row/set representation.
//!
//! Dictionary codes are assigned in interning order, which is *not* value
//! order, so two orderings coexist:
//!
//! * **code order** — arbitrary but consistent; equality of codes is
//!   equality of values (the dictionary is injective). Key indexes sort by
//!   raw code and are probed with code keys: any consistent order works
//!   for equality probes and it needs no dictionary access at all.
//! * **value order** — required wherever canonical order is observable.
//!   A lazily rebuilt `code → rank` table ([`ranks`]) maps codes into the
//!   total [`Value`] order; batch sorts compare small `u32` ranks instead
//!   of resolved values.
//!
//! Rank tables are only *appended to* conceptually: a table built when the
//! dictionary had `V` values stays correct for every code `< V` (new
//! interns cannot reorder old values relative to each other), so a view
//! acquired after the codes it will compare were interned is always safe.
//!
//! Interned values are leaked ([`Box::leak`]) just like symbols: the
//! distinct-value population of a warehouse is bounded by its data, and a
//! `&'static Value` can be handed out and retained *after* the dictionary
//! guard is dropped — resolving a whole relation up front means no lock is
//! held while user closures (filters, callbacks) run, which is what makes
//! re-entrant interning from inside an iteration deadlock-free.
//!
//! Each `Columns` carries a lazily-built cache of sorted key indexes keyed
//! by column positions. A store is never mutated behind a cached index:
//! the in-place `&mut` methods clear the cache (and `Arc::make_mut`'s
//! clone starts with an empty one), while a small delta builds a *new*
//! store ([`splice`]) whose cache holds every old index patched to the
//! new row ids — so a stale index is unreachable, and probes into a
//! relation maintained one report at a time never rebuild an index.
//! Sharing the `Arc` — epoch snapshot readers, a pass memo, the
//! database map — shares the warm index.

use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};

/// A dictionary code standing for one interned [`Value`].
pub(crate) type Code = u32;

struct DictInner {
    map: HashMap<&'static Value, Code>,
    vals: Vec<&'static Value>,
    /// `ranks[code]` = position of `code`'s value in the total value
    /// order over all interned values; valid iff `ranks.len() ==
    /// vals.len()`, lazily rebuilt by [`ranks`] after new interns.
    ranks: Vec<u32>,
}

fn dict() -> &'static RwLock<DictInner> {
    static DICT: OnceLock<RwLock<DictInner>> = OnceLock::new();
    DICT.get_or_init(|| {
        RwLock::new(DictInner {
            map: HashMap::new(),
            vals: Vec::new(),
            ranks: Vec::new(),
        })
    })
}

// The dictionary never panics while holding its lock, but recover from
// poisoning anyway: the table is append-only (ranks are replaced whole),
// so a poisoned guard still holds a consistent table.
fn read_dict() -> RwLockReadGuard<'static, DictInner> {
    dict().read().unwrap_or_else(|p| p.into_inner())
}

/// Interns `v`, returning its code. Repeated calls with equal values
/// return the same code.
pub(crate) fn intern(v: &Value) -> Code {
    {
        let d = read_dict();
        if let Some(&c) = d.map.get(v) {
            return c;
        }
    }
    let mut d = dict().write().unwrap_or_else(|p| p.into_inner());
    if let Some(&c) = d.map.get(v) {
        return c;
    }
    let code = u32::try_from(d.vals.len()).expect("value dictionary overflow"); // lint:allow expect -- overflowing u32 needs 4 billion distinct values
    let leaked: &'static Value = Box::leak(Box::new(v.clone()));
    d.vals.push(leaked);
    d.map.insert(leaked, code);
    code
}

/// A read view resolving codes to their interned values. The returned
/// references are `'static` (interned values are leaked), so they may be
/// retained after the view — and its read guard — are dropped.
pub(crate) struct ValueView(RwLockReadGuard<'static, DictInner>);

impl ValueView {
    /// The value behind `c`.
    #[inline]
    pub(crate) fn value(&self, c: Code) -> &'static Value {
        self.0.vals[c as usize]
    }
}

/// Acquires a resolve view. Keep it short-lived and never across a user
/// callback; copy the `&'static Value`s out instead.
pub(crate) fn values() -> ValueView {
    ValueView(read_dict())
}

/// A read view mapping codes into the total value order: comparing
/// `rank(a)` with `rank(b)` is exactly comparing the underlying values.
pub(crate) struct RankView(RwLockReadGuard<'static, DictInner>);

impl RankView {
    /// The value-order rank of `c`.
    #[inline]
    pub(crate) fn rank(&self, c: Code) -> u32 {
        self.0.ranks[c as usize]
    }
}

/// Acquires a rank view, rebuilding the rank table if interning has
/// outgrown it (`O(V log V)` amortized over batches). The view is valid
/// for every code interned before this call; codes interned concurrently
/// afterwards are not in the caller's data.
pub(crate) fn ranks() -> RankView {
    {
        let d = read_dict();
        if d.ranks.len() == d.vals.len() {
            return RankView(d);
        }
    }
    {
        let mut d = dict().write().unwrap_or_else(|p| p.into_inner());
        if d.ranks.len() != d.vals.len() {
            let mut by_value: Vec<Code> = (0..d.vals.len() as u32).collect();
            by_value.sort_unstable_by(|&a, &b| d.vals[a as usize].cmp(d.vals[b as usize]));
            let mut table = vec![0u32; d.vals.len()];
            for (r, &c) in by_value.iter().enumerate() {
                table[c as usize] = r as u32;
            }
            d.ranks = table;
        }
    }
    RankView(read_dict())
}

/// A sorted key index over a [`Columns`] store: row ids ordered by the
/// raw codes of the key columns (ties broken by row id, so the order is
/// deterministic). Probes are pure `u32` comparisons — no dictionary
/// access — and return the contiguous run of rows matching a key.
pub(crate) struct KeyIndex {
    positions: Box<[usize]>,
    order: Box<[u32]>,
}

impl KeyIndex {
    fn build(cols: &Columns, positions: &[usize]) -> KeyIndex {
        let mut order: Vec<u32> = (0..cols.nrows as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            for &p in positions {
                match cols.cols[p][a as usize].cmp(&cols.cols[p][b as usize]) {
                    Ordering::Equal => {}
                    o => return o,
                }
            }
            a.cmp(&b)
        });
        KeyIndex {
            positions: positions.into(),
            order: order.into_boxed_slice(),
        }
    }

    #[inline]
    fn cmp_key(&self, cols: &Columns, row: u32, key: &[Code]) -> Ordering {
        for (&p, &k) in self.positions.iter().zip(key) {
            match cols.cols[p][row as usize].cmp(&k) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// All rows of `cols` whose key columns equal `key` (codes aligned
    /// with the index's positions). `cols` must be the store the index
    /// was built over — the cache in [`Columns::index_for`] guarantees it.
    pub(crate) fn probe(&self, cols: &Columns, key: &[Code]) -> &[u32] {
        let lo = self
            .order
            .partition_point(|&r| self.cmp_key(cols, r, key) == Ordering::Less);
        let hi = self
            .order
            .partition_point(|&r| self.cmp_key(cols, r, key) != Ordering::Greater);
        &self.order[lo..hi]
    }

    /// Index order over `cols`: key codes, then row id.
    fn cmp_rows(&self, cols: &Columns, a: u32, b: u32) -> Ordering {
        for &p in self.positions.iter() {
            match cols.cols[p][a as usize].cmp(&cols.cols[p][b as usize]) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        a.cmp(&b)
    }

    /// This index carried over to `new`, the store [`splice`] built from
    /// the indexed one with `at`: deleted rows are dropped, surviving row
    /// ids are mapped through `remap` (old row → new row, `u32::MAX` for
    /// a deleted row; order-preserving, so equal keys stay in row-id
    /// order) and the inserted rows are merged in at their key positions
    /// by binary search. One gather over the index plus `O(|Δ| log n)`;
    /// no key is re-sorted.
    fn patched(&self, new: &Columns, at: &Splice, remap: &[u32]) -> KeyIndex {
        let mut survivors = Vec::with_capacity(new.nrows);
        for &r in self.order.iter() {
            let id = remap[r as usize];
            if id != u32::MAX {
                survivors.push(id);
            }
        }
        if at.inserted.is_empty() {
            return KeyIndex {
                positions: self.positions.clone(),
                order: survivors.into_boxed_slice(),
            };
        }
        let mut fresh = at.new_ids();
        fresh.sort_unstable_by(|&a, &b| self.cmp_rows(new, a, b));
        let mut order = Vec::with_capacity(new.nrows);
        let mut from = 0;
        for f in fresh {
            let to = from
                + survivors[from..].partition_point(|&s| self.cmp_rows(new, s, f) == Ordering::Less);
            order.extend_from_slice(&survivors[from..to]);
            order.push(f);
            from = to;
        }
        order.extend_from_slice(&survivors[from..]);
        KeyIndex {
            positions: self.positions.clone(),
            order: order.into_boxed_slice(),
        }
    }
}

/// Where a delta lands in a store, found by binary search ([`locate`]):
/// the old rows it removes and the slots its new rows take.
#[derive(Debug, Default)]
pub(crate) struct Splice {
    /// Old row ids removed, ascending.
    deleted: Vec<u32>,
    /// `(slot, row of the insert store)`, ascending: that insert row goes
    /// immediately before old row `slot` (`slot == len` appends).
    inserted: Vec<(u32, u32)>,
}

impl Splice {
    /// Rows of the insert store that are new to the base, ascending.
    pub(crate) fn inserted_rows(&self) -> Vec<u32> {
        self.inserted.iter().map(|&(_, k)| k).collect()
    }

    /// Rows of the base that the delta removes, ascending.
    pub(crate) fn deleted_rows(&self) -> &[u32] {
        &self.deleted
    }

    /// The row ids the inserted rows take in the spliced store.
    fn new_ids(&self) -> Vec<u32> {
        self.inserted
            .iter()
            .enumerate()
            .map(|(j, &(slot, _))| {
                slot + j as u32 - self.deleted.partition_point(|&d| d < slot) as u32
            })
            .collect()
    }

    /// Old row id → row id in the spliced store (`u32::MAX` for a deleted
    /// row), built run by run over a base of `n` rows.
    fn remap(&self, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        let (mut row, mut i, mut d) = (0usize, 0usize, 0usize);
        // new id = old id + inserted-before − deleted-before
        let (mut ins_before, mut del_before) = (0u32, 0u32);
        loop {
            let next_i = self.inserted.get(i).map_or(n, |&(slot, _)| slot as usize);
            let next_d = self.deleted.get(d).map_or(n, |&r| r as usize);
            let stop = next_i.min(next_d);
            out.extend((row as u32..stop as u32).map(|r| r + ins_before - del_before));
            row = stop;
            if i < self.inserted.len() && next_i == row {
                ins_before += 1;
                i += 1;
            } else if d < self.deleted.len() && next_d == row {
                out.push(u32::MAX);
                del_before += 1;
                row += 1;
                d += 1;
            } else {
                return out;
            }
        }
    }
}

/// One cached key index: the column positions it covers, and the index.
type CachedIndex = (Box<[usize]>, Arc<KeyIndex>);

/// Column-major storage of one relation instance: `cols[j][i]` is the
/// code of row `i`'s value in header column `j`, with rows in canonical
/// (value-lexicographic) order and no duplicates. Nullary relations
/// (empty header) have no columns and `nrows ∈ {0, 1}`.
pub(crate) struct Columns {
    nrows: usize,
    cols: Box<[Vec<Code>]>,
    /// Lazily-built sorted key indexes, keyed by their column positions.
    /// Never cloned and cleared on mutation: a stale index is unobservable.
    index_cache: Mutex<Vec<CachedIndex>>,
}

impl Clone for Columns {
    fn clone(&self) -> Columns {
        Columns {
            nrows: self.nrows,
            cols: self.cols.clone(),
            index_cache: Mutex::new(Vec::new()),
        }
    }
}

impl PartialEq for Columns {
    fn eq(&self, other: &Columns) -> bool {
        self.nrows == other.nrows && self.cols == other.cols
    }
}

impl Eq for Columns {}

impl std::fmt::Debug for Columns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Columns")
            .field("nrows", &self.nrows)
            .field("cols", &self.cols)
            .finish()
    }
}

/// Compares row `ia` of `a` with row `ib` of `b` in value order (equal
/// arity required). Code equality short-circuits without a rank load.
#[inline]
fn cmp_rows(a: &Columns, ia: usize, b: &Columns, ib: usize, rv: &RankView) -> Ordering {
    for (ca, cb) in a.cols.iter().zip(b.cols.iter()) {
        let (x, y) = (ca[ia], cb[ib]);
        if x != y {
            return rv.rank(x).cmp(&rv.rank(y));
        }
    }
    Ordering::Equal
}

/// Appends row `row` of `src` to the output buffers.
#[inline]
fn push_row(out: &mut [Vec<Code>], src: &Columns, row: usize) {
    for (o, c) in out.iter_mut().zip(src.cols.iter()) {
        o.push(c[row]);
    }
}

fn out_buffers(arity: usize, capacity: usize) -> Vec<Vec<Code>> {
    (0..arity).map(|_| Vec::with_capacity(capacity)).collect()
}

impl Columns {
    /// An empty store of the given arity.
    pub(crate) fn empty(arity: usize) -> Columns {
        Columns::from_sorted(0, vec![Vec::new(); arity])
    }

    /// Wraps buffers already in canonical order with no duplicates.
    pub(crate) fn from_sorted(nrows: usize, cols: Vec<Vec<Code>>) -> Columns {
        Columns {
            nrows,
            cols: cols.into_boxed_slice(),
            index_cache: Mutex::new(Vec::new()),
        }
    }

    /// Canonicalizes `nrows` row-major rows (`flat.len() == nrows *
    /// arity`, any order, duplicates allowed): rank-maps the codes once,
    /// sorts a row permutation by rank, drops adjacent duplicates and
    /// scatters into columns.
    pub(crate) fn from_unsorted_rows(arity: usize, nrows: usize, flat: Vec<Code>) -> Columns {
        if arity == 0 {
            return Columns::from_sorted(nrows.min(1), Vec::new());
        }
        debug_assert_eq!(flat.len(), nrows * arity);
        let rv = ranks();
        let krows: Vec<u32> = flat.iter().map(|&c| rv.rank(c)).collect();
        drop(rv);
        let key = |r: u32| &krows[r as usize * arity..r as usize * arity + arity];
        let mut perm: Vec<u32> = (0..nrows as u32).collect();
        perm.sort_unstable_by(|&x, &y| key(x).cmp(key(y)));
        perm.dedup_by(|x, y| key(*x) == key(*y));
        let mut cols = out_buffers(arity, perm.len());
        for &r in &perm {
            for (j, col) in cols.iter_mut().enumerate() {
                col.push(flat[r as usize * arity + j]);
            }
        }
        Columns::from_sorted(perm.len(), cols)
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.nrows
    }

    /// True iff there are no rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Number of columns.
    pub(crate) fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The code vector of column `j`.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[Code] {
        &self.cols[j]
    }

    /// Resolves all rows, row-major, under one dictionary guard. The
    /// `'static` references outlive the guard, so callers can iterate and
    /// run arbitrary closures without holding any lock.
    pub(crate) fn resolve_rows(&self) -> Vec<&'static Value> {
        let vv = values();
        let mut out = Vec::with_capacity(self.nrows * self.cols.len());
        for i in 0..self.nrows {
            for c in self.cols.iter() {
                out.push(vv.value(c[i]));
            }
        }
        out
    }

    /// Binary-searches canonical order for the row equal to `probe`
    /// (values aligned with the header). `Ok(row)` on a hit, `Err(slot)`
    /// with the insertion position otherwise. Compares resolved values
    /// directly — no interning, no rank rebuild — so negative membership
    /// probes never grow the dictionary.
    pub(crate) fn find_row(&self, probe: &[Value]) -> std::result::Result<usize, usize> {
        let vv = values();
        let (mut lo, mut hi) = (0usize, self.nrows);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut ord = Ordering::Equal;
            for (col, pv) in self.cols.iter().zip(probe) {
                match vv.value(col[mid]).cmp(pv) {
                    Ordering::Equal => {}
                    o => {
                        ord = o;
                        break;
                    }
                }
            }
            match ord {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Inserts a row (codes in header order) at canonical position `at`,
    /// invalidating cached indexes.
    pub(crate) fn insert_row(&mut self, at: usize, codes: &[Code]) {
        self.clear_cache();
        for (col, &c) in self.cols.iter_mut().zip(codes) {
            col.insert(at, c);
        }
        self.nrows += 1;
    }

    /// Removes the row at `at`, invalidating cached indexes.
    pub(crate) fn remove_row(&mut self, at: usize) {
        self.clear_cache();
        for col in self.cols.iter_mut() {
            col.remove(at);
        }
        self.nrows -= 1;
    }

    fn clear_cache(&mut self) {
        self.index_cache
            .get_mut()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }

    /// The sorted key index over `positions`, built on first use and
    /// cached on this store — shared by everyone holding the same `Arc`.
    pub(crate) fn index_for(&self, positions: &[usize]) -> Arc<KeyIndex> {
        let mut cache = self.index_cache.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((_, idx)) = cache.iter().find(|(p, _)| **p == *positions) {
            return Arc::clone(idx);
        }
        let idx = Arc::new(KeyIndex::build(self, positions));
        cache.push((positions.into(), Arc::clone(&idx)));
        idx
    }

    /// Number of distinct values of the given column combination, counted
    /// as group boundaries along the cached sorted key index — O(n)
    /// comparisons after the (cached, shared) index build.
    pub(crate) fn distinct_on(&self, positions: &[usize]) -> usize {
        if positions.is_empty() {
            return self.nrows.min(1);
        }
        let idx = self.index_for(positions);
        let mut count = 0usize;
        let mut prev: Option<u32> = None;
        for &row in idx.order.iter() {
            let boundary = match prev {
                None => true,
                Some(p) => positions
                    .iter()
                    .any(|&j| self.cols[j][row as usize] != self.cols[j][p as usize]),
            };
            if boundary {
                count += 1;
            }
            prev = Some(row);
        }
        count
    }

    /// Number of key indexes currently cached (test helper).
    #[cfg(test)]
    pub(crate) fn cached_indexes(&self) -> usize {
        self.index_cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Keeps the rows listed in `keep` (ascending, distinct), preserving
    /// canonical order — a subset of sorted unique rows is sorted unique.
    pub(crate) fn gather_sorted(&self, keep: &[u32]) -> Columns {
        let cols: Vec<Vec<Code>> = self
            .cols
            .iter()
            .map(|c| keep.iter().map(|&r| c[r as usize]).collect())
            .collect();
        Columns::from_sorted(keep.len(), cols)
    }

    /// Projects onto `positions` (strictly increasing). A prefix of the
    /// header preserves canonical order, so it only needs an adjacent
    /// dedup scan; any other shape gathers row-major and re-canonicalizes.
    pub(crate) fn project(&self, positions: &[usize]) -> Columns {
        let k = positions.len();
        if k == 0 {
            return Columns::from_sorted(self.nrows.min(1), Vec::new());
        }
        if positions.iter().enumerate().all(|(i, &p)| i == p) {
            let mut keep: Vec<u32> = Vec::with_capacity(self.nrows);
            for i in 0..self.nrows {
                if i == 0 || positions.iter().any(|&p| self.cols[p][i] != self.cols[p][i - 1]) {
                    keep.push(i as u32);
                }
            }
            let cols: Vec<Vec<Code>> = positions
                .iter()
                .map(|&p| keep.iter().map(|&r| self.cols[p][r as usize]).collect())
                .collect();
            return Columns::from_sorted(keep.len(), cols);
        }
        let mut flat = Vec::with_capacity(self.nrows * k);
        for i in 0..self.nrows {
            for &p in positions {
                flat.push(self.cols[p][i]);
            }
        }
        Columns::from_unsorted_rows(k, self.nrows, flat)
    }
}

/// `a ∪ b` by sorted merge; the output buffers are allocated once at the
/// combined capacity, never re-sorted.
pub(crate) fn union(a: &Columns, b: &Columns) -> Columns {
    if b.nrows == 0 {
        return a.clone();
    }
    if a.nrows == 0 {
        return b.clone();
    }
    let rv = ranks();
    let mut out = out_buffers(a.cols.len(), a.nrows + b.nrows);
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.nrows && j < b.nrows {
        match cmp_rows(a, i, b, j, &rv) {
            Ordering::Less => {
                push_row(&mut out, a, i);
                i += 1;
            }
            Ordering::Greater => {
                push_row(&mut out, b, j);
                j += 1;
            }
            Ordering::Equal => {
                push_row(&mut out, a, i);
                i += 1;
                j += 1;
            }
        }
        n += 1;
    }
    while i < a.nrows {
        push_row(&mut out, a, i);
        i += 1;
        n += 1;
    }
    while j < b.nrows {
        push_row(&mut out, b, j);
        j += 1;
        n += 1;
    }
    Columns::from_sorted(n, out)
}

/// `a ∖ b` by sorted merge.
pub(crate) fn difference(a: &Columns, b: &Columns) -> Columns {
    if a.nrows == 0 || b.nrows == 0 {
        return a.clone();
    }
    let rv = ranks();
    let mut out = out_buffers(a.cols.len(), a.nrows);
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.nrows {
        let keep = loop {
            if j >= b.nrows {
                break true;
            }
            match cmp_rows(b, j, a, i, &rv) {
                Ordering::Less => j += 1,
                Ordering::Equal => break false,
                Ordering::Greater => break true,
            }
        };
        if keep {
            push_row(&mut out, a, i);
            n += 1;
        }
        i += 1;
    }
    Columns::from_sorted(n, out)
}

/// `a ∩ b` by sorted merge.
pub(crate) fn intersect(a: &Columns, b: &Columns) -> Columns {
    if a.nrows == 0 {
        return a.clone();
    }
    if b.nrows == 0 {
        return Columns::empty(a.cols.len());
    }
    let rv = ranks();
    let mut out = out_buffers(a.cols.len(), a.nrows.min(b.nrows));
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.nrows && j < b.nrows {
        match cmp_rows(a, i, b, j, &rv) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                push_row(&mut out, a, i);
                i += 1;
                j += 1;
                n += 1;
            }
        }
    }
    Columns::from_sorted(n, out)
}

/// `|a ∩ b|` by sorted merge, without building the intersection.
pub(crate) fn intersection_len(a: &Columns, b: &Columns) -> usize {
    if a.nrows == 0 || b.nrows == 0 {
        return 0;
    }
    let rv = ranks();
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.nrows && j < b.nrows {
        match cmp_rows(a, i, b, j, &rv) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                i += 1;
                j += 1;
                n += 1;
            }
        }
    }
    n
}

/// `(base ∖ del) ∪ ins` in one three-way merge pass — the delta identity
/// every maintenance path ends with. Inserts win over deletes, matching
/// the remove-then-extend semantics of the row/set representation.
pub(crate) fn apply_delta(base: &Columns, ins: &Columns, del: &Columns) -> Columns {
    if ins.nrows == 0 && del.nrows == 0 {
        return base.clone();
    }
    let rv = ranks();
    let mut out = out_buffers(base.cols.len(), base.nrows + ins.nrows);
    let (mut i, mut d, mut k, mut n) = (0usize, 0usize, 0usize, 0usize);
    while i < base.nrows || k < ins.nrows {
        if i < base.nrows {
            while d < del.nrows && cmp_rows(del, d, base, i, &rv) == Ordering::Less {
                d += 1;
            }
            if d < del.nrows && cmp_rows(del, d, base, i, &rv) == Ordering::Equal {
                i += 1;
                continue;
            }
        }
        if i >= base.nrows {
            push_row(&mut out, ins, k);
            k += 1;
        } else if k >= ins.nrows {
            push_row(&mut out, base, i);
            i += 1;
        } else {
            match cmp_rows(base, i, ins, k, &rv) {
                Ordering::Less => {
                    push_row(&mut out, base, i);
                    i += 1;
                }
                Ordering::Greater => {
                    push_row(&mut out, ins, k);
                    k += 1;
                }
                Ordering::Equal => {
                    push_row(&mut out, base, i);
                    i += 1;
                    k += 1;
                }
            }
        }
        n += 1;
    }
    Columns::from_sorted(n, out)
}

/// Binary-searches `base[lo..]` in canonical order for row `row` of
/// `probe` (equal arity): `Ok(r)` on a hit, `Err(slot)` otherwise.
fn search(base: &Columns, lo: usize, probe: &Columns, row: usize, rv: &RankView) -> Result<usize, usize> {
    let (mut lo, mut hi) = (lo, base.nrows);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match cmp_rows(base, mid, probe, row, rv) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// The rows of `base` equal to some row of `keys` (same arity), ascending
/// — a semijoin on every column by binary search, `O(|keys| log |base|)`
/// with no index.
pub(crate) fn find_rows(base: &Columns, keys: &Columns) -> Vec<u32> {
    let rv = ranks();
    let mut out = Vec::new();
    let mut lo = 0;
    for k in 0..keys.nrows {
        match search(base, lo, keys, k, &rv) {
            Ok(r) => {
                out.push(r as u32);
                lo = r + 1;
            }
            Err(slot) => lo = slot,
        }
    }
    out
}

/// Locates `(base ∖ del) ∪ ins` inside `base` by binary search — one
/// probe per delta row, `O((|ins| + |del|) log |base|)`. Inserts win over
/// deletes, as in [`apply_delta`]; rows of `ins` already in `base` and
/// rows of `del` absent from it are no-ops and do not appear.
pub(crate) fn locate(base: &Columns, ins: &Columns, del: &Columns) -> Splice {
    let rv = ranks();
    let mut at = Splice::default();
    let mut lo = 0;
    for k in 0..ins.nrows {
        match search(base, lo, ins, k, &rv) {
            Ok(r) => lo = r,
            Err(slot) => {
                at.inserted.push((slot as u32, k as u32));
                lo = slot;
            }
        }
    }
    let (mut lo, mut k) = (0, 0);
    for d in 0..del.nrows {
        match search(base, lo, del, d, &rv) {
            Ok(r) => {
                lo = r + 1;
                while k < ins.nrows && cmp_rows(ins, k, del, d, &rv) == Ordering::Less {
                    k += 1;
                }
                if k < ins.nrows && cmp_rows(ins, k, del, d, &rv) == Ordering::Equal {
                    continue;
                }
                at.deleted.push(r as u32);
            }
            Err(slot) => lo = slot,
        }
    }
    at
}

/// Builds the store `at` describes: each column is the old one with the
/// runs between splice positions copied whole, so the cost is a memcpy
/// of the store plus `O(|Δ|)` — no row is compared. Every key index
/// cached on `base` is carried over, patched ([`KeyIndex::patched`]).
pub(crate) fn splice(base: &Columns, ins: &Columns, at: &Splice) -> Columns {
    let n = base.nrows;
    let nrows = n - at.deleted.len() + at.inserted.len();
    let mut cols = Vec::with_capacity(base.cols.len());
    for (src, add) in base.cols.iter().zip(ins.cols.iter()) {
        let mut out = Vec::with_capacity(nrows);
        let (mut row, mut i, mut d) = (0usize, 0usize, 0usize);
        loop {
            let next_i = at.inserted.get(i).map_or(n, |&(slot, _)| slot as usize);
            let next_d = at.deleted.get(d).map_or(n, |&r| r as usize);
            let stop = next_i.min(next_d);
            out.extend_from_slice(&src[row..stop]);
            row = stop;
            if i < at.inserted.len() && next_i == row {
                out.push(add[at.inserted[i].1 as usize]);
                i += 1;
            } else if d < at.deleted.len() && next_d == row {
                row += 1;
                d += 1;
            } else {
                break;
            }
        }
        cols.push(out);
    }
    let mut out = Columns::from_sorted(nrows, cols);
    let cached = base.index_cache.lock().unwrap_or_else(|p| p.into_inner()).clone();
    if !cached.is_empty() {
        let remap = at.remap(n);
        *out.index_cache.get_mut().unwrap_or_else(|p| p.into_inner()) = cached
            .iter()
            .map(|(p, idx)| (p.clone(), Arc::new(idx.patched(&out, at, &remap))))
            .collect();
    }
    out
}

/// True iff every row of `a` occurs in `b` (sorted two-pointer walk).
pub(crate) fn is_subset(a: &Columns, b: &Columns) -> bool {
    if a.nrows > b.nrows {
        return false;
    }
    let rv = ranks();
    let mut j = 0usize;
    'rows: for i in 0..a.nrows {
        while j < b.nrows {
            match cmp_rows(b, j, a, i, &rv) {
                Ordering::Less => j += 1,
                Ordering::Equal => {
                    j += 1;
                    continue 'rows;
                }
                Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Lexicographic comparison of two stores in canonical row order — the
/// order `BTreeSet<Tuple>` would compare in (row by row, then length).
pub(crate) fn cmp_lex(a: &Columns, b: &Columns) -> Ordering {
    let rv = ranks();
    for i in 0..a.nrows.min(b.nrows) {
        match cmp_rows(a, i, b, i, &rv) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    a.nrows.cmp(&b.nrows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(vals: &[Value]) -> Vec<Code> {
        vals.iter().map(intern).collect()
    }

    #[test]
    fn intern_is_idempotent_and_injective() {
        let a = intern(&Value::int(42));
        let b = intern(&Value::int(42));
        let c = intern(&Value::str("42"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(values().value(a), &Value::int(42));
    }

    #[test]
    fn ranks_follow_value_order_across_interning_order() {
        // Intern out of value order; ranks must still compare correctly.
        let hi = intern(&Value::str("zzz-colrank"));
        let lo = intern(&Value::from(false));
        let rv = ranks();
        assert!(rv.rank(lo) < rv.rank(hi), "Bool < Str in the value order");
    }

    #[test]
    fn from_unsorted_rows_sorts_and_dedups() {
        let flat = codes(&[
            Value::int(2),
            Value::str("b"),
            Value::int(1),
            Value::str("a"),
            Value::int(2),
            Value::str("b"),
        ]);
        let c = Columns::from_unsorted_rows(2, 3, flat);
        assert_eq!(c.len(), 2);
        let vv = values();
        assert_eq!(vv.value(c.col(0)[0]), &Value::int(1));
        assert_eq!(vv.value(c.col(0)[1]), &Value::int(2));
    }

    #[test]
    fn nullary_rows_collapse_to_dee() {
        let c = Columns::from_unsorted_rows(0, 3, Vec::new());
        assert_eq!(c.len(), 1);
        assert_eq!(c.arity(), 0);
        let empty = Columns::from_unsorted_rows(0, 0, Vec::new());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn find_row_hits_and_slots() {
        let flat = codes(&[Value::int(10), Value::int(30)]);
        let c = Columns::from_unsorted_rows(1, 2, flat);
        assert_eq!(c.find_row(&[Value::int(10)]), Ok(0));
        assert_eq!(c.find_row(&[Value::int(30)]), Ok(1));
        assert_eq!(c.find_row(&[Value::int(20)]), Err(1));
        // Probing a value that was never interned must still work.
        assert!(c.find_row(&[Value::str("never-interned-find-row")]).is_err());
    }

    #[test]
    fn key_index_probe_returns_matching_rows() {
        let flat = codes(&[
            Value::int(1),
            Value::int(100),
            Value::int(2),
            Value::int(100),
            Value::int(3),
            Value::int(200),
        ]);
        let c = Columns::from_unsorted_rows(2, 3, flat);
        let idx = c.index_for(&[1]);
        let k100 = intern(&Value::int(100));
        let k200 = intern(&Value::int(200));
        assert_eq!(idx.probe(&c, &[k100]).len(), 2);
        assert_eq!(idx.probe(&c, &[k200]).len(), 1);
        assert_eq!(idx.probe(&c, &[intern(&Value::int(999))]).len(), 0);
        // Cached: same positions, same index.
        assert_eq!(c.cached_indexes(), 1);
        let again = c.index_for(&[1]);
        assert!(Arc::ptr_eq(&idx, &again));
    }

    #[test]
    fn mutation_invalidates_cached_indexes() {
        let flat = codes(&[Value::int(1), Value::int(2)]);
        let mut c = Columns::from_unsorted_rows(1, 2, flat);
        c.index_for(&[0]);
        assert_eq!(c.cached_indexes(), 1);
        c.insert_row(0, &[intern(&Value::int(0))]);
        assert_eq!(c.cached_indexes(), 0, "insert must clear the cache");
        assert_eq!(c.len(), 3);
        c.remove_row(0);
        assert_eq!(c.len(), 2);
    }

    /// Every row of `c`, row-major.
    fn rows_of(c: &Columns) -> Vec<Vec<Code>> {
        (0..c.len()).map(|i| (0..c.arity()).map(|j| c.col(j)[i]).collect()).collect()
    }

    #[test]
    fn indexes_carried_through_a_splice_answer_like_fresh_builds() {
        // A two-column store keyed on column 0 with duplicate keys; a
        // sweep of small deltas (inserts at the front, middle and end,
        // deletes, both at once, no-ops) applied one after another, each
        // time comparing every probe of the carried index with a fresh
        // build over the same store.
        let row = |k: i64, v: i64| codes(&[Value::int(k), Value::int(v)]);
        let store = |rows: &[(i64, i64)]| {
            let flat: Vec<Code> = rows.iter().flat_map(|&(k, v)| row(k, v)).collect();
            Columns::from_unsorted_rows(2, rows.len(), flat)
        };
        let mut cur = store(&(0..40).map(|i| (i % 7, i)).collect::<Vec<_>>());
        cur.index_for(&[0]);
        cur.index_for(&[1, 0]);
        type Rows = Vec<(i64, i64)>;
        let steps: Vec<(Rows, Rows)> = vec![
            (vec![(-1, 100)], vec![]),
            (vec![(3, 1000), (3, -5)], vec![(0, 0), (6, 34)]),
            (vec![(99, 7)], vec![(5, 5), (99, 7)]),
            (vec![(2, 2)], vec![(2, 2)]),
            (vec![], vec![(42, 42)]),
            (vec![(0, 0), (1, 1)], vec![(3, 1000)]),
        ];
        for (ins, del) in steps {
            let (ins, del) = (store(&ins), store(&del));
            let at = locate(&cur, &ins, &del);
            let next = splice(&cur, &ins, &at);
            assert_eq!(next, apply_delta(&cur, &ins, &del), "splice equals the merge");
            assert_eq!(next.cached_indexes(), 2, "both indexes carried");
            let fresh = next.clone();
            for positions in [&[0usize][..], &[1, 0][..]] {
                let (carried, rebuilt) = (next.index_for(positions), fresh.index_for(positions));
                assert_eq!(carried.order, rebuilt.order, "same rows in the same order");
                for r in rows_of(&next) {
                    let key: Vec<Code> = positions.iter().map(|&p| r[p]).collect();
                    assert_eq!(carried.probe(&next, &key), rebuilt.probe(&fresh, &key));
                }
                assert!(carried.probe(&next, &[intern(&Value::int(-77)), 0][..positions.len()]).is_empty());
            }
            cur = next;
        }
    }

    #[test]
    fn clones_do_not_share_the_cache() {
        let flat = codes(&[Value::int(7)]);
        let c = Columns::from_unsorted_rows(1, 1, flat);
        c.index_for(&[0]);
        let d = c.clone();
        assert_eq!(d.cached_indexes(), 0);
        assert_eq!(c, d);
    }

    #[test]
    fn merges_match_naive_sets() {
        let a = Columns::from_unsorted_rows(1, 3, codes(&[Value::int(1), Value::int(2), Value::int(3)]));
        let b = Columns::from_unsorted_rows(1, 2, codes(&[Value::int(2), Value::int(4)]));
        assert_eq!(union(&a, &b).len(), 4);
        assert_eq!(difference(&a, &b).len(), 2);
        assert_eq!(intersect(&a, &b).len(), 1);
        // (a ∖ {2,4}) ∪ {2,4} = {1, 2, 3, 4}: inserts win over deletes.
        let d = apply_delta(&a, &b, &b);
        assert_eq!(d.len(), 4);
        assert!(is_subset(&intersect(&a, &b), &a));
        assert!(!is_subset(&a, &b));
        assert_eq!(cmp_lex(&a, &a), Ordering::Equal);
        assert_eq!(cmp_lex(&b, &a), Ordering::Greater);
    }
}
