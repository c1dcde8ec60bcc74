//! Shared generators and fixtures for the cross-crate test suites.
//!
//! All random inputs are produced from a `dwc-testkit` [`SplitMix64`]
//! stream and represented as plain data (`Vec<Vec<i64>>` row sets) so the
//! testkit's generic [`Shrink`](dwc_testkit::Shrink) machinery can
//! minimize counterexamples structurally — fewer rows, smaller values —
//! before a failure is reported.
#![allow(dead_code)] // each test binary uses a different subset

use dwc_testkit::{DiskError, SimDisk, SplitMix64};
use dwcomplements::relalg::{
    AttrSet, Catalog, DbState, Delta, Predicate, RaExpr, RelName, Relation, Tuple, Update,
    Value,
};
use dwcomplements::warehouse::{MediumError, StorageMedium};

// ---------------------------------------------------------------------
// SimDisk → StorageMedium adapter
// ---------------------------------------------------------------------

/// Runs the production durability code over the simulated disk — the
/// crash, fault, group-commit and server suites all use it. Clones share
/// the disk, its plan and its op counter. Injected transient faults map
/// to retryable [`MediumError`]s (`DWC-S002`); permanent faults, the
/// crash and missing files map to fatal ones.
#[derive(Clone, Debug, Default)]
pub struct DiskMedium(pub SimDisk);

fn disk_err(op: &'static str, path: &str, e: DiskError) -> MediumError {
    if e.is_transient() {
        MediumError::transient(op, path, e.to_string())
    } else {
        MediumError::fatal(op, path, e.to_string())
    }
}

impl StorageMedium for DiskMedium {
    fn read(&self, path: &str) -> Result<Vec<u8>, MediumError> {
        self.0.read(path).map_err(|e| disk_err("read", path, e))
    }
    fn write_all(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError> {
        self.0.write_all(path, bytes).map_err(|e| disk_err("write", path, e))
    }
    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError> {
        self.0.append(path, bytes).map_err(|e| disk_err("append", path, e))
    }
    fn sync(&self, path: &str) -> Result<(), MediumError> {
        self.0.sync(path).map_err(|e| disk_err("sync", path, e))
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), MediumError> {
        self.0.rename(from, to).map_err(|e| disk_err("rename", from, e))
    }
    fn remove(&self, path: &str) -> Result<(), MediumError> {
        self.0.remove(path).map_err(|e| disk_err("remove", path, e))
    }
    fn list(&self) -> Result<Vec<String>, MediumError> {
        Ok(self.0.list())
    }
    fn exists(&self, path: &str) -> bool {
        self.0.exists(path)
    }
}

/// The unconstrained three-relation catalog used by the expression and
/// delta properties: R(a,b), S(b,c), T(c).
pub fn chain_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_schema("R", &["a", "b"]).expect("static schema");
    c.add_schema("S", &["b", "c"]).expect("static schema");
    c.add_schema("T", &["c"]).expect("static schema");
    c
}

/// Integer row sets — the shrinkable wire format for relations.
pub type Rows = Vec<Vec<i64>>;

/// Rows over a small domain (collisions on purpose): up to `max` rows of
/// `arity` values each, drawn from `0..6`.
pub fn gen_rows(rng: &mut SplitMix64, arity: usize, max: usize) -> Rows {
    let n = rng.index(max);
    (0..n)
        .map(|_| (0..arity).map(|_| rng.i64_in(0, 6)).collect())
        .collect()
}

/// Builds a relation from generated integer rows.
pub fn relation_from(names: &[&str], rows: &[Vec<i64>]) -> Relation {
    let mut rel = Relation::empty(AttrSet::from_names(names));
    for row in rows {
        // names given in canonical (sorted) order by the callers
        rel.insert(Tuple::new(row.iter().map(|&v| Value::int(v)).collect()))
            .expect("generated arity matches");
    }
    rel
}

/// The shrinkable raw material of a chain-catalog state: row sets for R,
/// S and T.
pub type ChainRows = (Rows, Rows, Rows);

/// Random raw rows for a chain state.
pub fn gen_chain_rows(rng: &mut SplitMix64) -> ChainRows {
    (gen_rows(rng, 2, 24), gen_rows(rng, 2, 24), gen_rows(rng, 1, 12))
}

/// Materializes chain rows into a state.
pub fn chain_state((r, s, t): &ChainRows) -> DbState {
    let mut db = DbState::new();
    db.insert_relation("R", relation_from(&["a", "b"], r));
    db.insert_relation("S", relation_from(&["b", "c"], s));
    db.insert_relation("T", relation_from(&["c"], t));
    db
}

/// The shrinkable raw material of a chain-catalog update: insert/delete
/// row sets for R, S and T in order.
pub type ChainUpdateRows = (Rows, Rows, Rows, Rows, Rows, Rows);

/// Random raw rows for a chain update (possibly overlapping,
/// unnormalized — exercises normalization too).
pub fn gen_chain_update_rows(rng: &mut SplitMix64) -> ChainUpdateRows {
    (
        gen_rows(rng, 2, 6),
        gen_rows(rng, 2, 6),
        gen_rows(rng, 2, 6),
        gen_rows(rng, 2, 6),
        gen_rows(rng, 1, 4),
        gen_rows(rng, 1, 4),
    )
}

/// Materializes update rows into an [`Update`].
pub fn chain_update((ri, rd, si, sd, ti, td): &ChainUpdateRows) -> Update {
    Update::new()
        .with(
            "R",
            Delta::new(relation_from(&["a", "b"], ri), relation_from(&["a", "b"], rd))
                .expect("same header"),
        )
        .with(
            "S",
            Delta::new(relation_from(&["b", "c"], si), relation_from(&["b", "c"], sd))
                .expect("same header"),
        )
        .with(
            "T",
            Delta::new(relation_from(&["c"], ti), relation_from(&["c"], td))
                .expect("same header"),
        )
}

/// A random well-typed expression over the chain catalog, produced from a
/// seed with a deterministic generator (the runner drives the seed/depth;
/// well-typedness by construction keeps rejection rates at zero).
pub fn random_expr(seed: u64, depth: u32, catalog: &Catalog) -> RaExpr {
    let mut rng = SplitMix64::new(seed);
    gen_expr(&mut rng, depth, catalog).0
}

fn gen_expr(rng: &mut SplitMix64, depth: u32, catalog: &Catalog) -> (RaExpr, AttrSet) {
    let bases: Vec<RelName> = catalog.relation_names().collect();
    if depth == 0 || rng.chance(1, 4) {
        let name = bases[rng.index(bases.len())];
        let attrs = catalog.schema(name).expect("known").attrs().clone();
        return (RaExpr::Base(name), attrs);
    }
    match rng.below(6) {
        // selection
        0 => {
            let (e, attrs) = gen_expr(rng, depth - 1, catalog);
            let a = attrs.as_slice()[rng.index(attrs.len())];
            let pred = Predicate::Cmp(
                dwcomplements::relalg::Operand::Attr(a),
                match rng.below(3) {
                    0 => dwcomplements::relalg::CmpOp::Eq,
                    1 => dwcomplements::relalg::CmpOp::Le,
                    _ => dwcomplements::relalg::CmpOp::Gt,
                },
                dwcomplements::relalg::Operand::Const(Value::int(rng.below(6) as i64)),
            );
            (e.select(pred), attrs)
        }
        // projection onto a random non-empty subset
        1 => {
            let (e, attrs) = gen_expr(rng, depth - 1, catalog);
            let keep: Vec<_> = attrs
                .iter()
                .filter(|_| rng.chance(2, 3))
                .collect();
            let subset = if keep.is_empty() {
                AttrSet::singleton(attrs.as_slice()[rng.index(attrs.len())])
            } else {
                AttrSet::from_iter(keep)
            };
            (e.project(subset.clone()), subset)
        }
        // join
        2 => {
            let (l, la) = gen_expr(rng, depth - 1, catalog);
            let (r, ra) = gen_expr(rng, depth - 1, catalog);
            (l.join(r), la.union(&ra))
        }
        // set operations: project both sides to the shared header
        3..=5 => {
            let (l, la) = gen_expr(rng, depth - 1, catalog);
            let (r, ra) = gen_expr(rng, depth - 1, catalog);
            let common = la.intersect(&ra);
            if common.is_empty() {
                return (l, la);
            }
            let lp = l.project(common.clone());
            let rp = r.project(common.clone());
            let e = match rng.below(3) {
                0 => lp.union(rp),
                1 => lp.diff(rp),
                _ => lp.intersect(rp),
            };
            (e, common)
        }
        _ => unreachable!(),
    }
}
