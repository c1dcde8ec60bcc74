//! Seeded inputs: the star-schema base state, the report stream and the
//! query set. The server only ever sees lines produced here.
//!
//! The base state is the same for every `--seed` (as a loaded dataset is
//! in any database benchmark); the seed picks which orders form the ring
//! and in which order they are walked, i.e. the request stream. At this
//! scale a reseeded *dataset* moves answer sizes by half and cold-start
//! time by a quarter, which would drown the run-to-run spread the gate
//! needs to see.
//!
//! The report stream is *stationary*: a ring of `RING` base orders is
//! walked forever; each step retires one order (its line items, then the
//! order row) and restores the order retired `LAG` steps earlier (order
//! row, then line items). Every report is FK-valid against the state it
//! meets, the live state stays within `LAG` order groups of the base
//! state, and — because restored rows are the base rows — no report ever
//! carries a value the server has not interned at load. State size,
//! per-report cost and the server's leaked value dictionary therefore do
//! not depend on how many reports a faster server completes.

use dwc_testkit::SplitMix64;
use dwcomplements::relalg::{DbState, RaExpr, RelName, Relation};
use dwcomplements::starschema::{generate, queries, ScaleConfig};

/// Scale factor of the base state (see README "Sizes").
pub const SCALE: f64 = 0.05;
/// Generator seed of the base state.
pub const BASE_SEED: u64 = 1999;
/// Orders in the retire/restore ring.
pub const RING: usize = 256;
/// Steps between an order's retirement and its restoration.
pub const LAG: usize = 16;

/// One single-row report in the shell's update dialect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// `insert` (true) or `delete`.
    pub insert: bool,
    /// `Name (attr=value, ...)`.
    pub body: String,
}

impl Report {
    /// The `report` protocol line (without newline) at a sequencing slot.
    pub fn wire(&self, epoch: u64, seq: u64) -> String {
        let verb = if self.insert { "insert" } else { "delete" };
        format!("report {epoch} {seq} {verb} {}", self.body)
    }
}

/// The endless report stream: a retire-only prologue of `LAG` steps, then
/// a cycle of `RING` retire+restore steps repeated forever.
#[derive(Clone, Debug)]
pub struct ReportStream {
    prologue: Vec<Report>,
    cycle: Vec<Report>,
}

impl ReportStream {
    /// The `i`-th report of the stream.
    pub fn get(&self, i: u64) -> &Report {
        let p = self.prologue.len() as u64;
        if i < p {
            &self.prologue[i as usize]
        } else {
            &self.cycle[((i - p) % self.cycle.len() as u64) as usize]
        }
    }

    /// Reports before the stream becomes periodic, and the period.
    pub fn shape(&self) -> (usize, usize) {
        (self.prologue.len(), self.cycle.len())
    }
}

/// A named workload query with its text as sent over the wire.
#[derive(Clone, Debug)]
pub struct Query {
    /// `Q1` … `Q8`.
    pub name: &'static str,
    /// The expression text after the `query` verb.
    pub text: String,
    /// Parsed form, for the oracle.
    pub expr: RaExpr,
    /// True when no report of the stream touches a relation it reads.
    pub is_static: bool,
}

/// Everything derived from `--seed`.
pub struct Inputs {
    pub base: DbState,
    pub stream: ReportStream,
    pub queries: Vec<Query>,
}

/// The five workload queries (of `starschema::queries::workload()`) the
/// issue names, in round-robin order.
const QUERY_NAMES: [(&str, &str); 5] = [
    ("Q1", "Q1-dim-scan"),
    ("Q2", "Q2-fact-dim"),
    ("Q3", "Q3-two-hop"),
    ("Q7", "Q7-difference"),
    ("Q8", "Q8-bulk-join"),
];

fn rows_as_bodies(name: &str, rel: &Relation) -> Vec<String> {
    let attrs = rel.attrs().as_slice();
    rel.iter()
        .map(|t| {
            let pairs: Vec<String> = attrs
                .iter()
                .zip(t.values())
                .map(|(a, v)| format!("{a}={v}"))
                .collect();
            format!("{name} ({})", pairs.join(", "))
        })
        .collect()
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let base = generate(&ScaleConfig::scaled(SCALE), BASE_SEED);
        let stream = build_stream(&base, seed);
        let workload = queries::workload();
        let queries = QUERY_NAMES
            .iter()
            .map(|(short, long)| {
                let q = workload
                    .iter()
                    .find(|q| q.name == *long)
                    .expect("workload() names are fixed");
                let text = q.expr.to_string();
                let expr =
                    RaExpr::parse(&text).expect("workload query round-trips through Display");
                let is_static = !["Orders", "Lineitem"]
                    .iter()
                    .any(|r| expr.base_relations().contains(&RelName::new(r)));
                Query {
                    name: short,
                    text,
                    expr,
                    is_static,
                }
            })
            .collect();
        Inputs {
            base,
            stream,
            queries,
        }
    }

    /// FNV-1a over the first prologue + one cycle of report lines and the
    /// query lines: the fingerprint of the request stream for this seed.
    pub fn fingerprint(&self) -> u64 {
        let (p, c) = self.stream.shape();
        let mut h = Fnv::new();
        for i in 0..(p + c) as u64 {
            h.write(self.stream.get(i).wire(0, i).as_bytes());
            h.write(b"\n");
        }
        for q in &self.queries {
            h.write(format!("query {}\n", q.text).as_bytes());
        }
        h.finish()
    }
}

fn build_stream(base: &DbState, seed: u64) -> ReportStream {
    let orders = base
        .relation(RelName::new("Orders"))
        .expect("base covers catalog");
    let lineitems = base
        .relation(RelName::new("Lineitem"))
        .expect("base covers catalog");
    let okey = orders
        .attrs()
        .index_of("orderkey".into())
        .expect("Orders.orderkey");
    let lkey = lineitems
        .attrs()
        .index_of("orderkey".into())
        .expect("Lineitem.orderkey");

    // Group the base rows by order key: (order row, its line items).
    let order_bodies = rows_as_bodies("Orders", orders);
    let item_bodies = rows_as_bodies("Lineitem", lineitems);
    let mut groups: std::collections::BTreeMap<i64, (String, Vec<String>)> = orders
        .iter()
        .zip(order_bodies)
        .map(|(t, body)| (t.get(okey).as_int().expect("int key"), (body, Vec::new())))
        .collect();
    for (t, body) in lineitems.iter().zip(item_bodies) {
        let key = t.get(lkey).as_int().expect("int key");
        groups
            .get_mut(&key)
            .expect("FK Lineitem -> Orders")
            .1
            .push(body);
    }

    let mut keys: Vec<i64> = groups.keys().copied().collect();
    SplitMix64::new(seed ^ 0x10ad_be7c).shuffle(&mut keys);
    keys.truncate(RING);
    assert!(keys.len() > LAG, "base state too small for the ring");

    let retire = |key: i64, out: &mut Vec<Report>| {
        let (order, items) = &groups[&key];
        out.extend(items.iter().map(|b| Report {
            insert: false,
            body: b.clone(),
        }));
        out.push(Report {
            insert: false,
            body: order.clone(),
        });
    };
    let restore = |key: i64, out: &mut Vec<Report>| {
        let (order, items) = &groups[&key];
        out.push(Report {
            insert: true,
            body: order.clone(),
        });
        out.extend(items.iter().map(|b| Report {
            insert: true,
            body: b.clone(),
        }));
    };
    let n = keys.len();
    let mut prologue = Vec::new();
    for &key in &keys[..LAG] {
        retire(key, &mut prologue);
    }
    // Step LAG + j retires ring slot (LAG + j) % n and restores slot j % n;
    // after n such steps the live set is what it was, so the cycle repeats.
    let mut cycle = Vec::new();
    for j in 0..n {
        retire(keys[(LAG + j) % n], &mut cycle);
        restore(keys[j], &mut cycle);
    }
    ReportStream { prologue, cycle }
}

/// 64-bit FNV-1a, the harness's only hash (request fingerprint and answer
/// row hashes) — no `HashMap` iteration order enters any output.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwcomplements::shell::parse_update;
    use dwcomplements::starschema::star_catalog;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = Inputs::generate(7);
        assert_eq!(a.fingerprint(), Inputs::generate(7).fingerprint());
        assert_ne!(a.fingerprint(), Inputs::generate(8).fingerprint());
    }

    #[test]
    fn stream_is_valid_and_periodic() {
        let inputs = Inputs::generate(3);
        let catalog = star_catalog();
        let (p, c) = inputs.stream.shape();
        let mut db = inputs.base.clone();
        let mut after_prologue = None;
        for i in 0..(p + 2 * c) as u64 {
            if i == p as u64 {
                after_prologue = Some(db.clone());
            }
            let r = inputs.stream.get(i);
            let u = parse_update(&catalog, &r.body, r.insert).expect("generated body parses");
            // Already normalized: the report changes exactly one row.
            assert_eq!(
                u.normalize(&db).expect("normalizes"),
                u,
                "report {i} is not normalized"
            );
            u.apply_mut(&mut db).expect("applies");
            db.check_constraints(&catalog)
                .unwrap_or_else(|e| panic!("report {i}: {e}"));
        }
        assert_eq!(
            Some(db),
            after_prologue,
            "two cycles must return to the same state"
        );
    }
}
