//! The in-process oracle: the source database the server never sees.
//!
//! By the paper's Theorem 4.1 a correct warehouse after `n` reports is
//! `W(u_n(…u_1(d)))`, and by Theorem 3.1 a source query answered there
//! equals the query over `u_n(…u_1(d))` itself. So the oracle keeps the
//! plain source state, applies the first `n` generated reports to it,
//! and evaluates queries with the algebra's reference evaluator — no
//! warehouse code is on the oracle's path.

use crate::gen::{Inputs, Query};
use crate::wire::{Answer, RowDigest};
use dwcomplements::relalg::{Catalog, DbState, RelName, Relation};
use dwcomplements::shell::parse_update;
use std::collections::{BTreeMap, VecDeque};

/// One query answer seen on the wire, with the bracket of report-stream
/// prefixes the server's snapshot may legally have reflected: at least
/// every report acked before the query was sent (`lo`), at most every
/// report sent before the answer arrived (`hi`).
#[derive(Clone, Copy, Debug)]
pub struct Observation {
    pub query: usize,
    pub answer: Answer,
    pub lo: u64,
    pub hi: u64,
}

pub struct Oracle<'a> {
    inputs: &'a Inputs,
    catalog: Catalog,
    /// Source state after the stream's prologue — also the state after
    /// the prologue plus any whole number of cycles.
    after_prologue: DbState,
}

pub fn digest_relation(rel: &Relation) -> RowDigest {
    let mut d = RowDigest::default();
    for t in rel.iter() {
        d.add(&t.to_string());
    }
    d
}

impl<'a> Oracle<'a> {
    pub fn new(inputs: &'a Inputs, catalog: &Catalog) -> Oracle<'a> {
        let mut oracle = Oracle {
            inputs,
            catalog: catalog.clone(),
            after_prologue: inputs.base.clone(),
        };
        let (prologue, _) = inputs.stream.shape();
        let mut db = inputs.base.clone();
        oracle.apply(&mut db, 0, prologue as u64);
        oracle.after_prologue = db;
        oracle
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn apply(&self, db: &mut DbState, from: u64, to: u64) {
        for i in from..to {
            let r = self.inputs.stream.get(i);
            parse_update(&self.catalog, &r.body, r.insert)
                .and_then(|u| u.apply_mut(db).map_err(|e| e.to_string()))
                .expect("generated report applies to the oracle state");
        }
    }

    /// The source state after the first `n` reports.
    pub fn state_at(&self, n: u64) -> DbState {
        let (prologue, cycle) = self.inputs.stream.shape();
        let (p, c) = (prologue as u64, cycle as u64);
        if n < p {
            let mut db = self.inputs.base.clone();
            self.apply(&mut db, 0, n);
            return db;
        }
        let mut db = self.after_prologue.clone();
        let whole = (n - p) / c * c;
        self.apply(&mut db, p + whole, n);
        db
    }

    fn digest(&self, q: &Query, db: &DbState) -> RowDigest {
        digest_relation(
            &q.expr
                .eval(db)
                .expect("workload query evaluates at the source"),
        )
    }

    /// Checks every observed answer; returns a description per failure.
    /// `obs` must be in the order one connection received them, which
    /// makes `lo` and `hi` non-decreasing.
    pub fn check_answers(&self, obs: &[Observation]) -> Vec<String> {
        let mut failures = Vec::new();
        let queries = &self.inputs.queries;
        let static_digests: Vec<Option<RowDigest>> = queries
            .iter()
            .map(|q| q.is_static.then(|| self.digest(q, &self.inputs.base)))
            .collect();
        // Source states for the prefixes inside the current bracket.
        let mut states: VecDeque<(u64, DbState)> = VecDeque::new();
        let mut memo: BTreeMap<(usize, u64), RowDigest> = BTreeMap::new();
        for (i, o) in obs.iter().enumerate() {
            let q = &queries[o.query];
            let got = o.answer.digest;
            let ok = match static_digests[o.query] {
                Some(expected) => expected == got,
                None => {
                    if states.is_empty() {
                        states.push_back((o.lo, self.state_at(o.lo)));
                    }
                    while states.back().expect("non-empty").0 < o.hi {
                        let (k, mut db) = states.back().expect("non-empty").clone();
                        self.apply(&mut db, k, k + 1);
                        states.push_back((k + 1, db));
                    }
                    while states.front().expect("non-empty").0 < o.lo {
                        states.pop_front();
                    }
                    states.iter().filter(|(k, _)| *k <= o.hi).any(|(k, db)| {
                        *memo
                            .entry((o.query, *k))
                            .or_insert_with(|| self.digest(q, db))
                            == got
                    })
                }
            };
            if !ok {
                failures.push(format!(
                    "answer {i} ({} at epoch {}, {} rows) matches no source state in prefixes {}..={}",
                    q.name, o.answer.epoch, got.rows, o.lo, o.hi
                ));
            }
        }
        failures
    }

    /// Checks the base relations queried over the wire after the restart
    /// against the source state after exactly `n` reports.
    pub fn check_base(&self, n: u64, wire: &[(RelName, RowDigest)]) -> Vec<String> {
        let db = self.state_at(n);
        wire.iter()
            .filter_map(|(name, got)| {
                let expected = digest_relation(db.relation(*name).expect("base relation"));
                (expected != *got).then(|| {
                    format!(
                        "{name} after restart: {} rows on the wire, {} in oracle({n} reports){}",
                        got.rows,
                        expected.rows,
                        if got.rows == expected.rows {
                            ", contents differ"
                        } else {
                            ""
                        }
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwcomplements::starschema::star_catalog;

    /// What a server that applied `reports` would answer for each base
    /// relation.
    fn wire_view(oracle: &Oracle, catalog: &Catalog, reports: &[u64]) -> Vec<(RelName, RowDigest)> {
        let mut db = oracle.inputs.base.clone();
        for &i in reports {
            oracle.apply(&mut db, i, i + 1);
        }
        catalog
            .relation_names()
            .map(|name| (name, digest_relation(db.relation(name).expect("covered"))))
            .collect()
    }

    #[test]
    fn a_dropped_report_is_caught() {
        let inputs = Inputs::generate(11);
        let catalog = star_catalog();
        let oracle = Oracle::new(&inputs, &catalog);
        let n = 40;
        let all: Vec<u64> = (0..n).collect();
        assert!(oracle
            .check_base(n, &wire_view(&oracle, &catalog, &all))
            .is_empty());
        // Drop the last report (any earlier one would break FK order for
        // the hand-applied twin, not for the check).
        let dropped = &all[..all.len() - 1];
        let failures = oracle.check_base(n, &wire_view(&oracle, &catalog, dropped));
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    #[test]
    fn state_at_wraps_around_the_cycle() {
        let inputs = Inputs::generate(5);
        let oracle = Oracle::new(&inputs, &star_catalog());
        let (p, c) = inputs.stream.shape();
        let n = (p + c / 3) as u64;
        assert_eq!(oracle.state_at(n), oracle.state_at(n + 2 * c as u64));
        let mut db = inputs.base.clone();
        oracle.apply(&mut db, 0, n);
        assert_eq!(oracle.state_at(n), db);
    }

    #[test]
    fn answers_outside_their_bracket_fail() {
        let inputs = Inputs::generate(5);
        let oracle = Oracle::new(&inputs, &star_catalog());
        // Q2 reads Orders; find a prefix where the next report changes it.
        let q2 = 1;
        let digest_at = |n| oracle.digest(&inputs.queries[q2], &oracle.state_at(n));
        let n = (0..200)
            .find(|&n| digest_at(n) != digest_at(n + 1))
            .expect("Q2 moves");
        let obs = |lo, hi| Observation {
            query: q2,
            answer: Answer {
                epoch: 1,
                digest: digest_at(n + 1),
            },
            lo,
            hi,
        };
        assert!(oracle.check_answers(&[obs(n, n + 1)]).is_empty());
        assert_eq!(oracle.check_answers(&[obs(n, n)]).len(), 1);
    }
}
