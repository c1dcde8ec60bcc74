//! The one-step net of a report stream (`Update::net`) against the
//! pairwise fold it replaced: composing the running net with one report
//! at a time through the two-delta cancelling composition. The
//! reference below is that fold, written against the public API and
//! kept here only, as the oracle.
//!
//! Streams are drawn over a three-value domain, so repeated rows,
//! insert → delete → insert runs, double inserts and double deletes,
//! rows both inserted and deleted by one report, and relations touched
//! by one, several or no reports are all common. Half the reports are
//! first normalized against the state they meet (those streams always
//! fold); a few carry a header mismatch recorded by `Update::with`.
//! `Ok(None)`, `Err` and `Ok(Some(net))` must all agree exactly.

mod common;

use common::chain_catalog;
use dwc_testkit::prop::Runner;
use dwc_testkit::tk_ensure_eq;
use dwcomplements::relalg::{
    AttrSet, DbState, Delta, RelName, Relation, Result, Tuple, Update, Value,
};
use std::collections::BTreeMap;

/// `first ; next` for two deltas: `None` when a tuple is inserted twice
/// or deleted twice, else the cancelled composition.
fn delta_then_net(first: &Delta, next: &Delta) -> Result<Option<Delta>> {
    if !first.inserted().intersect(next.inserted())?.is_empty()
        || !first.deleted().intersect(next.deleted())?.is_empty()
    {
        return Ok(None);
    }
    let insert = first
        .inserted()
        .difference(next.deleted())?
        .union(&next.inserted().difference(first.deleted())?)?;
    let delete = first
        .deleted()
        .difference(next.inserted())?
        .union(&next.deleted().difference(first.inserted())?)?;
    Ok(Some(Delta::new(insert, delete)?))
}

/// `net ; next` per relation, dropping deltas that cancel to nothing.
fn update_then_net(net: Update, next: &Update) -> Result<Option<Update>> {
    net.check_valid()?;
    next.check_valid()?;
    let mut deltas: BTreeMap<RelName, Delta> =
        net.iter().map(|(n, d)| (n, d.clone())).collect();
    for (name, delta) in next.iter() {
        let composed = match deltas.remove(&name) {
            None => delta.clone(),
            Some(first) => match delta_then_net(&first, delta)? {
                Some(d) => d,
                None => return Ok(None),
            },
        };
        if !composed.is_empty() {
            deltas.insert(name, composed);
        }
    }
    Ok(Some(deltas.into_iter().fold(Update::new(), |u, (n, d)| u.with(n, d))))
}

/// The pairwise fold of a whole stream, from the no-op update.
fn pairwise_net(reports: &[Update]) -> Result<Option<Update>> {
    let mut net = Update::new();
    for report in reports {
        net = match update_then_net(net, report)? {
            Some(n) => n,
            None => return Ok(None),
        };
    }
    Ok(Some(net))
}

/// Rows over `0..3` — small on purpose, so streams repeat rows.
type Rows = Vec<Vec<i64>>;

fn gen_rows(rng: &mut dwc_testkit::SplitMix64, arity: usize, max: usize) -> Rows {
    (0..rng.index(max + 1)).map(|_| (0..arity).map(|_| rng.i64_in(0, 3)).collect()).collect()
}

/// A relation over `names` from generated rows; rows a shrink left at
/// the wrong arity are dropped.
fn relation(names: &[&str], rows: &Rows) -> Relation {
    let tuples = rows
        .iter()
        .filter(|r| r.len() == names.len())
        .map(|r| Tuple::new(r.iter().map(|&v| Value::int(v)).collect()));
    Relation::from_tuples(AttrSet::from_names(names), tuples).expect("arity checked")
}

const RELATIONS: [(&str, &[&str]); 3] = [("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c"])];

/// One report as drawn: per relation, whether it is touched and its
/// insert/delete rows; whether to normalize it against the state it
/// meets; whether to poison it with a recorded header mismatch.
type ReportSpec = (Vec<(bool, Rows, Rows)>, bool, bool);

fn gen_report(rng: &mut dwc_testkit::SplitMix64) -> ReportSpec {
    let deltas = RELATIONS
        .iter()
        .map(|(_, attrs)| {
            let touched = rng.below(3) > 0;
            (touched, gen_rows(rng, attrs.len(), 3), gen_rows(rng, attrs.len(), 3))
        })
        .collect();
    (deltas, rng.below(2) == 0, rng.below(24) == 0)
}

/// Builds the stream, normalizing the reports that ask for it against
/// the state the stream has reached by then.
fn build_stream(start: &Rows, specs: &[ReportSpec]) -> Vec<Update> {
    let mut state = DbState::empty_for(&chain_catalog());
    state.insert_relation("R", relation(&["a", "b"], start));
    let mut stream = Vec::new();
    for (deltas, normalize, poison) in specs {
        let mut report = Update::new();
        for ((name, attrs), (touched, ins, del)) in RELATIONS.iter().zip(deltas) {
            if *touched {
                let delta = Delta::new(relation(attrs, ins), relation(attrs, del))
                    .expect("one header");
                report = report.with(*name, delta);
            }
        }
        if *normalize {
            report = report.normalize(&state).expect("catalog relations");
        }
        if *poison {
            // Touch R first (an empty delta composes away), so the
            // mismatching delta is recorded rather than simply added.
            report = report
                .with("R", Delta::insert_only(relation(&["a", "b"], &Vec::new())))
                .with("R", Delta::insert_only(relation(&["x"], &vec![vec![1]])));
        }
        if let Ok(next) = report.apply(&state) {
            state = next;
        }
        stream.push(report);
    }
    stream
}

#[test]
fn one_step_net_equals_the_pairwise_fold() {
    Runner::new("one_step_net_equals_the_pairwise_fold").cases(512).run(
        |rng| {
            let len = rng.index(9);
            (gen_rows(rng, 2, 6), (0..len).map(|_| gen_report(rng)).collect::<Vec<_>>())
        },
        |(start, specs)| {
            let stream = build_stream(start, specs);
            match (Update::net(&stream), pairwise_net(&stream)) {
                (Ok(one), Ok(pairwise)) => tk_ensure_eq!(one, pairwise),
                (Err(one), Err(pairwise)) => tk_ensure_eq!(one, pairwise),
                (one, pairwise) => {
                    return Err(format!("one step {one:?}, pairwise {pairwise:?}"))
                }
            }
            Ok(())
        },
    );
}

/// The cases the generator must keep producing, so the property above
/// never passes vacuously: streams that fold, streams that show a
/// breach, and streams that fail on a recorded header mismatch.
#[test]
fn the_oracle_streams_cover_every_outcome() {
    let mut rng = dwc_testkit::SplitMix64::new(20261018);
    let (mut folded, mut breached, mut failed) = (0, 0, 0);
    for _ in 0..512 {
        let len = rng.index(9);
        let start = gen_rows(&mut rng, 2, 6);
        let specs: Vec<ReportSpec> = (0..len).map(|_| gen_report(&mut rng)).collect();
        match pairwise_net(&build_stream(&start, &specs)) {
            Ok(Some(_)) => folded += 1,
            Ok(None) => breached += 1,
            Err(_) => failed += 1,
        }
    }
    assert!(folded >= 64 && breached >= 64 && failed >= 8, "{folded} / {breached} / {failed}");
}
