//! Chaos properties for the fault-tolerant ingestion layer.
//!
//! The central claim: under any [`FaultPlan`] — drops, duplicates,
//! bounded reordering, corrupted payloads — the ingesting warehouse
//! either converges to the exact oracle state `W(u(d))` after
//! replaying the source's outbox log, or rejects bad input into a
//! typed quarantine. It never panics and never silently diverges.
//!
//! Failures shrink structurally: fewer updates, smaller row sets, and a
//! [`FaultPlan`] minimized knob-by-knob toward the clean plan, so a
//! counterexample names the fewest fault kinds that still break the
//! property.

mod common;

use common::{
    chain_catalog, chain_state, chain_update, gen_chain_rows, gen_chain_update_rows,
    relation_from, ChainRows, ChainUpdateRows,
};
use dwc_testkit::prop::Runner;
use dwc_testkit::{tk_ensure, tk_ensure_eq, FaultPlan};
use dwcomplements::relalg::{rel, Delta, RelName, Update};
use dwcomplements::warehouse::channel::{Envelope, SequencedSource};
use dwcomplements::warehouse::ingest::{IngestConfig, IngestOutcome, IngestingIntegrator};
use dwcomplements::warehouse::integrator::{Integrator, SourceSite};
use dwcomplements::warehouse::{WarehouseError, WarehouseSpec};

/// Builds the chain-catalog warehouse (`V = R ⋈ S`) over an initial
/// state, returning the sequenced source and the ingesting integrator.
fn chain_rig(
    init: &ChainRows,
    config: IngestConfig,
) -> Result<(SequencedSource, IngestingIntegrator), String> {
    let catalog = chain_catalog();
    let aug = WarehouseSpec::parse(catalog.clone(), &[("V", "R join S")])
        .map_err(|e| e.to_string())?
        .augment()
        .map_err(|e| e.to_string())?;
    let site = SourceSite::new(catalog, chain_state(init)).map_err(|e| e.to_string())?;
    let src = SequencedSource::new("chain", site);
    let integ = Integrator::initial_load(aug, src.site()).map_err(|e| e.to_string())?;
    let ing = IngestingIntegrator::new(integ, config).map_err(|e| e.to_string())?;
    Ok((src, ing))
}

/// Deterministic payload corruption, varied by sequence number so one
/// faulty stream exercises every malformation class the validator knows:
/// unknown relation, header mismatch, and an unnormalized (overlapping)
/// delta.
fn corrupt(envelope: &Envelope) -> Envelope {
    let mut bad = envelope.clone();
    bad.report = match envelope.seq % 3 {
        0 => Update::inserting("Ghost", rel! { ["x"] => (1,) }),
        1 => Update::new().with(
            "R",
            Delta::new(relation_from(&["a"], &[vec![0]]), relation_from(&["a"], &[]))
                .expect("same header"),
        ),
        _ => Update::new().with(
            "R",
            Delta::new(
                relation_from(&["a", "b"], &[vec![0, 0]]),
                relation_from(&["a", "b"], &[vec![0, 0]]),
            )
            .expect("same header"),
        ),
    };
    bad
}

/// The oracle: what the warehouse must hold after the stream settles.
fn oracle(src: &SequencedSource, ing: &IngestingIntegrator) -> Result<bool, String> {
    let expected = ing
        .integrator()
        .warehouse()
        .materialize(src.oracle_state())
        .map_err(|e| e.to_string())?;
    Ok(ing.state() == &expected)
}

/// Convergence under arbitrary fault plans: after offering the perturbed
/// stream and replaying the outbox log once, the warehouse equals the
/// oracle exactly; corrupted copies land in quarantine (or are deduped),
/// and a clean channel triggers none of the fault machinery.
#[test]
fn chaos_streams_converge_to_oracle() {
    Runner::new("chaos_streams_converge_to_oracle").cases(96).run(
        |rng| {
            let init = gen_chain_rows(rng);
            let n = 1 + rng.index(8);
            let updates: Vec<ChainUpdateRows> =
                (0..n).map(|_| gen_chain_update_rows(rng)).collect();
            (init, updates, FaultPlan::random(rng))
        },
        |(init, updates, plan): &(ChainRows, Vec<ChainUpdateRows>, FaultPlan)| {
            let (mut src, mut ing) = chain_rig(init, IngestConfig::default())?;
            let mut envelopes = Vec::new();
            for u in updates {
                envelopes.push(src.apply_update(&chain_update(u)).map_err(|e| e.to_string())?);
            }
            for d in plan.apply(&envelopes) {
                let env = if d.corrupted { corrupt(&d.item) } else { d.item.clone() };
                // `offer` is total: every channel fault is an outcome,
                // never a panic (panics fail the property via the runner).
                let outcome = ing.offer(&env);
                if d.corrupted {
                    tk_ensure!(
                        matches!(
                            outcome,
                            IngestOutcome::Quarantined(_) | IngestOutcome::Duplicate
                        ),
                        "corrupted delivery of seq {} was {outcome:?}",
                        d.item.seq
                    );
                }
            }
            let recovered =
                ing.recover_from_log(src.id(), src.outbox()).map_err(|e| e.to_string())?;
            tk_ensure!(oracle(&src, &ing)?, "warehouse diverged from W(u(d))");
            let stats = ing.stats();
            tk_ensure_eq!(stats.quarantined, ing.quarantine().len());
            if plan.is_clean() {
                tk_ensure_eq!(recovered, 0);
                tk_ensure_eq!(stats.duplicates, 0);
                tk_ensure_eq!(stats.quarantined, 0);
                tk_ensure_eq!(stats.recoveries, 0);
                tk_ensure_eq!(stats.applied, envelopes.len());
            }
            Ok(())
        },
    );
}

/// Same fault plans, paranoid configuration: every applied report is
/// cross-checked against the Theorem 4.1 reconstruction. On an
/// untampered stream the check must stay silent — the incremental plans
/// agree with `W ∘ u ∘ W⁻¹` — and convergence still holds.
#[test]
fn paranoid_ingestion_agrees_with_reconstruction() {
    Runner::new("paranoid_ingestion_agrees_with_reconstruction").cases(48).run(
        |rng| {
            let init = gen_chain_rows(rng);
            let n = 1 + rng.index(5);
            let updates: Vec<ChainUpdateRows> =
                (0..n).map(|_| gen_chain_update_rows(rng)).collect();
            (init, updates, FaultPlan::random(rng))
        },
        |(init, updates, plan): &(ChainRows, Vec<ChainUpdateRows>, FaultPlan)| {
            let (mut src, mut ing) = chain_rig(init, IngestConfig::paranoid())?;
            let mut envelopes = Vec::new();
            for u in updates {
                envelopes.push(src.apply_update(&chain_update(u)).map_err(|e| e.to_string())?);
            }
            for d in plan.apply(&envelopes) {
                let env = if d.corrupted { corrupt(&d.item) } else { d.item.clone() };
                ing.offer(&env);
            }
            ing.recover_from_log(src.id(), src.outbox()).map_err(|e| e.to_string())?;
            tk_ensure!(oracle(&src, &ing)?, "warehouse diverged from W(u(d))");
            tk_ensure_eq!(ing.stats().invariant_failures, 0);
            Ok(())
        },
    );
}

/// A forced, unfillable-from-the-stream gap: the reorder window
/// overflows and the ingestor demands recovery; replaying the log heals
/// through the reconstruction fallback and bumps the recovery counter.
#[test]
fn forced_gap_exercises_reconstruction_fallback() {
    let init: ChainRows = (vec![vec![1, 2], vec![2, 2]], vec![vec![2, 3]], vec![vec![3]]);
    let (mut src, mut ing) =
        chain_rig(&init, IngestConfig { reorder_window: 2, verify_invariants: false })
            .expect("rig builds");
    let envs: Vec<Envelope> = (0..5)
        .map(|i| {
            src.apply_update(&Update::inserting("R", rel! { ["a", "b"] => (10 + i, 2) }))
                .expect("valid update")
        })
        .collect();
    assert_eq!(ing.offer(&envs[0]), IngestOutcome::Applied(1));
    // seq 1 is lost; 2 and 3 park, 4 overflows the window.
    assert_eq!(ing.offer(&envs[2]), IngestOutcome::Buffered);
    assert_eq!(ing.offer(&envs[3]), IngestOutcome::Buffered);
    let outcome = ing.offer(&envs[4]);
    assert!(
        matches!(
            outcome,
            IngestOutcome::NeedsRecovery(WarehouseError::ReorderWindowOverflow { .. })
        ),
        "expected NeedsRecovery, got {outcome:?}"
    );
    assert_eq!(ing.missing_seqs(src.id()), vec![1]);
    assert_eq!(ing.stats().recoveries, 0);

    let recovered = ing.recover_from_log(src.id(), src.outbox()).expect("log is complete");
    assert_eq!(recovered, 4); // seqs 1..=4 in one composed reconstruction
    assert_eq!(ing.stats().recoveries, 1);
    assert_eq!(ing.stats().gaps_detected, 1);
    assert!(oracle(&src, &ing).unwrap(), "recovery must land on the oracle state");
    assert!(ing.missing_seqs(src.id()).is_empty());
}

/// Tampering with a complement relation puts the warehouse outside the
/// image of `W`; the paranoid invariant check detects it on the next
/// report and heals by adopting the reconstruction result.
#[test]
fn tampered_complement_is_detected_and_healed() {
    let mut catalog = dwcomplements::relalg::Catalog::new();
    catalog.add_schema("Sale", &["item", "clerk"]).expect("static schema");
    catalog
        .add_schema_with_key("Emp", &["clerk", "age"], &["clerk"])
        .expect("static schema");
    let aug = WarehouseSpec::parse(catalog.clone(), &[("Sold", "Sale join Emp")])
        .expect("static spec")
        .augment()
        .expect("complement exists");
    let mut db = dwcomplements::relalg::DbState::new();
    db.insert_relation("Sale", rel! { ["item", "clerk"] => ("PC", "John") });
    db.insert_relation("Emp", rel! { ["clerk", "age"] => ("John", 25), ("Paula", 32) });
    let site = SourceSite::new(catalog, db).expect("valid state");
    let mut src = SequencedSource::new("store", site);
    let integ = Integrator::initial_load(aug, src.site()).expect("loads");
    let mut ing =
        IngestingIntegrator::new(integ, IngestConfig::paranoid()).expect("spec verifies");

    // Smuggle a joinable tuple into C_Sale: "John" is an employee, so
    // the tampered state cannot be W(d) for any source state d.
    let c_sale = ing
        .integrator()
        .warehouse()
        .complement()
        .entry_for(RelName::new("Sale"))
        .expect("complement entry")
        .name;
    let mut tampered = ing.state().clone();
    let bigger = tampered
        .relation(c_sale)
        .expect("stored")
        .union(&rel! { ["item", "clerk"] => ("Widget", "John") })
        .expect("same header");
    tampered.insert_relation(c_sale, bigger);
    ing.integrator_mut().force_state(tampered);

    let env = src
        .apply_update(&Update::inserting("Sale", rel! { ["item", "clerk"] => ("Mac", "Paula") }))
        .expect("valid update");
    assert_eq!(ing.offer(&env), IngestOutcome::Applied(1));
    assert_eq!(ing.stats().invariant_failures, 1, "tampering must trip the 4.1 check");
    assert_eq!(ing.stats().recoveries, 1, "healing goes through reconstruction");
    // Healed means self-consistent again: the state round-trips through
    // W⁻¹ and W, and further ingestion stays exact.
    let aug = ing.integrator().warehouse().clone();
    let roundtrip = aug
        .materialize(&aug.reconstruct_sources(ing.state()).expect("reconstructs"))
        .expect("materializes");
    assert_eq!(ing.state(), &roundtrip);
    // Note the heal restores *consistency*, not the pre-tamper data: the
    // check has no source access, so the smuggled tuple is legitimized
    // into the reconstruction. Subsequent reports maintain the healed
    // state exactly — the 4.1 check stays silent from here on.
    let env = src
        .apply_update(&Update::deleting("Emp", rel! { ["clerk", "age"] => ("Paula", 32) }))
        .expect("valid update");
    assert_eq!(ing.offer(&env), IngestOutcome::Applied(1));
    assert_eq!(ing.stats().invariant_failures, 1);
    let roundtrip = aug
        .materialize(&aug.reconstruct_sources(ing.state()).expect("reconstructs"))
        .expect("materializes");
    assert_eq!(ing.state(), &roundtrip);
}

/// Typed rejection at the source site: updates outside the catalog and
/// header-mismatched deltas are errors, not panics, and leave the
/// authoritative state untouched.
#[test]
fn source_site_rejects_malformed_updates_without_damage() {
    let init: ChainRows = (vec![vec![1, 1]], vec![vec![1, 2]], vec![vec![2]]);
    let catalog = chain_catalog();
    let mut site = SourceSite::new(catalog, chain_state(&init)).expect("valid");
    let before = site.oracle_state().clone();

    let err = site
        .apply_update(&Update::inserting("Ghost", rel! { ["x"] => (1,) }))
        .unwrap_err();
    assert!(matches!(err, WarehouseError::UpdateOutsideSources(_)));

    let err = site
        .apply_update(&Update::new().with(
            "R",
            Delta::new(relation_from(&["a"], &[vec![4]]), relation_from(&["a"], &[]))
                .expect("same header"),
        ))
        .unwrap_err();
    assert!(matches!(err, WarehouseError::ReportHeaderMismatch { .. }));

    // A multi-relation update whose second delta is bad: stage-then-swap
    // means the good first delta must not have leaked into the state.
    let err = site
        .apply_update(
            &Update::new()
                .with(
                    "R",
                    Delta::new(
                        relation_from(&["a", "b"], &[vec![5, 5]]),
                        relation_from(&["a", "b"], &[]),
                    )
                    .expect("same header"),
                )
                .with("Ghost", Delta::new(relation_from(&["x"], &[vec![1]]), relation_from(&["x"], &[])).expect("same header")),
        )
        .unwrap_err();
    assert!(matches!(err, WarehouseError::UpdateOutsideSources(_)));
    assert_eq!(site.oracle_state(), &before, "rejected updates must not mutate state");
    assert_eq!(site.stats().updates, 0);
}

/// The integrator applies reports transactionally: a report that fails
/// mid-evaluation leaves the warehouse and the counters exactly as they
/// were, and the next good report lands exactly.
#[test]
fn integrator_reports_are_atomic() {
    let init: ChainRows = (vec![vec![1, 2]], vec![vec![2, 4]], vec![vec![4]]);
    let catalog = chain_catalog();
    let aug = WarehouseSpec::parse(catalog.clone(), &[("V", "R join S")])
        .expect("static spec")
        .augment()
        .expect("complement exists");
    let mut site = SourceSite::new(catalog, chain_state(&init)).expect("valid");
    let mut integ = Integrator::initial_load(aug, &site).expect("loads");
    let state_before = integ.state().clone();

    // A header-mismatched delta reaches evaluation and fails there.
    let bad = Update::new().with(
        "R",
        Delta::new(relation_from(&["a"], &[vec![9]]), relation_from(&["a"], &[]))
            .expect("same header"),
    );
    assert!(integ.on_report(&bad).is_err());
    assert_eq!(integ.state(), &state_before, "failed report must not move the warehouse");
    assert_eq!(integ.stats().updates_processed, 0);

    let report = site
        .apply_update(&Update::inserting("R", rel! { ["a", "b"] => (7, 2) }))
        .expect("valid");
    integ.on_report(&report).expect("maintains");
    let expected = integ.warehouse().materialize(site.oracle_state()).expect("materializes");
    assert_eq!(integ.state(), &expected);
}

/// Stale-epoch replays quarantine; a source restart (epoch bump)
/// supersedes the cursor and ingestion continues exactly.
#[test]
fn epoch_restarts_supersede_and_stale_replays_quarantine() {
    let init: ChainRows = (vec![vec![1, 2]], vec![vec![2, 3]], vec![vec![3]]);
    let (mut src, mut ing) = chain_rig(&init, IngestConfig::default()).expect("rig builds");
    let old = src
        .apply_update(&Update::inserting("R", rel! { ["a", "b"] => (8, 2) }))
        .expect("valid");
    src.begin_epoch();
    let fresh = src
        .apply_update(&Update::inserting("R", rel! { ["a", "b"] => (9, 2) }))
        .expect("valid");
    assert_eq!((fresh.epoch, fresh.seq), (1, 0));
    assert_eq!(ing.offer(&fresh), IngestOutcome::Applied(1));
    let outcome = ing.offer(&old);
    assert!(matches!(
        outcome,
        IngestOutcome::Quarantined(WarehouseError::StaleEpoch { current: 1, got: 0, .. })
    ));
    // The epoch-1 log alone recovers what epoch 1 knows; the state
    // reflects the source's post-restart history.
    ing.recover_from_log(src.id(), src.outbox()).expect("log replay");
    let stats = ing.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(ing.quarantine().len(), 1);
    assert!(matches!(ing.quarantine()[0].error, WarehouseError::StaleEpoch { .. }));
}
