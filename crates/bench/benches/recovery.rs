//! Durability-layer timings: what crash consistency costs.
//!
//! Prices the three IO paths of `warehouse::storage` over the real
//! filesystem ([`FsMedium`] in a scratch directory): atomic snapshot
//! writes as state grows, WAL append throughput with and without the
//! per-record fsync, and cold recovery (manifest → snapshot → WAL
//! replay → consistency cross-check) as a function of state size and
//! log length. One JSON line per benchmark; `scripts/bench.sh` collects
//! them into `BENCH_recovery.json`.
//!
//! The **sharded** cold-recovery sweep follows in the same pass: the
//! same warehouse committed under a key-range sharded layout at 1, 2
//! and 4 shards, reopened via the per-shard recovery. Each row is
//! tagged with a `shards` field so the sweep is directly comparable
//! against the unsharded `cold-recovery-*` rows.

use dwc_bench::experiments::{fig1_catalog, fig1_state};
use dwc_bench::stamped;
use dwc_relalg::{rel, Update};
use dwc_warehouse::channel::{Envelope, SequencedSource};
use dwc_warehouse::ingest::{IngestConfig, IngestingIntegrator};
use dwc_warehouse::integrator::{Integrator, SourceSite};
use dwc_warehouse::{
    AugmentedWarehouse, DurabilityConfig, DurableWarehouse, FsMedium, Recovery,
    ShardedDurableWarehouse, WarehouseSpec,
};
use std::hint::black_box;
use std::path::PathBuf;

/// Reports in the WAL tail the cold-recovery benchmark replays.
const LOG_LEN: usize = 32;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dwc-bench-recovery-{}-{tag}", std::process::id()))
}

/// The figure-1 warehouse at `n` sales, loaded and wrapped for ingestion.
fn rig(n: usize) -> (AugmentedWarehouse, SequencedSource, IngestingIntegrator) {
    let clerks = (n / 4).max(1);
    let catalog = fig1_catalog(false);
    let db = fig1_state(n, clerks, false, 42);
    let aug = WarehouseSpec::parse(catalog.clone(), &[("Sold", "Sale join Emp")])
        .expect("static spec")
        .augment()
        .expect("complement exists");
    let site = SourceSite::new(catalog, db).expect("valid state");
    let src = SequencedSource::new("bench", site);
    let integ = Integrator::initial_load(aug.clone(), src.site()).expect("loads");
    let ing = IngestingIntegrator::new(integ, IngestConfig::default()).expect("spec verifies");
    (aug, src, ing)
}

fn sale_envelopes(src: &mut SequencedSource, count: usize) -> Vec<Envelope> {
    (0..count)
        .map(|i| {
            let item = format!("bench-item{i}");
            src.apply_update(&Update::inserting(
                "Sale",
                rel! { ["clerk", "item"] => ("clerk0", item.as_str()) },
            ))
            .expect("valid update")
        })
        .collect()
}

fn config(sync_every_append: bool) -> DurabilityConfig {
    DurabilityConfig {
        sync_every_append,
        retain_generations: 2,
        snapshot_every: None,
        verify_on_open: true,
    }
}

/// Snapshots every file in `dir` so cold-recovery iterations can be
/// replayed from an identical on-disk image.
fn capture_image(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    std::fs::read_dir(dir)
        .expect("scratch dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path()).expect("readable file");
            (name, bytes)
        })
        .collect()
}

/// Resets `dir` to a previously captured image.
fn restore_image(dir: &PathBuf, image: &[(String, Vec<u8>)]) {
    std::fs::remove_dir_all(dir).expect("scratch dir");
    std::fs::create_dir_all(dir).expect("scratch dir");
    for (name, bytes) in image {
        std::fs::write(dir.join(name), bytes).expect("image restores");
    }
}

/// The sharded cold-recovery sweep: the figure-1 warehouse committed
/// under `shards` key-range lineages (routed by `clerk`, Emp's key),
/// reopened through the per-shard recovery. One bench group per shard
/// count so every row carries a `shards` field.
fn bench_sharded() {
    let mut scratch_dirs = Vec::new();
    for &n in &[1_000usize, 10_000] {
        let (aug, mut src, ing) = rig(n);
        let envelopes = sale_envelopes(&mut src, LOG_LEN);
        for shards in [1usize, 2, 4] {
            let dir = scratch(&format!("shard{shards}-{n}"));
            scratch_dirs.push(dir.clone());
            let medium = FsMedium::new(&dir).expect("scratch dir");
            let mut sw =
                ShardedDurableWarehouse::create(medium, ing.clone(), config(true), shards, None)
                    .expect("creates");
            for env in &envelopes {
                sw.offer(env).expect("offer logs");
            }
            drop(sw);
            let image = capture_image(&dir);
            // Untimed opens harvest the replay-path telemetry: the
            // slowest shard vs the summed per-shard work. Their ratio
            // models the speedup independent lineages would allow if
            // replayed side by side (they are replayed in turn).
            // Best-of-three, because on an oversubscribed host a wall
            // clock includes preemption.
            let mut best: Option<(u64, u64)> = None;
            for _ in 0..3 {
                restore_image(&dir, &image);
                let medium = FsMedium::new(&dir).expect("scratch dir");
                let (_, report) =
                    ShardedDurableWarehouse::open(medium, aug.clone(), config(true), None)
                        .expect("recovers");
                let pair = (
                    report.replay_critical.as_nanos() as u64,
                    report.replay_total.as_nanos() as u64,
                );
                if best.is_none_or(|(c, _)| pair.0 < c) {
                    best = Some(pair);
                }
            }
            let (critical_ns, total_ns) = best.unwrap_or((0, 0));
            let group = stamped("recovery")
                .field_num("shards", shards as u64)
                .field_num("replay_critical_ns", critical_ns)
                .field_num("replay_total_ns", total_ns);
            let aug = aug.clone();
            let dir = dir.clone();
            group.run(&format!("cold-recovery-sharded/{n}"), move || {
                restore_image(&dir, &image);
                let medium = FsMedium::new(&dir).expect("scratch dir");
                let (sw, report) =
                    ShardedDurableWarehouse::open(medium, aug.clone(), config(true), None)
                        .expect("recovers");
                black_box((sw.shards(), report.shard_records_replayed))
            });
        }
    }
    for dir in scratch_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn main() {
    let group = stamped("recovery");
    let mut scratch_dirs = Vec::new();

    for &n in &[1_000usize, 10_000] {
        // --- snapshot write: full-state atomic write+fsync+rename ---
        let (aug, mut src, ing) = rig(n);
        let dir = scratch(&format!("snap-{n}"));
        scratch_dirs.push(dir.clone());
        let medium = FsMedium::new(&dir).expect("scratch dir");
        let mut dw =
            DurableWarehouse::create(medium, ing.clone(), config(true)).expect("creates");
        group.run(&format!("snapshot-write/{n}"), || {
            dw.snapshot().expect("snapshot rolls");
            black_box(dw.generation())
        });

        // --- WAL append throughput, synced and unsynced ---
        let envelopes = sale_envelopes(&mut src, LOG_LEN);
        for (mode, sync) in [("fsync", true), ("nosync", false)] {
            let dir = scratch(&format!("wal-{mode}-{n}"));
            scratch_dirs.push(dir.clone());
            let medium = FsMedium::new(&dir).expect("scratch dir");
            let mut dw =
                DurableWarehouse::create(medium, ing.clone(), config(sync)).expect("creates");
            // Offers past the first are duplicates in memory, so the
            // loop prices exactly the WAL append (+ optional fsync).
            let env = &envelopes[0];
            group.run(&format!("wal-append-{mode}/{n}"), || {
                black_box(dw.offer(env).expect("offer logs"))
            });
        }

        // --- cold recovery: snapshot restore + WAL replay + check ---
        let dir = scratch(&format!("cold-{n}"));
        scratch_dirs.push(dir.clone());
        let medium = FsMedium::new(&dir).expect("scratch dir");
        let mut dw =
            DurableWarehouse::create(medium, ing.clone(), config(true)).expect("creates");
        for env in &envelopes {
            dw.offer(env).expect("offer logs");
        }
        drop(dw);
        // Recovery rolls a fresh generation, absorbing the WAL tail into
        // a new snapshot; restore the captured image before each run so
        // every iteration replays the same LOG_LEN records.
        let image = capture_image(&dir);
        for (mode, check) in [("verify", true), ("noverify", false)] {
            let aug = aug.clone();
            let dir = dir.clone();
            let image = &image;
            group.run(&format!("cold-recovery-{mode}/{n}"), move || {
                restore_image(&dir, image);
                let medium = FsMedium::new(&dir).expect("scratch dir");
                let cfg = DurabilityConfig {
                    verify_on_open: check,
                    ..config(true)
                };
                let (dw, report) =
                    Recovery::open(medium, aug.clone(), cfg).expect("recovers");
                black_box((dw.generation(), report.records_replayed))
            });
        }
    }

    for dir in scratch_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    bench_sharded();
}
