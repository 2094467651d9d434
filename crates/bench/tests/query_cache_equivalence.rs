//! The classification cache's headline contract: every plan's cached
//! path (`execute_with` over a shared `PlanContext`) is byte-identical to
//! an uncached reference fold straight over the store's snapshots, at
//! workers 1 and 8, whether the store holds resident snapshots (in-memory
//! campaign) or reopens full/delta spill files — and on delta spills the
//! cache counters account for exactly the chained (clean) vs rewritten
//! (dirty) shard-rounds the store metadata reports.
//!
//! The references share nothing with the classification cache, the
//! provider index or the shard fold: they reclassify every round from
//! its records with `BehaviorDetector::classify_snapshot` and run the
//! snapshot passes' per-site reference (`crates/core/tests/reference`).
//!
//! Reports that don't implement `PartialEq` are compared through their
//! `Debug` rendering, which covers every field.

#[path = "../../core/tests/reference/mod.rs"]
mod reference;

use std::path::PathBuf;

use proptest::prelude::*;
use remnant::core::study::{CollectionMode, StudyConfig, StudyReport};
use remnant::core::{
    Adoption, BehaviorDetector, DnsSnapshot, DpsStatus, SnapshotAggregates, SpillConfig,
    StudySession,
};
use remnant::query::{
    PassesPlan, PlanContext, ProviderResidualScan, ResidualScanPlan, ResidualScanReport,
    ResidualScanWeek, SnapshotStore, RESIDUAL_PROVIDERS,
};
use remnant::world::{World, WorldConfig};
use remnant_bench::ReproConfig;

use reference::ReferencePasses;

const POPULATION: usize = 2_000;
const WEEKS: u32 = 2;
const SEED: u64 = 41;

/// Runs one campaign, capturing every daily snapshot for the in-memory
/// store variant.
fn run_captured(config: &ReproConfig) -> (Vec<DnsSnapshot>, StudyReport) {
    let mut world = World::generate(WorldConfig::new(config.population, config.study.seed));
    let mut snapshots = Vec::new();
    let report = StudySession::new(config.study.clone(), &world).run(&mut world, &mut |snapshot| {
        snapshots.push(snapshot.clone());
    });
    (snapshots, report)
}

fn fresh_spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remnant-query-cache-equiv-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp spill dir");
    dir
}

/// Reference for `PassesPlan`: the per-site reference over every round's
/// records.
fn reference_passes(store: &SnapshotStore) -> SnapshotAggregates {
    let mut passes = ReferencePasses::new(store.sites());
    for i in 0..store.len() {
        passes.observe_records(store.meta(i).day, &store.snapshot(i));
    }
    passes.finish()
}

/// Reference for `ResidualScanPlan`: each scan round reclassified in
/// full, every site counted.
fn reference_residual(store: &SnapshotStore) -> ResidualScanReport {
    let detector = BehaviorDetector::new();
    let scan_rounds: Vec<(u32, Vec<Adoption>)> = (0..store.len())
        .filter(|&i| store.meta(i).day.is_multiple_of(7))
        .map(|i| {
            (
                store.meta(i).day,
                detector.classify_snapshot(&store.snapshot(i)),
            )
        })
        .collect();
    ResidualScanReport {
        providers: RESIDUAL_PROVIDERS
            .into_iter()
            .map(|provider| ProviderResidualScan {
                provider,
                weekly: scan_rounds
                    .iter()
                    .map(|(day, classes)| ResidualScanWeek {
                        week: day / 7,
                        day: *day,
                        adopted: classes
                            .iter()
                            .filter(|c| c.provider == Some(provider) && c.status == DpsStatus::On)
                            .count(),
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// The differential itself: every plan, cached vs the uncached
/// references, byte for byte.
fn assert_cached_matches_uncached(store: &SnapshotStore, workers: usize, context: &str) {
    let ctx = PlanContext::new(store, workers);

    let reference = reference_passes(store);
    let cached = PassesPlan.execute_with(&ctx);
    assert_eq!(
        format!("{:?}", reference.adoption),
        format!("{:?}", cached.adoption),
        "{context}: adoption"
    );
    assert_eq!(
        format!("{:?}", reference.behaviors),
        format!("{:?}", cached.behaviors),
        "{context}: behavior"
    );
    assert_eq!(
        format!("{:?}", reference.pauses),
        format!("{:?}", cached.pauses),
        "{context}: pause"
    );

    assert_eq!(
        reference_residual(store),
        ResidualScanPlan::default().execute_with(&ctx),
        "{context}: residual scan"
    );
}

#[test]
fn in_memory_cached_plans_match_uncached() {
    for workers in [1usize, 8] {
        let config = ReproConfig {
            population: POPULATION,
            study: StudyConfig::builder()
                .weeks(WEEKS)
                .seed(SEED)
                .workers(workers)
                .build()
                .expect("valid config"),
        };
        let (snapshots, _) = run_captured(&config);
        let store = SnapshotStore::in_memory(snapshots).expect("in-memory store");
        assert_cached_matches_uncached(&store, workers, &format!("in-memory w{workers}"));
    }
}

#[test]
fn spill_full_cached_plans_match_uncached() {
    for workers in [1usize, 8] {
        let dir = fresh_spill_dir(&format!("full-w{workers}"));
        let config = ReproConfig {
            population: POPULATION,
            study: StudyConfig::builder()
                .weeks(WEEKS)
                .seed(SEED)
                .workers(workers)
                .collection_mode(CollectionMode::Full)
                .spill(SpillConfig::new(&dir))
                .build()
                .expect("valid config"),
        };
        run_captured(&config);
        let store = SnapshotStore::open(&dir).expect("store opens");
        assert_cached_matches_uncached(&store, workers, &format!("spill-full w{workers}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn spill_delta_cached_plans_match_uncached() {
    for workers in [1usize, 8] {
        let dir = fresh_spill_dir(&format!("delta-w{workers}"));
        let config = ReproConfig {
            population: POPULATION,
            study: StudyConfig::builder()
                .weeks(WEEKS)
                .seed(SEED)
                .workers(workers)
                .collection_mode(CollectionMode::Delta)
                .spill(SpillConfig::new(&dir))
                .build()
                .expect("valid config"),
        };
        run_captured(&config);
        let store = SnapshotStore::open(&dir).expect("store opens");
        assert_cached_matches_uncached(&store, workers, &format!("spill-delta w{workers}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The cache-counter contract: on a delta spill, clean (chained)
/// shard-rounds hit the cache and dirty (rewritten) shard-rounds miss —
/// exactly the counts the store's generation metadata reports.
///
/// Only delta spills pin this down: in-memory stores share resident
/// `Arc`s (so even "dirty" metadata can hit on block identity), and full
/// spills rewrite every frame (all-miss).
#[test]
fn delta_cache_counters_account_for_chained_shards() {
    let dir = fresh_spill_dir("counters");
    let config = ReproConfig {
        population: POPULATION,
        study: StudyConfig::builder()
            .weeks(WEEKS)
            .seed(SEED)
            .workers(1)
            .collection_mode(CollectionMode::Delta)
            .spill(SpillConfig::new(&dir))
            .build()
            .expect("valid config"),
    };
    run_captured(&config);
    let store = SnapshotStore::open(&dir).expect("store opens");

    let ctx = PlanContext::new(&store, 1);
    let (hits, misses) = ctx.classified().cache_stats();
    let diffs = store.generation_diff();
    let clean: u64 = diffs.iter().map(|d| d.clean as u64).sum();
    let dirty: u64 = diffs.iter().map(|d| d.dirty as u64).sum();
    assert_eq!(hits, clean, "clean shard-rounds reuse cached columns");
    assert_eq!(misses, dirty, "dirty shard-rounds reclassify");
    assert!(hits > 0, "a delta campaign chains at least one shard");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 3,
        ..ProptestConfig::default()
    })]

    /// Differential property: for arbitrary small campaigns — any seed,
    /// population, worker count, and persistence mode — every cached plan
    /// stays byte-identical to its uncached reference.
    #[test]
    fn cached_plans_match_uncached_for_arbitrary_campaigns(
        seed in 0u64..1_000,
        population in 300usize..600,
        workers in prop_oneof![Just(1usize), Just(8usize)],
        delta in proptest::arbitrary::any::<bool>(),
    ) {
        let mode = if delta { CollectionMode::Delta } else { CollectionMode::Full };
        let dir = fresh_spill_dir(&format!("prop-{seed}-{population}-{workers}-{delta}"));
        let config = ReproConfig {
            population,
            study: StudyConfig::builder()
                .weeks(1)
                .seed(seed)
                .workers(workers)
                .collection_mode(mode)
                .spill(SpillConfig::new(&dir))
                .build()
                .expect("valid config"),
        };
        run_captured(&config);
        let store = SnapshotStore::open(&dir).expect("store opens");
        assert_cached_matches_uncached(
            &store,
            workers,
            &format!("prop seed={seed} pop={population} w{workers} {mode:?}"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
