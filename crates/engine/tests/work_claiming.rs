//! Adversarial-scheduling property tests: work-claiming execution merges
//! byte-identically to the legacy static shard plan, no matter how shards
//! straggle.
//!
//! The oracle is deliberately *not* the engine: it re-derives the
//! determinism contract by hand — plan the shards, seed each shard's RNG
//! from `seed → child("engine") → derive_indexed("shard", idx)`, run the
//! task sequentially in plan order — exactly what the old static
//! contiguous executor produced. The engine then runs the same task with
//! injected per-shard latency skews (a straggler sleeps while its
//! neighbors race ahead, scrambling claim order) across several worker
//! counts, and every merged byte must match the oracle.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use remnant_engine::{plan_shards, EngineConfig, ScanEngine, TaskResult};
use remnant_sim::SeedSeq;

/// What the engine's task computes per item: a mix of the item, the
/// shard RNG stream, and the per-shard worker accumulator — enough to
/// catch a wrong RNG stream, a leaked worker, or a misordered merge.
fn mix(item: u64, noise: u64, acc: u64) -> u64 {
    item.wrapping_mul(0x9E37_79B9).rotate_left(13) ^ noise ^ acc
}

/// The legacy static-plan oracle: sequential, in plan order, no threads.
fn static_plan_reference(items: &[u64], config: &EngineConfig) -> (Vec<u64>, Vec<u64>) {
    let seeds = SeedSeq::new(config.seed).child("engine");
    let shards = plan_shards(items.len(), config.shard_size);
    let mut outputs = Vec::with_capacity(items.len());
    let mut queries = Vec::with_capacity(shards.len());
    for (idx, range) in shards.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seeds.derive_indexed("shard", idx as u64));
        let mut acc = 0u64;
        let mut sent = 0u64;
        for rank in range.clone() {
            acc += 1;
            sent += 1;
            let noise: u64 = rng.gen_range(0..1 << 24);
            outputs.push(mix(items[rank], noise, acc));
        }
        queries.push(sent);
    }
    (outputs, queries)
}

/// Runs the engine with per-shard sleeps injected from `skews_us`
/// (microseconds, indexed by shard modulo the skew table).
fn claiming_run(items: &[u64], config: &EngineConfig, skews_us: &[u16]) -> (Vec<u64>, Vec<u64>) {
    let engine = ScanEngine::new(config.clone());
    let sweep = engine.sweep(
        &(),
        items,
        &engine.shard_plan(items.len()),
        None,
        |_| 0u64,
        |_, acc, scope, _, item| {
            *acc += 1;
            scope.add_queries(1);
            if !skews_us.is_empty() {
                let skew = skews_us[scope.shard() % skews_us.len()];
                if skew > 0 {
                    std::thread::sleep(Duration::from_micros(u64::from(skew)));
                }
            }
            let noise: u64 = scope.rng().gen_range(0..1 << 24);
            TaskResult::Done(mix(*item, noise, *acc))
        },
        |_, _, outputs| outputs,
    );
    let queries = sweep.stats.shards.iter().map(|s| s.queries).collect();
    (sweep.outputs.concat(), queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: for arbitrary item counts, layouts, worker
    /// counts, and straggler skews, the claiming scheduler's merged
    /// output and per-shard counters are byte-identical to the static
    /// plan.
    #[test]
    fn claiming_matches_static_plan_under_straggler_skew(
        items in proptest::collection::vec(0u64..1 << 40, 0..400),
        shard_size in 1usize..48,
        workers in 1usize..7,
        seed in proptest::arbitrary::any::<u64>(),
        skews_us in proptest::collection::vec(0u16..400, 1..6),
    ) {
        let config = EngineConfig {
            workers,
            shard_size,
            seed,
            ..EngineConfig::default()
        };
        let (expected, expected_queries) = static_plan_reference(&items, &config);
        let (got, got_queries) = claiming_run(&items, &config, &skews_us);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(got_queries, expected_queries);
    }
}

/// A deterministic extreme case: the very first shard sleeps 30ms — long
/// enough that every other shard finishes first and claim order inverts
/// completely — and the merge still cannot tell.
#[test]
fn extreme_straggler_does_not_reorder_the_merge() {
    let items: Vec<u64> = (0..160).collect();
    let config = EngineConfig {
        workers: 4,
        shard_size: 16,
        seed: 99,
        ..EngineConfig::default()
    };
    let (expected, _) = static_plan_reference(&items, &config);
    // Shard 0 is the straggler; everyone else is instant.
    let (got, _) = claiming_run(&items, &config, &[30_000, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(got, expected);

    // And the same with every worker count, solo run included.
    for workers in [1, 2, 8] {
        let config = EngineConfig {
            workers,
            ..config.clone()
        };
        let (got, _) = claiming_run(&items, &config, &[5_000, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(got, expected, "workers={workers}");
    }
}
