//! Property tests: shard planning and shard-merge preserve target order
//! for arbitrary item counts, shard sizes and worker counts.

use proptest::prelude::*;
use rand::Rng;
use remnant_engine::{plan_shards, EngineConfig, ScanEngine};

const DEPTH_BOUNDS: &[u64] = &[1, 2, 4];

proptest! {
    #[test]
    fn shard_plan_partitions_the_input(items in 0usize..5000, shard_size in 0usize..600) {
        let shards = plan_shards(items, shard_size);
        let mut next = 0;
        for shard in &shards {
            prop_assert_eq!(shard.start, next);
            prop_assert!(!shard.is_empty());
            prop_assert!(shard.len() <= shard_size.max(1));
            next = shard.end;
        }
        prop_assert_eq!(next, items);
    }

    #[test]
    fn merge_preserves_target_order(
        items in proptest::collection::vec(0u64..1_000_000, 0..800),
        shard_size in 1usize..97,
        workers in 1usize..9,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let engine = ScanEngine::new(EngineConfig {
            workers,
            shard_size,
            seed,
        });
        let sweep = engine.sweep(
            &(),
            &items,
            &engine.shard_plan(items.len()),
            None,
            |_| (),
            |_, _, _, rank, item| (rank, *item),
            |_, _, outputs| outputs,
        );
        let expected: Vec<(usize, u64)> =
            items.iter().copied().enumerate().collect();
        prop_assert_eq!(sweep.outputs.concat(), expected);
        prop_assert_eq!(sweep.stats.items() as usize, items.len());
    }

    #[test]
    fn sweep_is_worker_count_invariant(
        items in proptest::collection::vec(0u64..1000, 1..300),
        shard_size in 1usize..64,
        workers in 2usize..9,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let run = |workers: usize| {
            let engine = ScanEngine::new(EngineConfig {
                workers,
                shard_size,
                seed,
            });
            engine.sweep(
                &(),
                &items,
                &engine.shard_plan(items.len()),
                None,
                |_| 0u64,
                |_, acc, scope, rank, item| {
                    *acc = acc.wrapping_add(*item);
                    scope.add_queries(1);
                    let roll: u64 = scope.rng().gen_range(0..4);
                    if roll == 0 {
                        // A miss records its own deterministic row.
                        rank as u64 ^ *acc
                    } else {
                        item.wrapping_mul(roll) ^ *acc
                    }
                },
                |_, _, outputs| outputs,
            )
        };
        let sequential = run(1);
        let parallel = run(workers);
        prop_assert_eq!(&sequential.outputs, &parallel.outputs);
        prop_assert_eq!(&sequential.stats.shards, &parallel.stats.shards);
    }

    #[test]
    fn merged_metrics_are_worker_invariant_and_sum_exactly(
        items in proptest::collection::vec(0u64..1000, 1..300),
        shard_size in 1usize..64,
        workers in 2usize..9,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let run = |workers: usize| {
            let engine = ScanEngine::new(EngineConfig {
                workers,
                shard_size,
                seed,
            });
            engine.sweep(
                &(),
                &items,
                &engine.shard_plan(items.len()),
                None,
                |_| 0u64,
                |_, seen, scope, _rank, item| {
                    *seen += 1;
                    let parity = if item % 2 == 0 { "even" } else { "odd" };
                    scope.metrics().inc_labeled("test.items", &[("parity", parity)]);
                    scope.metrics().observe_with("test.depth", DEPTH_BOUNDS, item % 6);
                    *item
                },
                // The finish hook runs once per shard, like the resolver
                // telemetry export on the collection path.
                |seen, scope, outputs| {
                    scope.metrics().add("test.shard_items", seen);
                    outputs
                },
            )
        };
        let sequential = run(1);
        let parallel = run(workers);

        let merged1 = sequential.stats.merged_metrics();
        let merged_n = parallel.stats.merged_metrics();
        prop_assert_eq!(&merged1, &merged_n, "merge must not depend on worker count");

        let even = items.iter().filter(|i| *i % 2 == 0).count() as u64;
        prop_assert_eq!(
            merged1.counter_labeled("test.items", &[("parity", "even")]),
            even
        );
        prop_assert_eq!(
            merged1.counter_labeled("test.items", &[("parity", "odd")]),
            items.len() as u64 - even
        );
        prop_assert_eq!(merged1.counter("test.shard_items"), items.len() as u64);
        let depth = merged1.histogram("test.depth").expect("observed every item");
        prop_assert_eq!(depth.count(), items.len() as u64);
        prop_assert_eq!(depth.sum(), items.iter().map(|i| i % 6).sum::<u64>());
    }
}
