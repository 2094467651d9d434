//! The sharded sweep executor.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use remnant_obs::MetricsRegistry;
use remnant_sim::SeedSeq;

use crate::claim::{ShardQueue, SlotVec};
use crate::config::EngineConfig;
use crate::shard::plan_shards;
use crate::stats::{ShardStats, ShardTiming, SweepStats};

/// Per-shard context handed to every task invocation.
///
/// Owns the shard's private RNG stream (derived from the engine seed and
/// the shard index, never from the worker) and the shard's query counter.
#[derive(Debug)]
pub struct ShardScope {
    shard: usize,
    rng: StdRng,
    queries: u64,
    cache_hits: u64,
    cache_misses: u64,
    metrics: MetricsRegistry,
}

impl ShardScope {
    /// Index of the shard this scope belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The shard's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Records `n` DNS queries issued on behalf of this shard.
    pub fn add_queries(&mut self, n: u64) {
        self.queries += n;
    }

    /// Records resolver-cache hits and misses observed by this shard
    /// (typically its fresh resolver's cumulative `ResolverCache::stats`,
    /// recorded once in the sweep's `finish`). Deterministic per shard:
    /// each shard owns a fresh resolver.
    pub fn add_cache_stats(&mut self, hits: u64, misses: u64) {
        self.cache_hits += hits;
        self.cache_misses += misses;
    }

    /// The shard's metrics sink. Whatever a task (or the per-shard finish
    /// hook of [`ScanEngine::sweep`]) records here lands in
    /// the shard's [`ShardStats::metrics`] and merges deterministically
    /// into the sweep's aggregate — shard identity, never thread
    /// identity, decides where a metric is accumulated.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }
}

/// A completed sweep: one product per run shard plus instrumentation.
#[derive(Clone, Debug)]
pub struct Sweep<S> {
    /// One product per run shard (what the sweep's `finish` returned for
    /// it), in ascending plan order.
    pub outputs: Vec<S>,
    /// Per-shard and aggregate counters.
    pub stats: SweepStats,
}

/// Sharded, deterministic parallel sweep executor.
///
/// The engine cuts the target list into contiguous shards
/// ([`plan_shards`]), lets `workers` threads — the caller and
/// `workers - 1` helpers — *claim* shards from a shared
/// injector queue ([`ShardQueue`]), and writes each shard's result into
/// the positional slot for its place in the plan ([`SlotVec`]). Three
/// invariants make the merged result bit-identical for every worker count
/// and every claim order:
///
/// 1. **Shard layout** depends only on the item count and
///    [`shard_size`](EngineConfig::shard_size), never on `workers`.
/// 2. **Per-shard state is fresh**: each shard gets its own worker value
///    (`make_worker(shard)`) and its own RNG stream
///    (`seed → child("engine") → derive_indexed("shard", shard)`), so no
///    state leaks between shards regardless of which thread ran them.
/// 3. **Merge is positional**: shard outputs are written into
///    pre-allocated slots indexed by plan position, not in completion
///    order.
///
/// Because claiming is first-come-first-served, a straggling shard only
/// occupies the one thread that claimed it — every other thread keeps
/// draining the queue — while the slot merge erases any trace of who ran
/// what. The work-claiming proptests pin this down against adversarial
/// per-shard latency skews.
#[derive(Clone, Debug)]
pub struct ScanEngine {
    config: EngineConfig,
}

impl ScanEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        ScanEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The shard layout this engine would use for `items` inputs — the
    /// usual `plan` argument of [`ScanEngine::sweep`].
    ///
    /// Depends only on the item count and
    /// [`shard_size`](EngineConfig::shard_size) — callers that schedule a
    /// subset of shards use it to map item ranks to shard indices.
    pub fn shard_plan(&self, items: usize) -> Vec<std::ops::Range<usize>> {
        plan_shards(items, self.config.shard_size)
    }

    /// Runs `task` over the items of `plan`'s shards, in parallel across
    /// the engine's workers. This is the engine's one sweep.
    ///
    /// The calling thread is worker 0: it claims shards from the same
    /// queue as the `workers - 1` helper threads the sweep spawns, so a
    /// one-worker sweep runs entirely on the caller and spawns nothing.
    /// The helpers are joined before the sweep returns; a panic in any
    /// worker's `make_worker`, `task` or `finish` reaches the caller after
    /// that join.
    ///
    /// * `ctx` — shared read-only context (the world, a scanner, …).
    /// * `items` — the inputs; `plan` cuts them into contiguous shards,
    ///   usually [`ScanEngine::shard_plan`]`(items.len())`. A unit plan
    ///   (`plan_shards(n, 1)`) makes every item its own shard.
    /// * `selected` — `None` runs every shard; `Some(shards)` runs only
    ///   those plan positions (any order; duplicates ignored;
    ///   out-of-range indices panic).
    /// * `make_worker` — builds the per-shard mutable state (for DNS
    ///   sweeps: a fresh [`RecursiveResolver`]); called once per shard
    ///   with the shard index.
    /// * `task` — processes one item and returns its output; receives the
    ///   context, the shard's worker, the shard scope (RNG + counters), the
    ///   item's global rank and the item itself. It runs exactly once per
    ///   item: a task that cannot complete an item returns the output that
    ///   records the failure (for the collector, an empty row).
    /// * `finish` — runs once per shard after its last item, on the
    ///   thread that ran the shard, consuming the shard's worker and its
    ///   item outputs (in rank order) with the shard scope still
    ///   writable, and returns the shard's product. This is where a
    ///   worker's accumulated telemetry (e.g. a resolver's counters) is
    ///   exported into [`ShardScope::metrics`] — once per shard instead of
    ///   once per item, so instrumentation stays off the per-item hot
    ///   path while remaining deterministic — and where a shard's outputs
    ///   are packed into whatever the caller keeps (a caller that wants
    ///   the items returns the `Vec` and flattens).
    ///
    /// Every shard runs with its **plan identity** — the same RNG stream,
    /// the same `ShardStats::shard` index and the same item range whether
    /// it runs alone or with every other shard — so a selected shard's
    /// product and stats are byte-identical to that shard's in a full
    /// sweep. [`Sweep::outputs`] holds one product per run shard in
    /// ascending shard order; `stats.shards` likewise holds only the run
    /// shards. Callers that need a full-length result splice the pieces
    /// back using the plan.
    ///
    /// [`RecursiveResolver`]: https://docs.rs/remnant-dns
    #[allow(clippy::too_many_arguments)]
    pub fn sweep<C, I, O, S, W, MW, T, F>(
        &self,
        ctx: &C,
        items: &[I],
        plan: &[std::ops::Range<usize>],
        selected: Option<&[usize]>,
        make_worker: MW,
        task: T,
        finish: F,
    ) -> Sweep<S>
    where
        C: Sync + ?Sized,
        I: Sync,
        S: Send,
        MW: Fn(usize) -> W + Sync,
        T: Fn(&C, &mut W, &mut ShardScope, usize, &I) -> O + Sync,
        F: Fn(W, &mut ShardScope, Vec<O>) -> S + Sync,
    {
        let mut selected: Vec<usize> =
            selected.map_or_else(|| (0..plan.len()).collect(), <[usize]>::to_vec);
        selected.sort_unstable();
        selected.dedup();
        if let Some(&last) = selected.last() {
            assert!(
                last < plan.len(),
                "selected shard {last} out of range ({} shards)",
                plan.len()
            );
        }
        let workers = self.config.workers.max(1).min(selected.len().max(1));
        let seeds = SeedSeq::new(self.config.seed).child("engine");
        let queue = ShardQueue::new(&selected);
        let slots: SlotVec<(S, ShardStats, ShardTiming)> = SlotVec::new(selected.len());
        let started = Instant::now();

        let run_shard = |shard_idx: usize| {
            let range = plan[shard_idx].clone();
            let shard_started = Instant::now();
            let mut scope = ShardScope {
                shard: shard_idx,
                rng: StdRng::seed_from_u64(seeds.derive_indexed("shard", shard_idx as u64)),
                queries: 0,
                cache_hits: 0,
                cache_misses: 0,
                metrics: MetricsRegistry::new(),
            };
            let mut worker = make_worker(shard_idx);
            let mut outputs = Vec::with_capacity(range.len());
            let mut stats = ShardStats {
                shard: shard_idx,
                items: range.len() as u64,
                attempts: range.len() as u64,
                ..ShardStats::default()
            };
            for rank in range {
                outputs.push(task(ctx, &mut worker, &mut scope, rank, &items[rank]));
            }
            let product = finish(worker, &mut scope, outputs);
            stats.queries = scope.queries;
            stats.cache_hits = scope.cache_hits;
            stats.cache_misses = scope.cache_misses;
            stats.metrics = scope.metrics;
            let timing = ShardTiming {
                shard: shard_idx,
                wall: shard_started.elapsed(),
            };
            (product, stats, timing)
        };

        // Work-claiming execution: every worker drains the shared injector
        // queue, writing each finished shard into the slot for its plan
        // position. Claim order is first-come-first-served (and therefore
        // nondeterministic), but the slots erase it. The calling thread is
        // worker 0, so only `workers - 1` helpers are spawned; the scope
        // joins them before it returns or re-raises a panic.
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(|| drain(&queue, &slots, &run_shard));
            }
            drain(&queue, &slots, &run_shard);
        });

        // Positional merge: plan order, not completion order.
        let mut outputs = Vec::with_capacity(selected.len());
        let mut stats = SweepStats {
            workers,
            shards: Vec::with_capacity(selected.len()),
            timings: Vec::with_capacity(selected.len()),
            wall: std::time::Duration::ZERO,
        };
        for (product, shard_stats, timing) in slots.into_vec() {
            outputs.push(product);
            stats.shards.push(shard_stats);
            stats.timings.push(timing);
        }
        stats.wall = started.elapsed();
        Sweep { outputs, stats }
    }
}

/// One worker's loop: claims shards until the queue is empty and fills
/// each claimed shard's slot. Out of line so that the caller and its
/// helpers run one copy of the shard loop: inlined at both call sites it
/// grew each release binary by ≈ 35 KB.
#[inline(never)]
fn drain<T>(queue: &ShardQueue<'_>, slots: &SlotVec<T>, run_shard: &impl Fn(usize) -> T) {
    while let Some(claim) = queue.claim() {
        slots.set(claim.pos, run_shard(claim.shard));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn engine(workers: usize, shard_size: usize) -> ScanEngine {
        ScanEngine::new(EngineConfig {
            workers,
            shard_size,
            seed: 42,
        })
    }

    #[test]
    fn outputs_preserve_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let eng = engine(4, 64);
        let sweep = eng.sweep(
            &(),
            &items,
            &eng.shard_plan(items.len()),
            None,
            |_| (),
            |_, _, _, rank, item| {
                assert_eq!(rank, *item);
                item * 2
            },
            |_, _, outputs| outputs,
        );
        let expected: Vec<usize> = items.iter().map(|i| i * 2).collect();
        assert_eq!(sweep.outputs.concat(), expected);
        assert_eq!(sweep.stats.items(), 1000);
        assert_eq!(sweep.stats.attempts(), 1000);
        assert_eq!(sweep.stats.retries(), 0);
        assert_eq!(sweep.stats.exhausted(), 0);
    }

    #[test]
    fn worker_count_does_not_change_outputs_or_counters() {
        let items: Vec<u64> = (0..777).collect();
        let run = |workers: usize| {
            let eng = engine(workers, 50);
            eng.sweep(
                &(),
                &items,
                &eng.shard_plan(items.len()),
                None,
                |_| 0u64, // per-shard accumulator
                |_, acc, scope, _, item| {
                    *acc += 1;
                    scope.add_queries(2);
                    let noise: u64 = scope.rng().gen_range(0..1000);
                    item.wrapping_mul(31) ^ noise ^ *acc
                },
                |_, _, outputs| outputs,
            )
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.outputs, eight.outputs);
        assert_eq!(one.stats.shards, eight.stats.shards);
        assert_eq!(one.stats.queries(), 777 * 2);
    }

    #[test]
    fn shard_rng_streams_are_stable_and_distinct() {
        let items = [(); 6];
        let draw = |workers: usize| {
            let eng = engine(workers, 3);
            eng.sweep(
                &(),
                &items,
                &eng.shard_plan(items.len()),
                None,
                |_| (),
                |_, _, scope, _, _| scope.rng().gen_range(0u64..u64::MAX),
                |_, _, outputs| outputs,
            )
            .outputs
            .concat()
        };
        let a = draw(1);
        let b = draw(2);
        assert_eq!(a, b);
        // The two shards' streams differ.
        assert_ne!(a[0..3], a[3..6]);
    }

    #[test]
    fn finish_hook_exports_worker_state_per_shard() {
        let items: Vec<u64> = (0..100).collect();
        let run = |workers: usize| {
            let eng = engine(workers, 16);
            eng.sweep(
                &(),
                &items,
                &eng.shard_plan(items.len()),
                None,
                |_| 0u64, // worker: per-shard accumulated "queries"
                |_, acc, _, _, item| *acc += item % 3,
                |acc, scope, _| {
                    scope.metrics().add("transport.sent", acc);
                    scope.metrics().observe_with("shard.load", &[10, 100], acc);
                },
            )
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.stats.shards, eight.stats.shards);
        let total: u64 = items.iter().map(|i| i % 3).sum();
        assert_eq!(one.stats.merged_metrics().counter("transport.sent"), total);
        assert_eq!(
            one.stats.merged_metrics(),
            eight.stats.merged_metrics(),
            "merged metrics are worker-count invariant"
        );
    }

    #[test]
    fn selected_shards_keep_their_full_sweep_identity() {
        let items: Vec<u64> = (0..230).collect();
        let task = |_: &(), acc: &mut u64, scope: &mut ShardScope, rank: usize, item: &u64| {
            *acc += 1;
            scope.add_queries(1);
            let noise: u64 = scope.rng().gen_range(0..1000);
            (rank, item.wrapping_mul(7) ^ noise ^ *acc)
        };
        let eng = engine(4, 32);
        let plan = eng.shard_plan(items.len());
        assert_eq!(plan.len(), 8);
        // `finish` gets exactly its shard's outputs, in rank order, and
        // returns the shard's product.
        let finish = |acc: u64, scope: &mut ShardScope, outputs: Vec<(usize, u64)>| {
            let ranks: Vec<usize> = outputs.iter().map(|&(rank, _)| rank).collect();
            assert!(ranks.iter().copied().eq(plan[scope.shard()].clone()));
            scope.metrics().add("transport.sent", acc);
            (scope.shard(), outputs)
        };
        let full = eng.sweep(&(), &items, &plan, None, |_| 0u64, task, finish);
        assert_eq!(full.outputs.len(), plan.len());

        // Run a subset (unsorted, with a duplicate) and compare each selected
        // shard's product and stats against the full sweep, slot for slot.
        let chosen = [1usize, 3, 6];
        for workers in [1usize, 8] {
            let partial = engine(workers, 32).sweep(
                &(),
                &items,
                &plan,
                Some(&[6, 1, 3, 1]),
                |_| 0u64,
                task,
                finish,
            );
            assert_eq!(partial.outputs.len(), 3, "workers={workers}");
            assert_eq!(partial.stats.shards.len(), 3);
            for (pos, &idx) in chosen.iter().enumerate() {
                assert_eq!(partial.outputs[pos], full.outputs[idx]);
                assert_eq!(partial.stats.shards[pos], full.stats.shards[idx]);
            }
        }
    }

    #[test]
    fn selecting_every_shard_matches_a_full_sweep() {
        let items: Vec<u64> = (0..100).collect();
        let task = |_: &(), _: &mut (), scope: &mut ShardScope, _: usize, item: &u64| {
            item ^ scope.rng().gen_range(0u64..1 << 20)
        };
        let eng = engine(2, 16);
        let plan = eng.shard_plan(items.len());
        let all: Vec<usize> = (0..plan.len()).collect();
        let keep = |(), _: &mut ShardScope, outputs: Vec<u64>| outputs;
        let full = eng.sweep(&(), &items, &plan, None, |_| (), task, keep);
        let sel = eng.sweep(&(), &items, &plan, Some(&all), |_| (), task, keep);
        assert_eq!(full.outputs, sel.outputs);
        assert_eq!(full.stats.shards, sel.stats.shards);
    }

    #[test]
    fn selecting_no_shards_is_an_empty_sweep() {
        let items: Vec<u64> = (0..50).collect();
        let eng = engine(2, 16);
        let sweep = eng.sweep(
            &(),
            &items,
            &eng.shard_plan(items.len()),
            Some(&[]),
            |_| (),
            |_, _, _, _, _| 0u64,
            |_, _, outputs| outputs,
        );
        assert!(sweep.outputs.is_empty());
        assert!(sweep.stats.shards.is_empty());
    }

    #[test]
    #[should_panic(expected = "selected shard 4 out of range (4 shards)")]
    fn selecting_past_the_plan_panics() {
        let items: Vec<u64> = (0..64).collect();
        let eng = engine(1, 16);
        eng.sweep(
            &(),
            &items,
            &eng.shard_plan(items.len()),
            Some(&[1, 4]),
            |_| (),
            |_, _, _, _, _| 0u64,
            |_, _, outputs| outputs,
        );
    }

    #[test]
    fn empty_input_yields_empty_sweep() {
        let items: [u8; 0] = [];
        let eng = engine(4, 512);
        let sweep = eng.sweep(
            &(),
            &items,
            &eng.shard_plan(items.len()),
            None,
            |_| (),
            |_, _, _, _, _| 0,
            |_, _, outputs| outputs,
        );
        assert!(sweep.outputs.is_empty());
        assert!(sweep.stats.shards.is_empty());
        assert_eq!(sweep.stats.items(), 0);
    }

    /// A one-task-per-shard sweep over `shard_count` unit shards.
    fn unit_sweep(eng: &ScanEngine, shard_count: usize, selected: &[usize]) -> Vec<(usize, u64)> {
        let shards: Vec<usize> = (0..shard_count).collect();
        eng.sweep(
            &(),
            &shards,
            &crate::plan_shards(shard_count, 1),
            Some(selected),
            |_| (),
            |_, (), scope, _, &shard| {
                assert_eq!(scope.shard(), shard);
                (shard, scope.rng().gen_range(0u64..1 << 32))
            },
            |(), _, outputs| outputs,
        )
        .outputs
        .concat()
    }

    #[test]
    fn unit_plan_sweep_is_worker_count_invariant() {
        // One task per shard, any subset, any worker count: outputs land
        // in ascending shard order with original shard identity.
        let selected = [7usize, 2, 2, 11, 0];
        let runs: Vec<Vec<(usize, u64)>> = [1usize, 3, 8]
            .into_iter()
            .map(|workers| unit_sweep(&engine(workers, 64), 13, &selected))
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        let shards: Vec<usize> = runs[0].iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, [0, 2, 7, 11], "deduped, ascending shard order");
    }

    #[test]
    fn unit_plan_subset_matches_full_run() {
        let full = unit_sweep(&engine(4, 64), 9, &(0..9).collect::<Vec<_>>());
        let subset = unit_sweep(&engine(4, 64), 9, &[3, 6]);
        assert_eq!(subset, [full[3], full[6]]);
    }

    #[test]
    fn one_worker_sweep_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = || assert_eq!(std::thread::current().id(), caller);
        let items: Vec<u64> = (0..100).collect();
        let eng = engine(1, 16);
        let sweep = eng.sweep(
            &(),
            &items,
            &eng.shard_plan(items.len()),
            None,
            |_| on_caller(),
            |_, (), _, _, item| {
                on_caller();
                item + 1
            },
            |(), _, outputs| {
                on_caller();
                outputs
            },
        );
        assert_eq!(sweep.outputs.concat(), (1..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn sweep_uses_at_most_workers_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;

        let items: Vec<usize> = (0..64).collect();
        let threads = Mutex::new(HashSet::new());
        let runs = Mutex::new(vec![0u32; items.len()]);
        let sweep = engine(4, 64).sweep(
            &(),
            &items,
            &crate::plan_shards(items.len(), 1),
            None,
            |_| (),
            |_, (), _, rank, &item| {
                threads.lock().unwrap().insert(std::thread::current().id());
                runs.lock().unwrap()[rank] += 1;
                item
            },
            |(), _, outputs| outputs,
        );
        assert_eq!(sweep.outputs.concat(), items);
        let threads = threads.into_inner().unwrap().len();
        assert!(
            (1..=4).contains(&threads),
            "{threads} threads ran the sweep"
        );
        assert!(runs.into_inner().unwrap().iter().all(|&n| n == 1));
    }

    #[test]
    fn panicking_task_propagates() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let items: Vec<u64> = (0..64).collect();
        for workers in [1usize, 3] {
            let eng = ScanEngine::new(EngineConfig {
                workers,
                shard_size: 8,
                seed: 1,
            });
            let result = catch_unwind(AssertUnwindSafe(|| {
                eng.sweep(
                    &(),
                    &items,
                    &eng.shard_plan(items.len()),
                    None,
                    |_| (),
                    |_, (), _, _, &item| {
                        assert_ne!(item, 37, "task failed on item 37");
                        item
                    },
                    |(), _, outputs| outputs,
                )
            }));
            assert!(
                result.is_err(),
                "workers={workers}: the panic reached the caller"
            );
        }
    }

    #[test]
    fn fresh_worker_per_shard() {
        // The per-shard accumulator never sees items from another shard,
        // no matter how shards are scheduled onto threads.
        let items = [(); 12];
        let eng = engine(3, 4);
        let sweep = eng.sweep(
            &(),
            &items,
            &eng.shard_plan(items.len()),
            None,
            |_| 0u32,
            |_, seen, _, _, _| {
                *seen += 1;
                *seen
            },
            |_, _, outputs| outputs,
        );
        assert_eq!(sweep.outputs.concat(), [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]);
    }
}
