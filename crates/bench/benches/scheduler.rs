//! Scheduler benchmarks, two pairs:
//!
//! - `straggler`: one latency-skewed sweep run by a static-contiguous
//!   executor (worker `w` owns the `w`-th contiguous chunk of the shard
//!   plan, the engine's assignment before work claiming) and by the
//!   work-claiming engine. The first shards are slow, which is the case
//!   static chunking handles worst: one worker inherits every straggler
//!   while its peers finish their fast chunks and idle. Sleeps stand in
//!   for network latency, so the comparison holds on any core count. Both
//!   executors must merge identical output; the bench asserts that
//!   before timing, and only the wall clock may differ.
//! - `multi_tenant`: two one-week campaigns hosted by one
//!   [`StudyService`], run back to back and then concurrently over the
//!   same world and a shared two-thread pool. Nothing paces the sweeps:
//!   every query goes to the in-process world, so both arms are CPU
//!   bound and the concurrent arm can only overlap CPU work on the pool's
//!   two threads. Both arms issue the same queries, so the time ratio is
//!   the throughput ratio; it approaches 2× only on a host with two free
//!   cores, and nothing here asserts a ratio.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use remnant::core::study::StudyConfig;
use remnant::core::StudyService;
use remnant::engine::{plan_shards, EngineConfig, ScanEngine};
use remnant::world::{World, WorldConfig};

const SEED: u64 = 3;

fn bench_straggler(c: &mut Criterion) {
    const SHARD_SIZE: usize = 8;
    const SHARDS: usize = 16;
    const SLOW_SHARDS: usize = 4;
    const SLOW_US: u64 = 1_500;
    const FAST_US: u64 = 30;
    const WORKERS: usize = 4;

    let items: Vec<u64> = (0..(SHARD_SIZE * SHARDS) as u64).collect();
    let config = EngineConfig {
        workers: WORKERS,
        shard_size: SHARD_SIZE,
        seed: SEED,
    };
    let task = |shard: usize, item: u64| -> u64 {
        let sleep = if shard < SLOW_SHARDS {
            SLOW_US
        } else {
            FAST_US
        };
        std::thread::sleep(std::time::Duration::from_micros(sleep));
        item.wrapping_mul(0x9E37_79B9).rotate_left(13)
    };

    // Contiguous chunks of the same plan, statically assigned, merged in
    // plan order.
    let static_run = || -> Vec<u64> {
        let shards = plan_shards(items.len(), config.shard_size);
        let chunk = shards.len().div_ceil(WORKERS).max(1);
        let mut slots: Vec<(usize, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .chunks(chunk)
                .enumerate()
                .map(|(w, assigned)| {
                    let items = &items;
                    let base = w * chunk;
                    scope.spawn(move || {
                        assigned
                            .iter()
                            .enumerate()
                            .map(|(offset, range)| {
                                let shard = base + offset;
                                let outputs: Vec<u64> =
                                    range.clone().map(|rank| task(shard, items[rank])).collect();
                                (shard, outputs)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("static worker"))
                .collect()
        });
        slots.sort_by_key(|(shard, _)| *shard);
        slots.into_iter().flat_map(|(_, outputs)| outputs).collect()
    };

    let engine = ScanEngine::new(config.clone());
    let plan = engine.shard_plan(items.len());
    let claiming_run = || -> Vec<u64> {
        engine
            .sweep(
                &(),
                &items,
                &plan,
                None,
                |_| (),
                |_, _, scope, _, item| task(scope.shard(), *item),
                |_, _, outputs| outputs,
            )
            .outputs
            .concat()
    };

    assert_eq!(
        static_run(),
        claiming_run(),
        "static and claiming schedulers must merge identically"
    );

    let mut group = c.benchmark_group("straggler");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.bench_function("static_contiguous", |b| b.iter(static_run));
    group.bench_function("work_claiming", |b| b.iter(claiming_run));
    group.finish();
}

fn bench_multi_tenant(c: &mut Criterion) {
    const SESSIONS: usize = 2;
    const POPULATION: usize = 400;

    let world = World::generate(WorldConfig::new(POPULATION, SEED));
    let service = StudyService::new(world, SESSIONS);
    let configs: Vec<StudyConfig> = (0..SESSIONS)
        .map(|i| {
            StudyConfig::builder()
                .weeks(1)
                .seed(SEED + i as u64)
                .workers(1)
                .build()
                .expect("valid session config")
        })
        .collect();
    let run =
        |configs: &[StudyConfig]| service.run_campaigns(configs, |_| {}).expect("valid batch");

    let mut group = c.benchmark_group("multi_tenant");
    group.sample_size(1);
    group.bench_function("serialized", |b| {
        b.iter(|| {
            for config in &configs {
                run(std::slice::from_ref(config));
            }
        })
    });
    group.bench_function("concurrent", |b| b.iter(|| run(&configs)));
    group.finish();
}

criterion_group!(benches, bench_straggler, bench_multi_tenant);
criterion_main!(benches);
