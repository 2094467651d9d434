//! Scan-engine benchmarks: the same collection sweep at 1 worker vs all
//! available cores. The outputs are bit-identical (the engine's
//! determinism contract); only wall time differs, which is exactly what
//! this bench measures.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use remnant::core::collector::{RecordCollector, Target};
use remnant::engine::{EngineConfig, ScanEngine};
use remnant::net::Region;
use remnant::world::{World, WorldConfig};

/// Population for the sweep benchmarks. A full-scale measurement is
/// `repro fig2 --sites 1000000`, which reports wall time and peak RSS.
const POPULATION: usize = 100_000;

fn bench_engine(c: &mut Criterion) {
    let world = World::generate(WorldConfig {
        population: POPULATION,
        seed: 7,
        warmup_days: 0,
        calibration: remnant::world::Calibration::paper(),
    });
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());

    let mut worker_counts = vec![1, 2, cores];
    worker_counts.sort_unstable();
    worker_counts.dedup();

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(POPULATION as u64));
    for workers in worker_counts {
        let engine = ScanEngine::new(
            EngineConfig::with_workers(workers, 7).expect("worker count validated above"),
        );
        group.bench_function(format!("collect_{POPULATION}_workers_{workers}"), |b| {
            b.iter(|| collector.collect_with(&engine, &world, &targets, 0));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
