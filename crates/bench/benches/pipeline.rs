//! Residual-resolution pipeline benchmarks: fleet harvesting, the direct
//! scan, and the three-stage Fig 8 filter pipeline.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use remnant::core::collector::{DeltaCollector, RecordCollector, Target};
use remnant::core::residual::{CloudflareScanner, FilterPipeline};
use remnant::core::SCANNER_SOURCE;
use remnant::engine::{EngineConfig, ScanEngine};
use remnant::net::Region;
use remnant::provider::ProviderId;
use remnant::world::{World, WorldConfig};

fn bench_pipeline(c: &mut Criterion) {
    let mut world = World::generate(WorldConfig {
        population: 2_000,
        seed: 3,
        warmup_days: 14, // builds a residual pool
        calibration: remnant::world::Calibration::paper(),
    });
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let snapshot = collector.collect(&world, &targets, 0);

    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(targets.len() as u64));

    group.bench_function("harvest_fleet", |b| {
        b.iter(|| {
            let mut scanner = CloudflareScanner::new(world.clock(), "cloudflare");
            scanner.harvest_fleet(&world, &snapshot);
            scanner.fleet_size()
        });
    });

    let mut scanner = CloudflareScanner::new(world.clock(), "cloudflare");
    scanner.harvest_fleet(&world, &snapshot);

    let one_worker = ScanEngine::new(EngineConfig::default());
    group.bench_function("direct_scan_2k_sites", |b| {
        let mut week = 0;
        b.iter(|| {
            week += 1;
            scanner.scan_with(&one_worker, &world, &targets, week)
        });
    });

    let (raw, _) = scanner.scan_with(&one_worker, &world, &targets, 0);
    group.bench_function("filter_pipeline", |b| {
        let mut pipeline = FilterPipeline::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);
        b.iter(|| pipeline.run(&mut world, ProviderId::Cloudflare, 0, &raw, &targets));
    });

    // The daily collection round under each mode, steady state: the world
    // does not change between rounds, so the delta round pays only the
    // generation probe plus the rotating 1-in-16 refresh stratum while the
    // full round re-resolves all 2k sites.
    let engine = ScanEngine::new(EngineConfig {
        workers: 1,
        shard_size: 64,
        seed: 3,
        ..EngineConfig::default()
    });
    group.bench_function("full_sweep_2k_sites", |b| {
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        b.iter(|| collector.collect_with(&engine, &world, &targets, 0));
    });
    group.bench_function("delta_sweep_2k_sites", |b| {
        let mut collector = DeltaCollector::new(world.clock(), Region::Ashburn, 3);
        let _ = collector.collect_with(&engine, &world, &targets, 0); // cold round warms the cache
        b.iter(|| collector.collect_with(&engine, &world, &targets, 0));
    });

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
