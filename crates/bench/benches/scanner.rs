//! Measurement-toolkit benchmarks: snapshot collection, fingerprint
//! matching, adoption classification, and behavior diffing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use remnant::core::adoption::Adoption;
use remnant::core::collector::{RecordCollector, Target};
use remnant::core::{BehaviorDetector, ProviderMatcher};
use remnant::net::Region;
use remnant::world::{World, WorldConfig};

fn bench_scanner(c: &mut Criterion) {
    let world = World::generate(WorldConfig {
        population: 2_000,
        seed: 2,
        warmup_days: 0,
        calibration: remnant::world::Calibration::paper(),
    });
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let snapshot = collector.collect(&world, &targets, 0);
    let detector = BehaviorDetector::new();
    let classes = detector.classify_snapshot(&snapshot);
    let matcher = ProviderMatcher::new();

    let mut group = c.benchmark_group("scanner");
    group.throughput(Throughput::Elements(targets.len() as u64));

    group.bench_function("collect_snapshot_2k_sites", |b| {
        let mut day = 1;
        b.iter(|| {
            day += 1;
            collector.collect(&world, &targets, day)
        });
    });

    group.bench_function("classify_snapshot_2k_sites", |b| {
        b.iter(|| detector.classify_snapshot(&snapshot));
    });

    group.bench_function("match_records_2k_sites", |b| {
        b.iter(|| {
            let mut matched = 0usize;
            for loaded in snapshot.blocks() {
                matched += loaded
                    .block
                    .sites()
                    .filter(|site| matcher.match_view(*site).a.is_some())
                    .count();
            }
            matched
        });
    });

    group.bench_function("diff_snapshots_2k_sites", |b| {
        b.iter(|| detector.diff(&classes, &classes));
    });

    group.bench_function("classify_one", |b| {
        let records = (0..snapshot.len())
            .filter_map(|rank| snapshot.site(rank))
            .find(|r| !r.is_empty())
            .expect("resolved site");
        b.iter(|| Adoption::classify(&matcher, &records));
    });

    group.finish();
}

criterion_group!(benches, bench_scanner);
criterion_main!(benches);
