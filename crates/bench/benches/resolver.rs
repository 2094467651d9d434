//! DNS substrate benchmarks: recursive resolution, cached resolution, and
//! direct nameserver queries — the primitives every measurement sweep is
//! built from.

use criterion::{criterion_group, criterion_main, Criterion};

use remnant::dns::{DnsTransport, Query, RecordType, RecursiveResolver};
use remnant::net::Region;
use remnant::provider::ProviderId;
use remnant::world::{World, WorldConfig};

fn bench_resolution(c: &mut Criterion) {
    let world = World::generate(WorldConfig {
        population: 2_000,
        seed: 1,
        warmup_days: 0,
        calibration: remnant::world::Calibration::paper(),
    });
    let names: Vec<_> = world.sites().iter().map(|s| s.www.clone()).collect();

    let mut group = c.benchmark_group("resolver");

    let clock = world.clock();
    group.bench_function("recursive_uncached", |b| {
        let mut resolver = RecursiveResolver::new(clock.clone(), Region::Ashburn);
        let mut i = 0usize;
        b.iter(|| {
            resolver.purge_cache();
            let name = &names[i % names.len()];
            i += 1;
            resolver
                .resolve(&world, name, RecordType::A)
                .expect("world resolves")
        });
    });

    group.bench_function("recursive_cached", |b| {
        let mut resolver = RecursiveResolver::new(clock.clone(), Region::Ashburn);
        let name = &names[0];
        let _ = resolver.resolve(&world, name, RecordType::A);
        b.iter(|| {
            resolver
                .resolve(&world, name, RecordType::A)
                .expect("cached")
        });
    });

    group.bench_function("direct_ns_query", |b| {
        let server = world.provider(ProviderId::Cloudflare).ns_addresses()[0];
        let queries: Vec<Query> = names
            .iter()
            .map(|n| Query::new(n.clone(), RecordType::A))
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            let query = &queries[i % queries.len()];
            i += 1;
            let now = clock.now();
            world.query(now, server, Region::Oregon, query)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_resolution);
criterion_main!(benches);
