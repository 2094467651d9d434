//! DNS substrate benchmarks: recursive resolution, cached resolution,
//! direct nameserver queries — the primitives every measurement sweep is
//! built from — and one collection shard resolved from a cold cache, in
//! full and as the fabric's share of it alone.

use std::cell::RefCell;
use std::net::Ipv4Addr;

use criterion::{criterion_group, criterion_main, Criterion};

use remnant::dns::{
    CountingTransport, DnsTransport, Query, RecordType, RecursiveResolver, Response,
};
use remnant::net::Region;
use remnant::provider::ProviderId;
use remnant::sim::SimTime;
use remnant::world::{World, WorldConfig};

/// DNS queries the 512-site cold shard sends.
const PINNED_QUERIES: u64 = 1_058;
/// Of those, the queries the fabric answers: every one.
const PINNED_ANSWERED: u64 = 1_058;
/// The 512-site cold shard's cache (hits, misses).
const PINNED_HITS_MISSES: (u64, u64) = (592, 2_661);

/// A transport that keeps every (server, query) pair it forwards.
struct Recording<'a> {
    inner: &'a dyn DnsTransport,
    sent: RefCell<Vec<(Ipv4Addr, Query)>>,
}

impl DnsTransport for Recording<'_> {
    fn query(
        &self,
        now: SimTime,
        server: Ipv4Addr,
        region: Region,
        query: &Query,
    ) -> Option<Response> {
        self.sent.borrow_mut().push((server, query.clone()));
        self.inner.query(now, server, region, query)
    }
}

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

    // One collection shard from cold: a fresh resolver, sized the way the
    // collector sizes a shard's, resolves 512 sites' `www` A and apex NS.
    // The query count and cache counters are pinned, so the timed work is
    // the work a collection shard does. `fabric_replay` sends the shard's
    // recorded queries straight to the world, timing the fabric's share
    // of the shard without the resolver's.
    let shard: Vec<_> = world.sites()[..512]
        .iter()
        .map(|site| (site.apex.clone(), site.www.clone()))
        .collect();
    let cold_shard = |transport: &dyn DnsTransport| {
        let mut resolver =
            RecursiveResolver::with_cache_capacity(clock.clone(), Region::Ashburn, 512 * 5 / 2);
        for (apex, www) in &shard {
            let _ = resolver.resolve(transport, www, RecordType::A);
            let _ = resolver.resolve(transport, apex, RecordType::Ns);
        }
        resolver
    };
    let counting = CountingTransport::new(&world);
    let recording = Recording {
        inner: &counting,
        sent: RefCell::default(),
    };
    let resolver = cold_shard(&recording);
    assert_eq!(
        (counting.query_stats().sent, resolver.cache().stats()),
        (PINNED_QUERIES, PINNED_HITS_MISSES),
        "the cold shard's queries and cache (hits, misses)"
    );
    group.bench_function("cold_shard_512", |b| b.iter(|| cold_shard(&world)));

    let sent = recording.sent.into_inner();
    let replay = || {
        let now = clock.now();
        sent.iter()
            .filter(|(server, query)| world.query(now, *server, Region::Ashburn, query).is_some())
            .count() as u64
    };
    assert_eq!(sent.len() as u64, PINNED_QUERIES);
    assert_eq!(
        (replay(), counting.query_stats().answered),
        (PINNED_ANSWERED, PINNED_ANSWERED),
        "the replayed shard's answered queries"
    );
    group.bench_function("fabric_replay", |b| b.iter(replay));

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
