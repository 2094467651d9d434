//! Wire-layer benchmarks: RFC 1035 encode/decode on real resolver answers,
//! plus the serve daemon's cached hot path (header parse, bounded name
//! decode, cache lookup, frame copy, ID patch). Every iteration handles
//! each of the 64 portal fixtures once, so per-element rates are per
//! query.
//!
//! `serve_cached_udp` targets at least 1M queries/s (the printed
//! `thrpt`). The target is a guide for reading the rate; nothing asserts
//! it.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use remnant::dns::{DomainName, Query, RecordSet, RecordType, RecursiveResolver, Response};
use remnant::net::Region;
use remnant::wire::{query_id, Message, ServerCore};
use remnant::world::{Calibration, World, WorldConfig};

/// Portal answers in each iteration.
const FIXTURES: usize = 64;

fn bench_wire(c: &mut Criterion) {
    let world = World::generate(WorldConfig {
        population: 2_000,
        seed: 3,
        warmup_days: 14,
        calibration: Calibration::paper(),
    });
    let names: Vec<DomainName> = world
        .sites()
        .iter()
        .take(FIXTURES)
        .map(|s| s.www.clone())
        .collect();
    let mut resolver = RecursiveResolver::new(world.clock(), Region::Ashburn);
    let fixtures: Vec<(Query, Response)> = names
        .iter()
        .map(|name| {
            let query = Query::new(name.clone(), RecordType::A);
            let resolution = resolver
                .resolve(&world, name, RecordType::A)
                .expect("world resolves its own portals");
            let response = Response {
                query: query.clone(),
                rcode: resolution.rcode,
                authoritative: false,
                answers: resolution.records,
                authority: RecordSet::new(),
                additional: RecordSet::new(),
            };
            (query, response)
        })
        .collect();

    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Elements(FIXTURES as u64));

    group.bench_function("encode_response", |b| {
        b.iter(|| {
            for (query, response) in &fixtures {
                std::hint::black_box(
                    Message::response(query_id(query), response)
                        .encode()
                        .expect("responses encode"),
                );
            }
        });
    });

    let frames: Vec<Vec<u8>> = fixtures
        .iter()
        .map(|(query, response)| {
            Message::response(query_id(query), response)
                .encode()
                .expect("responses encode")
        })
        .collect();
    group.bench_function("decode_response", |b| {
        b.iter(|| {
            for frame in &frames {
                std::hint::black_box(Message::decode(frame).expect("own frames decode"));
            }
        });
    });

    // The daemon's cached path: answers precomputed, requests pre-encoded
    // (the client's job), and one untimed pass fills the cache so every
    // timed query is a hit.
    let table: HashMap<DomainName, Response> = fixtures
        .iter()
        .map(|(query, response)| (query.name.clone(), response.clone()))
        .collect();
    let core = ServerCore::new(move |query: &Query| {
        if query.rtype != RecordType::A {
            return None;
        }
        table.get(&query.name).cloned()
    });
    let requests: Vec<Vec<u8>> = fixtures
        .iter()
        .map(|(query, _)| {
            Message::query(query_id(query), query)
                .encode()
                .expect("queries encode")
        })
        .collect();
    for request in &requests {
        core.handle_udp(request).expect("fixture resolves");
    }
    group.bench_function("serve_cached_udp", |b| {
        b.iter(|| {
            for request in &requests {
                std::hint::black_box(core.handle_udp(request).expect("cached answer"));
            }
        });
    });

    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
