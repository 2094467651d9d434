//! Domain-name and resolver-cache microbenchmarks — the allocation-
//! sensitive primitives underneath every sweep: parsing (an interned
//! hit, and the validated miss path of an upper-case spelling), cloning (a pointer copy), equality (pointer identity), hashing (one
//! precomputed word), suffix/apex derivation (parent-link walks), and the
//! cache-hit loop that dominates repeat resolution.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use remnant::dns::{DomainName, RecordType, RecursiveResolver};
use remnant::net::Region;
use remnant::world::{World, WorldConfig};

const NAME_COUNT: u64 = 1_000;

fn sample_names() -> Vec<String> {
    (0..NAME_COUNT)
        .map(|i| format!("www.site-{i}.zone-{}.example-bench.com", i % 7))
        .collect()
}

fn bench_name_ops(c: &mut Criterion) {
    let raw = sample_names();
    let parsed: Vec<DomainName> = raw.iter().map(|s| s.parse().expect("valid")).collect();

    let mut group = c.benchmark_group("name");
    group.throughput(Throughput::Elements(NAME_COUNT));

    group.bench_function("parse_interned", |b| {
        b.iter(|| {
            for s in &raw {
                black_box(DomainName::parse(s).expect("valid"));
            }
        });
    });

    // The validated miss path: upper-case spellings of names interned
    // above miss the hit-first probe, validate, lowercase and hit, so the
    // table does not grow.
    let upper: Vec<String> = raw.iter().map(|s| s.to_ascii_uppercase()).collect();
    group.bench_function("parse_mixed_case", |b| {
        b.iter(|| {
            for s in &upper {
                black_box(DomainName::parse(s).expect("valid"));
            }
        });
    });

    group.bench_function("clone", |b| {
        b.iter(|| {
            for n in &parsed {
                black_box(n.clone());
            }
        });
    });

    group.bench_function("eq_same_handle", |b| {
        let twins: Vec<(DomainName, DomainName)> =
            parsed.iter().map(|n| (n.clone(), n.clone())).collect();
        b.iter(|| {
            let mut eq = 0usize;
            for (a, b2) in &twins {
                eq += usize::from(a == b2);
            }
            black_box(eq)
        });
    });

    group.bench_function("hash", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for n in &parsed {
                let mut h = DefaultHasher::new();
                n.hash(&mut h);
                acc ^= h.finish();
            }
            black_box(acc)
        });
    });

    group.bench_function("apex", |b| {
        b.iter(|| {
            for n in &parsed {
                black_box(n.apex());
            }
        });
    });

    group.bench_function("suffixes", |b| {
        b.iter(|| {
            let mut count = 0usize;
            for n in &parsed {
                count += n.suffixes().count();
            }
            black_box(count)
        });
    });

    group.finish();
}

fn bench_cache_hits(c: &mut Criterion) {
    let world = World::generate(WorldConfig {
        population: 500,
        seed: 7,
        warmup_days: 0,
        calibration: remnant::world::Calibration::paper(),
    });
    let names: Vec<DomainName> = world.sites().iter().map(|s| s.www.clone()).collect();
    let clock = world.clock();
    let mut resolver = RecursiveResolver::new(clock, Region::Ashburn);
    // Warm the cache once; the loop below then measures pure hit cost.
    for name in &names {
        let _ = resolver.resolve(&world, name, RecordType::A);
    }

    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(names.len() as u64));
    group.bench_function("resolver_hit_loop", |b| {
        b.iter(|| {
            for name in &names {
                black_box(
                    resolver
                        .resolve(&world, name, RecordType::A)
                        .expect("cached"),
                );
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_name_ops, bench_cache_hits);
criterion_main!(benches);
