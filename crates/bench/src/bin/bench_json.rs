//! Machine-readable benchmark emitter.
//!
//! ```text
//! bench-json [--quick] [--out PATH] [--population N] [--seed S]
//! bench-json --campaign [--sites N] [--weeks W] [--workers N]
//!            [--spill-dir DIR] [--out PATH] [--seed S]
//! bench-json --query [--quick] [--population N] [--weeks W]
//!            [--out PATH] [--seed S]
//! bench-json --scheduler [--quick] [--out PATH] [--seed S]
//! ```
//!
//! Runs the resolver benches, the residual pipeline stages (fleet harvest / direct scan / filter pipeline), the
//! engine collection sweep at several worker counts, the observability
//! overhead suite (obs primitive costs plus an instrumented-vs-plain sweep
//! A/B), the delta-collection suite (steady-state daily round plus a
//! multi-week campaign, full vs delta measured side by side), and the
//! wire suite (RFC 1035 encode/decode plus the daemon's cached serve
//! path, with its ≥1M queries/sec target), then writes one JSON document
//! (default `BENCH_5.json`). The seed-commit baseline
//! numbers are embedded so the file carries its own before/after story;
//! the before/after pairs measured side by side in this run are the
//! numbers to trust across machines.
//!
//! `--quick` shrinks the world and sample counts for CI smoke runs (the
//! job only asserts the emitter completes and produces valid output;
//! quick-mode rates are not comparable to full-mode ones).
//!
//! `--campaign` runs the paper-scale campaign suite instead: the same
//! multi-week study measured once per memory mode (in-memory full
//! collection, spill-to-disk full, spill-to-disk delta), recording wall
//! clock and peak RSS for each, and writes one JSON document (default
//! `BENCH_6.json`). Each mode runs in its own child process because
//! `VmHWM` — the kernel's peak-RSS counter — is monotone over a process
//! lifetime; in-process back-to-back runs would attribute the first
//! mode's peak to every later one. Peak RSS degrades to `null` on
//! platforms without procfs.
//!
//! `--query` runs the query-layer throughput suite instead: one spilled
//! campaign per persistence mode (full, delta), then repeated measured
//! passes over the resulting `SnapshotStore` — directory open (footer
//! index scan), full reconstruction scan, a column projection, the shared
//! analysis fold (`PassesPlan.execute_with` over a `PlanContext` rebuilt
//! every sample, the production path), the consecutive-round join, and
//! the generation diff — and writes one JSON document (default
//! `BENCH_8.json`). The campaign itself is timed once alongside, so the
//! document carries the no-pipeline-regression story: collection cost is
//! unchanged and the query layer's cost is the measured read path.
//!
//! `--scheduler` runs the scheduling suite instead and writes
//! `BENCH_9.json`: a latency-skewed straggler sweep measured under the
//! legacy static-contiguous shard assignment and under the work-claiming
//! engine (the claiming scheduler must win on wall clock while merging
//! identical output), and a two-session multi-tenant pair — rate-limited
//! campaigns hosted by one `StudyService` — measured serialized and then
//! concurrent, with the ≥1.5× aggregate-throughput target recorded in
//! the document.

use std::process::ExitCode;

use remnant::core::collector::{DeltaCollector, RecordCollector, Target};
use remnant::core::residual::{CloudflareScanner, FilterPipeline};
use remnant::core::study::{CollectionMode, StudyConfig};
use remnant::core::{StudyService, SCANNER_SOURCE};
use remnant::dns::{
    CountingTransport, DnsTransport, DomainName, Query, RecordType, RecursiveResolver, Response,
};
use remnant::engine::{plan_shards, EngineConfig, ScanEngine, TaskResult};
use remnant::net::Region;
use remnant::obs::{EventJournal, Instrumented, MetricsRegistry, Obs, Span};
use remnant::provider::ProviderId;
use remnant::query::{PassesPlan, PlanContext, RecordClass, SnapshotStore};
use remnant::sim::SimTime;
use remnant::wire::{query_id, Message, ServerCore};
use remnant::world::{World, WorldConfig};
use remnant_bench::perf::{measure, measure_ab, peak_rss_bytes, Json, Measurement};
use remnant_bench::{run_study, ReproConfig};

/// Seed-commit (`0c4c56c`) numbers from the vendored criterion stand-in,
/// release build, this repository's reference machine, 2026-08-05 — the
/// "before" side for the pipeline stages. Cross-run wall-clock comparisons
/// are machine-sensitive.
const SEED_BASELINE: &[(&str, f64, u64)] = &[
    ("pipeline/harvest_fleet", 1.48e-3, 2000),
    ("pipeline/direct_scan_2k_sites", 1.35e-3, 2000),
    ("pipeline/filter_pipeline", 45.36e-6, 2000),
    ("resolver/recursive_uncached", 3.52e-6, 1),
    ("resolver/recursive_cached", 246.0e-9, 1),
    ("resolver/direct_ns_query", 532.0e-9, 1),
];

struct Options {
    quick: bool,
    out: Option<String>,
    population: usize,
    seed: u64,
    campaign: bool,
    campaign_child: Option<String>,
    query: bool,
    scheduler: bool,
    sites: usize,
    weeks: u32,
    workers: usize,
    spill_dir: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            out: None,
            population: 2_000,
            seed: 3,
            campaign: false,
            campaign_child: None,
            query: false,
            scheduler: false,
            sites: 1_000_000,
            weeks: 6,
            workers: 8,
            spill_dir: None,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-json [--quick] [--out PATH] [--population N] [--seed S]\n\
         \u{20}      bench-json --campaign [--sites N] [--weeks W] [--workers N] \
         [--spill-dir DIR] [--out PATH] [--seed S]\n\
         \u{20}      bench-json --query [--quick] [--population N] [--weeks W] \
         [--out PATH] [--seed S]\n\
         \u{20}      bench-json --scheduler [--quick] [--out PATH] [--seed S]"
    );
    ExitCode::FAILURE
}

fn before_after(before: Measurement, after: Measurement, elements: u64) -> Json {
    Json::obj([
        ("before", before.to_json(elements)),
        ("after", after.to_json(elements)),
        (
            "speedup",
            Json::Num(if after.mean_secs > 0.0 {
                before.mean_secs / after.mean_secs
            } else {
                f64::INFINITY
            }),
        ),
    ])
}

/// The resolver benches from `benches/resolver.rs`, measured for the
/// cross-commit comparison against the embedded seed numbers.
fn resolver_benches(world: &mut World, samples: usize) -> Vec<(&'static str, Measurement, u64)> {
    let names: Vec<DomainName> = world.sites().iter().map(|s| s.www.clone()).collect();
    let clock = world.clock();

    let mut resolver = RecursiveResolver::new(clock.clone(), Region::Ashburn);
    let mut i = 0usize;
    let uncached = measure(samples, || {
        resolver.purge_cache();
        let name = &names[i % names.len()];
        i += 1;
        std::hint::black_box(
            resolver
                .resolve(world, name, RecordType::A)
                .expect("world resolves"),
        );
    });

    let mut resolver = RecursiveResolver::new(clock, Region::Ashburn);
    let name = names[0].clone();
    let _ = resolver.resolve(world, &name, RecordType::A);
    let cached = measure(samples, || {
        std::hint::black_box(
            resolver
                .resolve(world, &name, RecordType::A)
                .expect("cached"),
        );
    });

    vec![
        ("resolver/recursive_uncached", uncached, 1),
        ("resolver/recursive_cached", cached, 1),
    ]
}

/// The pipeline stages from `benches/pipeline.rs`.
fn pipeline_benches(
    world: &mut World,
    targets: &[Target],
    samples: usize,
) -> Vec<(&'static str, Measurement, u64)> {
    let elements = targets.len() as u64;
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let snapshot = collector.collect(world, targets, 0);

    let harvest = measure(samples, || {
        let mut scanner = CloudflareScanner::new(world.clock(), "cloudflare");
        scanner.harvest_fleet(world, &snapshot);
        std::hint::black_box(scanner.fleet_size());
    });

    let mut scanner = CloudflareScanner::new(world.clock(), "cloudflare");
    scanner.harvest_fleet(world, &snapshot);
    let mut week = 0;
    let scan = measure(samples, || {
        week += 1;
        std::hint::black_box(scanner.scan(world, targets, week));
    });

    let raw = scanner.scan(world, targets, 0);
    let mut pipeline = FilterPipeline::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);
    let filter = measure(samples, || {
        std::hint::black_box(pipeline.run(world, ProviderId::Cloudflare, 0, &raw, targets));
    });

    vec![
        ("pipeline/harvest_fleet", harvest, elements),
        ("pipeline/direct_scan_2k_sites", scan, elements),
        ("pipeline/filter_pipeline", filter, elements),
    ]
}

/// The engine collection sweep at several worker counts, with the cache
/// hit/miss counters the sweeps now report.
fn engine_benches(
    world: &World,
    targets: &[Target],
    worker_counts: &[usize],
    samples: usize,
    seed: u64,
) -> Json {
    let clock = world.clock();
    let elements = targets.len() as u64;
    let rows = worker_counts
        .iter()
        .map(|&workers| {
            let engine = ScanEngine::new(EngineConfig {
                workers,
                shard_size: 64,
                seed,
                ..EngineConfig::default()
            });
            let mut collector = RecordCollector::new(clock.clone(), Region::Ashburn);
            let mut last_stats = None;
            let m = measure(samples, || {
                let (snapshot, stats) = collector.collect_with(&engine, world, targets, 0);
                std::hint::black_box(&snapshot);
                last_stats = Some(stats);
            });
            let stats = last_stats.expect("at least one sweep ran");
            Json::obj([
                ("workers", Json::Num(workers as f64)),
                ("mean_secs", Json::Num(m.mean_secs)),
                ("elements", Json::Num(elements as f64)),
                ("elems_per_sec", Json::Num(m.elems_per_sec(elements))),
                ("queries", Json::Num(stats.queries() as f64)),
                ("cache_hits", Json::Num(stats.cache_hits() as f64)),
                ("cache_misses", Json::Num(stats.cache_misses() as f64)),
            ])
        })
        .collect();
    Json::Arr(rows)
}

/// Obs primitive costs: the operations the instrumented hot paths pay for.
/// No "before" side — these did not exist before the observability layer;
/// the absolute per-op cost is the budget claim.
fn obs_primitive_benches(world: &World, samples: usize) -> Json {
    let mut registry = MetricsRegistry::new();
    let counter_add = measure(samples, || {
        for _ in 0..1_000 {
            registry.add("bench.counter", 1);
        }
        std::hint::black_box(registry.counter("bench.counter"));
    });

    let mut registry = MetricsRegistry::new();
    let counter_add_labeled = measure(samples, || {
        for i in 0..1_000u32 {
            let week = if i % 2 == 0 { "1" } else { "2" };
            registry.add_labeled("bench.labeled", &[("week", week)], 1);
        }
        std::hint::black_box(registry.counter_labeled("bench.labeled", &[("week", "1")]));
    });

    let mut registry = MetricsRegistry::new();
    const BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32];
    let histogram_observe = measure(samples, || {
        for i in 0..1_000u64 {
            registry.observe_with("bench.histogram", BOUNDS, i % 40);
        }
        std::hint::black_box(registry.histogram("bench.histogram").map(|h| h.count()));
    });

    let mut journal = EventJournal::with_capacity(256);
    let journal_push = measure(samples, || {
        for _ in 0..1_000 {
            journal.push(SimTime::EPOCH, "bench.event", "detail");
        }
        std::hint::black_box(journal.len());
    });

    let mut obs = Obs::new(world.clock());
    let span_roundtrip = measure(samples, || {
        for _ in 0..1_000 {
            let span = Span::enter(&obs, "bench.span");
            span.exit(&mut obs);
        }
    });

    // Merging eight shard registries of realistic size, as the engine does
    // once per sweep.
    let shard = {
        let mut r = MetricsRegistry::new();
        for i in 0..64u32 {
            let depth = if i % 2 == 0 { "1" } else { "2" };
            r.add_labeled("resolver.queries", &[("qtype", "A")], u64::from(i));
            r.add_labeled("resolver.delegation_depth", &[("depth", depth)], 1);
            r.add("cache.hits", u64::from(i));
        }
        r
    };
    let merge = measure(samples, || {
        let mut merged = MetricsRegistry::new();
        for _ in 0..8 {
            merged.merge_from(&shard);
        }
        std::hint::black_box(merged.counter("cache.hits"));
    });

    Json::obj([
        ("counter_add_1k", counter_add.to_json(1_000)),
        ("counter_add_labeled_1k", counter_add_labeled.to_json(1_000)),
        ("histogram_observe_1k", histogram_observe.to_json(1_000)),
        ("journal_push_1k", journal_push.to_json(1_000)),
        ("span_roundtrip_1k", span_roundtrip.to_json(1_000)),
        ("merge_8_shard_registries", merge.to_json(8)),
    ])
}

/// The metrics-overhead A/B the acceptance criteria ask for: the same
/// sharded collection sweep with and without the per-shard telemetry
/// export (the only observability work on the engine hot path), measured
/// side by side in this run.
fn obs_sweep_overhead(world: &World, targets: &[Target], samples: usize, seed: u64) -> Json {
    let engine = ScanEngine::new(EngineConfig {
        workers: 1,
        shard_size: 64,
        seed,
        ..EngineConfig::default()
    });
    let clock = world.clock();
    let elements = targets.len() as u64;
    let plan = engine.shard_plan(targets.len());

    // Alternating samples (`measure_ab`): the overhead ratio is the claim,
    // so drift over the run must hit both sides equally.
    let (plain, instrumented) = measure_ab(
        samples * 2,
        || {
            let sweep = engine.sweep(
                world,
                targets,
                &plan,
                None,
                |_shard| RecursiveResolver::new(clock.clone(), Region::Ashburn),
                |transport, resolver, scope, _rank, (apex, www)| {
                    let mut counting = CountingTransport::new(transport);
                    let a = resolver.resolve(&mut counting, www, RecordType::A);
                    let ns = resolver.resolve(&mut counting, apex, RecordType::Ns);
                    std::hint::black_box((a.is_ok(), ns.is_ok()));
                    scope.add_queries(counting.query_stats().sent);
                    TaskResult::Done(())
                },
                |_, _| {},
            );
            std::hint::black_box(sweep.outputs.len());
        },
        || {
            let sweep = engine.sweep(
                world,
                targets,
                &plan,
                None,
                |_shard| RecursiveResolver::new(clock.clone(), Region::Ashburn),
                |transport, resolver, scope, _rank, (apex, www)| {
                    let mut counting = CountingTransport::new(transport);
                    let a = resolver.resolve(&mut counting, www, RecordType::A);
                    let ns = resolver.resolve(&mut counting, apex, RecordType::Ns);
                    std::hint::black_box((a.is_ok(), ns.is_ok()));
                    scope.add_queries(counting.query_stats().sent);
                    TaskResult::Done(())
                },
                |resolver, scope| resolver.export_into(scope.metrics()),
            );
            let merged = sweep.stats.merged_metrics();
            std::hint::black_box(merged.is_empty());
        },
    );

    let ratio = if plain.mean_secs > 0.0 {
        instrumented.mean_secs / plain.mean_secs
    } else {
        f64::INFINITY
    };
    Json::obj([
        ("plain", plain.to_json(elements)),
        ("instrumented", instrumented.to_json(elements)),
        ("overhead_ratio", Json::Num(ratio)),
        ("overhead_pct", Json::Num((ratio - 1.0) * 100.0)),
        ("budget_pct", Json::Num(5.0)),
        ("within_budget", Json::Bool(ratio <= 1.05)),
    ])
}

/// The delta-collection suite. Two claims, both measured full-vs-delta
/// side by side in this run:
///
/// * `steady_round` — one daily round over an unchanged world: delta pays
///   only the generation probe plus the rotating 1-in-16 refresh stratum.
/// * `multiweek` — a multi-week campaign with the world's real churn
///   stepping between rounds (the acceptance criterion's "low-churn
///   default world"); only the collect calls are timed.
fn delta_collection_benches(population: usize, seed: u64, samples: usize, weeks: u32) -> Json {
    let world = World::generate(WorldConfig {
        population,
        seed,
        warmup_days: 14,
        calibration: remnant::world::Calibration::paper(),
    });
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let elements = targets.len() as u64;
    let make_engine = || {
        ScanEngine::new(EngineConfig {
            workers: 1,
            shard_size: 64,
            seed,
            ..EngineConfig::default()
        })
    };

    let engine = make_engine();
    let mut full = RecordCollector::new(world.clock(), Region::Ashburn);
    let mut delta = DeltaCollector::new(world.clock(), Region::Ashburn, seed);
    let _ = delta.collect_with(&engine, &world, &targets, 0); // cold round warms the cache
    let (full_round, delta_round) = measure_ab(
        samples * 2,
        || {
            std::hint::black_box(full.collect_with(&engine, &world, &targets, 0));
        },
        || {
            std::hint::black_box(delta.collect_with(&engine, &world, &targets, 0));
        },
    );
    let steady = before_after(full_round, delta_round, elements);

    let days = weeks * 7;
    let reps = samples.clamp(1, 5);
    let campaign = |mode: CollectionMode| -> (f64, u64, u64) {
        let mut collect_secs = 0.0;
        let mut reused = 0u64;
        let mut reresolved = 0u64;
        for _ in 0..reps {
            let mut world = World::generate(WorldConfig {
                population,
                seed,
                warmup_days: 14,
                calibration: remnant::world::Calibration::paper(),
            });
            let engine = make_engine();
            let mut full = RecordCollector::new(world.clock(), Region::Ashburn);
            let mut delta = DeltaCollector::new(world.clock(), Region::Ashburn, seed);
            for day in 0..days {
                let start = std::time::Instant::now();
                match mode {
                    CollectionMode::Full => {
                        std::hint::black_box(full.collect_with(&engine, &world, &targets, day));
                        reresolved += elements;
                    }
                    CollectionMode::Delta => {
                        let (snapshot, _, round) =
                            delta.collect_with(&engine, &world, &targets, day);
                        std::hint::black_box(snapshot);
                        reused += round.reused;
                        reresolved += round.reresolved;
                    }
                }
                collect_secs += start.elapsed().as_secs_f64();
                world.step_hours(24);
            }
        }
        (
            collect_secs / reps as f64,
            reused / reps as u64,
            reresolved / reps as u64,
        )
    };
    let (full_secs, _, _) = campaign(CollectionMode::Full);
    let (delta_secs, reused, reresolved) = campaign(CollectionMode::Delta);
    let site_rounds = u64::from(days) * elements;

    Json::obj([
        ("steady_round", steady),
        (
            "multiweek",
            Json::obj([
                ("weeks", Json::Num(f64::from(weeks))),
                ("days", Json::Num(f64::from(days))),
                ("site_rounds", Json::Num(site_rounds as f64)),
                ("full", Json::obj([("collect_secs", Json::Num(full_secs))])),
                (
                    "delta",
                    Json::obj([
                        ("collect_secs", Json::Num(delta_secs)),
                        ("reused", Json::Num(reused as f64)),
                        ("reresolved", Json::Num(reresolved as f64)),
                        (
                            "reuse_rate",
                            Json::Num(reused as f64 / site_rounds.max(1) as f64),
                        ),
                    ]),
                ),
                (
                    "speedup",
                    Json::Num(if delta_secs > 0.0 {
                        full_secs / delta_secs
                    } else {
                        f64::INFINITY
                    }),
                ),
            ]),
        ),
    ])
}

/// The wire suite: RFC 1035 codec throughput on real resolver answers,
/// plus the serve daemon's cached hot path (header parse, bounded name
/// decode, cache lookup, frame copy, ID patch) with its ≥1M queries/sec
/// acceptance target. Each measured call handles every fixture once, so
/// per-element rates are per query.
fn wire_benches(world: &mut World, samples: usize) -> Json {
    const SERVE_TARGET_QPS: f64 = 1_000_000.0;

    // Fixtures: real portal answers resolved in-process.
    let names: Vec<DomainName> = world
        .sites()
        .iter()
        .take(64)
        .map(|s| s.www.clone())
        .collect();
    let mut resolver = RecursiveResolver::new(world.clock(), Region::Ashburn);
    let fixtures: Vec<(Query, Response)> = names
        .iter()
        .map(|name| {
            let query = Query::new(name.clone(), RecordType::A);
            let resolution = resolver
                .resolve(world, name, RecordType::A)
                .expect("world resolves its own portals");
            let response = Response {
                query: query.clone(),
                rcode: resolution.rcode,
                authoritative: false,
                answers: resolution.records,
                authority: remnant::dns::empty_record_set(),
                additional: remnant::dns::empty_record_set(),
            };
            (query, response)
        })
        .collect();
    let elements = fixtures.len() as u64;

    let encode = measure(samples, || {
        for (query, response) in &fixtures {
            let frame = Message::response(query_id(query), response)
                .encode()
                .expect("responses encode");
            std::hint::black_box(frame);
        }
    });

    let frames: Vec<Vec<u8>> = fixtures
        .iter()
        .map(|(query, response)| {
            Message::response(query_id(query), response)
                .encode()
                .expect("responses encode")
        })
        .collect();
    let decode = measure(samples, || {
        for frame in &frames {
            std::hint::black_box(Message::decode(frame).expect("own frames decode"));
        }
    });

    // The daemon's cached path: answers precomputed, requests pre-encoded
    // (the client's job), every handled query a cache hit.
    let table: std::collections::HashMap<DomainName, Response> = fixtures
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
    for (query, _) in &fixtures {
        core.warm(query);
    }
    let serve = measure(samples, || {
        for request in &requests {
            std::hint::black_box(core.handle_udp(request).expect("cached answer"));
        }
    });
    let serve_qps = serve.elems_per_sec(elements);

    Json::obj([
        ("encode_response", encode.to_json(elements)),
        ("decode_response", decode.to_json(elements)),
        (
            "serve_cached_udp",
            Json::obj([
                ("mean_secs", Json::Num(serve.mean_secs)),
                ("elements", Json::Num(elements as f64)),
                ("queries_per_sec", Json::Num(serve_qps)),
                ("target_qps", Json::Num(SERVE_TARGET_QPS)),
                ("meets_target", Json::Bool(serve_qps >= SERVE_TARGET_QPS)),
            ]),
        ),
    ])
}

/// One persistence mode of the query suite: run a spilled campaign once
/// (timed, for the no-regression story), then measure the read path over
/// the `SnapshotStore` it left behind.
fn query_mode_benches(
    mode: CollectionMode,
    tag: &str,
    population: usize,
    weeks: u32,
    seed: u64,
    samples: usize,
) -> Result<Json, String> {
    let dir = std::env::temp_dir().join(format!("remnant-bench-query-{tag}-{population}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let config = ReproConfig::builder()
        .population(population)
        .weeks(weeks)
        .seed(seed)
        .workers(1)
        .collection_mode(mode)
        .spill_dir(dir.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let (world, report) = run_study(&config);
    let collect_secs = started.elapsed().as_secs_f64();
    std::hint::black_box((&world, &report));

    let open = measure(samples, || {
        std::hint::black_box(SnapshotStore::open(&dir).expect("bench spill dir opens"));
    });
    let store =
        SnapshotStore::open(&dir).map_err(|e| format!("opening {}: {e:?}", dir.display()))?;
    let rounds = store.len() as u64;
    let site_rounds = rounds * store.sites() as u64;
    let chained: u64 = store
        .query()
        .generation_diff()
        .iter()
        .map(|d| d.clean as u64)
        .sum();

    let scan = measure(samples, || {
        let mut sites = 0usize;
        for round in store.query().snapshots() {
            for loaded in round.snapshot.blocks() {
                sites += loaded.block.len();
            }
        }
        std::hint::black_box(sites);
    });
    let project = measure(samples, || {
        std::hint::black_box(store.query().project(RecordClass::Ns).total);
    });
    // The production path: each sample builds a fresh context, so it
    // pays the classification sweep plus the shared fold.
    let passes = measure(samples, || {
        let ctx = PlanContext::new(&store, 1);
        std::hint::black_box(PassesPlan.execute_with(&ctx));
    });
    let joined = measure(samples, || {
        std::hint::black_box(store.query().joined().count());
    });
    let diff = measure(samples, || {
        std::hint::black_box(store.query().generation_diff().len());
    });
    let _ = std::fs::remove_dir_all(&dir);

    Ok(Json::obj([
        ("rounds", Json::Num(rounds as f64)),
        ("sites", Json::Num(store.sites() as f64)),
        ("chained_shard_rounds", Json::Num(chained as f64)),
        ("collect_secs", Json::Num(collect_secs)),
        ("store_open", open.to_json(rounds)),
        ("full_scan", scan.to_json(site_rounds)),
        ("project_ns", project.to_json(site_rounds)),
        ("passes_plan", passes.to_json(site_rounds)),
        ("joined_rounds", joined.to_json(rounds.saturating_sub(1))),
        ("generation_diff", diff.to_json(rounds)),
    ]))
}

/// The query-layer throughput suite: both spill persistence modes,
/// assembled into the `BENCH_8.json` document.
fn run_query(opts: &Options) -> Result<(), String> {
    let samples = if opts.quick { 3 } else { 10 };
    let population = if opts.quick {
        opts.population.min(400)
    } else {
        opts.population
    };
    let weeks = if opts.quick { 1 } else { opts.weeks.min(2) };
    eprintln!(
        "bench-json: query suite over {population} sites x {weeks} weeks \
         (seed {}, samples {samples})",
        opts.seed
    );

    let full = query_mode_benches(
        CollectionMode::Full,
        "full",
        population,
        weeks,
        opts.seed,
        samples,
    )?;
    let delta = query_mode_benches(
        CollectionMode::Delta,
        "delta",
        population,
        weeks,
        opts.seed,
        samples,
    )?;

    let doc = Json::obj([
        ("schema", Json::Str("remnant-bench/v1".into())),
        ("issue", Json::Num(8.0)),
        (
            "mode",
            Json::Str(if opts.quick { "quick" } else { "full" }.into()),
        ),
        ("population", Json::Num(population as f64)),
        ("weeks", Json::Num(f64::from(weeks))),
        ("seed", Json::Num(opts.seed as f64)),
        (
            "query",
            Json::obj([("spill_full", full), ("spill_delta", delta)]),
        ),
    ]);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_8.json".to_owned());
    std::fs::write(&out, doc.render()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("bench-json: wrote {out}");
    Ok(())
}

/// The straggler half of the scheduler suite: the same latency-skewed
/// sweep executed by the legacy static-contiguous assignment (worker `w`
/// owns the `w`-th contiguous chunk of the shard plan) and by the
/// work-claiming engine. The first shards are slow — exactly the case
/// static chunking handles worst, because one worker inherits every
/// straggler while its peers finish their fast chunks and idle. Sleeps
/// stand in for network latency, so the comparison holds on any core
/// count. Both executors must also merge identical output — the wall
/// clock is the only thing allowed to differ.
fn scheduler_straggler_bench(quick: bool, seed: u64) -> Json {
    const SHARD_SIZE: usize = 8;
    const SHARDS: usize = 16;
    const SLOW_SHARDS: usize = 4;
    let workers = 4usize;
    let (slow_us, fast_us, samples) = if quick {
        (1_500u64, 30u64, 2)
    } else {
        (3_000, 50, 5)
    };
    let items: Vec<u64> = (0..(SHARD_SIZE * SHARDS) as u64).collect();
    let config = EngineConfig {
        workers,
        shard_size: SHARD_SIZE,
        seed,
        ..EngineConfig::default()
    };

    let task = |shard: usize, item: u64| -> u64 {
        let sleep = if shard < SLOW_SHARDS {
            slow_us
        } else {
            fast_us
        };
        std::thread::sleep(std::time::Duration::from_micros(sleep));
        item.wrapping_mul(0x9E37_79B9).rotate_left(13)
    };

    // The pre-claiming executor, reconstructed: contiguous chunks of the
    // same plan, statically assigned, merged in plan order.
    let static_run = || -> Vec<u64> {
        let shards = plan_shards(items.len(), config.effective_shard_size());
        let chunk = shards.len().div_ceil(workers).max(1);
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
                |_, _, scope, _, item| TaskResult::Done(task(scope.shard(), *item)),
                |_, _| {},
            )
            .outputs
    };

    let merged_identical = static_run() == claiming_run();
    let static_m = measure(samples, || {
        std::hint::black_box(static_run());
    });
    let claiming_m = measure(samples, || {
        std::hint::black_box(claiming_run());
    });
    let speedup = if claiming_m.mean_secs > 0.0 {
        static_m.mean_secs / claiming_m.mean_secs
    } else {
        f64::INFINITY
    };
    let elements = items.len() as u64;
    Json::obj([
        ("items", Json::Num(elements as f64)),
        ("shards", Json::Num(SHARDS as f64)),
        ("shard_size", Json::Num(SHARD_SIZE as f64)),
        ("slow_shards", Json::Num(SLOW_SHARDS as f64)),
        ("slow_us_per_item", Json::Num(slow_us as f64)),
        ("fast_us_per_item", Json::Num(fast_us as f64)),
        ("workers", Json::Num(workers as f64)),
        ("static_contiguous", static_m.to_json(elements)),
        ("work_claiming", claiming_m.to_json(elements)),
        ("speedup", Json::Num(speedup)),
        ("work_claiming_wins", Json::Bool(speedup > 1.0)),
        ("merged_identical", Json::Bool(merged_identical)),
    ])
}

/// The multi-tenant half of the scheduler suite: two rate-limited
/// campaigns hosted by one [`StudyService`], run back to back and then
/// concurrently, same world, same shared pool. The sessions are
/// latency-bound (a courtesy rate limit paces every sweep, as a real
/// scan of someone else's nameservers would be), so concurrency buys
/// overlapping idle time — the aggregate-throughput claim the acceptance
/// criterion pins at ≥ 1.5× the serialized pair.
fn scheduler_multi_tenant_bench(quick: bool, seed: u64) -> Result<Json, String> {
    const SESSIONS: usize = 2;
    const TARGET_RATIO: f64 = 1.5;
    let population = if quick { 400 } else { 1_000 };
    let rate = if quick { 2_000u32 } else { 3_000 };

    let world = World::generate(WorldConfig::new(population, seed));
    let service = StudyService::new(world, SESSIONS);
    let configs: Vec<StudyConfig> = (0..SESSIONS)
        .map(|i| {
            StudyConfig::builder()
                .weeks(1)
                .seed(seed + i as u64)
                .workers(1)
                .rate_per_second(rate)
                .build()
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    // Serialized pair: the same sessions, one at a time.
    let started = std::time::Instant::now();
    let mut serialized_queries = 0u64;
    for config in &configs {
        let reports = service
            .run_campaigns(std::slice::from_ref(config), |_| {})
            .map_err(|e| e.to_string())?;
        serialized_queries += reports[0].engine().queries;
    }
    let serialized_secs = started.elapsed().as_secs_f64();

    let started = std::time::Instant::now();
    let reports = service
        .run_campaigns(&configs, |_| {})
        .map_err(|e| e.to_string())?;
    let concurrent_secs = started.elapsed().as_secs_f64();
    let concurrent_queries: u64 = reports.iter().map(|r| r.engine().queries).sum();

    let serialized_qps = serialized_queries as f64 / serialized_secs.max(f64::MIN_POSITIVE);
    let concurrent_qps = concurrent_queries as f64 / concurrent_secs.max(f64::MIN_POSITIVE);
    let ratio = concurrent_qps / serialized_qps.max(f64::MIN_POSITIVE);
    Ok(Json::obj([
        ("sessions", Json::Num(SESSIONS as f64)),
        ("population", Json::Num(population as f64)),
        ("weeks", Json::Num(1.0)),
        ("rate_per_second", Json::Num(f64::from(rate))),
        (
            "serialized",
            Json::obj([
                ("wall_secs", Json::Num(serialized_secs)),
                ("queries", Json::Num(serialized_queries as f64)),
                ("queries_per_sec", Json::Num(serialized_qps)),
            ]),
        ),
        (
            "concurrent",
            Json::obj([
                ("wall_secs", Json::Num(concurrent_secs)),
                ("queries", Json::Num(concurrent_queries as f64)),
                ("queries_per_sec", Json::Num(concurrent_qps)),
            ]),
        ),
        ("throughput_ratio", Json::Num(ratio)),
        ("target_ratio", Json::Num(TARGET_RATIO)),
        ("meets_target", Json::Bool(ratio >= TARGET_RATIO)),
    ]))
}

/// The scheduler suite, assembled into the `BENCH_9.json` document.
fn run_scheduler(opts: &Options) -> Result<(), String> {
    eprintln!(
        "bench-json: scheduler suite (mode={}, seed={})",
        if opts.quick { "quick" } else { "full" },
        opts.seed
    );
    eprintln!("bench-json: straggler sweep (static-contiguous vs work-claiming)...");
    let straggler = scheduler_straggler_bench(opts.quick, opts.seed);
    eprintln!("bench-json: multi-tenant pair (serialized vs concurrent)...");
    let multi_tenant = scheduler_multi_tenant_bench(opts.quick, opts.seed)?;

    let doc = Json::obj([
        ("schema", Json::Str("remnant-bench/v1".into())),
        ("issue", Json::Num(9.0)),
        (
            "mode",
            Json::Str(if opts.quick { "quick" } else { "full" }.into()),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        (
            "scheduler",
            Json::obj([("straggler", straggler), ("multi_tenant", multi_tenant)]),
        ),
    ]);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_9.json".to_owned());
    std::fs::write(&out, doc.render()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("bench-json: wrote {out}");
    Ok(())
}

/// The campaign's memory modes: `(child tag, JSON key)`.
const CAMPAIGN_MODES: &[(&str, &str)] = &[
    ("in-memory", "in_memory_full"),
    ("spill", "spill_full"),
    ("spill-delta", "spill_delta"),
];

/// Child half of the campaign suite: runs ONE study in THIS process and
/// prints a single machine-readable line to stdout. Peak RSS is then
/// genuinely this mode's peak, not a predecessor's.
fn campaign_child(mode: &str, opts: &Options) -> Result<(), String> {
    let mut builder = ReproConfig::builder()
        .population(opts.sites)
        .weeks(opts.weeks)
        .seed(opts.seed)
        .workers(opts.workers)
        .collection_mode(if mode == "spill-delta" {
            CollectionMode::Delta
        } else {
            CollectionMode::Full
        });
    if mode != "in-memory" {
        let dir = opts
            .spill_dir
            .as_ref()
            .ok_or("--campaign-child spill modes need --spill-dir")?;
        // Each mode gets its own subdirectory: spill files are append-only
        // per campaign, and the modes must not read each other's rounds.
        builder = builder.spill_dir(dir.join(mode));
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let (world, report) = run_study(&config);
    let wall = started.elapsed().as_secs_f64();
    std::hint::black_box((&world, &report));
    let rss = peak_rss_bytes().map_or_else(|| "none".to_owned(), |b| b.to_string());
    println!("campaign mode={mode} wall_secs={wall:.3} peak_rss_bytes={rss}");
    Ok(())
}

/// Parses the child's report line: `(wall_secs, peak_rss_bytes)`.
fn parse_campaign_line(stdout: &str) -> Option<(f64, Option<u64>)> {
    let line = stdout.lines().find(|l| l.starts_with("campaign "))?;
    let mut wall = None;
    let mut rss = None;
    for token in line.split_whitespace() {
        if let Some(v) = token.strip_prefix("wall_secs=") {
            wall = v.parse().ok();
        } else if let Some(v) = token.strip_prefix("peak_rss_bytes=") {
            rss = v.parse().ok();
        }
    }
    Some((wall?, rss))
}

/// Parent half: one child process per memory mode, assembled into the
/// `BENCH_6.json` document.
fn run_campaign(opts: &Options) -> Result<(), String> {
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_6.json".to_owned());
    let spill_dir = opts
        .spill_dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join("remnant-campaign-spill"));
    let exe = std::env::current_exe().map_err(|e| format!("locating bench-json: {e}"))?;
    eprintln!(
        "bench-json: campaign over {} sites x {} weeks (seed {}, {} workers, spill under {})",
        opts.sites,
        opts.weeks,
        opts.seed,
        opts.workers,
        spill_dir.display()
    );

    let mut modes = std::collections::BTreeMap::new();
    let mut measured: Vec<(&str, f64, Option<u64>)> = Vec::new();
    for (tag, key) in CAMPAIGN_MODES {
        eprintln!("bench-json: campaign mode {tag}...");
        let output = std::process::Command::new(&exe)
            .arg("--campaign-child")
            .arg(tag)
            .arg("--sites")
            .arg(opts.sites.to_string())
            .arg("--weeks")
            .arg(opts.weeks.to_string())
            .arg("--seed")
            .arg(opts.seed.to_string())
            .arg("--workers")
            .arg(opts.workers.to_string())
            .arg("--spill-dir")
            .arg(&spill_dir)
            .output()
            .map_err(|e| format!("spawning campaign mode {tag}: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "campaign mode {tag} failed ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (wall, rss) = parse_campaign_line(&stdout)
            .ok_or_else(|| format!("campaign mode {tag} printed no report line: {stdout}"))?;
        eprintln!(
            "bench-json: campaign mode {tag}: {wall:.1}s wall, peak RSS {}",
            rss.map_or_else(|| "unavailable".to_owned(), |b| format!("{} MiB", b >> 20))
        );
        measured.push((tag, wall, rss));
        modes.insert(
            (*key).to_owned(),
            Json::obj([
                ("wall_secs", Json::Num(wall)),
                (
                    "peak_rss_bytes",
                    Json::Num(rss.map_or(f64::NAN, |b| b as f64)),
                ),
            ]),
        );
    }

    // The headline ratios: what spilling costs (wall) and buys (memory).
    let find = |tag: &str| measured.iter().find(|(t, ..)| *t == tag);
    let ratios = match (find("in-memory"), find("spill")) {
        (Some((_, mem_wall, mem_rss)), Some((_, spill_wall, spill_rss))) => Json::obj([
            (
                "rss_ratio",
                Json::Num(match (mem_rss, spill_rss) {
                    (Some(m), Some(s)) if *m > 0 => *s as f64 / *m as f64,
                    _ => f64::NAN,
                }),
            ),
            (
                "wall_ratio",
                Json::Num(if *mem_wall > 0.0 {
                    spill_wall / mem_wall
                } else {
                    f64::NAN
                }),
            ),
        ]),
        _ => Json::obj([]),
    };

    let doc = Json::obj([
        ("schema", Json::Str("remnant-bench/v1".into())),
        ("issue", Json::Num(6.0)),
        (
            "campaign",
            Json::obj([
                ("sites", Json::Num(opts.sites as f64)),
                ("weeks", Json::Num(f64::from(opts.weeks))),
                ("seed", Json::Num(opts.seed as f64)),
                ("workers", Json::Num(opts.workers as f64)),
                ("modes", Json::Obj(modes)),
                ("spill_vs_in_memory", ratios),
            ]),
        ),
    ]);
    std::fs::write(&out, doc.render()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("bench-json: wrote {out}");
    Ok(())
}

fn run(opts: &Options) -> Result<(), String> {
    let samples = if opts.quick { 3 } else { 10 };
    let population = if opts.quick {
        opts.population.min(400)
    } else {
        opts.population
    };
    let worker_counts: &[usize] = if opts.quick { &[1, 2] } else { &[1, 2, 4, 8] };

    eprintln!(
        "bench-json: mode={} population={population} samples={samples}",
        if opts.quick { "quick" } else { "full" }
    );

    // The macro world (same shape as benches/pipeline.rs: warmup builds a
    // residual pool).
    let mut world = World::generate(WorldConfig {
        population,
        seed: opts.seed,
        warmup_days: 14,
        calibration: remnant::world::Calibration::paper(),
    });
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();

    let mut current: Vec<(&'static str, Measurement, u64)> = Vec::new();
    current.extend(resolver_benches(&mut world, samples));
    current.extend(pipeline_benches(&mut world, &targets, samples));

    let wire = wire_benches(&mut world, samples);
    let engine = engine_benches(&world, &targets, worker_counts, samples, opts.seed);
    let obs_primitives = obs_primitive_benches(&world, samples);
    let obs_overhead = obs_sweep_overhead(&world, &targets, samples, opts.seed);
    let delta = delta_collection_benches(
        population,
        opts.seed,
        samples,
        if opts.quick { 1 } else { 2 },
    );

    // Assemble the document.
    let baseline_benches = Json::Obj(
        SEED_BASELINE
            .iter()
            .map(|(name, mean, elements)| {
                (
                    (*name).to_owned(),
                    Json::obj([
                        ("mean_secs", Json::Num(*mean)),
                        ("elements", Json::Num(*elements as f64)),
                        (
                            "elems_per_sec",
                            Json::Num(if *mean > 0.0 {
                                *elements as f64 / *mean
                            } else {
                                f64::INFINITY
                            }),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    let current_benches = Json::Obj(
        current
            .iter()
            .map(|(name, m, elements)| ((*name).to_owned(), m.to_json(*elements)))
            .collect(),
    );
    // Cross-commit ratios for the stages the seed also measured. Only
    // meaningful in full mode on comparable hardware.
    let comparison = Json::Obj(
        current
            .iter()
            .filter_map(|(name, m, _)| {
                let (_, before, _) = SEED_BASELINE.iter().find(|(n, ..)| n == name)?;
                Some((
                    (*name).to_owned(),
                    Json::obj([
                        ("before_mean_secs", Json::Num(*before)),
                        ("after_mean_secs", Json::Num(m.mean_secs)),
                        ("speedup", Json::Num(before / m.mean_secs)),
                    ]),
                ))
            })
            .collect(),
    );

    let doc = Json::obj([
        ("schema", Json::Str("remnant-bench/v1".into())),
        ("issue", Json::Num(5.0)),
        (
            "mode",
            Json::Str(if opts.quick { "quick" } else { "full" }.into()),
        ),
        ("population", Json::Num(population as f64)),
        ("seed", Json::Num(opts.seed as f64)),
        (
            "baseline",
            Json::obj([
                ("commit", Json::Str("0c4c56c".into())),
                (
                    "note",
                    Json::Str(
                        "criterion stand-in means, release build, reference machine, \
                         2026-08-05; cross-run comparisons are machine-sensitive"
                            .into(),
                    ),
                ),
                ("benches", baseline_benches),
            ]),
        ),
        ("current", Json::obj([("benches", current_benches)])),
        ("comparison_vs_seed", comparison),
        ("wire", wire),
        ("engine_collect_sweep", engine),
        ("delta_collection", delta),
        (
            "obs",
            Json::obj([
                ("primitives", obs_primitives),
                ("sweep_overhead", obs_overhead),
            ]),
        ),
        (
            "interned_names",
            Json::Num(DomainName::interned_count() as f64),
        ),
    ]);

    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_5.json".to_owned());
    std::fs::write(&out, doc.render()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("bench-json: wrote {out}");
    Ok(())
}

fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--campaign" => opts.campaign = true,
            "--query" => opts.query = true,
            "--scheduler" => opts.scheduler = true,
            "--campaign-child" => match args.next() {
                Some(mode) => opts.campaign_child = Some(mode),
                None => return usage(),
            },
            "--out" => match args.next() {
                Some(path) => opts.out = Some(path),
                None => return usage(),
            },
            "--spill-dir" => match args.next() {
                Some(dir) => opts.spill_dir = Some(dir.into()),
                None => return usage(),
            },
            "--population" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.population = v,
                None => return usage(),
            },
            "--sites" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.sites = v,
                None => return usage(),
            },
            "--weeks" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.weeks = v,
                None => return usage(),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.workers = v,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => return usage(),
            },
            "--help" | "-h" => {
                let _ = usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bench-json: unknown argument '{other}'");
                return usage();
            }
        }
    }
    let result = if let Some(mode) = opts.campaign_child.clone() {
        campaign_child(&mode, &opts)
    } else if opts.campaign {
        run_campaign(&opts)
    } else if opts.query {
        run_query(&opts)
    } else if opts.scheduler {
        run_scheduler(&opts)
    } else {
        run(&opts)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("bench-json: {err}");
            ExitCode::FAILURE
        }
    }
}
