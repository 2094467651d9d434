//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [EXPERIMENT] [--sites N | --population N] [--weeks W] [--seed S]
//!       [--workers N] [--jobs N] [--even-intervals] [--collection full|delta]
//!       [--spill-dir DIR] [--metrics OUT.json] [--bind ADDR]
//!       [--duration SECS]
//!
//! EXPERIMENT: all (default) | table2 | table5 | table6 |
//!             fig1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 |
//!             purge | funnel | serve | query | study
//! ```
//!
//! The default population is 100,000 (a 1:10 scale model of the paper's
//! Alexa top 1M); pass `--population 1000000` for full scale. Absolute
//! counts are printed both raw and rescaled to 1M.
//!
//! `--workers N` shards the daily collection rounds and weekly residual
//! scans over N threads via `remnant-engine`. The printed report is
//! bit-identical for every worker count — only wall time changes — so
//! `repro all --population 1000000 --workers 8` is a faster drop-in for
//! the sequential run.
//!
//! `--metrics OUT.json` additionally writes the study's deterministic
//! observability snapshot (counters, span histograms, event journal — all
//! on virtual time) as canonical JSON. The snapshot is byte-identical for
//! every `--workers` value; the `funnel` experiment rebuilds the Fig 8
//! attrition table from such a snapshot's counters alone.
//!
//! `--collection delta` re-resolves only the shards whose zone generations
//! changed since the previous round (plus a rotating refresh stratum),
//! replaying the rest from the previous round's records. Output —
//! including `--metrics` — is byte-identical to `--collection full`; a
//! reuse summary is printed to stderr after the run.
//!
//! `--spill-dir DIR` runs the memory-bounded collect path: each round's
//! records stream to versioned binary snapshot files under DIR instead of
//! staying resident, so `repro --sites 1000000 --weeks 6` completes in
//! bounded memory. Output — snapshots, figures, `--metrics` — is
//! byte-identical with or without spilling at every worker count. The
//! directory is validated (created, probed for writability) before the
//! study starts; `--sites` is an alias of `--population`.
//!
//! The `study done in …` stderr line ends with `peak_rss_bytes=<n>`, the
//! kernel's `VmHWM` high-water mark for this process (omitted where
//! procfs is missing). Like the elapsed time it is wall-clock-side and
//! never enters `--metrics`.
//!
//! `query` re-runs the snapshot-derivable analyses (Fig 2–6 plus the
//! residual-scan timeline) from a spill directory left behind by a
//! previous `--spill-dir` run — no collection, no world: the rounds
//! reopen as a time-indexed snapshot store and the figures are produced
//! by query plans over it, byte-identical to the original run's. The
//! plans share one classified scan (each round classified once, clean
//! delta shards reused from the classification cache, a per-provider
//! posting-list index built alongside); a reuse/index summary goes to
//! stderr. A directory with a hole in its round sequence (an interrupted
//! campaign) is rejected with the missing round named.
//!
//! `study --jobs N` hosts N concurrent campaigns in one process through
//! the multi-tenant `StudyService`: one generated world, forked into an
//! independent timeline per job (job `i` runs with seed `--seed`+i), all
//! sweeps drawing threads from one shared `--workers`-sized pool. Every
//! round of every job streams an interleaved progress line to stderr;
//! the final summary table prints one row per job. Each job's report is
//! byte-identical to a solo run of the same config.
//!
//! `serve` generates a world and runs a real DNS daemon over it: UDP and
//! TCP listeners on `--bind` (default `127.0.0.1:8053`), RFC 1035 frames
//! in and out, answers resolved through the recursive resolver and cached
//! as encoded frames. Answers over 512 bytes are truncated on UDP (TC
//! bit) and served in full over TCP. `--duration SECS` stops the daemon
//! after that many seconds (it otherwise runs until killed) and prints
//! the `wire.*` counters on exit. Try `dig -p 8053 @127.0.0.1 <www.name>`.

use std::process::ExitCode;

use remnant::core::study::CollectionMode;
use remnant_bench::perf::peak_rss_bytes;
use remnant_bench::{
    render_ablation, render_fig1, render_fig2, render_fig2_adoption, render_fig3,
    render_fig3_behaviors, render_fig4, render_fig4_behaviors, render_fig5, render_fig5_pauses,
    render_fig6, render_fig6_adoption, render_fig7, render_fig8, render_fig8_from_obs, render_fig9,
    render_purge, render_residual_scan, render_study_batch, render_table1, render_table2,
    render_table5, render_table6, run_study, run_study_batch, ReproConfig,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [all|table1|table2|table5|table6|fig1..fig9|purge|ablation|funnel|serve|query|study] \
         [--sites N | --population N] [--weeks W] [--seed S] [--workers N] [--jobs N] \
         [--even-intervals] [--collection full|delta] [--spill-dir DIR] \
         [--metrics OUT.json] [--bind ADDR] [--duration SECS]\n\
         \n\
         --workers N shards the sweeps over N threads (output is identical\n\
         for every N; only wall time changes)\n\
         'study --jobs N' hosts N concurrent campaigns (seeds S..S+N-1) in\n\
         one process over one shared world and worker pool; each report is\n\
         byte-identical to a solo run of the same config\n\
         --collection delta reuses unchanged shards between daily rounds\n\
         (output is identical to full; only wall time changes)\n\
         --spill-dir DIR streams each round to binary snapshot files under\n\
         DIR so paper-scale runs complete in bounded memory (output is\n\
         identical to in-memory; only peak RSS changes)\n\
         --metrics OUT.json writes the deterministic observability snapshot;\n\
         'funnel' renders Fig 8 from those counters alone\n\
         'query' re-renders Fig 2-6 plus the residual-scan timeline from\n\
         an existing --spill-dir via the snapshot store, without\n\
         re-collecting; plans share one classified scan\n\
         'serve' runs a UDP+TCP DNS daemon over the generated world\n\
         (--bind ADDR, default 127.0.0.1:8053; --duration SECS to stop)"
    );
    ExitCode::FAILURE
}

/// Parses a flag's value, naming the flag (and the offending value) on
/// failure so a typo in one argument doesn't leave the user guessing.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, ExitCode> {
    let Some(raw) = value else {
        eprintln!("repro: missing value for {flag}");
        return Err(usage());
    };
    raw.parse().map_err(|_| {
        eprintln!("repro: invalid value for {flag}: '{raw}'");
        usage()
    })
}

/// Runs the `study` experiment: `jobs` concurrent campaigns hosted by one
/// multi-tenant `StudyService` — one shared world forked per job, one
/// shared engine worker pool, per-round progress interleaved on stderr.
fn study_experiment(config: &ReproConfig, jobs: usize) -> ExitCode {
    eprintln!(
        "hosting {jobs} concurrent {}-week campaign{} over {} sites \
         (seeds {}..={}, {} shared worker{})...",
        config.weeks,
        if jobs == 1 { "" } else { "s" },
        config.population,
        config.seed,
        config.seed + jobs.saturating_sub(1) as u64,
        config.workers.max(1),
        if config.workers.max(1) == 1 { "" } else { "s" },
    );
    let started = std::time::Instant::now();
    let result = run_study_batch(config, jobs, |p| {
        eprintln!(
            "[job {}] day {}/{}: {} sites, {} queries{}",
            p.session,
            p.day + 1,
            p.days_total,
            p.sites,
            p.round_queries,
            match p.scanned_week {
                Some(week) => format!(", week {week} scans"),
                None => String::new(),
            },
        );
    });
    match result {
        Ok(reports) => {
            eprintln!("batch done in {:.1}s", started.elapsed().as_secs_f64());
            eprintln!();
            println!("{}", render_study_batch(config, &reports));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro: {e}");
            usage()
        }
    }
}

/// Runs the `serve` experiment: a real UDP+TCP DNS daemon over a freshly
/// generated world, answering through the recursive resolver with cached
/// encoded frames.
fn serve(seed: u64, population: usize, bind: &str, duration: Option<u64>) -> ExitCode {
    use std::sync::Arc;

    use remnant::dns::RecursiveResolver;
    use remnant::net::Region;
    use remnant::obs::{Instrumented, MetricsRegistry};
    use remnant::wire::{ResolverService, ServerCore, SharedTransport, WireServer};
    use remnant::world::{Calibration, World, WorldConfig};

    eprintln!("serve: generating world ({population} sites, seed {seed})...");
    let world = Arc::new(World::generate(WorldConfig {
        population,
        seed,
        warmup_days: 7,
        calibration: Calibration::paper(),
    }));
    let example = world
        .sites()
        .first()
        .map(|s| s.www.to_string())
        .unwrap_or_default();
    let resolver = RecursiveResolver::new(world.clock(), Region::Oregon);
    let service = ResolverService::new(resolver, SharedTransport(Arc::clone(&world)));
    let core = Arc::new(ServerCore::new(service));
    let server = match WireServer::start(Arc::clone(&core), bind) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("repro: cannot bind '{bind}': {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("serving DNS for {population} simulated sites");
    println!("  udp: {}", server.udp_addr());
    println!("  tcp: {}", server.tcp_addr());
    println!(
        "  try: dig -p {} @{} {example}",
        server.udp_addr().port(),
        server.udp_addr().ip()
    );
    match duration {
        Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    server.shutdown();

    let mut registry = MetricsRegistry::new();
    core.export_into(&mut registry);
    let label = [("component", "wire.server")];
    let count = |name: &'static str| registry.counter_labeled(name, &label);
    eprintln!(
        "serve: {} UDP + {} TCP queries; {} cache hits, {} misses, \
         {} truncated, {} refused, {} malformed, {} ignored",
        count("wire.udp_queries"),
        count("wire.tcp_queries"),
        count("wire.cache_hits"),
        count("wire.cache_misses"),
        count("wire.truncated"),
        count("wire.refused"),
        count("wire.malformed"),
        count("wire.ignored"),
    );
    ExitCode::SUCCESS
}

/// Runs the `query` experiment: reopens a spill directory as a snapshot
/// store and regenerates the snapshot-derivable figures through query
/// plans, without re-collecting anything.
///
/// Every plan shares one classified scan through a
/// [`PlanContext`](remnant::query::PlanContext): each round is classified
/// once (clean delta shards reuse the previous round's cached column) and
/// Figs 2–6 render from a single `SnapshotAggregates` fold.
fn query_experiment(config: &ReproConfig) -> ExitCode {
    use remnant::query::{
        PassesPlan, PlanContext, ResidualScanPlan, RoundKind, SnapshotStore, StoreError,
    };

    let Some(dir) = &config.spill_dir else {
        eprintln!("repro: 'query' needs --spill-dir DIR (a directory left by a --spill-dir run)");
        return usage();
    };
    let store = match SnapshotStore::open(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!(
                "repro: cannot open snapshot store at '{}': {e}",
                dir.display()
            );
            if let StoreError::MissingRound { .. } = e {
                eprintln!(
                    "repro: the round sequence has a hole (interrupted campaign?); \
                     re-run the collection to repair the directory"
                );
            }
            return ExitCode::FAILURE;
        }
    };
    let deltas = store
        .rounds()
        .filter(|m| m.kind == RoundKind::Delta)
        .count();
    let reused: usize = store
        .query()
        .generation_diff()
        .iter()
        .map(|d| d.clean)
        .sum();
    eprintln!(
        "store: {} rounds ({} delta) over {} sites, {} shards, {} shard-rounds chained",
        store.len(),
        deltas,
        store.sites(),
        store.shard_count(),
        reused,
    );

    // Scale rendered counts by the campaign's own population.
    let config = ReproConfig {
        population: store.sites(),
        ..config.clone()
    };
    let started = std::time::Instant::now();
    let ctx = PlanContext::new(&store, config.workers.max(1));
    let classified = ctx.classified();
    let (hits, misses) = classified.cache_stats();
    let index = classified.index();
    eprintln!(
        "query: classified {} rounds in {:.2}s: {} shard-rounds reclassified, \
         {} reused from cache ({:.1}% hit rate)",
        store.len(),
        started.elapsed().as_secs_f64(),
        misses,
        hits,
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    );
    eprintln!(
        "query: provider index: {} of {} sites ever under a provider \
         ({} posting-list bitsets, {} KiB)",
        index.count_any(),
        store.sites(),
        remnant::provider::ProviderId::ALL.len(),
        index.bytes() / 1024,
    );
    let aggregates = PassesPlan.execute_with(&ctx);
    let residual = ResidualScanPlan::default().execute_with(&ctx);
    eprintln!(
        "query: residual funnel columns need recorded metrics (none loaded); \
         scan populations are derived from the rounds"
    );
    println!("{}", render_fig2_adoption(&config, &aggregates.adoption));
    println!("{}", render_fig3_behaviors(&config, &aggregates.behaviors));
    println!("{}", render_fig4_behaviors(&aggregates.behaviors));
    println!("{}", render_fig5_pauses(&aggregates.pauses));
    println!("{}", render_fig6_adoption(&aggregates.adoption));
    println!("{}", render_residual_scan(&config, &residual));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut experiment = "all".to_owned();
    let mut config = ReproConfig::default();
    let mut metrics_path: Option<String> = None;
    let mut population_set = false;
    let mut bind = "127.0.0.1:8053".to_owned();
    let mut duration: Option<u64> = None;
    let mut jobs: usize = 2;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--population" | "--sites" => match parse_flag(&arg, args.next()) {
                Ok(v) => {
                    config.population = v;
                    population_set = true;
                }
                Err(code) => return code,
            },
            "--spill-dir" => match parse_flag::<std::path::PathBuf>("--spill-dir", args.next()) {
                Ok(v) => config.spill_dir = Some(v),
                Err(code) => return code,
            },
            "--weeks" => match parse_flag("--weeks", args.next()) {
                Ok(v) => config.weeks = v,
                Err(code) => return code,
            },
            "--seed" => match parse_flag("--seed", args.next()) {
                Ok(v) => config.seed = v,
                Err(code) => return code,
            },
            "--workers" => match parse_flag("--workers", args.next()) {
                Ok(v) => config.workers = v,
                Err(code) => return code,
            },
            "--metrics" => match parse_flag("--metrics", args.next()) {
                Ok(v) => metrics_path = Some(v),
                Err(code) => return code,
            },
            "--collection" => match parse_flag::<String>("--collection", args.next()) {
                Ok(v) => match v.as_str() {
                    "full" => config.collection_mode = CollectionMode::Full,
                    "delta" => config.collection_mode = CollectionMode::Delta,
                    other => {
                        eprintln!("repro: invalid value for --collection: '{other}'");
                        return usage();
                    }
                },
                Err(code) => return code,
            },
            "--bind" => match parse_flag("--bind", args.next()) {
                Ok(v) => bind = v,
                Err(code) => return code,
            },
            "--duration" => match parse_flag("--duration", args.next()) {
                Ok(v) => duration = Some(v),
                Err(code) => return code,
            },
            "--jobs" => match parse_flag("--jobs", args.next()) {
                Ok(v) => jobs = v,
                Err(code) => return code,
            },
            "--even-intervals" => config.even_intervals = true,
            "--help" | "-h" => {
                let _ = usage();
                return ExitCode::SUCCESS;
            }
            name if !name.starts_with('-') => experiment = name.to_owned(),
            _ => {
                eprintln!("repro: unknown flag '{arg}'");
                return usage();
            }
        }
    }

    // The query experiment reads an existing spill directory instead of
    // running a study; it owns its own flag validation.
    if experiment == "query" {
        if metrics_path.is_some() {
            eprintln!("repro: --metrics ignored for 'query' (no study runs)");
        }
        return query_experiment(&config);
    }

    // Experiments that do not need the full study.
    let study_free = matches!(
        experiment.as_str(),
        "table1" | "table2" | "ablation" | "fig1" | "purge" | "serve"
    );
    if (study_free || experiment == "study") && metrics_path.is_some() {
        eprintln!("repro: --metrics ignored for '{experiment}' (no single-study snapshot)");
    }
    if study_free && config.spill_dir.is_some() {
        eprintln!("repro: --spill-dir ignored for '{experiment}' (no study runs)");
    }
    // Validate the flag combination up front: a bad --sites/--weeks/
    // --workers value or an unusable --spill-dir fails here with a named
    // error instead of panicking mid-study.
    if !study_free {
        if let Err(e) = config.validate() {
            eprintln!("repro: {e}");
            return usage();
        }
    }
    match experiment.as_str() {
        "serve" => {
            // A daemon doesn't need study scale; default to a world that
            // generates in seconds unless the user sized it explicitly.
            let population = if population_set {
                config.population
            } else {
                10_000
            };
            return serve(config.seed, population, &bind, duration);
        }
        "table2" => {
            println!("{}", render_table2());
            return ExitCode::SUCCESS;
        }
        "table1" => {
            println!("{}", render_table1(&config));
            return ExitCode::SUCCESS;
        }
        "ablation" => {
            println!("{}", render_ablation(&config));
            return ExitCode::SUCCESS;
        }
        "fig1" => {
            println!("{}", render_fig1(config.seed));
            return ExitCode::SUCCESS;
        }
        "purge" => {
            println!("{}", render_purge(config.seed));
            return ExitCode::SUCCESS;
        }
        "study" => return study_experiment(&config, jobs),
        _ => {}
    }

    eprintln!(
        "running {}-week study over {} sites (seed {}, {} intervals, {} worker{}, {} collection{})...",
        config.weeks,
        config.population,
        config.seed,
        if config.even_intervals {
            "24h"
        } else {
            "20-30h"
        },
        config.workers.max(1),
        if config.workers.max(1) == 1 { "" } else { "s" },
        config.collection_mode.name(),
        match &config.spill_dir {
            Some(dir) => format!(", spilling to {}", dir.display()),
            None => String::new(),
        }
    );
    let started = std::time::Instant::now();
    let (world, report) = run_study(&config);
    eprintln!(
        "study done in {:.1}s ({} DNS queries, {} HTTP requests served){}",
        started.elapsed().as_secs_f64(),
        world.traffic_stats().0,
        world.traffic_stats().1,
        match peak_rss_bytes() {
            Some(bytes) => format!(" peak_rss_bytes={bytes}"),
            None => String::new(),
        }
    );
    if config.collection_mode == CollectionMode::Delta {
        let collection = report.collection();
        eprintln!(
            "delta collection: {} rounds, {} site-rounds reused ({:.1}%), \
             {} re-resolved ({} via refresh stratum)",
            collection.rounds,
            collection.reused,
            collection.reuse_rate() * 100.0,
            collection.reresolved,
            collection.refresh_stratum
        );
    }
    eprintln!();

    if let Some(path) = &metrics_path {
        if let Err(e) = std::fs::write(path, report.obs().to_json()) {
            eprintln!("repro: cannot write metrics to '{path}': {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("metrics written to {path}\n");
    }

    let render = |name: &str| -> Option<String> {
        match name {
            "fig2" => Some(render_fig2(&config, &report)),
            "fig3" => Some(render_fig3(&config, &report)),
            "fig4" => Some(render_fig4(&report)),
            "fig5" => Some(render_fig5(&report)),
            "fig6" => Some(render_fig6(&report)),
            "fig7" => Some(render_fig7(&world)),
            "fig8" => Some(render_fig8(&report)),
            "funnel" => Some(render_fig8_from_obs(report.obs())),
            "fig9" => Some(render_fig9(&config, &report)),
            "table5" => Some(render_table5(&config, &report)),
            "table6" => Some(render_table6(&config, &report)),
            _ => None,
        }
    };

    if experiment == "all" {
        println!("{}", render_table2());
        for name in [
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table5", "table6",
        ] {
            println!("{}", render(name).expect("known experiment"));
        }
        println!("{}", render_fig1(config.seed));
        println!("{}", render_purge(config.seed));
        println!("{}", render_table1(&config));
        ExitCode::SUCCESS
    } else if let Some(rendered) = render(&experiment) {
        println!("{rendered}");
        ExitCode::SUCCESS
    } else {
        usage()
    }
}
