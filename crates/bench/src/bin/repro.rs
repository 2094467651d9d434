//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [EXPERIMENT] [--sites N | --population N] [--weeks W] [--seed S]
//!       [--workers N] [--jobs N] [--even-intervals] [--collection full|delta]
//!       [--spill-dir DIR] [--metrics OUT.json]
//!
//! EXPERIMENT: all (default) | table1 | table2 | table5 | table6 |
//!             fig1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 |
//!             purge | ablation | funnel | query | study
//! ```
//!
//! An unknown experiment name exits 1 with usage before any world is
//! generated.
//!
//! The flags fill one [`ReproConfig`]: `--population` sets the world's
//! size and the campaign flags set its
//! [`StudyConfig`](remnant::core::study::StudyConfig) directly — `--weeks`, `--seed`
//! (which also seeds the world and the study-free experiments),
//! `--workers`, `--collection`, `--even-intervals` (clears
//! `uneven_intervals`) and `--spill-dir` (a default `SpillConfig`).
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
//! The `study done in …` stderr line counts the DNS queries the study's
//! collection and residual-scan sweeps sent (`EngineReport::queries`; the
//! fabric keeps no DNS counter) and the HTTP requests the world served.
//! Delta collection's replayed shards count as when they were resolved,
//! so the DNS count equals full mode's; the `delta collection:` line
//! says how many site-rounds were re-resolved. It ends with `peak_rss_bytes=<n>`, the kernel's `VmHWM` high-water
//! mark for this process (omitted where procfs is missing). Like the
//! elapsed time it is wall-clock-side and never enters `--metrics`.
//!
//! `query` re-runs the snapshot-derivable analyses (Fig 2–6 plus the
//! residual-scan timeline) from a spill directory left behind by a
//! previous `--spill-dir` run — no collection, no world: the rounds
//! reopen as a time-indexed snapshot store and the figures are produced
//! by query plans over it, byte-identical to the original run's. The
//! plans share one pass over the derived columns each block carries in
//! its round file (no record frame is decoded; a per-provider
//! posting-list index is built alongside); a reuse/index summary goes to
//! stderr. A directory with a hole in its round sequence (an interrupted
//! campaign) is rejected with the missing round named.
//!
//! `study --jobs N` runs N campaigns one after another over one generated
//! world, each on its own fork of it (job `i` runs with seed `--seed`+i)
//! with all `--workers`. Every round of every job prints a progress line
//! to stderr; the final summary table prints one row per job. Each job's
//! report is byte-identical to a solo run of the same config.

use std::process::ExitCode;

use remnant::core::study::CollectionMode;
use remnant::core::SpillConfig;
use remnant_bench::perf::peak_rss_bytes;
use remnant_bench::{
    render_ablation, render_fig1, render_fig2_adoption, render_fig3_behaviors,
    render_fig4_behaviors, render_fig5_pauses, render_fig6_adoption, render_fig8_from_obs,
    render_purge, render_residual_scan, render_study_batch, render_study_figures, render_table1,
    render_table2, run_study, run_study_batch, ReproConfig,
};

/// Every experiment name `repro` accepts.
const EXPERIMENTS: [&str; 19] = [
    "all", "table1", "table2", "table5", "table6", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "purge", "ablation", "funnel", "query", "study",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [all|table1|table2|table5|table6|fig1..fig9|purge|ablation|funnel|query|study] \
         [--sites N | --population N] [--weeks W] [--seed S] [--workers N] [--jobs N] \
         [--even-intervals] [--collection full|delta] [--spill-dir DIR] \
         [--metrics OUT.json]\n\
         \n\
         --workers N shards the sweeps over N threads (output is identical\n\
         for every N; only wall time changes)\n\
         'study --jobs N' runs N campaigns (seeds S..S+N-1) one after\n\
         another over forks of one world; each report is byte-identical\n\
         to a solo run of the same config\n\
         --collection delta reuses unchanged shards between daily rounds\n\
         (output is identical to full; only wall time changes)\n\
         --spill-dir DIR streams each round to binary snapshot files under\n\
         DIR so paper-scale runs complete in bounded memory (output is\n\
         identical to in-memory; only peak RSS changes)\n\
         --metrics OUT.json writes the deterministic observability snapshot;\n\
         'funnel' renders Fig 8 from those counters alone\n\
         'query' re-renders Fig 2-6 plus the residual-scan timeline from\n\
         an existing --spill-dir via the snapshot store, without\n\
         re-collecting; plans share one classified scan"
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

/// Runs the `study` experiment: `jobs` campaigns one after another, each
/// on its own fork of one generated world, with a progress line per round
/// on stderr.
fn study_experiment(config: &ReproConfig, jobs: usize) -> ExitCode {
    let study = &config.study;
    eprintln!(
        "running {jobs} {}-week campaign{} in sequence over {} sites \
         (seeds {}..={}, {} worker{})...",
        study.weeks,
        if jobs == 1 { "" } else { "s" },
        config.population,
        study.seed,
        study.seed + jobs.saturating_sub(1) as u64,
        study.workers.max(1),
        if study.workers.max(1) == 1 { "" } else { "s" },
    );
    let started = std::time::Instant::now();
    let result = run_study_batch(config, jobs, |job, session, round| {
        eprintln!(
            "[job {job}] day {}/{}: {} sites, {} queries{}",
            round.day + 1,
            session.days_total(),
            config.population,
            round.round_queries,
            match round.scanned_week {
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

/// Runs the `query` experiment: reopens a spill directory as a snapshot
/// store and regenerates the snapshot-derivable figures through query
/// plans, without re-collecting anything.
///
/// Every plan shares one pass over the stored derived columns through a
/// [`PlanContext`](remnant::query::PlanContext), and Figs 2–6 render from
/// a single `SnapshotAggregates` fold.
fn query_experiment(config: &ReproConfig) -> ExitCode {
    use remnant::query::{
        PassesPlan, PlanContext, ResidualScanPlan, RoundKind, SnapshotStore, StoreError,
    };

    let Some(SpillConfig { dir, .. }) = &config.study.spill else {
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
    let reused: usize = store.generation_diff().iter().map(|d| d.clean).sum();
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
    let ctx = PlanContext::new(&store, config.study.workers.max(1));
    let classified = ctx.classified();
    let (hits, misses) = classified.cache_stats();
    let index = classified.index();
    eprintln!(
        "query: assembled {} rounds in {:.2}s: {} shard-rounds written, \
         {} chained from the previous round ({:.1}% reuse)",
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
    let mut jobs: usize = 2;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--population" | "--sites" => match parse_flag(&arg, args.next()) {
                Ok(v) => config.population = v,
                Err(code) => return code,
            },
            "--spill-dir" => match parse_flag::<std::path::PathBuf>("--spill-dir", args.next()) {
                Ok(v) => config.study.spill = Some(SpillConfig::new(v)),
                Err(code) => return code,
            },
            "--weeks" => match parse_flag("--weeks", args.next()) {
                Ok(v) => config.study.weeks = v,
                Err(code) => return code,
            },
            "--seed" => match parse_flag("--seed", args.next()) {
                Ok(v) => config.study.seed = v,
                Err(code) => return code,
            },
            "--workers" => match parse_flag("--workers", args.next()) {
                Ok(v) => config.study.workers = v,
                Err(code) => return code,
            },
            "--metrics" => match parse_flag("--metrics", args.next()) {
                Ok(v) => metrics_path = Some(v),
                Err(code) => return code,
            },
            "--collection" => match parse_flag::<String>("--collection", args.next()) {
                Ok(v) => match v.as_str() {
                    "full" => config.study.collection_mode = CollectionMode::Full,
                    "delta" => config.study.collection_mode = CollectionMode::Delta,
                    other => {
                        eprintln!("repro: invalid value for --collection: '{other}'");
                        return usage();
                    }
                },
                Err(code) => return code,
            },
            "--jobs" => match parse_flag("--jobs", args.next()) {
                Ok(v) => jobs = v,
                Err(code) => return code,
            },
            "--even-intervals" => config.study.uneven_intervals = false,
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

    if !EXPERIMENTS.contains(&experiment.as_str()) {
        eprintln!("repro: unknown experiment '{experiment}'");
        return usage();
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
        "table1" | "table2" | "ablation" | "fig1" | "purge"
    );
    if (study_free || experiment == "study") && metrics_path.is_some() {
        eprintln!("repro: --metrics ignored for '{experiment}' (no single-study snapshot)");
    }
    if study_free && config.study.spill.is_some() {
        eprintln!("repro: --spill-dir ignored for '{experiment}' (no study runs)");
    }
    // Validate the flag combination up front: a bad --sites value fails
    // every experiment here with a named error, and so, for experiments
    // that run a study, does a bad --weeks/--workers value or an unusable
    // --spill-dir, instead of panicking mid-study.
    let checked = if study_free {
        config.validate_population()
    } else {
        config.validate()
    };
    if let Err(e) = checked {
        eprintln!("repro: {e}");
        return usage();
    }
    match experiment.as_str() {
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
            println!("{}", render_fig1(config.study.seed));
            return ExitCode::SUCCESS;
        }
        "purge" => {
            println!("{}", render_purge(config.study.seed));
            return ExitCode::SUCCESS;
        }
        "study" => return study_experiment(&config, jobs),
        _ => {}
    }

    let study = &config.study;
    eprintln!(
        "running {}-week study over {} sites (seed {}, {} intervals, {} worker{}, {} collection{})...",
        study.weeks,
        config.population,
        study.seed,
        if study.uneven_intervals {
            "20-30h"
        } else {
            "24h"
        },
        study.workers.max(1),
        if study.workers.max(1) == 1 { "" } else { "s" },
        study.collection_mode.name(),
        match &study.spill {
            Some(spill) => format!(", spilling to {}", spill.dir.display()),
            None => String::new(),
        }
    );
    let started = std::time::Instant::now();
    let (world, report) = run_study(&config);
    eprintln!(
        "study done in {:.1}s ({} DNS queries swept, {} HTTP requests served){}",
        started.elapsed().as_secs_f64(),
        report.engine().queries,
        world.http_requests(),
        match peak_rss_bytes() {
            Some(bytes) => format!(" peak_rss_bytes={bytes}"),
            None => String::new(),
        }
    );
    if study.collection_mode == CollectionMode::Delta {
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

    if experiment == "funnel" {
        println!("{}", render_fig8_from_obs(report.obs()));
        return ExitCode::SUCCESS;
    }
    let figures = render_study_figures(&config, &world, &report);
    if experiment == "all" {
        println!("{}", render_table2());
        for (_, figure) in &figures {
            println!("{figure}");
        }
        println!("{}", render_fig1(study.seed));
        println!("{}", render_purge(study.seed));
        println!("{}", render_table1(&config));
        ExitCode::SUCCESS
    } else {
        let (_, figure) = figures
            .iter()
            .find(|(name, _)| *name == experiment)
            .expect("experiment checked against EXPERIMENTS");
        println!("{figure}");
        ExitCode::SUCCESS
    }
}
