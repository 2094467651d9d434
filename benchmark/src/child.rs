//! What one child process does: a campaign through `StudySession`, the
//! traced mirror of that campaign, or one `repro query`-equivalent query.
//!
//! Every repetition runs in a fresh process: the `DomainName` interner is
//! process-wide, so a second campaign in one process would run warm, and
//! `VmHWM` only ever grows, so only a fresh process has its own peak.
//! A child prints its results as lines (see [`Output`]) when it exits.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use remnant::core::collector::{DeltaCollector, DeltaRound, RecordCollector, Target};
use remnant::core::residual::{
    CloudflareScanner, ExposureTracker, FilterPipeline, IncapsulaScanner, WeeklyScanReport,
};
use remnant::core::study::{
    AdoptionReport, BehaviorReport, CollectionMode, EngineReport, PauseReport,
    ProviderResidualReport, ResidualReport, StudyConfig, UnchangedReport,
};
use remnant::core::unchanged::{self, UnchangedStudy};
use remnant::core::{
    DnsSnapshot, ShardClassCache, SnapshotAggregates, SnapshotPasses, SpillConfig, SpillError,
    StudySession, SCANNER_SOURCE,
};
use remnant::engine::{EngineConfig, ScanEngine, SweepStats};
use remnant::obs::{Obs, Span as ObsSpan};
use remnant::provider::ProviderId;
use remnant::query::{PassesPlan, PlanContext, ResidualScanPlan, SnapshotStore};
use remnant::world::{World, WorldConfig};
use remnant_bench::perf::peak_rss_bytes;
use remnant_bench::{
    render_fig2_adoption, render_fig3_behaviors, render_fig4_behaviors, render_fig5_pauses,
    render_fig6_adoption, render_fig8_residual, render_fig9_exposure, render_residual_scan,
    render_table5_unchanged, render_table6_residual, ReproConfig,
};

use crate::calibrate::{cpu_secs, cpu_time, Calibration};
use crate::trace::Tracer;

/// One campaign's configuration, as passed to a child on its command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignSpec {
    pub sites: usize,
    pub weeks: u32,
    pub seed: u64,
    pub workers: usize,
    pub mode: CollectionMode,
    /// Spill directory; `None` keeps every round in memory.
    pub spill: Option<PathBuf>,
}

impl CampaignSpec {
    /// The child command-line arguments that reproduce this spec.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--sites".to_owned(),
            self.sites.to_string(),
            "--weeks".to_owned(),
            self.weeks.to_string(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--workers".to_owned(),
            self.workers.to_string(),
            "--mode".to_owned(),
            self.mode.name().to_owned(),
        ];
        if let Some(dir) = &self.spill {
            args.extend(["--spill".to_owned(), dir.display().to_string()]);
        }
        args
    }

    /// Parses the arguments [`to_args`](Self::to_args) writes.
    pub fn from_flags(flags: &crate::Flags) -> Result<Self, String> {
        Ok(CampaignSpec {
            sites: flags.parse("--sites")?,
            weeks: flags.parse("--weeks")?,
            seed: flags.parse("--seed")?,
            workers: flags.parse("--workers")?,
            mode: match flags.get("--mode")? {
                "full" => CollectionMode::Full,
                "delta" => CollectionMode::Delta,
                other => return Err(format!("unknown collection mode '{other}'")),
            },
            spill: flags.optional("--spill").map(PathBuf::from),
        })
    }

    fn study_config(&self) -> Result<StudyConfig, String> {
        let mut builder = StudyConfig::builder()
            .weeks(self.weeks)
            .seed(self.seed)
            .workers(self.workers)
            .collection_mode(self.mode);
        if let Some(dir) = &self.spill {
            builder = builder.spill(SpillConfig::new(dir));
        }
        builder.build().map_err(|e| e.to_string())
    }

    fn world(&self) -> World {
        World::generate(WorldConfig::new(self.sites, self.seed))
    }
}

/// Scales rendered counts by the campaign's own population.
fn render_config(sites: usize) -> ReproConfig {
    ReproConfig {
        population: sites,
        ..ReproConfig::default()
    }
}

/// Figs 2–6: everything a query can re-derive from persisted rounds.
fn render_figs(
    config: &ReproConfig,
    adoption: &AdoptionReport,
    behaviors: &BehaviorReport,
    pauses: &PauseReport,
) -> String {
    [
        render_fig2_adoption(config, adoption),
        render_fig3_behaviors(config, behaviors),
        render_fig4_behaviors(behaviors),
        render_fig5_pauses(pauses),
        render_fig6_adoption(adoption),
    ]
    .concat()
}

/// Fig 8, Fig 9, Table V and Table VI.
fn render_tables(
    config: &ReproConfig,
    unchanged: &UnchangedReport,
    residual: &ResidualReport,
) -> String {
    [
        render_fig8_residual(residual),
        render_fig9_exposure(config, &residual.cloudflare.exposure),
        render_table5_unchanged(config, unchanged),
        render_table6_residual(config, residual),
    ]
    .concat()
}

/// 64-bit FNV-1a, printed as hex.
fn digest(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// A child's result lines: `value NAME V`, `digest NAME HEX` and
/// `span ...` (see [`crate::trace::SpanRecord::to_line`]).
#[derive(Debug, Default)]
pub struct Output {
    lines: Vec<String>,
}

impl Output {
    fn value(&mut self, name: &str, value: impl Display) {
        self.lines.push(format!("value {name} {value}"));
    }

    fn digest(&mut self, name: &str, text: &str) {
        self.lines.push(format!("digest {name} {}", digest(text)));
    }

    /// The peak resident size of a traced child, which runs no
    /// calibration kernel.
    fn peak_rss(&mut self) {
        if let Some(bytes) = peak_rss_bytes() {
            self.value("rss_bytes", bytes);
        }
    }

    /// A measured repetition's processor time `cpu_s` and that time at
    /// the reference speed, the kernel's time per run, and the peak
    /// resident size outside the kernel.
    fn calibrated(&mut self, cal: &Calibration, cpu_s: f64) {
        self.value("cpu_s", cpu_s);
        self.value("cost_s", cal.at_reference_speed(cpu_s));
        self.value("kernel_ms", cal.kernel_ms());
        if let Some(bytes) = cal.peak_rss() {
            self.value("rss_bytes", bytes);
        }
    }

    /// Prints every line to standard output.
    pub fn print(self) {
        let mut text = self.lines.join("\n");
        text.push('\n');
        print!("{text}");
    }
}

/// One campaign through the public `StudySession` API, from world
/// generation to rendered output, what one `repro` invocation spends. The
/// calibration kernel runs after the start (world generation and session
/// set-up), after each daily round, and after the end (`finish` and
/// rendering); its time is left out of the campaign's.
pub fn campaign(spec: &CampaignSpec) -> Result<Output, String> {
    let mut out = Output::default();
    let mut cal = Calibration::new();
    let cpu = cpu_time();
    let started = Instant::now();
    let mut world = spec.world();
    let mut session = StudySession::new(spec.study_config()?, &world);
    cal.run();
    while session.round(&mut world, &mut |_| {}).is_some() {
        cal.run();
    }
    let report = session.finish();
    let config = render_config(spec.sites);
    let figs = render_figs(
        &config,
        report.adoption(),
        report.behaviors(),
        report.pauses(),
    );
    let tables = render_tables(&config, report.unchanged(), report.residual());
    let obs = report.obs().to_json();
    cal.run();
    out.value("campaign_s", secs(started) - cal.wall_s());
    out.calibrated(&cal, cpu_secs(cpu) - cal.cpu_s());

    out.value("sites", spec.sites);
    out.value("rounds", spec.weeks * 7);
    out.digest("figs", &figs);
    out.digest("all", &[figs, tables, obs].concat());
    Ok(out)
}

/// The same campaign as [`campaign`], replayed call by call through the
/// public layer functions `StudySession::round` and `finish` use, with a
/// span around each call. Then the campaign's rounds are read back
/// through the query layer, as `repro query` would.
pub fn mirror(spec: &CampaignSpec) -> Result<Output, String> {
    let mut t = Tracer::enabled();
    let mut out = Output::default();
    t.enter("run");
    let mut world = t.span("world.generate", || spec.world());
    let started = Instant::now();
    let mut mirror = Mirror::new(spec.study_config()?, &world);
    for day in 0..mirror.days {
        t.enter("round");
        mirror.round(&mut t, &mut world, day)?;
        t.exit();
    }
    let done = t.span("finish", || mirror.finish());
    let config = render_config(spec.sites);
    let (figs, all) = t.span("render", || {
        let a = &done.aggregates;
        let figs = render_figs(&config, &a.adoption, &a.behaviors, &a.pauses);
        let tables = render_tables(&config, &done.unchanged, &done.residual);
        let all = [figs.as_str(), &tables, &done.obs.to_json()].concat();
        (figs, all)
    });
    out.value("campaign_s", secs(started));
    t.exit();

    let source = match &spec.spill {
        Some(dir) => StoreSource::Dir(dir),
        None => StoreSource::Resident(done.snapshots),
    };
    let query = query_phase(&mut t, source, spec.workers)?;

    out.value("sites", spec.sites);
    out.value("rounds", spec.weeks * 7);
    out.digest("figs", &figs);
    out.digest("all", &all);
    out.digest("query_figs", &query.figs);
    for (name, value) in done.counts.values() {
        out.value(name, value);
    }
    for (name, value) in query.counts {
        out.value(name, value);
    }
    out.peak_rss();
    out.lines.extend(t.spans().iter().map(|s| s.to_line()));
    Ok(out)
}

/// Calibration kernel runs before and after an untraced query, which is
/// too short to run the kernel inside it.
const QUERY_KERNEL_RUNS: usize = 2;

/// One query over a spill directory: open the store, build the plan
/// context, run the passes and residual-scan plans, render — the
/// `repro query` path. Traced when `traced` is set; otherwise the
/// calibration kernel runs before and after it.
pub fn query(store: &Path, workers: usize, traced: bool) -> Result<Output, String> {
    let mut out = Output::default();
    let (mut t, mut cal) = if traced {
        (Tracer::enabled(), None)
    } else {
        (Tracer::disabled(), Some(Calibration::new()))
    };
    let calibrate = |cal: &mut Option<Calibration>| {
        if let Some(cal) = cal {
            (0..QUERY_KERNEL_RUNS).for_each(|_| cal.run());
        }
    };
    calibrate(&mut cal);
    let started = Instant::now();
    let cpu = cpu_time();
    let query = query_phase(&mut t, StoreSource::Dir(store), workers)?;
    let cpu_s = cpu_secs(cpu);
    out.value("query_s", secs(started));
    calibrate(&mut cal);
    match &cal {
        Some(cal) => out.calibrated(cal, cpu_s),
        None => out.peak_rss(),
    }
    out.value("sites", query.sites);
    out.value("rounds", query.rounds);
    out.digest("figs", &query.figs);
    for (name, value) in query.counts {
        out.value(name, value);
    }
    out.lines.extend(t.spans().iter().map(|s| s.to_line()));
    Ok(out)
}

enum StoreSource<'a> {
    /// A spill directory, opened as `repro query` opens it.
    Dir(&'a Path),
    /// The rounds of an in-memory campaign.
    Resident(Vec<DnsSnapshot>),
}

struct QueryResult {
    figs: String,
    sites: usize,
    rounds: usize,
    counts: Vec<(&'static str, f64)>,
}

fn query_phase(t: &mut Tracer, source: StoreSource, workers: usize) -> Result<QueryResult, String> {
    t.enter("query");
    let store = t
        .span("store.open", || match source {
            StoreSource::Dir(dir) => SnapshotStore::open(dir),
            StoreSource::Resident(snapshots) => SnapshotStore::in_memory(snapshots),
        })
        .map_err(|e| format!("cannot open snapshot store: {e}"))?;
    let ctx = t.span("query.context", || PlanContext::new(&store, workers));
    let aggregates = t.span("query.passes_plan", || PassesPlan.execute_with(&ctx));
    let residual = t.span("query.residual_plan", || {
        ResidualScanPlan::default().execute_with(&ctx)
    });
    let figs = t.span("query.render", || {
        let config = render_config(store.sites());
        let a = &aggregates;
        let figs = render_figs(&config, &a.adoption, &a.behaviors, &a.pauses);
        // Rendered like `repro query`, but outside the Fig 2–6 digest:
        // the campaign has no residual-scan timeline to compare it with.
        std::hint::black_box(render_residual_scan(&config, &residual));
        figs
    });
    t.exit();
    let (hits, misses) = ctx.classified().cache_stats();
    Ok(QueryResult {
        figs,
        sites: store.sites(),
        rounds: store.len(),
        counts: vec![
            ("query.cache_hits", hits as f64),
            ("query.cache_misses", misses as f64),
            (
                "query.hit_ratio",
                crate::stats::ratio(hits as f64, (hits + misses) as f64),
            ),
        ],
    })
}

/// `StudySession`'s collector dispatch, rebuilt from the public
/// collectors.
enum Collector {
    Full(RecordCollector),
    Delta(DeltaCollector),
}

type Collected = (DnsSnapshot, SweepStats, Option<DeltaRound>);

impl Collector {
    fn collect(
        &mut self,
        engine: &ScanEngine,
        world: &World,
        targets: &[Target],
        day: u32,
        spill: Option<&SpillConfig>,
    ) -> Result<Collected, SpillError> {
        Ok(match (self, spill) {
            (Collector::Full(c), None) => {
                let (snapshot, sweep) = c.collect_with(engine, world, targets, day);
                (snapshot, sweep, None)
            }
            (Collector::Full(c), Some(spill)) => {
                let (snapshot, sweep) = c.collect_spilled(engine, world, targets, day, spill)?;
                (snapshot, sweep, None)
            }
            (Collector::Delta(c), None) => {
                let (snapshot, sweep, round) = c.collect_with(engine, world, targets, day);
                (snapshot, sweep, Some(round))
            }
            (Collector::Delta(c), Some(spill)) => {
                let (snapshot, sweep, round) =
                    c.collect_spilled(engine, world, targets, day, spill)?;
                (snapshot, sweep, Some(round))
            }
        })
    }

    fn rounds(&self) -> u32 {
        match self {
            Collector::Full(c) => c.rounds(),
            Collector::Delta(c) => c.rounds(),
        }
    }
}

/// Per-layer work counts, taken from the layers' return values.
#[derive(Debug, Default)]
struct Counts {
    collect_queries: u64,
    collect_retries: u64,
    collect_exhausted: u64,
    resolver_hits: u64,
    resolver_misses: u64,
    sweep_wall_s: f64,
    sweep_busy_s: f64,
    shards_run: u64,
    reused: u64,
    reresolved: u64,
    classify_hits: u64,
    classify_misses: u64,
    unchanged_candidates: u64,
    scan_queries: u64,
    scan_items: u64,
    scan_answered: u64,
    filter_hidden: u64,
    filter_verified: u64,
}

impl Counts {
    fn absorb_collect(&mut self, sweep: &SweepStats, delta: Option<&DeltaRound>, sites: usize) {
        self.sweep_wall_s += sweep.wall.as_secs_f64();
        // A delta round replays the counters of the shards it reuses, with
        // a zero timing: count only the shards that ran.
        for (shard, timing) in sweep.shards.iter().zip(&sweep.timings) {
            if timing.wall.is_zero() {
                continue;
            }
            self.shards_run += 1;
            self.sweep_busy_s += timing.wall.as_secs_f64();
            self.collect_queries += shard.queries;
            self.collect_retries += shard.retries;
            self.collect_exhausted += shard.exhausted;
            self.resolver_hits += shard.cache_hits;
            self.resolver_misses += shard.cache_misses;
        }
        match delta {
            Some(round) => {
                self.reused += round.reused;
                self.reresolved += round.reresolved;
            }
            None => self.reresolved += sites as u64,
        }
    }

    fn absorb_scan(&mut self, answered: usize, sweep: &SweepStats) {
        self.scan_queries += sweep.queries();
        self.scan_items += sweep.items();
        self.scan_answered += answered as u64;
    }

    fn absorb_filter(&mut self, weekly: &WeeklyScanReport) {
        self.filter_hidden += weekly.hidden.len() as u64;
        self.filter_verified += weekly.verified.len() as u64;
    }

    fn values(&self) -> Vec<(&'static str, f64)> {
        use crate::stats::ratio;
        let f = |n: u64| n as f64;
        vec![
            ("collect.sweep_wall_s", self.sweep_wall_s),
            ("collect.sweep_busy_s", self.sweep_busy_s),
            ("collect.queries", f(self.collect_queries)),
            ("collect.retries", f(self.collect_retries)),
            ("collect.exhausted", f(self.collect_exhausted)),
            (
                "collect.resolver_hit_ratio",
                ratio(
                    f(self.resolver_hits),
                    f(self.resolver_hits + self.resolver_misses),
                ),
            ),
            ("collect.shards_run", f(self.shards_run)),
            (
                "collect.reuse_ratio",
                ratio(f(self.reused), f(self.reused + self.reresolved)),
            ),
            ("classify.hits", f(self.classify_hits)),
            ("classify.misses", f(self.classify_misses)),
            (
                "classify.hit_ratio",
                ratio(
                    f(self.classify_hits),
                    f(self.classify_hits + self.classify_misses),
                ),
            ),
            ("unchanged.candidates", f(self.unchanged_candidates)),
            ("scan.queries", f(self.scan_queries)),
            (
                "scan.answered_ratio",
                ratio(f(self.scan_answered), f(self.scan_items)),
            ),
            ("filter.hidden", f(self.filter_hidden)),
            (
                "filter.verified_ratio",
                ratio(f(self.filter_verified), f(self.filter_hidden)),
            ),
        ]
    }
}

/// What the mirror's `finish` hands to rendering.
struct Finished {
    aggregates: SnapshotAggregates,
    unchanged: UnchangedReport,
    residual: ResidualReport,
    obs: remnant::obs::ObsReport,
    /// Every round's snapshot, for in-memory campaigns.
    snapshots: Vec<DnsSnapshot>,
    counts: Counts,
}

/// `StudySession`'s state, field for field, built from public types.
struct Mirror {
    config: StudyConfig,
    engine: ScanEngine,
    targets: Vec<Target>,
    days: u32,
    jitter: StdRng,
    collector: Collector,
    passes: SnapshotPasses,
    class_cache: ShardClassCache,
    unchanged: UnchangedStudy,
    cf_scanner: CloudflareScanner,
    inc_scanner: IncapsulaScanner,
    pipeline: FilterPipeline,
    obs: Obs,
    study_span: Option<ObsSpan>,
    exposed_cf: BTreeSet<usize>,
    exposed_inc: BTreeSet<usize>,
    engine_report: EngineReport,
    cf_weekly: Vec<WeeklyScanReport>,
    inc_weekly: Vec<WeeklyScanReport>,
    prev_snapshot: Option<DnsSnapshot>,
    snapshots: Vec<DnsSnapshot>,
    counts: Counts,
}

impl Mirror {
    fn new(config: StudyConfig, world: &World) -> Self {
        let engine = ScanEngine::new(
            EngineConfig::with_workers(config.workers.max(1), config.seed)
                .expect("validated worker count"),
        );
        let targets: Vec<Target> = world
            .sites()
            .iter()
            .map(|s| (s.apex.clone(), s.www.clone()))
            .collect();
        let collector = match config.collection_mode {
            CollectionMode::Full => {
                Collector::Full(RecordCollector::new(world.clock(), config.collector_region))
            }
            CollectionMode::Delta => Collector::Delta(DeltaCollector::new(
                world.clock(),
                config.collector_region,
                config.seed,
            )),
        };
        let mut obs = Obs::new(world.clock());
        obs.event(
            "study.start",
            format!("{} sites over {} weeks", targets.len(), config.weeks),
        );
        let study_span = ObsSpan::enter(&obs, "study.run");
        Mirror {
            engine,
            days: config.weeks * 7,
            jitter: StdRng::seed_from_u64(config.seed),
            collector,
            passes: SnapshotPasses::new(targets.len()),
            class_cache: ShardClassCache::new(),
            unchanged: UnchangedStudy::new(SCANNER_SOURCE),
            cf_scanner: CloudflareScanner::new(world.clock(), "cloudflare"),
            inc_scanner: IncapsulaScanner::new(world.clock(), "incapdns"),
            pipeline: FilterPipeline::new(world.clock(), config.collector_region, SCANNER_SOURCE),
            obs,
            study_span: Some(study_span),
            exposed_cf: BTreeSet::new(),
            exposed_inc: BTreeSet::new(),
            engine_report: EngineReport::default(),
            cf_weekly: Vec::new(),
            inc_weekly: Vec::new(),
            prev_snapshot: None,
            snapshots: Vec::new(),
            counts: Counts::default(),
            targets,
            config,
        }
    }

    /// `StudySession::round`, one span per layer call.
    fn round(&mut self, t: &mut Tracer, world: &mut World, day: u32) -> Result<(), String> {
        let day_span = t.span("obs", || {
            let span = ObsSpan::enter(&self.obs, "study.day");
            self.obs
                .event("sweep.start", format!("day {day}: daily collection round"));
            span
        });
        let (snapshot, sweep, delta) = t
            .span("collect", || {
                self.collector.collect(
                    &self.engine,
                    world,
                    &self.targets,
                    day,
                    self.config.spill.as_ref(),
                )
            })
            .map_err(|e| format!("day {day} spill round failed: {e}"))?;
        self.counts
            .absorb_collect(&sweep, delta.as_ref(), self.targets.len());
        t.span("obs", || {
            self.obs.metrics.merge_from(&sweep.merged_metrics());
            self.obs.event(
                "sweep.finish",
                format!(
                    "day {day}: {} queries over {} shards",
                    sweep.queries(),
                    sweep.shards.len()
                ),
            );
            self.engine_report.absorb(&sweep);
        });

        let behaviors = t.span("passes", || match self.config.collection_mode {
            CollectionMode::Full => self.passes.observe(day, &snapshot),
            CollectionMode::Delta => {
                let columns = self.class_cache.classify_snapshot(
                    &self.engine,
                    self.passes.detector(),
                    &snapshot,
                );
                self.passes.observe_columns(
                    day,
                    snapshot.taken_at,
                    columns.classes,
                    &columns.multi_cdn_ranks,
                )
            }
        });

        if let Some(prev) = &self.prev_snapshot {
            let candidates = t.span("unchanged", || {
                let candidates = unchanged::candidates(&self.targets, &behaviors, prev, &snapshot);
                let now = world.now();
                self.unchanged.observe_candidates(world, now, &candidates);
                candidates.len()
            });
            self.counts.unchanged_candidates += candidates as u64;
        }

        t.span("harvest", || {
            self.cf_scanner.harvest_fleet(world, &snapshot);
            self.inc_scanner.harvest(&snapshot);
        });
        if day.is_multiple_of(7) {
            self.scan_week(t, world, day / 7);
        }

        if self.config.spill.is_none() {
            self.snapshots.push(snapshot.clone());
        }
        self.prev_snapshot = Some(snapshot);
        let interval = if self.config.uneven_intervals {
            self.jitter.gen_range(20..=30)
        } else {
            24
        };
        t.span("world.step", || world.step_hours(interval));
        t.span("obs", || day_span.exit(&mut self.obs));
        Ok(())
    }

    /// `StudySession::scan_week`.
    fn scan_week(&mut self, t: &mut Tracer, world: &mut World, week: u32) {
        t.span("obs", || {
            self.obs
                .event("scan.start", format!("week {week}: residual scans"))
        });
        let (raw, sweep) = t.span("scan", || {
            self.cf_scanner
                .scan_with(&self.engine, world, &self.targets, week)
        });
        self.counts.absorb_scan(raw.len(), &sweep);
        t.span("obs", || self.absorb_scan_sweep(&sweep, week));
        let weekly = t.span("filter", || {
            self.pipeline
                .run(world, ProviderId::Cloudflare, week, &raw, &self.targets)
        });
        self.counts.absorb_filter(&weekly);
        t.span("obs", || {
            note_filter_verdict(&mut self.obs, &weekly);
            note_exposure_windows(&mut self.obs, &weekly, &mut self.exposed_cf);
        });
        self.cf_weekly.push(weekly);

        let (raw, sweep) = t.span("scan", || self.inc_scanner.scan_with(&self.engine, world));
        self.counts.absorb_scan(raw.len(), &sweep);
        t.span("obs", || self.absorb_scan_sweep(&sweep, week));
        let weekly = t.span("filter", || {
            self.pipeline
                .run(world, ProviderId::Incapsula, week, &raw, &self.targets)
        });
        self.counts.absorb_filter(&weekly);
        t.span("obs", || {
            note_filter_verdict(&mut self.obs, &weekly);
            note_exposure_windows(&mut self.obs, &weekly, &mut self.exposed_inc);
        });
        self.inc_weekly.push(weekly);
    }

    fn absorb_scan_sweep(&mut self, sweep: &SweepStats, week: u32) {
        self.obs.metrics.merge_from(&sweep.merged_metrics());
        self.engine_report.absorb(sweep);
        self.obs.event(
            "cache.purge",
            format!("week {week}: pipeline resolver purged before A-matching"),
        );
    }

    /// `StudySession::finish`.
    fn finish(mut self) -> Finished {
        let aggregates = self.passes.finish();
        let unchanged = UnchangedReport {
            rows: self.unchanged.rows(),
            total: self.unchanged.total(),
        };
        let residual = ResidualReport {
            cloudflare: ProviderResidualReport {
                exposure: ExposureTracker::fold(&self.cf_weekly),
                weekly: self.cf_weekly,
            },
            incapsula: ProviderResidualReport {
                exposure: ExposureTracker::fold(&self.inc_weekly),
                weekly: self.inc_weekly,
            },
            fleet_size: self.cf_scanner.fleet_size(),
            harvested_tokens: self.inc_scanner.harvested_count(),
        };
        self.engine_report.workers = self.config.workers.max(1);
        if let Some(span) = self.study_span.take() {
            span.exit(&mut self.obs);
        }
        self.obs.event(
            "study.finish",
            format!("{} collection rounds", self.collector.rounds()),
        );
        self.obs.absorb(&self.engine_report);
        self.obs.absorb(&self.cf_scanner);
        self.obs.absorb(&self.inc_scanner);
        self.obs.metrics.merge_from(&self.pipeline.metrics());

        let mut counts = self.counts;
        counts.classify_hits = self.class_cache.hits();
        counts.classify_misses = self.class_cache.misses();
        Finished {
            aggregates,
            unchanged,
            residual,
            obs: self.obs.report(),
            snapshots: self.snapshots,
            counts,
        }
    }
}

/// The session's journal line for one weekly pipeline pass.
fn note_filter_verdict(obs: &mut Obs, weekly: &WeeklyScanReport) {
    obs.event(
        "filter.verdict",
        format!(
            "{} week {}: retrieved {} -> after_ip_matching {} -> hidden {} -> verified {}",
            weekly.provider.name(),
            weekly.week,
            weekly.retrieved,
            weekly.after_ip_matching,
            weekly.hidden.len(),
            weekly.verified.len()
        ),
    );
}

/// The session's exposure-window journal lines.
fn note_exposure_windows(obs: &mut Obs, weekly: &WeeklyScanReport, exposed: &mut BTreeSet<usize>) {
    let provider = weekly.provider.name();
    let week = weekly.week;
    let verified: BTreeSet<usize> = weekly.verified.iter().copied().collect();
    for rank in verified.difference(exposed) {
        obs.event(
            "exposure.open",
            format!("{provider} week {week}: site rank {rank} origin exposed"),
        );
    }
    for rank in exposed.difference(&verified) {
        obs.event(
            "exposure.close",
            format!("{provider} week {week}: site rank {rank} no longer verified"),
        );
    }
    *exposed = verified;
}
