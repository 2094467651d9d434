//! One campaign, incrementally: the study driver.
//!
//! A [`StudySession`] owns everything one campaign needs — its
//! [`StudyConfig`], collector, passes, scanners, filter pipeline, obs
//! registry and (optional) spill directory — and exposes the campaign as
//! a sequence of [`round`](StudySession::round) calls plus a final
//! [`finish`](StudySession::finish), or all at once through
//! [`run`](StudySession::run). The multi-tenant [`StudyService`] runs
//! many of them concurrently, each streaming a [`RoundProgress`] per
//! round over a bounded channel.
//!
//! Every round takes one path whatever the configuration: the collector
//! (full or delta, chosen once at construction) collects into memory or
//! the spill directory, and the classification cache feeds the snapshot
//! passes. Reports, snapshots and obs JSON are byte-identical across
//! collection modes, spill settings and worker counts — the differential
//! tests pin that down.
//!
//! [`StudyService`]: crate::service::StudyService

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use remnant_engine::{EngineConfig, ScanEngine, SweepStats, WorkerPool};
use remnant_obs::{Obs, ObsReport, ProgressSender, Span};
use remnant_provider::ProviderId;
use remnant_world::World;

use crate::classify::ShardClassCache;
use crate::collector::{Collector, Target};
use crate::passes::SnapshotPasses;
use crate::residual::{
    CloudflareScanner, ExposureTracker, FilterPipeline, IncapsulaScanner, WeeklyScanReport,
    CLOUDFLARE_NS_FINGERPRINT, INCAPSULA_CNAME_FINGERPRINT,
};
use crate::study::{CollectionMode, CollectionReport, StudyConfig, StudyReport};
use crate::unchanged::{self, UnchangedStudy};
use crate::SCANNER_SOURCE;

/// One round's progress event, streamed while a session runs.
///
/// Carries the session's cumulative [`CollectionReport`] and a full
/// [`ObsReport`] snapshot — the same payloads the final [`StudyReport`]
/// exposes, taken mid-flight — so a consumer can render live counters
/// without touching the session. Every field is deterministic: the
/// payload is built purely from session state on virtual time.
#[derive(Clone, Debug)]
pub struct RoundProgress {
    /// The emitting session's id (its index in a service batch; 0 for a
    /// solo run).
    pub session: usize,
    /// 0-based day index of the finished round.
    pub day: u32,
    /// Total rounds this session will run.
    pub days_total: u32,
    /// Sites in the session's target list.
    pub sites: usize,
    /// DNS queries the round's collection sweep issued.
    pub round_queries: u64,
    /// The week number, when this round also ran the weekly residual
    /// scans.
    pub scanned_week: Option<u32>,
    /// Cumulative collection/reuse accounting after this round.
    pub collection: CollectionReport,
    /// The session's observability snapshot after this round.
    pub obs: ObsReport,
}

/// A summary of one executed round, before any progress payload is built.
#[derive(Clone, Copy, Debug)]
pub struct RoundSummary {
    /// 0-based day index of the finished round.
    pub day: u32,
    /// DNS queries the round's collection sweep issued.
    pub round_queries: u64,
    /// The week number, when this round also ran the weekly scans.
    pub scanned_week: Option<u32>,
}

/// One campaign's full mutable state (see module docs).
#[derive(Debug)]
pub struct StudySession {
    id: usize,
    config: StudyConfig,
    engine: ScanEngine,
    targets: Vec<Target>,
    days: u32,
    day: u32,
    jitter: StdRng,
    collector: Collector,
    passes: SnapshotPasses,
    class_cache: ShardClassCache,
    unchanged: UnchangedStudy,
    cf_scanner: CloudflareScanner,
    inc_scanner: IncapsulaScanner,
    pipeline: FilterPipeline,
    obs: Obs,
    study_span: Option<Span>,
    exposed_cf: BTreeSet<usize>,
    exposed_inc: BTreeSet<usize>,
    report: StudyReport,
    prev_snapshot: Option<crate::DnsSnapshot>,
}

impl StudySession {
    /// Opens a session for `config` against `world`, reading the target
    /// list and clock from the world's current state.
    pub fn new(config: StudyConfig, world: &World) -> Self {
        let engine = ScanEngine::new(Self::engine_config(&config));
        Self::with_engine(config, world, engine)
    }

    /// Like [`new`](StudySession::new), but the session's sweeps draw
    /// their threads from `pool` — the shared budget of a multi-tenant
    /// service — instead of unconditionally spawning `config.workers`.
    pub fn with_worker_pool(config: StudyConfig, world: &World, pool: Arc<WorkerPool>) -> Self {
        let engine = ScanEngine::with_pool(Self::engine_config(&config), pool);
        Self::with_engine(config, world, engine)
    }

    fn engine_config(config: &StudyConfig) -> EngineConfig {
        let workers = config.workers.clamp(1, EngineConfig::MAX_WORKERS);
        EngineConfig::with_workers(workers, config.seed)
            .expect("clamped worker count is always valid")
    }

    fn with_engine(config: StudyConfig, world: &World, engine: ScanEngine) -> Self {
        let targets: Vec<Target> = world
            .sites()
            .iter()
            .map(|s| (s.apex.clone(), s.www.clone()))
            .collect();
        let days = config.weeks * 7;
        let jitter = StdRng::seed_from_u64(config.seed);
        let collector = match config.collection_mode {
            CollectionMode::Full => Collector::full(world.clock(), config.collector_region),
            CollectionMode::Delta => {
                Collector::delta(world.clock(), config.collector_region, config.seed)
            }
        };
        let passes = SnapshotPasses::new(targets.len());
        let unchanged = UnchangedStudy::new(SCANNER_SOURCE);
        let cf_scanner = CloudflareScanner::new(world.clock(), CLOUDFLARE_NS_FINGERPRINT);
        let inc_scanner = IncapsulaScanner::new(world.clock(), INCAPSULA_CNAME_FINGERPRINT);
        let pipeline = FilterPipeline::new(world.clock(), config.collector_region, SCANNER_SOURCE);

        let mut obs = Obs::new(world.clock());
        obs.event(
            "study.start",
            format!("{} sites over {} weeks", targets.len(), config.weeks),
        );
        let study_span = Span::enter(&obs, "study.run");

        let mut report = StudyReport::default();
        report.collection.mode = config.collection_mode;

        StudySession {
            id: 0,
            config,
            engine,
            targets,
            days,
            day: 0,
            jitter,
            collector,
            passes,
            class_cache: ShardClassCache::new(),
            unchanged,
            cf_scanner,
            inc_scanner,
            pipeline,
            obs,
            study_span: Some(study_span),
            exposed_cf: BTreeSet::new(),
            exposed_inc: BTreeSet::new(),
            report,
            prev_snapshot: None,
        }
    }

    /// Tags this session with an id (its index in a service batch); the
    /// id rides along in every [`RoundProgress`].
    pub fn with_id(mut self, id: usize) -> Self {
        self.id = id;
        self
    }

    /// The session's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The session's configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Total rounds this session will run.
    pub fn days_total(&self) -> u32 {
        self.days
    }

    /// Whether every round has run.
    pub fn is_done(&self) -> bool {
        self.day >= self.days
    }

    /// Executes the next daily round against `world`: collection, the
    /// snapshot passes, the unchanged study, harvesting, the weekly
    /// residual scans (on week boundaries), and the 20–30h step to the
    /// next experiment. Returns `None` once the campaign is complete.
    ///
    /// `on_snapshot` observes the round's [`crate::DnsSnapshot`] right
    /// after collection (byte-equivalence tests hook here); it must not
    /// mutate study state.
    ///
    /// # Panics
    ///
    /// Panics if a spill round's file cannot be written mid-campaign —
    /// callers validate the spill directory up front, and a disk that
    /// fills or vanishes afterwards is not a recoverable study state.
    pub fn round(
        &mut self,
        world: &mut World,
        on_snapshot: &mut dyn FnMut(&crate::DnsSnapshot),
    ) -> Option<RoundSummary> {
        if self.is_done() {
            return None;
        }
        let day = self.day;
        let day_span = Span::enter(&self.obs, "study.day");
        self.obs
            .event("sweep.start", format!("day {day}: daily collection round"));
        let (snapshot, sweep, tally) = self
            .collector
            .collect(
                &self.engine,
                &*world,
                &self.targets,
                day,
                self.config.spill.as_ref(),
            )
            .unwrap_or_else(|e| panic!("day {day} spill round failed: {e}"));
        self.report.collection.absorb(&tally);
        on_snapshot(&snapshot);
        let round_queries = sweep.queries();
        self.obs.metrics.merge_from(&sweep.merged_metrics());
        self.obs.event(
            "sweep.finish",
            format!(
                "day {day}: {} queries over {} shards",
                sweep.queries(),
                sweep.shards.len()
            ),
        );
        self.report.engine.absorb(&sweep);

        // The snapshot-derived passes — adoption (Fig 2 / Fig 6),
        // behaviors (Fig 3), FSM validation (Fig 4), pause windows
        // (Fig 5) — run as one shared fold, the same fold the
        // remnant-query crate replays over persisted rounds. Its columns
        // were derived when each block was collected and ride along with
        // the block; the class cache only counts which blocks a delta
        // round replayed (under full collection every block is new).
        let columns =
            self.class_cache
                .classify_snapshot(&self.engine, self.passes.detector(), &snapshot);
        let behaviors = self.passes.observe_columns(
            day,
            snapshot.taken_at,
            columns.classes,
            &columns.multi_cdn_ranks,
        );

        // The unchanged study (Table V) is the one behavior consumer
        // that needs a live transport: candidate extraction is pure,
        // the verification fetch is not.
        if let Some(prev_snap) = &self.prev_snapshot {
            let candidates = unchanged::candidates(&self.targets, &behaviors, prev_snap, &snapshot);
            let now = world.now();
            self.unchanged.observe_candidates(world, now, &candidates);
        }

        // Residual-resolution harvesting runs daily, scans weekly; the
        // harvests fold the blocks' carried candidates.
        self.cf_scanner.harvest_fleet(world, &snapshot);
        self.inc_scanner.harvest(&snapshot);
        let scanned_week = day.is_multiple_of(7).then(|| {
            let week = day / 7;
            self.scan_week(world, week);
            week
        });

        self.prev_snapshot = Some(snapshot);

        // Advance to the next experiment.
        let interval = if self.config.uneven_intervals {
            self.jitter.gen_range(20..=30)
        } else {
            24
        };
        world.step_hours(interval);
        day_span.exit(&mut self.obs);
        self.day += 1;
        Some(RoundSummary {
            day,
            round_queries,
            scanned_week,
        })
    }

    /// The weekly residual-resolution scans (Sec V) for `week`.
    fn scan_week(&mut self, world: &mut World, week: u32) {
        self.obs
            .event("scan.start", format!("week {week}: residual scans"));
        let (raw, sweep) = self
            .cf_scanner
            .scan_with(&self.engine, world, &self.targets, week);
        self.absorb_scan_sweep(&sweep, week);
        let weekly = self
            .pipeline
            .run(world, ProviderId::Cloudflare, week, &raw, &self.targets);
        note_filter_verdict(&mut self.obs, &weekly);
        note_exposure_windows(&mut self.obs, &weekly, &mut self.exposed_cf);
        self.report.residual.cloudflare.weekly.push(weekly);

        let (raw, sweep) = self.inc_scanner.scan_with(&self.engine, world);
        self.absorb_scan_sweep(&sweep, week);
        let weekly = self
            .pipeline
            .run(world, ProviderId::Incapsula, week, &raw, &self.targets);
        note_filter_verdict(&mut self.obs, &weekly);
        note_exposure_windows(&mut self.obs, &weekly, &mut self.exposed_inc);
        self.report.residual.incapsula.weekly.push(weekly);
    }

    fn absorb_scan_sweep(&mut self, sweep: &SweepStats, week: u32) {
        self.obs.metrics.merge_from(&sweep.merged_metrics());
        self.report.engine.absorb(sweep);
        self.obs.event(
            "cache.purge",
            format!("week {week}: pipeline resolver purged before A-matching"),
        );
    }

    /// Builds the streaming payload for a finished round: the summary
    /// plus cumulative collection accounting and a full obs snapshot.
    pub fn progress(&self, summary: RoundSummary) -> RoundProgress {
        RoundProgress {
            session: self.id,
            day: summary.day,
            days_total: self.days,
            sites: self.targets.len(),
            round_queries: summary.round_queries,
            scanned_week: summary.scanned_week,
            collection: self.report.collection.clone(),
            obs: self.obs.report(),
        }
    }

    /// Finalizes the campaign and returns its [`StudyReport`]. Call after
    /// [`round`](StudySession::round) returns `None`; calling earlier
    /// reports whatever the executed rounds accumulated.
    pub fn finish(mut self) -> StudyReport {
        let aggregates = self.passes.finish();
        self.report.adoption = aggregates.adoption;
        self.report.behaviors = aggregates.behaviors;
        self.report.pauses = aggregates.pauses;

        self.report.unchanged.rows = self.unchanged.rows();
        self.report.unchanged.total = self.unchanged.total();

        self.report.residual.cloudflare.exposure =
            ExposureTracker::fold(&self.report.residual.cloudflare.weekly);
        self.report.residual.incapsula.exposure =
            ExposureTracker::fold(&self.report.residual.incapsula.weekly);
        self.report.residual.fleet_size = self.cf_scanner.fleet_size();
        self.report.residual.harvested_tokens = self.inc_scanner.harvested_count();
        self.report.engine.workers = self.config.workers.max(1);

        if let Some(span) = self.study_span.take() {
            span.exit(&mut self.obs);
        }
        self.obs.event(
            "study.finish",
            format!("{} collection rounds", self.collector.rounds()),
        );
        self.obs.absorb(&self.report.engine);
        self.obs.absorb(&self.cf_scanner);
        self.obs.absorb(&self.inc_scanner);
        self.obs.metrics.merge_from(&self.pipeline.metrics());
        self.report.obs = self.obs.report();
        self.report
    }

    /// Drives the whole campaign: every round, then
    /// [`finish`](StudySession::finish). When `progress` is set, a
    /// [`RoundProgress`] is streamed per round over the bounded channel
    /// (blocking on a slow consumer, surviving a dropped one).
    pub fn run(
        mut self,
        world: &mut World,
        on_snapshot: &mut dyn FnMut(&crate::DnsSnapshot),
        progress: Option<&ProgressSender<RoundProgress>>,
    ) -> StudyReport {
        while let Some(summary) = self.round(world, on_snapshot) {
            if let Some(sender) = progress {
                sender.send(self.progress(summary));
            }
        }
        self.finish()
    }
}

/// Journals one weekly pipeline pass's funnel attrition.
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

/// Journals exposure-window transitions: a site opens a window the first
/// week its hidden origin verifies, and closes it the first week it no
/// longer does.
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

#[cfg(test)]
mod tests {
    use super::*;
    use remnant_world::WorldConfig;

    fn world(seed: u64) -> World {
        World::generate(WorldConfig {
            population: 800,
            seed,
            warmup_days: 3,
            calibration: remnant_world::Calibration::paper(),
        })
    }

    fn config() -> StudyConfig {
        StudyConfig::builder().weeks(1).build().unwrap()
    }

    #[test]
    fn incremental_rounds_match_the_monolithic_driver() {
        // The session API round by round and `run` (one call) produce
        // byte-identical reports and snapshot streams.
        let mut w1 = world(17);
        let mut w2 = world(17);

        let mut mono_snaps = String::new();
        let mono = StudySession::new(config(), &w1).run(
            &mut w1,
            &mut |s| mono_snaps.push_str(&s.encode()),
            None,
        );

        let mut session = StudySession::new(config(), &w2);
        let mut inc_snaps = String::new();
        let mut on_snapshot = |s: &crate::DnsSnapshot| inc_snaps.push_str(&s.encode());
        let mut summaries = Vec::new();
        while let Some(summary) = session.round(&mut w2, &mut on_snapshot) {
            summaries.push(summary);
        }
        let inc = session.finish();

        assert_eq!(mono_snaps, inc_snaps);
        assert_eq!(mono.obs().to_json(), inc.obs().to_json());
        assert_eq!(mono.adoption(), inc.adoption());
        assert_eq!(summaries.len(), 7);
        assert_eq!(summaries[0].scanned_week, Some(0));
        assert!(summaries[1..].iter().all(|s| s.scanned_week.is_none()));
    }

    #[test]
    fn progress_stream_carries_cumulative_state() {
        let mut w = world(9);
        let session = StudySession::new(config(), &w).with_id(3);
        let (tx, rx) = remnant_obs::progress_channel(16);
        let report = session.run(&mut w, &mut |_| {}, Some(&tx));
        drop(tx);
        let events: Vec<RoundProgress> = rx.iter().collect();
        assert_eq!(events.len(), 7);
        for (day, event) in events.iter().enumerate() {
            assert_eq!(event.session, 3);
            assert_eq!(event.day, day as u32);
            assert_eq!(event.days_total, 7);
            assert_eq!(event.sites, 800);
            assert!(event.round_queries > 0);
            assert_eq!(event.collection.rounds, day as u64 + 1);
        }
        // The final round's obs snapshot carries the merged per-shard
        // telemetry (the report then adds finalization counters on top).
        let last = events.last().unwrap();
        let resolver_a = |obs: &ObsReport| {
            obs.counter(
                "resolver.queries",
                &[("component", "dns.resolver"), ("qtype", "A")],
            )
        };
        assert!(resolver_a(&last.obs) > 0, "mid-flight telemetry present");
        assert_eq!(resolver_a(&last.obs), resolver_a(report.obs()));
        assert_eq!(report.collection().rounds, 7);
    }

    #[test]
    fn an_oversized_literal_worker_count_is_clamped_not_a_panic() {
        // `validate` rejects this config; a session opened from it anyway
        // clamps the workers to the engine's bound instead of panicking.
        let config = StudyConfig {
            workers: 2048,
            ..StudyConfig::default()
        };
        let session = StudySession::new(config, &world(5));
        assert_eq!(session.config().workers, 2048);
        assert_eq!(session.engine.config().workers, EngineConfig::MAX_WORKERS);
    }
}
