//! The study's configuration and reports: both of the paper's
//! measurement campaigns on one timeline.
//!
//! A [`StudySession`](crate::StudySession) driven by a [`StudyConfig`] reproduces the authors'
//! schedule: daily A/CNAME/NS collection over the whole target list for N
//! weeks (with the 20–30 hour uneven intervals of Sec IV-B.3,
//! optionally), adoption classification,
//! behavior diffing, pause tracking and the unchanged study along the way,
//! plus a weekly residual-resolution scan of Cloudflare's fleet and the
//! harvested Incapsula tokens. The returned [`StudyReport`] contains the
//! data behind every table and figure of the evaluation.

use std::time::Duration;

use remnant_engine::{EngineConfig, SweepStats};
use remnant_net::Region;
use remnant_obs::{Instrumented, MetricKey, ObsReport, TRANSPORT_SENT};
use remnant_provider::ProviderId;
use remnant_sim::stats::{Ecdf, Series};
use remnant_world::{BehaviorKind, World};

use crate::collector::DeltaRound;
use crate::error::ConfigFieldError;
use crate::residual::{ExposureTracker, WeeklyScanReport};
use crate::spill::SpillConfig;
use crate::unchanged::UnchangedTally;

/// How the daily collection rounds resolve the target list.
///
/// Both modes produce byte-identical snapshots, study reports, and
/// observability output; [`Delta`](CollectionMode::Delta) just skips the
/// resolution work for shards whose zone generations did not change since
/// the previous round, replaying their cached outputs instead. The
/// full-vs-delta equivalence test pins the guarantee down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CollectionMode {
    /// Re-resolve every site every round (the paper's literal procedure).
    #[default]
    Full,
    /// Re-resolve only shards whose zone generations changed, plus a
    /// deterministic refresh stratum; reuse the rest via structural
    /// sharing.
    Delta,
}

impl CollectionMode {
    /// Stable lowercase name (`"full"` / `"delta"`), as accepted by the
    /// `repro` CLI's `--collection` flag.
    pub fn name(&self) -> &'static str {
        match self {
            CollectionMode::Full => "full",
            CollectionMode::Delta => "delta",
        }
    }
}

/// Study parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StudyConfig {
    /// Measurement length in weeks (the paper: 6).
    pub weeks: u32,
    /// Use uneven 20–30h intervals between daily experiments (the paper's
    /// actual cadence) instead of exact 24h.
    pub uneven_intervals: bool,
    /// Where the collector resolves from (the paper: us-east-1).
    pub collector_region: Region,
    /// Seed for interval jitter.
    pub seed: u64,
    /// Worker threads for the sharded sweeps (collection rounds and weekly
    /// scans), `1..=`[`EngineConfig::MAX_WORKERS`]. The report is
    /// bit-identical for every value; only wall time changes.
    pub workers: usize,
    /// How daily rounds resolve the target list. The report is
    /// bit-identical for both modes; only wall time changes.
    pub collection_mode: CollectionMode,
    /// When set, collection rounds stream to disk and stay memory-bounded
    /// (see [`crate::spill`]): snapshots hold frame references instead of
    /// resident blocks, and only `resident_shards` shards are in memory at
    /// once. The report is bit-identical with or without spill; only the
    /// peak RSS changes.
    pub spill: Option<SpillConfig>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            weeks: 6,
            uneven_intervals: true,
            collector_region: Region::Ashburn,
            seed: 42,
            workers: 1,
            collection_mode: CollectionMode::Full,
            spill: None,
        }
    }
}

impl StudyConfig {
    /// A builder starting from the defaults, with validated setters.
    ///
    /// The struct-literal path stays open — `StudyConfig { weeks: 2,
    /// ..StudyConfig::default() }` still compiles, and
    /// [`validate`](StudyConfig::validate) checks it — but the builder
    /// names the offending field, value, and reason when a combination is
    /// rejected, like the `repro` CLI's bad-flag errors.
    ///
    /// ```
    /// use remnant_core::study::StudyConfig;
    ///
    /// let config = StudyConfig::builder().weeks(2).workers(8).build()?;
    /// assert_eq!(config.weeks, 2);
    /// let err = StudyConfig::builder().weeks(0).build().unwrap_err();
    /// assert_eq!(err.field, "weeks");
    /// # Ok::<(), remnant_core::error::ConfigFieldError>(())
    /// ```
    pub fn builder() -> StudyConfigBuilder {
        StudyConfigBuilder {
            config: StudyConfig::default(),
        }
    }

    /// Validates every field, naming the first rejected one — the check
    /// [`StudyConfigBuilder::build`] applies, callable on a config
    /// written as a literal. The worker bounds are the engine's own
    /// ([`EngineConfig::validate`]).
    pub fn validate(&self) -> Result<(), ConfigFieldError> {
        if self.weeks == 0 {
            return Err(ConfigFieldError::new(
                "weeks",
                self.weeks,
                "a study needs at least one week",
            ));
        }
        if self.weeks > 52 {
            return Err(ConfigFieldError::new(
                "weeks",
                self.weeks,
                "more than a year of weekly scans is outside the modeled range",
            ));
        }
        EngineConfig {
            workers: self.workers,
            ..EngineConfig::default()
        }
        .validate()?;
        if let Some(spill) = &self.spill {
            if spill.resident_shards == 0 {
                return Err(ConfigFieldError::new(
                    "spill.resident_shards",
                    spill.resident_shards,
                    "at least one shard must stay resident while spilling",
                ));
            }
        }
        Ok(())
    }
}

/// Builder for [`StudyConfig`] — see [`StudyConfig::builder`].
#[derive(Clone, Debug)]
pub struct StudyConfigBuilder {
    config: StudyConfig,
}

impl StudyConfigBuilder {
    /// Measurement length in weeks.
    pub fn weeks(mut self, weeks: u32) -> Self {
        self.config.weeks = weeks;
        self
    }

    /// Use the paper's uneven 20–30h intervals (`true`, the default) or
    /// exact 24h rounds (`false`).
    pub fn uneven_intervals(mut self, uneven: bool) -> Self {
        self.config.uneven_intervals = uneven;
        self
    }

    /// Where the collector resolves from.
    pub fn collector_region(mut self, region: Region) -> Self {
        self.config.collector_region = region;
        self
    }

    /// Seed for interval jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Worker threads for the sharded sweeps.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// How daily rounds resolve the target list.
    pub fn collection_mode(mut self, mode: CollectionMode) -> Self {
        self.config.collection_mode = mode;
        self
    }

    /// Stream collection rounds to disk under `spill` (memory-bounded
    /// collection; see [`crate::spill`]).
    pub fn spill(mut self, spill: SpillConfig) -> Self {
        self.config.spill = Some(spill);
        self
    }

    /// Validates and returns the configuration, naming the first rejected
    /// field on failure.
    pub fn build(self) -> Result<StudyConfig, ConfigFieldError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Fig 2 / Fig 6 data: adoption averaged over daily observations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdoptionReport {
    /// Sites observed.
    pub total_sites: usize,
    /// Daily observations taken.
    pub days_observed: u32,
    /// Average daily count of adopted (ON or OFF) sites per provider.
    pub avg_by_provider: Vec<(ProviderId, f64)>,
    /// Average overall adoption rate (paper: 14.85%).
    pub overall_rate: f64,
    /// Average adoption rate in the top 1% band (paper: 38.98% of top 10k).
    pub top_band_rate: f64,
    /// Adoption rate on the first day.
    pub first_day_rate: f64,
    /// Adoption rate on the last day (paper: +1.17% over six weeks).
    pub last_day_rate: f64,
    /// Among ON Cloudflare customers: share using NS-based rerouting
    /// (paper: 89.95%).
    pub cloudflare_ns_share: f64,
    /// Among ON Cloudflare customers: share using CNAME-based rerouting
    /// (paper: 10.05%).
    pub cloudflare_cname_share: f64,
}

/// Fig 3 / Fig 4 data.
#[derive(Clone, Debug, Default)]
pub struct BehaviorReport {
    /// Daily observed counts per behavior (x = day index).
    pub series: Vec<(BehaviorKind, Series)>,
    /// Hours between consecutive experiments, recovered from consecutive
    /// snapshots' `taken_at` instants (rounds − 1 entries), so a replay
    /// from persisted rounds reconstructs the same values.
    pub interval_hours: Vec<u64>,
    /// Observed behaviors that violated the Fig 4 FSM (expected 0).
    pub fsm_violations: usize,
    /// Sites excluded from behavior identification because their records
    /// showed a multi-CDN front-end (Sec IV-B.3).
    pub multi_cdn_excluded: usize,
}

impl BehaviorReport {
    /// Average observed events per day for `kind`.
    pub fn daily_average(&self, kind: BehaviorKind) -> f64 {
        self.series
            .iter()
            .find(|(k, _)| *k == kind)
            .and_then(|(_, s)| s.mean_y())
            .unwrap_or(0.0)
    }
}

/// Fig 5 data.
#[derive(Clone, Debug, Default)]
pub struct PauseReport {
    /// Every completed pause window, in days.
    pub overall: Ecdf,
    /// Pause→resume at Cloudflare.
    pub cloudflare: Ecdf,
    /// Pause→resume at Incapsula.
    pub incapsula: Ecdf,
}

/// Table V data.
#[derive(Clone, Debug, Default)]
pub struct UnchangedReport {
    /// `(provider, events, unchanged, rate)` rows.
    pub rows: Vec<(ProviderId, u64, u64, f64)>,
    /// The Total row.
    pub total: UnchangedTally,
}

/// Table VI / Fig 8 / Fig 9 data for one scanned provider.
#[derive(Clone, Debug, Default)]
pub struct ProviderResidualReport {
    /// The weekly pipeline outputs (Fig 8 funnel lives in each).
    pub weekly: Vec<WeeklyScanReport>,
    /// Cross-week aggregation (Table VI totals, Fig 9 cohorts).
    pub exposure: ExposureTracker,
}

/// Sec V data.
#[derive(Clone, Debug, Default)]
pub struct ResidualReport {
    /// Cloudflare case study (Sec V-A).
    pub cloudflare: ProviderResidualReport,
    /// Incapsula case study (Sec V-B).
    pub incapsula: ProviderResidualReport,
    /// Nameservers harvested for the direct scan (paper: 391).
    pub fleet_size: usize,
    /// Incapsula CNAME tokens harvested.
    pub harvested_tokens: usize,
}

/// Scan-engine instrumentation aggregated over every sweep of the study.
///
/// All counters except the wall times are deterministic — identical for
/// every worker count — and the wall times are deliberately kept out of
/// the rendered report so `--workers N` never perturbs study output.
#[derive(Clone, Debug, Default)]
pub struct EngineReport {
    /// Worker threads the sweeps ran on.
    pub workers: usize,
    /// Sweeps executed (daily collection rounds plus weekly scans).
    pub sweeps: u64,
    /// Shards executed across all sweeps.
    pub shards: u64,
    /// DNS queries sent by sweep tasks. A delta round's replayed shards
    /// count the queries recorded when they were last resolved, so this
    /// equals the full-mode count.
    pub queries: u64,
    /// Task calls: equal to the items swept, since each runs once. This
    /// and the two fixed-zero fields below go with the benchmark
    /// harness's session mirror (see ROADMAP.md).
    pub attempts: u64,
    /// Always 0: the engine has no retry protocol.
    pub retries: u64,
    /// Always 0: the engine has no retry budget to exhaust.
    pub exhausted: u64,
    /// Resolver-cache hits reported by sweep tasks (deterministic; kept
    /// out of rendered output, like the other engine counters).
    pub cache_hits: u64,
    /// Resolver-cache misses reported by sweep tasks.
    pub cache_misses: u64,
    /// Total real time spent inside sweeps (nondeterministic).
    pub wall: Duration,
    /// The slowest single shard observed (nondeterministic).
    pub max_shard_wall: Duration,
}

impl EngineReport {
    /// Folds one sweep's statistics into the aggregate.
    pub fn absorb(&mut self, stats: &SweepStats) {
        self.sweeps += 1;
        self.shards += stats.shards.len() as u64;
        self.queries += stats.queries();
        self.attempts += stats.attempts();
        self.retries += stats.retries();
        self.exhausted += stats.exhausted();
        self.cache_hits += stats.cache_hits();
        self.cache_misses += stats.cache_misses();
        self.wall += stats.wall;
        self.max_shard_wall = self.max_shard_wall.max(stats.max_shard_wall());
    }
}

impl Instrumented for EngineReport {
    fn component(&self) -> &'static str {
        "engine.report"
    }

    /// Deterministic counters only: the worker count and wall times stay
    /// out so an [`ObsReport`] never varies with `--workers N`.
    fn counters(&self) -> Vec<(MetricKey, u64)> {
        vec![
            (MetricKey::named("sweep.count"), self.sweeps),
            (MetricKey::named("sweep.shards"), self.shards),
            (MetricKey::named(TRANSPORT_SENT), self.queries),
            (MetricKey::named("sweep.attempts"), self.attempts),
            (MetricKey::named("sweep.retries"), self.retries),
            (MetricKey::named("sweep.exhausted"), self.exhausted),
            (MetricKey::named("cache.hits"), self.cache_hits),
            (MetricKey::named("cache.misses"), self.cache_misses),
        ]
    }
}

/// How the daily collection rounds spent their resolution budget.
///
/// In [`CollectionMode::Full`] every site counts as re-resolved. In
/// [`CollectionMode::Delta`] the reuse counters show the savings. These
/// numbers necessarily differ between the two modes, so — unlike
/// [`EngineReport`] — they are **never** absorbed into the study's
/// [`ObsReport`]: the report must stay byte-identical across modes. Read
/// them here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CollectionReport {
    /// The mode the rounds ran in.
    pub mode: CollectionMode,
    /// Daily rounds executed.
    pub rounds: u64,
    /// Sites whose previous-round records were replayed without
    /// resolution (always 0 in full mode).
    pub reused: u64,
    /// Sites re-resolved (in full mode: every site every round).
    pub reresolved: u64,
    /// Of the re-resolved sites, how many ran only because their shard
    /// fell into the round's refresh stratum.
    pub refresh_stratum: u64,
}

impl CollectionReport {
    /// Folds one round's counters into the aggregate (a full round
    /// re-resolves every site).
    pub(crate) fn absorb(&mut self, round: &DeltaRound) {
        self.rounds += 1;
        self.reused += round.reused;
        self.reresolved += round.reresolved;
        self.refresh_stratum += round.refresh_stratum;
    }

    /// Fraction of site-rounds served from the previous round's records.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.reused + self.reresolved;
        if total == 0 {
            0.0
        } else {
            self.reused as f64 / total as f64
        }
    }
}

/// Everything the evaluation section reports.
///
/// Consumers read the sub-reports through the typed accessors below
/// ([`adoption`](StudyReport::adoption), [`residual`](StudyReport::residual),
/// …), which return borrowed views — the same convention the
/// [`Instrumented`] trait uses for counters. The fields themselves are
/// crate-internal: the study driver and the query layer's equivalence
/// tests fill them in, everyone else only reads.
#[derive(Clone, Debug, Default)]
pub struct StudyReport {
    /// Fig 2 / Fig 6.
    pub(crate) adoption: AdoptionReport,
    /// Fig 3 / Fig 4.
    pub(crate) behaviors: BehaviorReport,
    /// Fig 5.
    pub(crate) pauses: PauseReport,
    /// Table V.
    pub(crate) unchanged: UnchangedReport,
    /// Table VI, Fig 8, Fig 9.
    pub(crate) residual: ResidualReport,
    /// Sweep-engine counters.
    pub(crate) engine: EngineReport,
    /// Collection-mode reuse accounting.
    pub(crate) collection: CollectionReport,
    /// The deterministic observability snapshot.
    pub(crate) obs: ObsReport,
}

impl StudyReport {
    /// Fig 2 / Fig 6: adoption averaged over daily observations.
    pub fn adoption(&self) -> &AdoptionReport {
        &self.adoption
    }

    /// Fig 3 / Fig 4: behavior series, intervals and FSM validation.
    pub fn behaviors(&self) -> &BehaviorReport {
        &self.behaviors
    }

    /// Fig 5: pause-window ECDFs.
    pub fn pauses(&self) -> &PauseReport {
        &self.pauses
    }

    /// Table V: the unchanged-origin tallies.
    pub fn unchanged(&self) -> &UnchangedReport {
        &self.unchanged
    }

    /// Table VI, Fig 8, Fig 9: the residual-resolution case studies.
    pub fn residual(&self) -> &ResidualReport {
        &self.residual
    }

    /// Sweep-engine counters (not part of any paper figure; excluded from
    /// rendered output because its wall times vary run to run).
    pub fn engine(&self) -> &EngineReport {
        &self.engine
    }

    /// Collection-mode reuse accounting (not part of any paper figure;
    /// kept out of [`obs`](StudyReport::obs) because it differs between
    /// modes by design).
    pub fn collection(&self) -> &CollectionReport {
        &self.collection
    }

    /// The deterministic observability snapshot: every counter, histogram
    /// and journal event recorded during the run, on virtual time only —
    /// byte-identical JSON for every worker count.
    pub fn obs(&self) -> &ObsReport {
        &self.obs
    }
}

/// Fig 7: which provider PoP each vantage point lands on when querying the
/// provider's first fleet nameserver.
pub fn vantage_catchment(world: &World, provider: ProviderId) -> Vec<(Region, String)> {
    let dps = world.provider(provider);
    let Some(ns) = dps.ns_addresses().first().copied() else {
        return Vec::new();
    };
    Region::VANTAGE_POINTS
        .iter()
        .map(|region| {
            let pop = dps
                .pop_for(ns, *region)
                .map(|p| p.to_string())
                .unwrap_or_else(|| "unreachable".to_owned());
            (*region, pop)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StudySession;
    use remnant_world::WorldConfig;

    fn run_study(population: usize, weeks: u32, seed: u64) -> StudyReport {
        let mut world = World::generate(WorldConfig {
            population,
            seed,
            warmup_days: 10,
            calibration: remnant_world::Calibration::paper(),
        });
        let config = StudyConfig {
            weeks,
            ..StudyConfig::default()
        };
        StudySession::new(config, &world).run(&mut world, &mut |_| {})
    }

    #[test]
    fn two_week_study_produces_consistent_report() {
        let report = run_study(3_000, 2, 3);
        assert_eq!(report.adoption.total_sites, 3_000);
        assert_eq!(report.adoption.days_observed, 14);
        assert!((report.adoption.overall_rate - 0.1485).abs() < 0.05);
        assert!(report.adoption.top_band_rate > report.adoption.overall_rate);
        // Cloudflare dominates and mostly via NS rerouting.
        let cf = report.adoption.avg_by_provider[ProviderId::Cloudflare.index()].1;
        let total: f64 = report.adoption.avg_by_provider.iter().map(|(_, n)| n).sum();
        assert!(cf / total > 0.7);
        assert!(report.adoption.cloudflare_ns_share > 0.8);
        // Series lengths: days-1 diffs.
        for (_, series) in &report.behaviors.series {
            assert_eq!(series.len(), 13);
        }
        assert_eq!(report.behaviors.fsm_violations, 0, "Fig 4 holds");
        // Residual scans ran twice (day 0 and day 7).
        assert_eq!(report.residual.cloudflare.weekly.len(), 2);
        assert_eq!(report.residual.incapsula.weekly.len(), 2);
        assert!(report.residual.fleet_size > 0);
        // Rounds − 1 between-experiment intervals, each in the paper's
        // 20–30h jitter band, recovered from the snapshots' timestamps.
        assert_eq!(report.behaviors.interval_hours.len(), 13);
        assert!(report
            .behaviors
            .interval_hours
            .iter()
            .all(|h| (20..=30).contains(h)));

        // The observability snapshot carries the study's telemetry.
        let obs = &report.obs;
        assert_eq!(
            obs.counter("sweep.count", &[("component", "engine.report")]),
            report.engine.sweeps
        );
        let last = report.residual.cloudflare.weekly.last().unwrap();
        assert_eq!(
            obs.counter(
                "filter.retrieved",
                &[("provider", "Cloudflare"), ("week", "1")]
            ),
            last.retrieved as u64
        );
        assert!(
            obs.counter(
                "resolver.queries",
                &[("component", "dns.resolver"), ("qtype", "A")]
            ) > 0,
            "per-shard resolver telemetry merged in"
        );
        let kinds: std::collections::BTreeSet<&str> = obs.events.iter().map(|e| e.kind).collect();
        for kind in [
            "study.start",
            "sweep.start",
            "sweep.finish",
            "scan.start",
            "cache.purge",
            "filter.verdict",
            "study.finish",
        ] {
            assert!(kinds.contains(kind), "journal records {kind}");
        }
        // 14 day spans timed on virtual hours (20-30h each).
        let spans = obs
            .histograms
            .iter()
            .find(|(k, _)| k.name == "span_seconds" && k.label("span") == Some("study.day"))
            .map(|(_, h)| h)
            .expect("day spans recorded");
        assert_eq!(spans.count(), 14);
        assert!(spans.sum() >= 14 * 20 * 3_600);
    }

    #[test]
    fn delta_mode_matches_full_mode_byte_for_byte() {
        let world_config = WorldConfig {
            population: 1_200,
            seed: 21,
            warmup_days: 5,
            calibration: remnant_world::Calibration::paper(),
        };
        let study = |mode: CollectionMode| {
            let mut world = World::generate(world_config.clone());
            let config = StudyConfig::builder()
                .weeks(2)
                .workers(2)
                .collection_mode(mode)
                .build()
                .unwrap();
            let mut snapshots = String::new();
            let report = StudySession::new(config, &world).run(&mut world, &mut |snapshot| {
                snapshots.push_str(&snapshot.encode())
            });
            (report, snapshots)
        };
        let (full, full_snaps) = study(CollectionMode::Full);
        let (delta, delta_snaps) = study(CollectionMode::Delta);

        // The hard guarantee: identical snapshots and identical telemetry.
        assert_eq!(full_snaps, delta_snaps);
        assert_eq!(full.obs.to_json(), delta.obs.to_json());
        assert_eq!(full.adoption, delta.adoption);
        assert_eq!(full.unchanged.rows, delta.unchanged.rows);
        assert_eq!(full.engine.queries, delta.engine.queries);
        assert_eq!(full.engine.shards, delta.engine.shards);
        assert_eq!(full.engine.cache_hits, delta.engine.cache_hits);

        // And delta mode actually reused work.
        assert_eq!(full.collection.mode, CollectionMode::Full);
        assert_eq!(full.collection.reused, 0);
        assert_eq!(full.collection.reresolved, 14 * 1_200);
        assert_eq!(delta.collection.mode, CollectionMode::Delta);
        assert_eq!(delta.collection.rounds, 14);
        assert!(delta.collection.reused > 0, "delta rounds replayed shards");
        assert!(
            delta.collection.reuse_rate() > 0.5,
            "most site-rounds reused"
        );
        assert_eq!(
            delta.collection.reused + delta.collection.reresolved,
            14 * 1_200
        );
    }

    #[test]
    fn builder_validates_and_names_the_offending_field() {
        let config = StudyConfig::builder()
            .weeks(3)
            .seed(7)
            .workers(4)
            .uneven_intervals(false)
            .collector_region(Region::Oregon)
            .build()
            .unwrap();
        assert_eq!(config.weeks, 3);
        assert_eq!(config.seed, 7);
        assert_eq!(config.workers, 4);
        assert!(!config.uneven_intervals);
        assert_eq!(config.collector_region, Region::Oregon);

        let err = StudyConfig::builder().weeks(0).build().unwrap_err();
        assert_eq!(err.field, "weeks");
        assert_eq!(err.value, "0");
        assert!(err.to_string().contains("weeks"), "{err}");

        let err = StudyConfig::builder().workers(0).build().unwrap_err();
        assert_eq!(err.field, "workers");

        // Struct-literal and Default paths stay open.
        let literal = StudyConfig {
            weeks: 2,
            ..StudyConfig::default()
        };
        assert_eq!(literal.weeks, 2);
    }

    #[test]
    fn uniform_intervals_are_exactly_daily() {
        let mut world = World::generate(WorldConfig {
            population: 1_000,
            seed: 4,
            warmup_days: 0,
            calibration: remnant_world::Calibration::paper(),
        });
        let config = StudyConfig {
            weeks: 1,
            uneven_intervals: false,
            ..StudyConfig::default()
        };
        let report = StudySession::new(config, &world).run(&mut world, &mut |_| {});
        assert!(report.behaviors.interval_hours.iter().all(|h| *h == 24));
    }

    #[test]
    fn vantage_catchment_covers_five_regions() {
        let world = World::generate(WorldConfig {
            population: 100,
            seed: 5,
            warmup_days: 0,
            calibration: remnant_world::Calibration::paper(),
        });
        let catchment = vantage_catchment(&world, ProviderId::Cloudflare);
        assert_eq!(catchment.len(), 5);
        assert!(catchment.iter().all(|(_, pop)| pop != "unreachable"));
    }
}
