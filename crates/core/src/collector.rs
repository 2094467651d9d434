//! The daily DNS record collector (Sec IV-B.1).
//!
//! "we set a recursive DNS resolver inside Amazon EC2 ... and send DNS
//! queries for the tested domains to obtain their A, CNAME, and NS records.
//! ... we purge the DNS cache of the resolver before performing each
//! experiment."
//!
//! One routine collects every round, in four steps:
//!
//! 1. **Select** the shards of the round's plan that must run.
//!    [`RecordCollector`] (full collection) selects every shard.
//!    [`DeltaCollector`] selects only the shards whose zone generations
//!    changed since the previous round, plus a rotating refresh stratum.
//! 2. **Sweep** the selected shards through the engine, each on a fresh
//!    cache-cold resolver. In memory they run as one batch; spilled, in
//!    batches of at most `resident_shards`, so a round's resident working
//!    set is the batch, never the population. Each shard's finish step,
//!    on the worker that resolved it, packs the shard's sites into its
//!    [`RecordBlock`] and derives the block's [`DerivedColumn`]
//!    (adoption classes, multi-CDN sites, residual harvest candidates)
//!    once — one engine pass per batch.
//! 3. **Sink** each finished block: it is kept resident behind an `Arc`
//!    or appended with its column to the round's spill file
//!    (`full-r<round>.rsnb` / `delta-r<round>.rsnb`) and dropped.
//! 4. **Splice** executed and replayed shards, in plan order, into the
//!    round's [`DnsSnapshot`]. A replayed shard is the previous round's
//!    block — an `Arc` clone, or a [`SpillRef`](crate::spill::SpillRef)
//!    into the older round file that last wrote it, column included —
//!    with its recorded [`ShardStats`].
//!
//! [`RecordCollector::collect`] is the same routine on a one-worker
//! engine. Every mode produces byte-identical snapshots (same block
//! layout = same shard plan) for any worker count, which is what the
//! in-memory-vs-spill and full-vs-delta differential tests assert.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use remnant_dns::{
    CountingTransport, DnsTransport, DomainName, Instrumented, RecordType, RecursiveResolver,
    ZoneGenerationProbe,
};
use remnant_engine::{EngineConfig, ScanEngine, ShardScope, ShardStats, ShardTiming, SweepStats};
use remnant_net::Region;
use remnant_sim::{SeedSeq, SimClock};

use crate::classify::DerivedColumn;
use crate::snapshot::{BlockSource, DnsSnapshot, RecordBlock, SiteRecords};
use crate::spill::{SpillConfig, SpillError, SpillMeta, SpillWriter};

/// A collection target: `(apex, www host)`.
pub type Target = (DomainName, DomainName);

/// Refresh strata of delta collection: each shard is forcibly
/// re-resolved at least once every this many rounds, even if its
/// generations never change.
pub const REFRESH_STRATA: u64 = 16;

/// Per-round accounting of what a round reused vs re-resolved. A full
/// round re-resolves every site.
///
/// Carried in the study's `CollectionReport` and deliberately kept *out* of
/// the study [`ObsReport`](remnant_obs::ObsReport) counters — full and
/// delta mode must produce byte-identical study observability output, and
/// these counters are exactly what differs between the modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaRound {
    /// Sites whose previous-round records were reused via `Arc` sharing.
    pub reused: u64,
    /// Sites re-resolved this round (dirty shard, cold cache, or stratum).
    pub reresolved: u64,
    /// Subset of `reresolved` whose shard was selected only by the round's
    /// refresh stratum, not by a generation change.
    pub refresh_stratum: u64,
}

/// The record collector: full collection, a cache-purging recursive
/// resolver sweeping the whole target list every round.
#[derive(Debug)]
pub struct RecordCollector {
    collector: Collector,
}

impl RecordCollector {
    /// Creates a collector resolving from `region` (the paper used
    /// us-east-1, our [`Region::Ashburn`]).
    pub fn new(clock: SimClock, region: Region) -> Self {
        RecordCollector {
            collector: Collector::full(clock, region),
        }
    }

    /// Number of collection rounds performed.
    pub fn rounds(&self) -> u32 {
        self.collector.rounds()
    }

    /// Collects one snapshot over `targets` on a one-worker engine with
    /// the default shard size. Each shard starts from a fresh resolver,
    /// as cold as a purged cache, so the round is independent of the
    /// previous one.
    ///
    /// Per-site failures (timeouts, NXDOMAIN) are recorded as empty
    /// [`SiteRecords`] — one dead site must not abort a million-site sweep.
    pub fn collect<T: DnsTransport + Sync>(
        &mut self,
        transport: &T,
        targets: &[Target],
        day: u32,
    ) -> DnsSnapshot {
        let engine = ScanEngine::new(EngineConfig::default());
        self.collect_with(&engine, transport, targets, day).0
    }

    /// Collects one snapshot over `targets` through `engine`, sharding the
    /// target list over the engine's workers.
    ///
    /// Every shard resolves through its own fresh [`RecursiveResolver`], so
    /// the snapshot is bit-identical for every worker count. Each shard's
    /// sites are packed into one columnar [`RecordBlock`] (block layout =
    /// shard plan). The returned [`SweepStats`] carry per-shard query
    /// counts and wall times, and each shard's resolver exports its full
    /// counter surface (per-qtype queries, delegation depths, cache
    /// hits/misses/expirations) into the shard's metrics once at shard
    /// end — off the per-item hot path.
    pub fn collect_with<T: DnsTransport + Sync>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        day: u32,
    ) -> (DnsSnapshot, SweepStats) {
        let (snapshot, stats, _) = in_memory(
            self.collector
                .round(engine, transport, targets, day, None, None),
        );
        (snapshot, stats)
    }

    /// [`RecordCollector::collect_with`], memory-bounded: shards execute in
    /// batches of at most `spill.resident_shards` (clamped up to the worker
    /// count), each completed batch's blocks are appended to
    /// `<dir>/full-r<round>.rsnb` and dropped, and the returned snapshot
    /// references the file instead of holding blocks resident. Output is
    /// byte-identical to the in-memory round at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`SpillError`] if the spill directory or round file cannot
    /// be created or written.
    pub fn collect_spilled<T: DnsTransport + Sync>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        day: u32,
        spill: &SpillConfig,
    ) -> Result<(DnsSnapshot, SweepStats), SpillError> {
        let (snapshot, stats, _) =
            self.collector
                .round(engine, transport, targets, day, Some(spill), None)?;
        Ok((snapshot, stats))
    }
}

/// The incremental record collector: re-resolves only what could have
/// changed since the previous round.
///
/// # How it stays byte-identical to full collection
///
/// The reuse unit is the **shard**, not the site: within a shard the
/// resolver cache is shared across sites, so per-site telemetry depends on
/// the order and company a site is resolved in — but a whole shard's
/// outputs *and* counters are a pure function of its members' zone state
/// at a fixed virtual time (each shard starts from a fresh resolver and a
/// shard-indexed RNG stream). A shard whose members' zone generations
/// (via [`ZoneGenerationProbe`]) are all unchanged would therefore produce
/// exactly what it produced last time, so the collector replays its
/// previous block (`Arc` clone or [`SpillRef`](crate::spill::SpillRef)
/// clone) and [`ShardStats`]. Everything downstream — snapshot, merged
/// metrics, journal lines — is byte-identical to a full sweep's.
///
/// # Refresh stratum
///
/// Generation probes cannot see out-of-band mutations (e.g. direct
/// provider edits through `World::provider_mut`). To bound the staleness
/// such edits could cause, every round additionally re-resolves one
/// deterministic, seed-derived stratum of shards: shard `s` is refreshed
/// in round `r` iff `s ≡ base + r (mod REFRESH_STRATA)`, so every shard
/// is force-refreshed at least once every [`REFRESH_STRATA`] rounds.
#[derive(Debug)]
pub struct DeltaCollector {
    collector: Collector,
}

impl DeltaCollector {
    /// Creates a delta collector resolving from `region`.
    ///
    /// `seed` feeds the stratum schedule; collectors with the same seed
    /// refresh the same shards in the same rounds.
    pub fn new(clock: SimClock, region: Region, seed: u64) -> Self {
        DeltaCollector {
            collector: Collector::delta(clock, region, seed),
        }
    }

    /// Number of collection rounds performed.
    pub fn rounds(&self) -> u32 {
        self.collector.rounds()
    }

    /// Collects one snapshot over `targets` through `engine`, re-resolving
    /// only shards whose zone generations changed since the previous round
    /// (plus the round's refresh stratum) and reusing the rest.
    ///
    /// Returns the same `(snapshot, stats)` a full
    /// [`RecordCollector::collect_with`] would — byte-identical, including
    /// per-shard counters; only the (nondeterministic, never-reported)
    /// wall times differ — plus the round's reuse accounting.
    pub fn collect_with<T: DnsTransport + Sync + ZoneGenerationProbe>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        day: u32,
    ) -> (DnsSnapshot, SweepStats, DeltaRound) {
        in_memory(
            self.collector
                .collect(engine, transport, targets, day, None),
        )
    }

    /// [`DeltaCollector::collect_with`], memory-bounded: dirty shards
    /// execute in batches of at most `spill.resident_shards` and stream to
    /// `<dir>/delta-r<round>.rsnb`; clean shards are replayed as
    /// [`SpillRef`](crate::spill::SpillRef) clones into the older round
    /// files that last wrote them — no load, no copy. Older round files
    /// must therefore outlive the campaign (the spill directory is
    /// append-only).
    ///
    /// # Errors
    ///
    /// Returns [`SpillError`] if the spill directory or round file cannot
    /// be created or written.
    pub fn collect_spilled<T: DnsTransport + Sync + ZoneGenerationProbe>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        day: u32,
        spill: &SpillConfig,
    ) -> Result<(DnsSnapshot, SweepStats, DeltaRound), SpillError> {
        self.collector
            .collect(engine, transport, targets, day, Some(spill))
    }
}

/// The collection routine behind both public collectors and the study
/// session (see the module docs). Full and delta mode differ only in
/// `delta`.
#[derive(Debug)]
pub(crate) struct Collector {
    clock: SimClock,
    region: Region,
    rounds: u32,
    /// Delta mode's stratum schedule and replay state; `None` in full
    /// mode.
    delta: Option<Delta>,
}

/// What delta collection carries between rounds.
#[derive(Debug)]
struct Delta {
    /// Seed-derived base offset of the rotating refresh stratum.
    stratum_base: u64,
    /// The previous round, once one ran.
    previous: Option<Previous>,
}

/// The previous delta round, for replaying clean shards.
#[derive(Debug)]
struct Previous {
    /// Block size the round was planned with; a different layout
    /// invalidates it wholesale.
    block_size: usize,
    /// Per-rank zone generation observed when the round ran.
    generations: Vec<u64>,
    /// The round's blocks: resident `Arc`s in memory,
    /// [`SpillRef`](crate::spill::SpillRef)s into older rounds' files
    /// when spilled. Cloning either is O(1) — sharing, never copying.
    blocks: Vec<BlockSource>,
    /// Per-shard deterministic counters from each shard's last execution.
    shard_stats: Vec<ShardStats>,
}

/// Which shards one round runs; the others replay from `replay`.
struct Selection<'a> {
    /// Shard indices to execute, ascending.
    shards: Vec<usize>,
    /// The round's reuse accounting.
    round: DeltaRound,
    /// The previous round, when any shard replays from it.
    replay: Option<&'a Previous>,
}

impl Selection<'_> {
    /// Every shard runs, nothing replays: a full round, or a delta round
    /// on a cold or invalidated cache.
    fn every_shard(shards: usize, sites: usize) -> Self {
        Selection {
            shards: (0..shards).collect(),
            round: DeltaRound {
                reresolved: sites as u64,
                ..DeltaRound::default()
            },
            replay: None,
        }
    }
}

impl Delta {
    /// Selects the shards with a changed generation or in the round's
    /// refresh stratum; everything when the previous round is missing or
    /// was planned differently.
    fn select(
        &self,
        plan: &[Range<usize>],
        generations: &[u64],
        block_size: usize,
        round_index: u64,
    ) -> Selection<'_> {
        let previous = self.previous.as_ref().filter(|p| {
            p.block_size == block_size
                && p.generations.len() == generations.len()
                && p.blocks.len() == plan.len()
        });
        let Some(previous) = previous else {
            return Selection::every_shard(plan.len(), generations.len());
        };
        let stratum_offset = (self.stratum_base + round_index) % REFRESH_STRATA;
        let mut shards = Vec::new();
        let mut round = DeltaRound::default();
        for (idx, range) in plan.iter().enumerate() {
            let sites = range.len() as u64;
            let dirty = range
                .clone()
                .any(|rank| generations[rank] != previous.generations[rank]);
            let stratum = (idx as u64) % REFRESH_STRATA == stratum_offset;
            if dirty || stratum {
                shards.push(idx);
                round.reresolved += sites;
                if !dirty {
                    round.refresh_stratum += sites;
                }
            } else {
                round.reused += sites;
            }
        }
        Selection {
            shards,
            round,
            replay: Some(previous),
        }
    }
}

impl Collector {
    /// A full-mode collector resolving from `region`.
    pub(crate) fn full(clock: SimClock, region: Region) -> Self {
        Collector {
            clock,
            region,
            rounds: 0,
            delta: None,
        }
    }

    /// A delta-mode collector resolving from `region`; `seed` feeds the
    /// stratum schedule.
    pub(crate) fn delta(clock: SimClock, region: Region, seed: u64) -> Self {
        Collector {
            delta: Some(Delta {
                stratum_base: SeedSeq::new(seed).child("delta").derive("stratum-base"),
                previous: None,
            }),
            ..Collector::full(clock, region)
        }
    }

    /// Number of collection rounds performed.
    pub(crate) fn rounds(&self) -> u32 {
        self.rounds
    }

    /// One round: probes zone generations first in delta mode, then runs
    /// [`Collector::round`]. In memory when `spill` is `None`.
    pub(crate) fn collect<T: DnsTransport + Sync + ZoneGenerationProbe>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        day: u32,
        spill: Option<&SpillConfig>,
    ) -> Result<(DnsSnapshot, SweepStats, DeltaRound), SpillError> {
        let generations = self.delta.is_some().then(|| {
            let apexes: Vec<&DomainName> = targets.iter().map(|(apex, _)| apex).collect();
            transport.generations_for(&apexes)
        });
        self.round(engine, transport, targets, day, spill, generations)
    }

    /// The collection routine: select → sweep → sink → splice (see the
    /// module docs). Shards are selected against `generations` in delta
    /// mode; without them every shard runs.
    fn round<T: DnsTransport + Sync>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        day: u32,
        spill: Option<&SpillConfig>,
        generations: Option<Vec<u64>>,
    ) -> Result<(DnsSnapshot, SweepStats, DeltaRound), SpillError> {
        let round_index = self.rounds;
        self.rounds += 1;
        let plan = engine.shard_plan(targets.len());
        // Blocks are cut at the plan's shard size (`plan_shards` clamps
        // it to at least one site).
        let block_size = engine.config().shard_size.max(1);
        let selection = match (&self.delta, &generations) {
            (Some(delta), Some(generations)) => {
                delta.select(&plan, generations, block_size, u64::from(round_index))
            }
            _ => Selection::every_shard(plan.len(), targets.len()),
        };

        // Sweep the selected shards batch by batch into the sink.
        let mut sink = match spill {
            Some(spill) => {
                let kind = if self.delta.is_some() {
                    "delta"
                } else {
                    "full"
                };
                let meta = SpillMeta {
                    taken_at: self.clock.now(),
                    day,
                    sites: targets.len() as u64,
                    block_size: block_size as u32,
                    shard_count: plan.len() as u32,
                };
                Sink::Spilled(create_round_file(
                    spill,
                    &format!("{kind}-r{round_index:05}.rsnb"),
                    meta,
                )?)
            }
            None => Sink::Resident(Vec::with_capacity(selection.shards.len())),
        };
        // Spilled, at most `resident_shards` blocks are resident at once,
        // but never fewer than the workers that must be kept busy.
        let batch = spill.map_or(usize::MAX, |spill| {
            spill.resident_shards.max(engine.config().workers).max(1)
        });
        let (clock, region) = (&self.clock, self.region);
        let mut fresh = SweepStats::default();
        for batch in selection.shards.chunks(batch) {
            let sweep = engine.sweep(
                transport,
                targets,
                &plan,
                Some(batch),
                |_shard| RecursiveResolver::new(clock.clone(), region),
                site_task,
                |resolver, scope, sites| {
                    export_resolver(&resolver, scope);
                    // Each fresh block's derived column is computed once,
                    // here, and travels with the block from now on.
                    let block = RecordBlock::from_sites(sites);
                    let column = Arc::new(DerivedColumn::derive(&block));
                    (block, column)
                },
            );
            for (&shard, (block, column)) in batch.iter().zip(sweep.outputs) {
                sink.put(shard, block, column)?;
            }
            fresh.shards.extend(sweep.stats.shards);
            fresh.timings.extend(sweep.stats.timings);
            fresh.wall += sweep.stats.wall;
        }

        // Splice executed and replayed shards in plan order.
        let mut fresh_shards = sink
            .finish()?
            .into_iter()
            .zip(fresh.shards.into_iter().zip(fresh.timings));
        let mut builder = DnsSnapshot::builder(self.clock.now(), day, block_size);
        let mut stats = SweepStats {
            // The worker count a full sweep over this plan would use, not
            // the (possibly smaller) clamp over the selected subset.
            workers: engine.config().workers.max(1).min(plan.len().max(1)),
            shards: Vec::with_capacity(plan.len()),
            timings: Vec::with_capacity(plan.len()),
            wall: fresh.wall,
        };
        let mut selected = selection.shards.iter().peekable();
        for shard in 0..plan.len() {
            if selected.next_if_eq(&&shard).is_some() {
                let (slot, (shard_stats, timing)) =
                    fresh_shards.next().expect("one block per selected shard");
                builder.push_source(slot);
                stats.shards.push(shard_stats);
                stats.timings.push(timing);
            } else {
                let previous = selection
                    .replay
                    .expect("unselected shards replay the previous round");
                builder.push_source(previous.blocks[shard].clone());
                stats.shards.push(previous.shard_stats[shard].clone());
                // Replayed shards cost no wall time; timings are
                // nondeterministic and excluded from all reports anyway.
                stats.timings.push(ShardTiming {
                    shard,
                    wall: Duration::ZERO,
                });
            }
        }
        let snapshot = builder.finish();
        let round = selection.round;

        if let (Some(delta), Some(generations)) = (&mut self.delta, generations) {
            delta.previous = Some(Previous {
                block_size,
                generations,
                blocks: snapshot.block_sources().map(|(_, block)| block).collect(),
                shard_stats: stats.shards.clone(),
            });
        }
        Ok((snapshot, stats, round))
    }
}

/// Where a round's executed blocks go.
enum Sink {
    /// In memory: each block stays resident behind an `Arc`.
    Resident(Vec<BlockSource>),
    /// Spilled: each block is appended to the round's file and dropped.
    Spilled(SpillWriter),
}

impl Sink {
    fn put(
        &mut self,
        shard: usize,
        block: RecordBlock,
        derived: Arc<DerivedColumn>,
    ) -> Result<(), SpillError> {
        match self {
            Sink::Resident(slots) => {
                slots.push(BlockSource::resident(Arc::new(block), derived));
            }
            Sink::Spilled(writer) => writer.append_block(shard as u32, &block, derived)?,
        }
        Ok(())
    }

    /// The sunk blocks, in the order they were put.
    fn finish(self) -> Result<Vec<BlockSource>, SpillError> {
        Ok(match self {
            Sink::Resident(slots) => slots,
            Sink::Spilled(writer) => writer.finish()?.1,
        })
    }
}

/// Unwraps an in-memory round, which writes nothing and so cannot fail.
fn in_memory<R>(round: Result<R, SpillError>) -> R {
    round.unwrap_or_else(|e| unreachable!("an in-memory round does no I/O: {e}"))
}

/// The engine task of every collection round: A + CNAME chain for the
/// www host, NS for the apex.
fn site_task<T: DnsTransport + ?Sized>(
    transport: &T,
    resolver: &mut RecursiveResolver,
    scope: &mut ShardScope,
    _rank: usize,
    (apex, www): &Target,
) -> SiteRecords {
    let counting = CountingTransport::new(transport);
    let mut records = SiteRecords::default();
    if let Ok(res) = resolver.resolve(&counting, www, RecordType::A) {
        records.a = res.addresses();
        records.cnames = res.cnames();
    }
    if let Ok(res) = resolver.resolve(&counting, apex, RecordType::Ns) {
        records.ns = res.ns_hosts();
    }
    scope.add_queries(counting.query_stats().sent);
    records
}

/// Exports a DNS shard's resolver telemetry once, in the sweep's finish
/// step: its counter surface into the shard's metrics and its cumulative
/// cache hits and misses into the shard's stats. Each shard starts from a
/// fresh resolver, so the cumulative counts are the shard's own.
pub(crate) fn export_resolver(resolver: &RecursiveResolver, scope: &mut ShardScope) {
    resolver.export_into(scope.metrics());
    let (hits, misses) = resolver.cache().stats();
    scope.add_cache_stats(hits, misses);
}

/// Creates the spill directory (if needed) and the round file `name` in
/// it.
fn create_round_file(
    spill: &SpillConfig,
    name: &str,
    meta: SpillMeta,
) -> Result<SpillWriter, SpillError> {
    std::fs::create_dir_all(&spill.dir).map_err(|e| SpillError::Io {
        context: "creating spill directory",
        error: e.to_string(),
    })?;
    SpillWriter::create(spill.dir.join(name), meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remnant_world::{World, WorldConfig};

    fn tiny_world() -> World {
        World::generate(WorldConfig {
            population: 200,
            seed: 9,
            warmup_days: 0,
            calibration: remnant_world::Calibration::paper(),
        })
    }

    fn targets(world: &World) -> Vec<Target> {
        world
            .sites()
            .iter()
            .map(|s| (s.apex.clone(), s.www.clone()))
            .collect()
    }

    fn temp_spill(tag: &str) -> SpillConfig {
        let dir =
            std::env::temp_dir().join(format!("remnant-collector-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        SpillConfig {
            resident_shards: 2,
            ..SpillConfig::new(dir)
        }
    }

    #[test]
    fn collects_every_site() {
        let world = tiny_world();
        let targets = targets(&world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let snapshot = collector.collect(&world, &targets, 0);
        assert_eq!(snapshot.len(), 200);
        assert_eq!(snapshot.resolved_count(), 200, "every site resolves");
        assert_eq!(collector.rounds(), 1);
    }

    #[test]
    fn self_hosted_records_point_at_origin_with_hosting_ns() {
        let world = tiny_world();
        let site = world
            .sites()
            .iter()
            .find(|s| s.state == remnant_world::SiteState::SelfHosted)
            .unwrap()
            .clone();
        let targets = targets(&world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let snapshot = collector.collect(&world, &targets, 0);
        let records = snapshot.site(site.id.0 as usize).unwrap();
        assert_eq!(records.a, vec![site.origin]);
        assert!(records.cnames.is_empty());
        assert_eq!(records.ns.len(), 2);
        assert!(records.ns[0].contains_label_substring("webhost"));
    }

    #[test]
    fn cname_customers_show_their_token_chain() {
        let world = tiny_world();
        let site = world
            .sites()
            .iter()
            .find(|s| {
                matches!(
                    s.state,
                    remnant_world::SiteState::Dps {
                        rerouting: remnant_provider::ReroutingMethod::Cname,
                        paused: false,
                        ..
                    }
                )
            })
            .unwrap()
            .clone();
        let targets = targets(&world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let snapshot = collector.collect(&world, &targets, 0);
        let records = snapshot.site(site.id.0 as usize).unwrap();
        assert_eq!(records.cnames.len(), 1, "CNAME chain captured");
        assert!(!records.a.is_empty());
    }

    #[test]
    fn sharded_collection_matches_sequential() {
        use remnant_engine::EngineConfig;

        let world = tiny_world();
        let targets = targets(&world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let sequential = collector.collect(&world, &targets, 0);

        // `collect` is `collect_with` on a one-worker default engine.
        let one_worker = ScanEngine::new(EngineConfig::default());
        let (default_snap, _) = collector.collect_with(&one_worker, &world, &targets, 0);
        assert_eq!(sequential, default_snap);
        assert_eq!(sequential.encode(), default_snap.encode());

        let engine = |workers| {
            ScanEngine::new(EngineConfig {
                workers,
                shard_size: 32,
                seed: 1,
            })
        };
        let (snap1, stats1) = collector.collect_with(&engine(1), &world, &targets, 0);
        let (snap4, stats4) = collector.collect_with(&engine(4), &world, &targets, 0);
        assert_eq!(sequential, snap1, "any shard size sees the same records");
        assert_eq!(
            snap1.encode(),
            snap4.encode(),
            "worker count never changes the snapshot"
        );
        assert_eq!(
            stats1.shards, stats4.shards,
            "per-shard counters are worker-invariant"
        );
        assert!(stats1.queries() > 0);
        assert_eq!(collector.rounds(), 4);

        // The finish hook exported each shard's resolver telemetry, and the
        // merged registry is worker-invariant like everything else.
        let merged1 = stats1.merged_metrics();
        let merged4 = stats4.merged_metrics();
        assert_eq!(merged1, merged4, "resolver metrics are worker-invariant");
        let a_queries: u64 = merged1
            .counters_named("resolver.queries")
            .filter(|(k, _)| k.label("qtype") == Some("A"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(a_queries, targets.len() as u64, "one A lookup per site");
    }

    #[test]
    fn spilled_collection_matches_in_memory_byte_for_byte() {
        use remnant_engine::EngineConfig;

        let world = tiny_world();
        let targets = targets(&world);
        let engine = |workers| {
            ScanEngine::new(EngineConfig {
                workers,
                shard_size: 32,
                seed: 1,
            })
        };
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let (in_mem, mem_stats) = collector.collect_with(&engine(4), &world, &targets, 0);

        let spill = temp_spill("full");
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let (spilled, spill_stats) = collector
            .collect_spilled(&engine(4), &world, &targets, 0, &spill)
            .expect("spill round succeeds");
        assert_eq!(in_mem, spilled);
        assert_eq!(in_mem.encode(), spilled.encode(), "text byte-identical");
        assert!(
            in_mem.derived_columns().eq(spilled.derived_columns()),
            "derived columns identical"
        );
        assert_eq!(mem_stats.shards, spill_stats.shards);
        assert_eq!(mem_stats.workers, spill_stats.workers);
        assert_eq!(mem_stats.merged_metrics(), spill_stats.merged_metrics());
        std::fs::remove_dir_all(&spill.dir).ok();
    }

    #[test]
    fn spilled_delta_rounds_match_in_memory_delta_rounds() {
        use remnant_engine::EngineConfig;

        let make_engine = || {
            ScanEngine::new(EngineConfig {
                workers: 2,
                shard_size: 16,
                seed: 5,
            })
        };
        let mut mem_world = tiny_world();
        let mut spill_world = tiny_world();
        let targets = targets(&mem_world);
        let mut mem = DeltaCollector::new(mem_world.clock(), Region::Ashburn, 5);
        let mut spilled = DeltaCollector::new(spill_world.clock(), Region::Ashburn, 5);
        let spill = temp_spill("delta");

        for day in 0..4u32 {
            let (mem_snap, mem_stats, mem_round) =
                mem.collect_with(&make_engine(), &mem_world, &targets, day);
            let (sp_snap, sp_stats, sp_round) = spilled
                .collect_spilled(&make_engine(), &spill_world, &targets, day, &spill)
                .expect("spill round succeeds");
            assert_eq!(mem_snap, sp_snap, "day {day} snapshots agree");
            assert_eq!(mem_snap.encode(), sp_snap.encode());
            assert_eq!(mem_stats.shards, sp_stats.shards);
            assert_eq!(mem_round, sp_round, "day {day} reuse accounting agrees");
            mem_world.step_hours(24);
            spill_world.step_hours(24);
        }
        // Later rounds replay clean shards as refs into older round files;
        // the reuse counter proves cross-file structural sharing happened.
        assert!(spilled
            .collector
            .delta
            .as_ref()
            .is_some_and(|delta| delta.previous.is_some()));
        std::fs::remove_dir_all(&spill.dir).ok();
    }

    #[test]
    fn delta_rounds_match_full_rounds_under_churn() {
        use remnant_engine::EngineConfig;

        let make_engine = || {
            ScanEngine::new(EngineConfig {
                workers: 2,
                shard_size: 16,
                seed: 5,
            })
        };
        let mut full_world = tiny_world();
        let mut delta_world = tiny_world();
        let targets = targets(&full_world);
        let mut full = RecordCollector::new(full_world.clock(), Region::Ashburn);
        let mut delta = DeltaCollector::new(delta_world.clock(), Region::Ashburn, 5);

        let mut total = DeltaRound::default();
        for day in 0..6u32 {
            let (full_snap, full_stats) =
                full.collect_with(&make_engine(), &full_world, &targets, day);
            let (delta_snap, delta_stats, round) =
                delta.collect_with(&make_engine(), &delta_world, &targets, day);
            assert_eq!(full_snap, delta_snap, "day {day} snapshots agree");
            assert_eq!(full_snap.encode(), delta_snap.encode());
            assert_eq!(
                full_stats.shards, delta_stats.shards,
                "day {day} per-shard counters agree"
            );
            assert_eq!(full_stats.workers, delta_stats.workers);
            assert_eq!(
                full_stats.merged_metrics(),
                delta_stats.merged_metrics(),
                "day {day} resolver telemetry agrees"
            );
            total.reused += round.reused;
            total.reresolved += round.reresolved;
            total.refresh_stratum += round.refresh_stratum;
            assert_eq!(round.reused + round.reresolved, targets.len() as u64);
            // Identical virtual time and dynamics on both worlds.
            full_world.step_hours(24);
            delta_world.step_hours(24);
        }
        // Round 0 is cold (all re-resolved); later rounds reuse most shards.
        assert!(total.reused > 0, "later rounds replayed unchanged shards");
        assert!(
            total.reresolved < 6 * targets.len() as u64,
            "delta mode did strictly less resolution work"
        );
        assert!(total.refresh_stratum > 0, "refresh stratum fired");
        assert_eq!(delta.rounds(), 6);
    }

    #[test]
    fn cold_cache_and_target_list_changes_fall_back_to_full_rounds() {
        use remnant_engine::EngineConfig;

        let world = tiny_world();
        let targets = targets(&world);
        let engine = ScanEngine::new(EngineConfig {
            workers: 1,
            shard_size: 16,
            seed: 5,
        });
        let mut delta = DeltaCollector::new(world.clock(), Region::Ashburn, 5);
        let (_, _, round) = delta.collect_with(&engine, &world, &targets, 0);
        assert_eq!(round.reused, 0, "cold cache resolves everything");
        assert_eq!(round.reresolved, targets.len() as u64);

        // Shrinking the target list invalidates the cache wholesale.
        let fewer = &targets[..100];
        let (snap, _, round) = delta.collect_with(&engine, &world, fewer, 1);
        assert_eq!(round.reused, 0, "changed target list resolves everything");
        assert_eq!(round.reresolved, 100);
        assert_eq!(snap.len(), 100);
    }

    #[test]
    fn rounds_are_independent_after_purge() {
        let world = tiny_world();
        let targets = targets(&world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let s1 = collector.collect(&world, &targets, 0);
        let (q_after_first, _) = world.traffic_stats();
        let s2 = collector.collect(&world, &targets, 1);
        let (q_after_second, _) = world.traffic_stats();
        assert_eq!(
            s1.to_site_records(),
            s2.to_site_records(),
            "static world yields identical rounds"
        );
        // The purge forces real re-resolution (roughly as many queries).
        assert!(q_after_second - q_after_first > targets.len() as u64);
    }
}
