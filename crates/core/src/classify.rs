//! The per-shard classification cache: memoizing adoption columns across
//! delta rounds.
//!
//! Provider classification — not I/O — is the analysis bottleneck
//! (BENCH_8: a raw store scan runs ~16× faster than the classifying
//! fold), and delta campaigns replay most shards untouched: a clean
//! shard's block is the *same* `Arc<RecordBlock>` (resident rounds) or
//! the *same* spill frame (`SpillRef` chain) as the previous round's.
//! Classification is a pure function of a block's bytes, so its result
//! can be memoized under the block's process-local identity
//! ([`BlockKey`]): clean shards become an `Arc` clone, and only dirty
//! shards reclassify.
//!
//! [`ShardClassCache`] is that memo table. Dirty-shard classification
//! fans out through the deterministic work-claiming engine
//! ([`ScanEngine::sweep`] over a unit plan) — one task per block,
//! positional merge — so the assembled columns are byte-identical at any
//! worker count. Both the live [`crate::StudySession`] (in either
//! collection mode; under full collection every lookup misses) and the
//! query layer's `ClassifiedStore` share this cache; each feeds the
//! columns into [`crate::SnapshotPasses::observe_columns`], which runs
//! the *same* fold arithmetic as [`crate::SnapshotPasses::observe`] over
//! raw snapshots; the two differ only in who computed the columns.
//!
//! The cache is bounded by one round: after classifying a round it drops
//! every entry whose block is not in that round. A clean shard always
//! replays the *previous* round's block, so older entries could never
//! hit again — they would only pin their blocks in memory.
//!
//! Cache hit/miss counts are deliberately kept out of the byte-compared
//! study reports (the `CollectionReport` discipline): they depend on the
//! collection mode, and full-vs-delta equivalence tests compare reports
//! byte-for-byte. Read them via [`ShardClassCache::hits`]/
//! [`ShardClassCache::misses`] or export them explicitly with
//! [`Instrumented::export_into`].

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use remnant_engine::{plan_shards, ScanEngine, TaskResult};
use remnant_obs::{
    Instrumented, MetricKey, QUERY_CACHE_ENTRIES, QUERY_CACHE_HIT, QUERY_CACHE_MISS,
};

use crate::adoption::Adoption;
use crate::behavior::BehaviorDetector;
use crate::snapshot::{BlockKey, BlockSource, DnsSnapshot};

/// One shard's classification column: the per-site adoption classes of
/// one block, plus the block-local indices of multi-CDN front-ends
/// (Sec IV-B.3 exclusion). Shared by `Arc`, so a clean shard's column is
/// reused across rounds without copying.
#[derive(Clone, Debug)]
pub struct ClassColumn {
    /// Per-site adoption classes, in block-local site order.
    pub classes: Arc<[Adoption]>,
    /// Block-local indices of sites flagged as multi-CDN front-ends.
    pub multi_cdn: Arc<[u32]>,
}

/// A full round's columns, concatenated in rank order — the shape
/// [`crate::SnapshotPasses::observe_columns`] consumes.
#[derive(Clone, Debug, Default)]
pub struct SnapshotColumns {
    /// Per-site adoption classes for the whole round, in rank order.
    pub classes: Vec<Adoption>,
    /// Global ranks flagged as multi-CDN front-ends, ascending.
    pub multi_cdn_ranks: Vec<usize>,
}

/// Concatenates per-shard columns (in shard order) into one round's
/// full-length columns. Cheap relative to classification: a memcpy of
/// `Copy` classes plus rank arithmetic.
pub fn concat_columns(shards: &[ClassColumn]) -> SnapshotColumns {
    let total: usize = shards.iter().map(|c| c.classes.len()).sum();
    let mut columns = SnapshotColumns {
        classes: Vec::with_capacity(total),
        multi_cdn_ranks: Vec::new(),
    };
    let mut base = 0usize;
    for shard in shards {
        columns
            .multi_cdn_ranks
            .extend(shard.multi_cdn.iter().map(|&i| base + i as usize));
        columns.classes.extend_from_slice(&shard.classes);
        base += shard.classes.len();
    }
    columns
}

struct CacheEntry {
    /// Owner of the block's backing. The key is an address; holding the
    /// source pins the allocation so a dropped-and-reused address can
    /// never alias a stale entry (the ABA hazard).
    _witness: BlockSource,
    column: ClassColumn,
}

/// The per-shard classification memo table — see the module docs.
#[derive(Default)]
pub struct ShardClassCache {
    entries: HashMap<BlockKey, CacheEntry>,
    hits: u64,
    misses: u64,
}

impl std::fmt::Debug for ShardClassCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardClassCache")
            .field("entries", &self.entries.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl ShardClassCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ShardClassCache::default()
    }

    /// Lookups answered from a cached column.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that classified a block.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Classified columns held: at most one per block of the last
    /// classified round.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been classified yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Classifies one round into per-shard columns, reusing cached
    /// columns for every block whose backing is unchanged since the
    /// previous round. Cache misses are classified through
    /// [`ScanEngine::sweep`] over a unit plan — one task per missing
    /// block, merged positionally — so the returned columns are
    /// byte-identical at any worker count. Afterwards the cache holds
    /// this round's blocks only.
    pub fn classify_blocks(
        &mut self,
        engine: &ScanEngine,
        detector: &BehaviorDetector,
        snapshot: &DnsSnapshot,
    ) -> Vec<ClassColumn> {
        let sources: Vec<(usize, BlockSource)> = snapshot.block_sources().collect();
        let mut columns: Vec<Option<ClassColumn>> = Vec::with_capacity(sources.len());
        let mut missing: Vec<usize> = Vec::new();
        for (i, (_, source)) in sources.iter().enumerate() {
            match self.entries.get(&source.key()) {
                Some(entry) => {
                    self.hits += 1;
                    columns.push(Some(entry.column.clone()));
                }
                None => {
                    self.misses += 1;
                    columns.push(None);
                    missing.push(i);
                }
            }
        }
        if !missing.is_empty() {
            // A unit plan: every block is its own shard, so misses fan out
            // one task per block.
            let fresh = engine.sweep(
                detector,
                &sources,
                &plan_shards(sources.len(), 1),
                Some(&missing),
                |_| (),
                |detector, (), _, _, (_, source)| {
                    let (classes, multi_cdn) = detector.classify_block(&source.load());
                    TaskResult::Done(ClassColumn {
                        classes: classes.into(),
                        multi_cdn: multi_cdn.into(),
                    })
                },
                |(), _| {},
            );
            // `missing` is built ascending, matching the sweep's
            // ascending-shard-order outputs element for element.
            for (&i, column) in missing.iter().zip(fresh.outputs) {
                let source = &sources[i].1;
                self.entries.insert(
                    source.key(),
                    CacheEntry {
                        _witness: source.clone(),
                        column: column.clone(),
                    },
                );
                columns[i] = Some(column);
            }
        }
        // Keep only this round's blocks (see the module docs): older
        // entries can never hit again, only pin their blocks.
        let live: HashSet<BlockKey> = sources.iter().map(|(_, source)| source.key()).collect();
        self.entries.retain(|key, _| live.contains(key));
        columns
            .into_iter()
            .map(|c| c.expect("every block classified or cached"))
            .collect()
    }

    /// Classifies one round and concatenates the columns — the live
    /// session's path in both collection modes.
    pub fn classify_snapshot(
        &mut self,
        engine: &ScanEngine,
        detector: &BehaviorDetector,
        snapshot: &DnsSnapshot,
    ) -> SnapshotColumns {
        let shards = self.classify_blocks(engine, detector, snapshot);
        concat_columns(&shards)
    }
}

impl Instrumented for ShardClassCache {
    fn component(&self) -> &'static str {
        "core.class_cache"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        vec![
            (MetricKey::named(QUERY_CACHE_HIT), self.hits),
            (MetricKey::named(QUERY_CACHE_MISS), self.misses),
            (
                MetricKey::named(QUERY_CACHE_ENTRIES),
                self.entries.len() as u64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{DnsSnapshot, RecordBlock, SiteRecords};
    use remnant_engine::EngineConfig;
    use remnant_sim::SimTime;

    fn engine(workers: usize) -> ScanEngine {
        ScanEngine::new(EngineConfig::with_workers(workers, 7).expect("valid engine config"))
    }

    fn site(i: usize) -> SiteRecords {
        SiteRecords {
            a: vec![std::net::Ipv4Addr::new(203, 0, 113, (i % 250) as u8 + 1)],
            cnames: Vec::new(),
            ns: vec![format!("ns{i}.example.net").parse().expect("valid name")],
        }
    }

    fn snapshot(day: u32, sites: usize, block_size: usize) -> DnsSnapshot {
        let mut builder = DnsSnapshot::builder(SimTime::default(), day, block_size);
        for i in 0..sites {
            builder.push(site(i));
        }
        builder.finish()
    }

    #[test]
    fn identical_arcs_hit_rebuilt_blocks_miss() {
        let detector = BehaviorDetector::new();
        let mut cache = ShardClassCache::new();
        let engine = engine(2);
        let snap = snapshot(0, 40, 8);
        let first = cache.classify_blocks(&engine, &detector, &snap);
        assert_eq!((cache.hits(), cache.misses()), (0, 5));

        // The same snapshot (same Arcs) is all hits...
        let again = cache.classify_blocks(&engine, &detector, &snap.clone());
        assert_eq!((cache.hits(), cache.misses()), (5, 5));
        for (a, b) in first.iter().zip(&again) {
            assert!(Arc::ptr_eq(&a.classes, &b.classes), "columns are shared");
        }

        // ...while a byte-identical rebuild (fresh allocations) misses.
        let rebuilt = snapshot(1, 40, 8);
        let fresh = cache.classify_blocks(&engine, &detector, &rebuilt);
        assert_eq!((cache.hits(), cache.misses()), (5, 10));
        for (a, b) in first.iter().zip(&fresh) {
            assert_eq!(&a.classes[..], &b.classes[..], "same bytes, same classes");
        }
    }

    #[test]
    fn cache_holds_one_round_of_blocks() {
        // Delta-style rounds: each replays the previous round's blocks
        // except one, which it rebuilds.
        let detector = BehaviorDetector::new();
        let mut cache = ShardClassCache::new();
        let engine = engine(2);
        let mut snap = snapshot(0, 40, 8);
        cache.classify_blocks(&engine, &detector, &snap);
        let blocks = 5;
        for day in 1..=6u32 {
            let mut builder = DnsSnapshot::builder(SimTime::default(), day, 8);
            for (i, (_, source)) in snap.block_sources().enumerate() {
                let block = source.load();
                if i == day as usize % blocks {
                    let sites = block.sites().map(|site| site.to_records());
                    builder.push_block(Arc::new(RecordBlock::from_sites(sites)));
                } else {
                    builder.push_block(block);
                }
            }
            snap = builder.finish();
            cache.classify_blocks(&engine, &detector, &snap);
            assert!(
                cache.len() <= blocks,
                "day {day}: {} entries for {blocks} blocks",
                cache.len()
            );
        }
        // Eviction never costs a hit: every replayed block still hits.
        assert_eq!((cache.hits(), cache.misses()), (6 * 4, 5 + 6));
    }

    #[test]
    fn cached_columns_match_classify_snapshot_at_any_worker_count() {
        let detector = BehaviorDetector::new();
        let snap = snapshot(0, 100, 16);
        let reference = detector.classify_snapshot(&snap);
        for workers in [1usize, 8] {
            let mut cache = ShardClassCache::new();
            let columns = cache.classify_snapshot(&engine(workers), &detector, &snap);
            assert_eq!(columns.classes, reference, "workers={workers}");
        }
    }

    #[test]
    fn concat_rebases_multi_cdn_ranks() {
        let col = |n: usize, flagged: Vec<u32>| ClassColumn {
            classes: vec![Adoption::NONE; n].into(),
            multi_cdn: flagged.into(),
        };
        let columns = concat_columns(&[col(4, vec![1, 3]), col(3, vec![0])]);
        assert_eq!(columns.classes.len(), 7);
        assert_eq!(columns.multi_cdn_ranks, [1, 3, 4]);
    }
}
