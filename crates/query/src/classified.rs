//! The delta-aware classified view of a [`SnapshotStore`]: every round's
//! adoption columns computed once, plus per-provider posting lists.
//!
//! The analysis plans spend almost all their time in provider
//! classification, yet a delta campaign's rounds share most of their
//! shards structurally (`SpillRef`/`Arc` chains) — so most per-round
//! classifications are provably identical to the previous round's.
//! [`ClassifiedStore`] classifies each distinct block exactly once
//! through the shared [`ShardClassCache`]: clean shards reuse the cached
//! column (an `Arc` clone, no disk read, no classification), dirty
//! shards fan out through the deterministic work-claiming engine
//! ([`remnant_engine::ScanEngine::sweep`], one task per block) so the merged columns
//! are byte-identical at any worker count.
//!
//! While classifying, the store builds per-provider posting lists — one
//! bitset per provider marking every site the campaign *ever* classified
//! under that provider. Provider-filtered folds and the residual-scan
//! plan then iterate only those sites: for realistic adoption rates this
//! skips the overwhelming non-adopting majority.
//!
//! [`PlanContext`] wraps the classified store with a memoized
//! [`SnapshotAggregates`] fold so every plan of a `repro query` run
//! shares one classified scan — see [`crate::plans`].

use std::cell::OnceCell;
use std::sync::Arc;

use remnant_core::classify::{concat_columns, ClassColumn, ShardClassCache, SnapshotColumns};
use remnant_core::{Adoption, BehaviorDetector, DpsStatus, SnapshotAggregates, SnapshotPasses};
use remnant_engine::{EngineConfig, ScanEngine};
use remnant_obs::{
    Instrumented, MetricKey, QUERY_CACHE_ENTRIES, QUERY_CACHE_HIT, QUERY_CACHE_MISS,
    QUERY_INDEX_BYTES, QUERY_INDEX_SITES,
};
use remnant_provider::ProviderId;
use remnant_sim::stats::Series;

use crate::query::ClassifiedQuery;
use crate::store::{RoundMeta, SnapshotStore};

/// Seed for the classification sweep engine. Classification never draws
/// from the per-shard RNG, so the value is immaterial to outputs; it only
/// names the stream.
const CLASSIFY_SEED: u64 = 0xC1A55;

/// One round, classified: timeline metadata plus the per-shard adoption
/// columns (`Arc`-shared with every other round that chains the same
/// blocks).
#[derive(Clone, Debug)]
pub struct ClassifiedRound {
    meta: RoundMeta,
    shards: Vec<ClassColumn>,
    block_size: usize,
}

impl ClassifiedRound {
    /// The round's position on the campaign timeline.
    pub fn meta(&self) -> &RoundMeta {
        &self.meta
    }

    /// The per-shard columns, in shard order.
    pub fn shards(&self) -> &[ClassColumn] {
        &self.shards
    }

    /// Concatenates the shard columns into the round's full-length
    /// columns (the shape [`SnapshotPasses::observe_columns`] takes).
    pub fn columns(&self) -> SnapshotColumns {
        concat_columns(&self.shards)
    }

    /// The classification of site `rank` in this round.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is outside the campaign's site count.
    pub fn class_at(&self, rank: usize) -> Adoption {
        let shard = rank / self.block_size;
        self.shards[shard].classes[rank % self.block_size]
    }
}

/// Per-provider posting lists over site ranks: one bitset per provider
/// marking every site ever classified under that provider, plus an
/// any-provider union. Built once while the store classifies.
#[derive(Clone, Debug)]
pub struct ProviderIndex {
    sites: usize,
    /// One bitset per `ProviderId::index()`.
    bits: Vec<Vec<u64>>,
    /// Union: sites ever classified under *any* provider.
    any: Vec<u64>,
}

fn bitset_words(sites: usize) -> usize {
    sites.div_ceil(64)
}

fn bitset_iter(bits: &[u64], sites: usize) -> impl Iterator<Item = usize> + '_ {
    (0..sites).filter(move |rank| bits[rank / 64] & (1 << (rank % 64)) != 0)
}

impl ProviderIndex {
    fn new(sites: usize) -> Self {
        ProviderIndex {
            sites,
            bits: vec![vec![0u64; bitset_words(sites)]; ProviderId::ALL.len()],
            any: vec![0u64; bitset_words(sites)],
        }
    }

    fn mark(&mut self, provider: ProviderId, rank: usize) {
        self.bits[provider.index()][rank / 64] |= 1 << (rank % 64);
        self.any[rank / 64] |= 1 << (rank % 64);
    }

    /// Site count the index covers.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Ranks ever classified under `provider`, ascending.
    pub fn postings(&self, provider: ProviderId) -> impl Iterator<Item = usize> + '_ {
        bitset_iter(&self.bits[provider.index()], self.sites)
    }

    /// Ranks ever classified under any provider, ascending.
    pub fn postings_any(&self) -> impl Iterator<Item = usize> + '_ {
        bitset_iter(&self.any, self.sites)
    }

    /// Number of ranks in `provider`'s posting list.
    pub fn count(&self, provider: ProviderId) -> usize {
        self.bits[provider.index()]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of ranks in the any-provider union.
    pub fn count_any(&self) -> usize {
        self.any.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-memory size of the bitsets, in bytes.
    pub fn bytes(&self) -> usize {
        (self.bits.iter().map(Vec::len).sum::<usize>() + self.any.len()) * 8
    }
}

/// A [`SnapshotStore`] with every round classified once — see the module
/// docs.
#[derive(Debug)]
pub struct ClassifiedStore<'a> {
    store: &'a SnapshotStore,
    rounds: Vec<ClassifiedRound>,
    index: ProviderIndex,
    cache_hits: u64,
    cache_misses: u64,
    /// Columns the cache held when the build finished: the last round's
    /// blocks (the cache keeps one round).
    cache_entries: usize,
}

impl<'a> ClassifiedStore<'a> {
    /// Classifies every round of `store` (dirty shards through `engine`,
    /// clean shards from cache) and builds the provider index.
    pub fn build(store: &'a SnapshotStore, engine: &ScanEngine) -> Self {
        let detector = BehaviorDetector::new();
        let mut cache = ShardClassCache::new();
        let mut rounds = Vec::with_capacity(store.len());
        let mut index = ProviderIndex::new(store.sites());
        // A column chained unchanged from the previous round contributes
        // the same marks, so the index only scans columns it has not
        // seen at this shard position before.
        let mut indexed: Vec<usize> = vec![0; store.shard_count() as usize];
        for i in 0..store.len() {
            let snapshot = store.snapshot(i);
            let shards = cache.classify_blocks(engine, &detector, &snapshot);
            let mut base = 0usize;
            for (shard, column) in shards.iter().enumerate() {
                let ptr = Arc::as_ptr(&column.classes) as *const u8 as usize;
                if indexed[shard] != ptr {
                    indexed[shard] = ptr;
                    for (i, class) in column.classes.iter().enumerate() {
                        if let Some(provider) = class.provider {
                            index.mark(provider, base + i);
                        }
                    }
                }
                base += column.classes.len();
            }
            rounds.push(ClassifiedRound {
                meta: store.meta(i).clone(),
                shards,
                block_size: store.block_size(),
            });
        }
        ClassifiedStore {
            store,
            rounds,
            index,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_entries: cache.len(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &'a SnapshotStore {
        self.store
    }

    /// The classified rounds, in round order.
    pub fn rounds(&self) -> &[ClassifiedRound] {
        &self.rounds
    }

    /// The per-provider posting lists.
    pub fn index(&self) -> &ProviderIndex {
        &self.index
    }

    /// Classification-cache `(hits, misses)` from the build: hits are
    /// shard-rounds reused from an earlier round's identical block,
    /// misses are shard-rounds actually classified.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Runs the shared snapshot fold over the cached columns, producing
    /// the same [`SnapshotAggregates`] as the live study's passes over
    /// the raw snapshots — byte-identical, because both feed the
    /// identical fold.
    pub fn aggregates(&self) -> SnapshotAggregates {
        let mut passes = SnapshotPasses::new(self.store.sites());
        for round in &self.rounds {
            let columns = round.columns();
            passes.observe_columns(
                round.meta.day,
                round.meta.taken_at,
                columns.classes,
                &columns.multi_cdn_ranks,
            );
        }
        passes.finish()
    }

    /// Index-accelerated twin of [`crate::RoundsQuery::classified`]:
    /// only sites in the any-provider posting list are consulted.
    pub fn classified(&self) -> ClassifiedQuery {
        self.classified_inner(None)
    }

    /// Index-accelerated twin of [`crate::RoundsQuery::provider`].
    pub fn provider(&self, provider: ProviderId) -> ClassifiedQuery {
        self.classified_inner(Some(provider))
    }

    fn classified_inner(&self, provider: Option<ProviderId>) -> ClassifiedQuery {
        let label = match provider {
            Some(p) => format!("adopted.{p}"),
            None => "adopted".to_owned(),
        };
        let postings: Vec<usize> = match provider {
            Some(p) => self.index.postings(p).collect(),
            None => self.index.postings_any().collect(),
        };
        let mut adopted_series = Series::new(label);
        let mut adopted_final = 0usize;
        for round in &self.rounds {
            let adopted = postings
                .iter()
                .filter(|&&rank| {
                    let class = round.class_at(rank);
                    class.status == DpsStatus::On
                        && provider.is_none_or(|p| class.provider == Some(p))
                })
                .count();
            adopted_series.push(f64::from(round.meta.day), adopted as f64);
            adopted_final = adopted;
        }
        ClassifiedQuery {
            provider,
            adopted_final,
            adopted_series,
        }
    }
}

impl Instrumented for ClassifiedStore<'_> {
    fn component(&self) -> &'static str {
        "query.classified_store"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        let mut counters = vec![
            (MetricKey::named(QUERY_CACHE_HIT), self.cache_hits),
            (MetricKey::named(QUERY_CACHE_MISS), self.cache_misses),
            (
                MetricKey::named(QUERY_CACHE_ENTRIES),
                self.cache_entries as u64,
            ),
            (
                MetricKey::named(QUERY_INDEX_BYTES),
                self.index.bytes() as u64,
            ),
        ];
        for provider in ProviderId::ALL {
            counters.push((
                MetricKey::named(QUERY_INDEX_SITES).with_label("provider", provider.name()),
                self.index.count(provider) as u64,
            ));
        }
        counters
    }
}

/// One classified scan shared by every plan of a query run.
///
/// Every plan's `execute_with` (see [`crate::plans`]) pulls the store's
/// rounds from here: the classification happens once (at build), and the
/// [`SnapshotAggregates`] fold once (memoized on first use), instead of
/// once per figure.
#[derive(Debug)]
pub struct PlanContext<'a> {
    classified: ClassifiedStore<'a>,
    aggregates: OnceCell<SnapshotAggregates>,
}

impl<'a> PlanContext<'a> {
    /// Builds a context over `store`, classifying with `workers` threads.
    pub fn new(store: &'a SnapshotStore, workers: usize) -> Self {
        let engine = ScanEngine::new(
            EngineConfig::with_workers(workers.max(1), CLASSIFY_SEED)
                .expect("clamped worker count is always valid"),
        );
        PlanContext {
            classified: ClassifiedStore::build(store, &engine),
            aggregates: OnceCell::new(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &'a SnapshotStore {
        self.classified.store()
    }

    /// The classified rounds and provider index.
    pub fn classified(&self) -> &ClassifiedStore<'a> {
        &self.classified
    }

    /// The shared snapshot fold, computed on first use.
    pub fn aggregates(&self) -> &SnapshotAggregates {
        self.aggregates.get_or_init(|| self.classified.aggregates())
    }
}
