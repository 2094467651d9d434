//! The classified view of a [`SnapshotStore`]: every round's adoption
//! columns, plus per-provider posting lists.
//!
//! Every block carries its [`DerivedColumn`] from collection — a spilled
//! block's is read from its file's column section when the store opens —
//! so [`ClassifiedStore`] classifies nothing and decodes no record frame:
//! it assembles each round from the carried columns (`Arc` clones shared
//! with every other round that chains the same block) and counts, through
//! the [`ShardClassCache`], which blocks a round chained unchanged from
//! the previous one.
//!
//! While assembling, the store builds per-provider posting lists — one
//! bitset per provider marking every site the campaign *ever* classified
//! under that provider. Provider-filtered folds and the residual-scan
//! plan then iterate only those sites: for realistic adoption rates this
//! skips the overwhelming non-adopting majority.
//!
//! [`PlanContext`] wraps the classified store with a memoized
//! [`SnapshotAggregates`] fold so every plan of a `repro query` run
//! shares one pass over the columns — see [`crate::plans`].

use std::cell::OnceCell;
use std::sync::Arc;

use remnant_core::classify::{DerivedColumn, ShardClassCache};
use remnant_core::{Adoption, DpsStatus, SnapshotAggregates, SnapshotPasses};
use remnant_obs::{
    Instrumented, MetricKey, QUERY_CACHE_HIT, QUERY_CACHE_MISS, QUERY_INDEX_BYTES,
    QUERY_INDEX_SITES,
};
use remnant_provider::ProviderId;
use remnant_sim::stats::Series;

use crate::store::{RoundMeta, SnapshotStore};

/// One round, classified: timeline metadata plus the per-shard derived
/// columns (`Arc`-shared with every other round that chains the same
/// blocks).
#[derive(Clone, Debug)]
pub struct ClassifiedRound {
    meta: RoundMeta,
    shards: Vec<Arc<DerivedColumn>>,
    block_size: usize,
}

impl ClassifiedRound {
    /// The round's position on the campaign timeline.
    pub fn meta(&self) -> &RoundMeta {
        &self.meta
    }

    /// The per-shard columns, in shard order.
    pub fn shards(&self) -> &[Arc<DerivedColumn>] {
        &self.shards
    }

    /// The classification of site `rank` in this round.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is outside the campaign's site count.
    pub fn class_at(&self, rank: usize) -> Adoption {
        let shard = rank / self.block_size;
        self.shards[shard].classes[rank % self.block_size].unpack()
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

/// Per-provider adoption counts folded over every round of a
/// [`ClassifiedStore`].
#[derive(Clone, Debug)]
pub struct ClassifiedQuery {
    /// Which provider the fold was restricted to (None = any provider).
    pub provider: Option<ProviderId>,
    /// Sites with DPS status ON in the *last* round.
    pub adopted_final: usize,
    /// ON-site count per round, keyed by day.
    pub adopted_series: Series,
}

/// A [`SnapshotStore`] with every round's columns assembled once — see
/// the module docs.
#[derive(Debug)]
pub struct ClassifiedStore<'a> {
    store: &'a SnapshotStore,
    rounds: Vec<ClassifiedRound>,
    index: ProviderIndex,
    cache_hits: u64,
    cache_misses: u64,
}

impl<'a> ClassifiedStore<'a> {
    /// Assembles every round of `store` from its blocks' carried columns
    /// and builds the provider index. Reads no record frame.
    pub fn build(store: &'a SnapshotStore) -> Self {
        let mut cache = ShardClassCache::new();
        let mut rounds = Vec::with_capacity(store.len());
        let mut index = ProviderIndex::new(store.sites());
        for i in 0..store.len() {
            let mut shards = Vec::with_capacity(store.shard_count() as usize);
            let mut base = 0usize;
            for (column, hit) in cache.shard_columns(&store.snapshot(i)) {
                // A column chained unchanged from the previous round (a
                // cache hit) contributes the same marks again, so the
                // index scans only the misses.
                if !hit {
                    for (i, class) in column.classes.iter().enumerate() {
                        if let Some(provider) = class.provider() {
                            index.mark(provider, base + i);
                        }
                    }
                }
                base += column.len();
                shards.push(column);
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
    /// shard-rounds chained unchanged from the previous round, misses
    /// are shard-rounds whose block the round (re)wrote.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Runs the shared snapshot fold over the rounds' shard columns,
    /// producing the same [`SnapshotAggregates`] as the live study's
    /// passes — byte-identical, because both feed the identical fold.
    /// Chained shards are the same `Arc`s round to round, so the fold
    /// skips them.
    pub fn aggregates(&self) -> SnapshotAggregates {
        let mut passes = SnapshotPasses::new(self.store.sites());
        for round in &self.rounds {
            passes.observe_shards(round.meta.day, round.meta.taken_at, &round.shards);
        }
        passes.finish()
    }

    /// Adoption fold across all providers: the ON-site count per round
    /// (Table III rules). Only sites in the any-provider posting list are
    /// consulted.
    pub fn classified(&self) -> ClassifiedQuery {
        self.classified_inner(None)
    }

    /// Adoption fold restricted to one provider; only that provider's
    /// posting list is consulted.
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

/// One classified pass shared by every plan of a query run.
///
/// Every plan's `execute_with` (see [`crate::plans`]) pulls the store's
/// rounds from here: the columns are assembled once (at build), and the
/// [`SnapshotAggregates`] fold once (memoized on first use), instead of
/// once per figure.
#[derive(Debug)]
pub struct PlanContext<'a> {
    classified: ClassifiedStore<'a>,
    aggregates: OnceCell<SnapshotAggregates>,
}

impl<'a> PlanContext<'a> {
    /// Builds a context over `store`. The columns were derived at
    /// collection, so building is a single-threaded pass whatever
    /// `workers` asks for.
    pub fn new(store: &'a SnapshotStore, _workers: usize) -> Self {
        PlanContext {
            classified: ClassifiedStore::build(store),
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
