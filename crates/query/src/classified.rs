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
//! under that provider. The residual-scan plan then iterates only those
//! sites: for realistic adoption rates this skips the overwhelming
//! non-adopting majority.
//!
//! [`PlanContext`] wraps the classified store with a memoized
//! [`SnapshotAggregates`] fold so every plan of a `repro query` run
//! shares one pass over the columns — see [`crate::plans`].

use std::cell::OnceCell;
use std::sync::Arc;

use remnant_core::classify::{DerivedColumn, ShardClassCache};
use remnant_core::{Adoption, SnapshotAggregates, SnapshotPasses};
use remnant_provider::ProviderId;

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

    /// Ranks ever classified under `provider`, ascending.
    pub fn postings(&self, provider: ProviderId) -> impl Iterator<Item = usize> + '_ {
        bitset_iter(&self.bits[provider.index()], self.sites)
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

    /// The classified rounds and provider index.
    pub fn classified(&self) -> &ClassifiedStore<'a> {
        &self.classified
    }

    /// The shared snapshot fold, computed on first use.
    pub fn aggregates(&self) -> &SnapshotAggregates {
        self.aggregates.get_or_init(|| self.classified.aggregates())
    }
}
