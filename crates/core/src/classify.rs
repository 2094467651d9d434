//! Derived columns: what the pipeline reads from a block's records,
//! computed once when the block is collected.
//!
//! The paper reduces each daily round to an adoption class per site
//! (Sec IV) and, for the residual scans, the Cloudflare fleet NS hosts
//! and the Incapsula CNAME tokens (Sec V-A.1, V-B). All of it is a pure
//! function of a block's records, so it is derived once per block, by
//! [`DerivedColumn::derive`], in one walk over the block's sites that
//! reads each name's verdict word once (see [`crate::matchers`]) and
//! packs each class as it is decided. The collector calls it in each
//! shard's finish step, on the worker that resolved the shard, and
//! snapshots assembled site by site
//! ([`crate::snapshot::SnapshotBuilder`]) call it as each block fills.
//! The block's [`BlockSource`] carries the resulting [`DerivedColumn`]
//! wherever the block goes: replayed by a delta round, spilled beside
//! the block's record frame, reopened by a snapshot store.
//!
//! The snapshot passes, both residual harvests and the query layer's
//! `ClassifiedStore` therefore read columns only; record frames are
//! decoded only by code that needs records (the Table V candidates and
//! [`DnsSnapshot`] consumers).
//!
//! [`ShardClassCache`] keeps the reuse accounting: a block whose column
//! is the previous round's at the same position (`Arc::ptr_eq`: the
//! block's identity, see [`BlockSource`]) is a hit — a clean shard
//! chained unchanged — and every other block a miss. Its counts are
//! deliberately kept out of the byte-compared study reports (the
//! `CollectionReport` discipline): they depend on the collection mode,
//! and full-vs-delta equivalence tests compare reports byte-for-byte.
//! Read them via [`ShardClassCache::hits`]/[`ShardClassCache::misses`].
//!
//! [`BlockSource`]: crate::snapshot::BlockSource

use std::sync::Arc;

use remnant_dns::DomainName;
use remnant_engine::ScanEngine;

use crate::adoption::{Adoption, PackedAdoption};
use crate::behavior::BehaviorDetector;
use crate::matchers::{Fingerprint, NameVerdict, RecordMatches};
use crate::snapshot::{DnsSnapshot, RecordBlock};

/// One block's derived column (see the module docs). Shared by `Arc`, so
/// a replayed block's column is reused across rounds without copying.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DerivedColumn {
    /// Per-site adoption classes, in block-local site order.
    pub classes: Vec<PackedAdoption>,
    /// Block-local indices of sites flagged as multi-CDN front-ends
    /// (Sec IV-B.3 exclusion), ascending.
    pub multi_cdn: Vec<u32>,
    /// Cloudflare fleet candidates' block-local sites, parallel to
    /// [`fleet_ns`](Self::fleet_ns).
    pub fleet_sites: Vec<u32>,
    /// Cloudflare fleet candidates: every NS host whose labels contain
    /// [`CLOUDFLARE_NS_FINGERPRINT`], in site order with repeats kept.
    /// (Two parallel columns rather than pairs: a third less memory.)
    ///
    /// [`CLOUDFLARE_NS_FINGERPRINT`]: crate::residual::CLOUDFLARE_NS_FINGERPRINT
    pub fleet_ns: Vec<DomainName>,
    /// Incapsula tokens: `(block-local site, first CNAME whose labels
    /// contain [`INCAPSULA_CNAME_FINGERPRINT`])`, in site order.
    ///
    /// [`INCAPSULA_CNAME_FINGERPRINT`]: crate::residual::INCAPSULA_CNAME_FINGERPRINT
    pub incap_tokens: Vec<(u32, DomainName)>,
}

impl DerivedColumn {
    /// Derives a block's column in one walk over its sites: each name's
    /// verdict word (`NameVerdict`) is read once and yields the site's
    /// CNAME or NS match, its multi-CDN mark and its fleet or token
    /// candidacy, and the class is packed as it is decided. The one
    /// derivation every path uses; it equals the standard detector's
    /// [`BehaviorDetector::classify_block`] plus the two residual
    /// fingerprints' record walks ([`fleet_candidates`],
    /// [`token_candidates`]).
    ///
    /// [`fleet_candidates`]: crate::residual::cloudflare::fleet_candidates
    /// [`token_candidates`]: crate::residual::incapsula::token_candidates
    pub fn derive(block: &RecordBlock) -> Self {
        let matcher = BehaviorDetector::standard().matcher();
        let mut column = DerivedColumn {
            classes: Vec::with_capacity(block.len()),
            ..DerivedColumn::default()
        };
        for (i, site) in (0u32..).zip(block.sites()) {
            let (mut cname, mut multi_cdn, mut token) = (None, false, None);
            for name in site.cnames {
                let verdict = NameVerdict::of(name);
                cname = cname.or(verdict.cname_match());
                multi_cdn |= verdict.has(Fingerprint::MultiCdn);
                if token.is_none() && verdict.has(Fingerprint::IncapsulaCname) {
                    token = Some(name);
                }
            }
            let mut ns = None;
            for host in site.ns {
                let verdict = NameVerdict::of(host);
                ns = ns.or(verdict.ns_match());
                if verdict.has(Fingerprint::CloudflareNs) {
                    column.fleet_sites.push(i);
                    column.fleet_ns.push(host.clone());
                }
            }
            let matches = RecordMatches {
                a: matcher.a_match_any(site.a),
                cname,
                ns,
            };
            column
                .classes
                .push(PackedAdoption::pack(&Adoption::from_matches(matches)));
            if multi_cdn {
                column.multi_cdn.push(i);
            }
            if let Some(token) = token {
                column.incap_tokens.push((i, token.clone()));
            }
        }
        // Columns outlive their round (the spill chain, a store), so
        // they keep no growth slack.
        column.multi_cdn.shrink_to_fit();
        column.fleet_sites.shrink_to_fit();
        column.fleet_ns.shrink_to_fit();
        column.incap_tokens.shrink_to_fit();
        column
    }

    /// Number of sites the column covers.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if the column covers no sites.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
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

/// Concatenates per-block columns (in block order) into one round's
/// full-length columns, unpacking the classes.
pub fn concat_columns<'a>(
    blocks: impl IntoIterator<Item = &'a DerivedColumn> + Clone,
) -> SnapshotColumns {
    let total: usize = blocks.clone().into_iter().map(DerivedColumn::len).sum();
    let mut columns = SnapshotColumns {
        classes: Vec::with_capacity(total),
        multi_cdn_ranks: Vec::new(),
    };
    for block in blocks {
        let base = columns.classes.len();
        columns
            .multi_cdn_ranks
            .extend(block.multi_cdn.iter().map(|&i| base + i as usize));
        columns
            .classes
            .extend(block.classes.iter().map(|class| class.unpack()));
    }
    columns
}

/// The reuse accounting over carried columns — see the module docs.
#[derive(Debug, Default)]
pub struct ShardClassCache {
    /// The previous round's columns. Held so their allocations cannot be
    /// reused by a new block's column while compared.
    previous: Vec<Arc<DerivedColumn>>,
    hits: u64,
    misses: u64,
}

impl ShardClassCache {
    /// Creates a cache that has seen no round.
    pub fn new() -> Self {
        ShardClassCache::default()
    }

    /// Blocks whose column was the previous round's at the same position.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Blocks seen for the first time at their position.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// One round's carried columns, in block order, each paired with its
    /// verdict: `true` (a hit) if it is the previous round's column at the
    /// same position, `false` (a miss) otherwise.
    pub fn shard_columns(&mut self, snapshot: &DnsSnapshot) -> Vec<(Arc<DerivedColumn>, bool)> {
        let columns: Vec<Arc<DerivedColumn>> = snapshot
            .block_sources()
            .map(|(_, source)| Arc::clone(source.derived()))
            .collect();
        let shards = columns
            .iter()
            .enumerate()
            .map(|(i, column)| {
                let hit = self.previous.get(i).is_some_and(|p| Arc::ptr_eq(p, column));
                if hit {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                (Arc::clone(column), hit)
            })
            .collect();
        self.previous = columns;
        shards
    }

    /// One round's carried columns, counted as
    /// [`shard_columns`](Self::shard_columns) counts them, then
    /// concatenated: the shape [`crate::SnapshotPasses::observe_columns`]
    /// takes. Columns are derived at collection, so `engine` and
    /// `detector` are not consulted.
    pub fn classify_snapshot(
        &mut self,
        _engine: &ScanEngine,
        _detector: &BehaviorDetector,
        snapshot: &DnsSnapshot,
    ) -> SnapshotColumns {
        let shards = self.shard_columns(snapshot);
        concat_columns(shards.iter().map(|(column, _)| column.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residual::cloudflare::fleet_candidates;
    use crate::residual::incapsula::token_candidates;
    use crate::snapshot::SiteRecords;
    use remnant_engine::EngineConfig;
    use remnant_sim::SimTime;

    fn engine(workers: usize) -> ScanEngine {
        ScanEngine::new(EngineConfig::with_workers(workers, 7).expect("valid engine config"))
    }

    fn site(i: usize) -> SiteRecords {
        let ns = if i.is_multiple_of(3) {
            format!("ns{}.ns.cloudflare.com", i % 2)
        } else {
            format!("ns{i}.example.net")
        };
        SiteRecords {
            a: vec![std::net::Ipv4Addr::new(203, 0, 113, (i % 250) as u8 + 1)],
            cnames: if i.is_multiple_of(5) {
                vec![format!("x{i}.incapdns.net").parse().expect("valid name")]
            } else {
                Vec::new()
            },
            ns: vec![ns.parse().expect("valid name")],
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
    fn replayed_sources_hit_rebuilt_blocks_miss() {
        let mut cache = ShardClassCache::new();
        let snap = snapshot(0, 40, 8);
        let first = cache.shard_columns(&snap);
        assert_eq!((cache.hits(), cache.misses()), (0, 5));
        assert!(first.iter().all(|(_, hit)| !hit));

        // The same snapshot (same sources) is all hits, sharing columns...
        let again = cache.shard_columns(&snap.clone());
        assert_eq!((cache.hits(), cache.misses()), (5, 5));
        for ((a, _), (b, hit)) in first.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b) && *hit, "columns are shared");
        }

        // ...while a byte-identical rebuild (fresh allocations) misses.
        let rebuilt = snapshot(1, 40, 8);
        let fresh = cache.shard_columns(&rebuilt);
        assert_eq!((cache.hits(), cache.misses()), (5, 10));
        for ((a, _), (b, hit)) in first.iter().zip(&fresh) {
            assert!(a == b && !hit, "same bytes, same columns, fresh identity");
        }
    }

    #[test]
    fn builder_derived_columns_match_the_record_walks() {
        let snap = snapshot(0, 100, 16);
        let detector = BehaviorDetector::new();
        for (loaded, (_, source)) in snap.blocks().zip(snap.block_sources()) {
            let block = loaded.block.as_ref();
            let column = source.derived().as_ref();
            let (classes, multi_cdn) = detector.classify_block(block);
            let unpacked: Vec<Adoption> = column.classes.iter().map(|c| c.unpack()).collect();
            assert_eq!(unpacked, classes);
            assert_eq!(column.multi_cdn, multi_cdn);
            let fleet: Vec<(u32, DomainName)> = column
                .fleet_sites
                .iter()
                .copied()
                .zip(column.fleet_ns.iter().cloned())
                .collect();
            assert_eq!(fleet, fleet_candidates(block, "Cloudflare"));
            assert_eq!(column.incap_tokens, token_candidates(block, "INCAPDNS"));
            assert_eq!(column, &DerivedColumn::derive(block), "one derivation");
        }
        let fleet: usize = columns_of(&snap).map(|c| c.fleet_ns.len()).sum();
        let tokens: usize = columns_of(&snap).map(|c| c.incap_tokens.len()).sum();
        assert_eq!((fleet, tokens), (34, 20));
    }

    fn columns_of(snap: &DnsSnapshot) -> impl Iterator<Item = Arc<DerivedColumn>> + '_ {
        snap.block_sources().map(|(_, s)| Arc::clone(s.derived()))
    }

    #[test]
    fn classify_snapshot_matches_the_detector() {
        let detector = BehaviorDetector::new();
        let snap = snapshot(0, 100, 16);
        let mut cache = ShardClassCache::new();
        let columns = cache.classify_snapshot(&engine(1), &detector, &snap);
        assert_eq!(columns.classes, detector.classify_snapshot(&snap));
    }

    #[test]
    fn concat_rebases_multi_cdn_ranks() {
        let col = |n: usize, flagged: Vec<u32>| DerivedColumn {
            classes: vec![PackedAdoption::pack(&Adoption::NONE); n],
            multi_cdn: flagged,
            ..DerivedColumn::default()
        };
        let blocks = [col(4, vec![1, 3]), col(3, vec![0])];
        let columns = concat_columns(&blocks);
        assert_eq!(columns.classes.len(), 7);
        assert_eq!(columns.multi_cdn_ranks, [1, 3, 4]);
    }
}
