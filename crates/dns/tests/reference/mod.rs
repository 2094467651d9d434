//! The resolver cache as it was before its records moved into one flat
//! store: a `WordMap` from `(DomainName, RecordType)` to a `CacheEntry`
//! holding its own `RecordSet`. It is the oracle the flat cache is checked
//! against (`crates/dns/tests/cache_oracle.rs`), so it lives outside `src/`
//! and names only public API.

#![allow(dead_code)]

use std::collections::hash_map::Entry;

use remnant_net::hash::WordMap;
use remnant_sim::SimTime;

use remnant_dns::{DomainName, Rcode, RecordSet, RecordType, ResourceRecord};

/// A cached entry: either records or a cached negative answer.
///
/// Records are a [`RecordSet`] value: a set of up to two records sits in
/// the entry itself, so a hit copies it out without touching the heap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// Cached records (empty for negative entries).
    pub records: RecordSet,
    /// The response code that produced this entry.
    pub rcode: Rcode,
    /// Absolute expiry instant.
    pub expires: SimTime,
}

/// TTL for cached negative answers (NXDOMAIN / NODATA).
const NEGATIVE_TTL_SECS: u64 = 900;

/// A (name, type)-keyed DNS cache with TTL expiry and full purge.
///
/// Keys hash through `WordHasher`: the name's precomputed content
/// hash and the type fold into one word each, with no SipHash rounds.
///
/// # Example
///
/// ```
/// use remnant_dns::{DomainName, RecordData, RecordType, ResolverCache, ResourceRecord, Ttl};
/// use remnant_sim::{SimDuration, SimTime};
///
/// let mut cache = ResolverCache::new();
/// let www: DomainName = "www.example.com".parse()?;
/// let rr = ResourceRecord::new(www.clone(), Ttl::secs(300), RecordData::A("1.2.3.4".parse()?));
/// cache.insert(SimTime::EPOCH, vec![rr]);
/// assert!(cache.get(SimTime::EPOCH + SimDuration::secs(299), &www, RecordType::A).is_some());
/// assert!(cache.get(SimTime::EPOCH + SimDuration::secs(301), &www, RecordType::A).is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResolverCache {
    entries: WordMap<(DomainName, RecordType), CacheEntry>,
    hits: u64,
    misses: u64,
    expired: u64,
}

impl ResolverCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ResolverCache::default()
    }

    /// Creates an empty cache that holds `entries` entries before its
    /// table first grows. Capacity changes no counter and no answer.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        ResolverCache {
            entries: WordMap::with_capacity_and_hasher(entries, Default::default()),
            ..ResolverCache::default()
        }
    }

    /// Inserts records, grouping them by (owner, type). Each group's expiry
    /// comes from the minimum TTL within the group. Empty input is a no-op.
    ///
    /// A homogeneous input (one owner/type — the common shape of an answer
    /// section) is stored as-is. A mixed section (referral glue for several
    /// hosts) is grouped in order of first occurrence. Each group replaces
    /// whatever its key held.
    pub fn insert(&mut self, now: SimTime, records: impl Into<RecordSet>) {
        let records: RecordSet = records.into();
        // Sections hold a handful of records, so scanning back for a
        // group's first occurrence is cheaper than building a map.
        for (i, head) in records.iter().enumerate() {
            let same_key = |rr: &ResourceRecord| {
                rr.record_type() == head.record_type() && rr.name == head.name
            };
            if records[..i].iter().any(same_key) {
                continue;
            }
            let group = || records[i..].iter().filter(move |rr| same_key(rr));
            let expires = group()
                .map(|rr| rr.ttl)
                .min()
                .expect("a group holds its first record")
                .expires_at(now);
            let set = if group().count() == records.len() {
                RecordSet::clone(&records)
            } else {
                group().cloned().collect()
            };
            self.entries.insert(
                (head.name.clone(), head.record_type()),
                CacheEntry {
                    records: set,
                    rcode: Rcode::NoError,
                    expires,
                },
            );
        }
    }

    /// Caches a negative answer (NXDOMAIN or NODATA) for `name`/`rtype`.
    pub fn insert_negative(
        &mut self,
        now: SimTime,
        name: DomainName,
        rtype: RecordType,
        rcode: Rcode,
    ) {
        self.entries.insert(
            (name, rtype),
            CacheEntry {
                records: RecordSet::new(),
                rcode,
                expires: now + remnant_sim::SimDuration::secs(NEGATIVE_TTL_SECS),
            },
        );
    }

    /// Unexpired records for `name`/`rtype`. Negative entries return `None`
    /// here; use [`ResolverCache::lookup`] to observe them.
    pub fn get(&mut self, now: SimTime, name: &DomainName, rtype: RecordType) -> Option<RecordSet> {
        self.lookup(now, name, rtype)
            .map(|(records, _)| records)
            .filter(|records| !records.is_empty())
    }

    /// The unexpired entry for `name`/`rtype` as its records and response
    /// code: a positive entry's records with [`Rcode::NoError`], or an
    /// empty set with a negative entry's rcode. Counts like
    /// [`ResolverCache::get`] (any unexpired entry is a hit), so a
    /// resolver's terminal check answers both "cached records?" and
    /// "cached negative?" in one hash probe.
    pub fn lookup(
        &mut self,
        now: SimTime,
        name: &DomainName,
        rtype: RecordType,
    ) -> Option<(RecordSet, Rcode)> {
        let Some(entry) = self.get_entry(now, name, rtype) else {
            self.misses += 1;
            return None;
        };
        let found = (RecordSet::clone(&entry.records), entry.rcode);
        self.hits += 1;
        Some(found)
    }

    /// The unexpired entry (positive or negative) for `name`/`rtype`.
    /// Expired entries are evicted on access (and counted as expired).
    /// Does not update hit counters.
    ///
    /// One hash probe serves the hit, the miss and the eviction alike.
    pub fn get_entry(
        &mut self,
        now: SimTime,
        name: &DomainName,
        rtype: RecordType,
    ) -> Option<&CacheEntry> {
        match self.entries.entry((name.clone(), rtype)) {
            Entry::Occupied(entry) if entry.get().expires <= now => {
                entry.remove();
                self.expired += 1;
                None
            }
            Entry::Occupied(entry) => Some(entry.into_mut()),
            Entry::Vacant(_) => None,
        }
    }

    /// True if a *negative* unexpired entry exists for `name`/`rtype`.
    pub fn has_negative(&mut self, now: SimTime, name: &DomainName, rtype: RecordType) -> bool {
        self.get_entry(now, name, rtype)
            .is_some_and(|e| e.records.is_empty())
    }

    /// Drops every entry — the pre-experiment purge from Sec IV-B.1.
    pub fn purge(&mut self) {
        self.entries.clear();
    }

    /// Drops only expired entries — positive and negative alike — and counts
    /// each eviction toward [`ResolverCache::expired_count`], matching the
    /// evict-on-access accounting in [`ResolverCache::get_entry`].
    pub fn evict_expired(&mut self, now: SimTime) {
        let before = self.entries.len();
        self.entries.retain(|_, entry| entry.expires > now);
        self.expired += (before - self.entries.len()) as u64;
    }

    /// Number of entries currently stored (including expired-but-unevicted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// (hits, misses) since construction. Purging does not reset them.
    /// An expired lookup counts as a miss; see
    /// [`ResolverCache::expired_count`] for how many misses were
    /// TTL-expired entries rather than cold ones.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries evicted on access because their TTL had lapsed. A subset
    /// of the miss count in [`ResolverCache::stats`].
    pub fn expired_count(&self) -> u64 {
        self.expired
    }
}

/// The cache's counters through the unified reading surface.
impl remnant_obs::Instrumented for ResolverCache {
    fn component(&self) -> &'static str {
        "dns.resolver_cache"
    }

    fn counters(&self) -> Vec<(remnant_obs::MetricKey, u64)> {
        vec![
            (remnant_obs::MetricKey::named("cache.hits"), self.hits),
            (remnant_obs::MetricKey::named("cache.misses"), self.misses),
            (remnant_obs::MetricKey::named("cache.expired"), self.expired),
        ]
    }
}
