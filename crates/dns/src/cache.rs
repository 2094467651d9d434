//! The recursive resolver's TTL-honoring cache.
//!
//! The paper's collector "purge\[s\] the DNS cache of the resolver before
//! performing each experiment to ensure that the newly collected records are
//! independent from the previous ones" (Sec IV-B.1) — [`ResolverCache::purge`].
//! Between purges the cache obeys TTLs against the simulation clock, which
//! is what keeps stale NS records alive after a provider switch.

use std::collections::hash_map::Entry;

use remnant_net::hash::WordMap;
use remnant_sim::SimTime;

use crate::message::Rcode;
use crate::name::DomainName;
use crate::record::{RecordSet, RecordType, ResourceRecord};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordData, Ttl};
    use remnant_sim::SimDuration;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    fn a(owner: &str, ttl: u32, ip: [u8; 4]) -> ResourceRecord {
        ResourceRecord::new(name(owner), Ttl::secs(ttl), RecordData::A(ip.into()))
    }

    #[test]
    fn expiry_is_exact() {
        let mut cache = ResolverCache::new();
        cache.insert(SimTime::EPOCH, vec![a("x.com", 100, [1, 1, 1, 1])]);
        let just_before = SimTime::from_secs(99);
        let at = SimTime::from_secs(100);
        assert!(cache
            .get(just_before, &name("x.com"), RecordType::A)
            .is_some());
        assert!(cache.get(at, &name("x.com"), RecordType::A).is_none());
    }

    #[test]
    fn group_uses_min_ttl() {
        let mut cache = ResolverCache::new();
        cache.insert(
            SimTime::EPOCH,
            vec![a("x.com", 50, [1, 1, 1, 1]), a("x.com", 500, [2, 2, 2, 2])],
        );
        assert!(cache
            .get(SimTime::from_secs(51), &name("x.com"), RecordType::A)
            .is_none());
    }

    #[test]
    fn mixed_types_are_cached_separately() {
        let mut cache = ResolverCache::new();
        let ns = ResourceRecord::new(
            name("x.com"),
            Ttl::days(2),
            RecordData::Ns(name("ns.x.com")),
        );
        cache.insert(SimTime::EPOCH, vec![a("x.com", 60, [1, 1, 1, 1]), ns]);
        let later = SimTime::from_secs(3600);
        assert!(cache.get(later, &name("x.com"), RecordType::A).is_none());
        assert!(cache.get(later, &name("x.com"), RecordType::Ns).is_some());
    }

    #[test]
    fn purge_clears_everything() {
        let mut cache = ResolverCache::new();
        cache.insert(SimTime::EPOCH, vec![a("x.com", 1000, [1, 1, 1, 1])]);
        cache.insert_negative(
            SimTime::EPOCH,
            name("y.com"),
            RecordType::A,
            Rcode::NxDomain,
        );
        cache.purge();
        assert!(cache.is_empty());
        assert!(cache
            .get(SimTime::EPOCH, &name("x.com"), RecordType::A)
            .is_none());
    }

    #[test]
    fn negative_entries_visible_via_entry_api() {
        let mut cache = ResolverCache::new();
        cache.insert_negative(
            SimTime::EPOCH,
            name("y.com"),
            RecordType::A,
            Rcode::NxDomain,
        );
        assert!(cache
            .get(SimTime::EPOCH, &name("y.com"), RecordType::A)
            .is_none());
        assert!(cache.has_negative(SimTime::EPOCH, &name("y.com"), RecordType::A));
        let entry = cache
            .get_entry(SimTime::EPOCH, &name("y.com"), RecordType::A)
            .unwrap();
        assert_eq!(entry.rcode, Rcode::NxDomain);
        // Negative entries expire too.
        let later = SimTime::EPOCH + SimDuration::secs(NEGATIVE_TTL_SECS + 1);
        assert!(!cache.has_negative(later, &name("y.com"), RecordType::A));
    }

    #[test]
    fn evict_expired_retains_live_entries() {
        let mut cache = ResolverCache::new();
        cache.insert(SimTime::EPOCH, vec![a("short.com", 10, [1, 1, 1, 1])]);
        cache.insert(SimTime::EPOCH, vec![a("long.com", 1000, [2, 2, 2, 2])]);
        cache.evict_expired(SimTime::from_secs(11));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evict_expired_sweeps_positive_and_negative_entries_together() {
        let mut cache = ResolverCache::new();
        // Positive entry expiring at t=10, negative at t=NEGATIVE_TTL_SECS,
        // and one long-lived survivor of each kind.
        cache.insert(SimTime::EPOCH, vec![a("short.com", 10, [1, 1, 1, 1])]);
        cache.insert(SimTime::EPOCH, vec![a("long.com", 1_000_000, [2, 2, 2, 2])]);
        cache.insert_negative(
            SimTime::EPOCH,
            name("gone.com"),
            RecordType::A,
            Rcode::NxDomain,
        );
        let late = SimTime::from_secs(NEGATIVE_TTL_SECS + 1);
        cache.insert_negative(late, name("fresh.com"), RecordType::A, Rcode::NxDomain);
        assert_eq!(cache.len(), 4);

        // One pass past both expiry horizons evicts the expired positive AND
        // the expired negative entry, and counts both as expirations.
        cache.evict_expired(late);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.expired_count(), 2);
        assert!(cache.get(late, &name("long.com"), RecordType::A).is_some());
        assert!(cache.has_negative(late, &name("fresh.com"), RecordType::A));
        assert!(!cache.has_negative(late, &name("gone.com"), RecordType::A));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut cache = ResolverCache::new();
        cache.insert(SimTime::EPOCH, vec![a("x.com", 100, [1, 1, 1, 1])]);
        let _ = cache.get(SimTime::EPOCH, &name("x.com"), RecordType::A);
        let _ = cache.get(SimTime::EPOCH, &name("nope.com"), RecordType::A);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.expired_count(), 0);
    }

    #[test]
    fn expired_lookups_count_as_expired_misses() {
        use remnant_obs::Instrumented;

        let mut cache = ResolverCache::new();
        cache.insert(SimTime::EPOCH, vec![a("x.com", 100, [1, 1, 1, 1])]);
        let _ = cache.get(SimTime::from_secs(200), &name("x.com"), RecordType::A);
        assert_eq!(cache.stats(), (0, 1), "expired lookup is a miss");
        assert_eq!(cache.expired_count(), 1);
        let mut registry = remnant_obs::MetricsRegistry::new();
        cache.export_into(&mut registry);
        assert_eq!(
            registry.counter_labeled("cache.expired", &[("component", "dns.resolver_cache")]),
            1
        );
    }

    #[test]
    fn insert_empty_is_noop() {
        let mut cache = ResolverCache::new();
        cache.insert(SimTime::EPOCH, vec![]);
        assert!(cache.is_empty());
    }

    #[test]
    fn mixed_section_keeps_identical_entries_and_replaces_changed_ones() {
        let glue = |ip: [u8; 4]| {
            RecordSet::from([
                a("ns1.host.net", 3600, [10, 0, 0, 1]),
                a("ns2.host.net", 3600, ip),
                a("ns1.host.net", 600, [10, 0, 0, 3]),
            ])
        };
        let ns1 = name("ns1.host.net");
        let ns2 = name("ns2.host.net");
        let stored = |cache: &mut ResolverCache, now: SimTime, host: &DomainName| {
            let entry = cache
                .get_entry(now, host, RecordType::A)
                .expect("glue is cached");
            (entry.records.to_vec(), entry.expires)
        };
        let ns1_group = vec![
            a("ns1.host.net", 3600, [10, 0, 0, 1]),
            a("ns1.host.net", 600, [10, 0, 0, 3]),
        ];
        let mut cache = ResolverCache::new();
        cache.insert(SimTime::EPOCH, glue([10, 0, 0, 2]));
        // Groups follow first occurrence and take their minimum TTL.
        let first_ns1 = (ns1_group.clone(), SimTime::from_secs(600));
        let first_ns2 = (
            vec![a("ns2.host.net", 3600, [10, 0, 0, 2])],
            SimTime::from_secs(3600),
        );
        assert_eq!(stored(&mut cache, SimTime::EPOCH, &ns1), first_ns1);
        assert_eq!(stored(&mut cache, SimTime::EPOCH, &ns2), first_ns2);

        // The same glue at the same instant leaves both entries as they were.
        cache.insert(SimTime::EPOCH, glue([10, 0, 0, 2]));
        assert_eq!(stored(&mut cache, SimTime::EPOCH, &ns1), first_ns1);
        assert_eq!(stored(&mut cache, SimTime::EPOCH, &ns2), first_ns2);
        assert_eq!(cache.len(), 2);

        // A changed address replaces only the changed group.
        cache.insert(SimTime::EPOCH, glue([10, 0, 0, 9]));
        assert_eq!(stored(&mut cache, SimTime::EPOCH, &ns1), first_ns1);
        let changed_ns2 = vec![a("ns2.host.net", 3600, [10, 0, 0, 9])];
        assert_eq!(
            stored(&mut cache, SimTime::EPOCH, &ns2),
            (changed_ns2.clone(), SimTime::from_secs(3600))
        );

        // A later instant moves the expiry, so every group is replaced.
        let later = SimTime::from_secs(10);
        cache.insert(later, glue([10, 0, 0, 9]));
        assert_eq!(
            stored(&mut cache, later, &ns1),
            (ns1_group, SimTime::from_secs(610))
        );
        assert_eq!(
            stored(&mut cache, later, &ns2),
            (changed_ns2, SimTime::from_secs(3610))
        );

        // Inserts never touch the counters.
        assert_eq!(cache.stats(), (0, 0));
        assert_eq!(cache.expired_count(), 0);
    }
}
