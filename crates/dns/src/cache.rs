//! The recursive resolver's TTL-honoring cache.
//!
//! The paper's collector "purge\[s\] the DNS cache of the resolver before
//! performing each experiment to ensure that the newly collected records are
//! independent from the previous ones" (Sec IV-B.1) — [`ResolverCache::purge`].
//! Between purges the cache obeys TTLs against the simulation clock, which
//! is what keeps stale NS records alive after a provider switch.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use remnant_sim::SimTime;

use crate::message::Rcode;
use crate::name::{BuildNameHasher, DomainName};
use crate::record::{empty_record_set, RecordSet, RecordType, ResourceRecord};

/// A cached entry: either records or a cached negative answer.
///
/// Records are a shared [`RecordSet`], so handing a hit back to the
/// resolver clones a refcount, not the records.
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
/// Keys hash through `BuildNameHasher`: the name's precomputed content
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
    entries: HashMap<(DomainName, RecordType), CacheEntry, BuildNameHasher>,
    hits: u64,
    misses: u64,
    expired: u64,
}

impl ResolverCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ResolverCache::default()
    }

    /// Inserts records, grouping them by (owner, type). Each group's expiry
    /// comes from the minimum TTL within the group. Empty input is a no-op.
    ///
    /// A homogeneous input (one owner/type — the common shape of an answer
    /// section) is stored as-is, sharing the caller's allocation.
    pub fn insert(&mut self, now: SimTime, records: impl Into<RecordSet>) {
        let records: RecordSet = records.into();
        let Some(first) = records.first() else {
            return;
        };
        let first_key = (first.name.clone(), first.record_type());
        if records
            .iter()
            .all(|rr| rr.record_type() == first_key.1 && rr.name == first_key.0)
        {
            let min_ttl = records
                .iter()
                .map(|rr| rr.ttl)
                .min()
                .expect("set is non-empty");
            self.entries.insert(
                first_key,
                CacheEntry {
                    records,
                    rcode: Rcode::NoError,
                    expires: min_ttl.expires_at(now),
                },
            );
            return;
        }
        let mut groups: HashMap<(DomainName, RecordType), Vec<ResourceRecord>, BuildNameHasher> =
            HashMap::default();
        for rr in records.iter() {
            groups
                .entry((rr.name.clone(), rr.record_type()))
                .or_default()
                .push(rr.clone());
        }
        for (key, rrs) in groups {
            let min_ttl = rrs
                .iter()
                .map(|rr| rr.ttl)
                .min()
                .expect("group is non-empty by construction");
            self.entries.insert(
                key,
                CacheEntry {
                    records: rrs.into(),
                    rcode: Rcode::NoError,
                    expires: min_ttl.expires_at(now),
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
                records: empty_record_set(),
                rcode,
                expires: now + remnant_sim::SimDuration::secs(NEGATIVE_TTL_SECS),
            },
        );
    }

    /// Unexpired records for `name`/`rtype`. Negative entries return `None`
    /// here; use [`ResolverCache::get_entry`] to observe them.
    ///
    /// A hit returns a handle to the shared record set; no records are
    /// copied.
    pub fn get(&mut self, now: SimTime, name: &DomainName, rtype: RecordType) -> Option<RecordSet> {
        match self.get_entry(now, name, rtype) {
            Some(entry) if !entry.records.is_empty() => {
                let records = RecordSet::clone(&entry.records);
                self.hits += 1;
                Some(records)
            }
            Some(_) => {
                self.hits += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
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
}
