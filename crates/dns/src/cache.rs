//! The recursive resolver's TTL-honoring cache.
//!
//! The paper's collector "purge\[s\] the DNS cache of the resolver before
//! performing each experiment to ensure that the newly collected records are
//! independent from the previous ones" (Sec IV-B.1) — [`ResolverCache::purge`].
//! Between purges the cache obeys TTLs against the simulation clock, which
//! is what keeps stale NS records alive after a provider switch.

use remnant_net::hash::WordMap;
use remnant_sim::SimTime;

use crate::message::Rcode;
use crate::name::DomainName;
use crate::record::{RecordSet, RecordType, ResourceRecord};

/// Where a cached entry's records sit in the store, and what they answer.
///
/// A negative entry (NXDOMAIN / NODATA) holds no records and carries the
/// rcode that produced it; a positive one carries [`Rcode::NoError`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    /// Index of the entry's first record in the store.
    start: u32,
    /// Number of records (0 for a negative entry).
    len: u32,
    /// Absolute expiry instant.
    expires: SimTime,
    /// The response code that produced this entry.
    pub(crate) rcode: Rcode,
}

impl Slot {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// True for a negative entry.
    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// TTL for cached negative answers (NXDOMAIN / NODATA).
const NEGATIVE_TTL_SECS: u64 = 900;

/// A (name, type)-keyed DNS cache with TTL expiry and full purge.
///
/// Every cached record sits in one store; the table maps each key to a
/// `Copy` slot — the range of its records in the store, its expiry
/// and its rcode — so a bucket is 40 bytes with no drop glue, and a hit
/// copies out only the records its caller keeps. A replaced entry
/// reuses its range when the new group fits and otherwise appends; the
/// records a replacement or an eviction leaves behind are dead, and the
/// store is compacted once they outnumber the live ones, so a cache that
/// is never purged stays within twice its live records.
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
#[derive(Clone, Debug, Default)]
pub struct ResolverCache {
    slots: WordMap<(DomainName, RecordType), Slot>,
    /// Every slot's records, each slot's in one run; runs no slot owns
    /// are dead.
    store: Vec<ResourceRecord>,
    /// Records the slots own: `store.len() - live` are dead.
    live: usize,
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
    /// table first grows, with room for one and a half records per entry
    /// in its store (a collection sweep's entries hold ≈ 1.46). Capacity
    /// changes no counter and no answer.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        ResolverCache {
            slots: WordMap::with_capacity_and_hasher(entries, Default::default()),
            store: Vec::with_capacity(entries + entries / 2),
            ..ResolverCache::default()
        }
    }

    /// Inserts records, grouping them by (owner, type). Each group's expiry
    /// comes from the minimum TTL within the group. Empty input is a no-op.
    ///
    /// Groups are stored in order of first occurrence, each keeping its
    /// records in section order, and each replaces whatever its key held.
    ///
    /// A section is walked run by run, a run being consecutive records of
    /// one key. Every section the fabric sends is runs of distinct keys (a
    /// referral's NS run, then one glue run per host), and each such run
    /// is stored as it stands: one table entry and one slice copy. A key
    /// whose records are split across the section is gathered at its
    /// first run and skipped at the later ones.
    pub fn insert(&mut self, now: SimTime, records: impl Into<RecordSet>) {
        let records: RecordSet = records.into();
        // Sections hold a handful of records, so scanning for a key's
        // other runs is cheaper than building a map; only a section with a
        // split key has earlier runs worth scanning.
        let mut split = false;
        let mut start = 0;
        while let Some(head) = records.get(start) {
            let same_key = |rr: &ResourceRecord| {
                rr.record_type() == head.record_type() && rr.name == head.name
            };
            let len = records[start..]
                .iter()
                .take_while(|rr| same_key(rr))
                .count();
            let run = start..start + len;
            start = run.end;
            let gathered: Vec<ResourceRecord>;
            let group = if split && records[..run.start].iter().any(same_key) {
                continue; // gathered at the key's first run
            } else if records[run.end..].iter().any(same_key) {
                split = true;
                gathered = records[run.start..]
                    .iter()
                    .filter(|rr| same_key(rr))
                    .cloned()
                    .collect();
                &gathered[..]
            } else {
                &records[run]
            };
            let ttl = group.iter().fold(head.ttl, |min, rr| min.min(rr.ttl));
            self.put(
                (head.name.clone(), head.record_type()),
                ttl.expires_at(now),
                Rcode::NoError,
                group,
            );
        }
        self.compact_if_sparse();
    }

    /// Caches a negative answer (NXDOMAIN or NODATA) for `name`/`rtype`.
    pub fn insert_negative(
        &mut self,
        now: SimTime,
        name: DomainName,
        rtype: RecordType,
        rcode: Rcode,
    ) {
        let expires = now + remnant_sim::SimDuration::secs(NEGATIVE_TTL_SECS);
        self.put((name, rtype), expires, rcode, &[]);
        self.compact_if_sparse();
    }

    /// Points `key` at a copy of `group`: in its old range when it fits,
    /// else appended to the store.
    fn put(
        &mut self,
        key: (DomainName, RecordType),
        expires: SimTime,
        rcode: Rcode,
        group: &[ResourceRecord],
    ) {
        let len = group.len();
        let slot = self.slots.entry(key).or_insert(Slot {
            start: 0,
            len: 0,
            expires,
            rcode,
        });
        self.live -= slot.len as usize;
        if len <= slot.len as usize {
            let start = slot.start as usize;
            self.store[start..start + len].clone_from_slice(group);
        } else {
            slot.start = self.store.len() as u32;
            self.store.extend_from_slice(group);
            // Every write checks this, so each slot's start and length,
            // both at most the store's length, fit their `u32` fields.
            assert!(
                u32::try_from(self.store.len()).is_ok(),
                "a resolver cache holds fewer than 2^32 records"
            );
        }
        slot.len = len as u32;
        slot.expires = expires;
        slot.rcode = rcode;
        self.live += len;
    }

    /// Rebuilds the store from the live runs once dead records outnumber
    /// live ones, so it never holds more than twice its live records.
    fn compact_if_sparse(&mut self) {
        if self.store.len() - self.live <= self.live {
            return;
        }
        let mut store = Vec::with_capacity(self.live);
        for slot in self.slots.values_mut() {
            let range = slot.range();
            slot.start = store.len() as u32;
            store.extend_from_slice(&self.store[range]);
        }
        self.store = store;
    }

    /// Unexpired records for `name`/`rtype`. Negative entries return `None`
    /// here; use [`ResolverCache::lookup`] to observe them.
    pub fn get(&mut self, now: SimTime, name: &DomainName, rtype: RecordType) -> Option<RecordSet> {
        self.probe(now, name, rtype)
            .filter(|slot| !slot.is_empty())
            .map(|slot| self.records(slot).iter().cloned().collect())
    }

    /// The unexpired entry for `name`/`rtype` as its records and response
    /// code: a positive entry's records with [`Rcode::NoError`], or an
    /// empty set with a negative entry's rcode. Counts like
    /// [`ResolverCache::get`] (any unexpired entry is a hit).
    pub fn lookup(
        &mut self,
        now: SimTime,
        name: &DomainName,
        rtype: RecordType,
    ) -> Option<(RecordSet, Rcode)> {
        let slot = self.probe(now, name, rtype)?;
        Some((self.records(slot).iter().cloned().collect(), slot.rcode))
    }

    /// The unexpired entry for `name`/`rtype`, counted as a hit, or `None`,
    /// counted as a miss. Read its records with [`ResolverCache::records`]:
    /// nothing moves them before the next insert, so a resolver can walk
    /// one entry's records while it probes for others.
    ///
    /// This is the one probe behind [`ResolverCache::get`] and
    /// [`ResolverCache::lookup`]; the resolver calls it directly, so a
    /// terminal check answers both "cached records?" and "cached
    /// negative?" at once and copies only what the resolution keeps.
    #[inline]
    pub(crate) fn probe(
        &mut self,
        now: SimTime,
        name: &DomainName,
        rtype: RecordType,
    ) -> Option<Slot> {
        let Some(slot) = self.live_slot(now, name, rtype) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        Some(slot)
    }

    /// The records of a slot [`ResolverCache::probe`] returned.
    #[inline]
    pub(crate) fn records(&self, slot: Slot) -> &[ResourceRecord] {
        &self.store[slot.range()]
    }

    /// The unexpired slot (positive or negative) for `name`/`rtype`.
    /// An expired entry is evicted on access and counted as expired; its
    /// records stay in the store, dead, until the next compaction. Does
    /// not update hit counters.
    #[inline]
    fn live_slot(&mut self, now: SimTime, name: &DomainName, rtype: RecordType) -> Option<Slot> {
        let key = (name.clone(), rtype);
        let slot = *self.slots.get(&key)?;
        if slot.expires > now {
            return Some(slot);
        }
        self.slots.remove(&key);
        self.live -= slot.len as usize;
        self.expired += 1;
        None
    }

    /// True if a *negative* unexpired entry exists for `name`/`rtype`.
    pub fn has_negative(&mut self, now: SimTime, name: &DomainName, rtype: RecordType) -> bool {
        self.live_slot(now, name, rtype).is_some_and(Slot::is_empty)
    }

    /// Drops every entry — the pre-experiment purge from Sec IV-B.1.
    pub fn purge(&mut self) {
        self.slots.clear();
        self.store.clear();
        self.live = 0;
    }

    /// Drops only expired entries — positive and negative alike — and counts
    /// each eviction toward [`ResolverCache::expired_count`], matching the
    /// evict-on-access accounting of the lookups.
    pub fn evict_expired(&mut self, now: SimTime) {
        let before = self.slots.len();
        let mut evicted = 0;
        self.slots.retain(|_, slot| {
            let keep = slot.expires > now;
            if !keep {
                evicted += slot.len as usize;
            }
            keep
        });
        self.live -= evicted;
        self.expired += (before - self.slots.len()) as u64;
        self.compact_if_sparse();
    }

    /// Number of entries currently stored (including expired-but-unevicted).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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

    /// (records in the store, records the entries own).
    #[cfg(test)]
    pub(crate) fn store_usage(&self) -> (usize, usize) {
        (self.store.len(), self.live)
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
        let slot = cache
            .live_slot(SimTime::EPOCH, &name("y.com"), RecordType::A)
            .unwrap();
        assert_eq!(slot.rcode, Rcode::NxDomain);
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
    fn a_bucket_is_forty_bytes_with_no_drop_glue() {
        type Bucket = ((DomainName, RecordType), Slot);
        assert_eq!(std::mem::size_of::<Bucket>(), 40);
        assert!(!std::mem::needs_drop::<Bucket>());
    }

    #[test]
    fn a_replacement_reuses_its_range_when_it_fits() {
        let x = |ips: &[u8]| -> Vec<ResourceRecord> {
            ips.iter()
                .map(|&ip| a("x.com", 100, [10, 0, 0, ip]))
                .collect()
        };
        let mut cache = ResolverCache::new();
        cache.insert(SimTime::EPOCH, x(&[1, 2]));
        assert_eq!(cache.store_usage(), (2, 2));
        cache.insert(SimTime::EPOCH, x(&[3, 4]));
        assert_eq!(cache.store_usage(), (2, 2));
        // A smaller group overwrites the front of the range; its tail is dead.
        cache.insert(SimTime::EPOCH, x(&[5]));
        assert_eq!(cache.store_usage(), (2, 1));
        assert_eq!(
            cache.get(SimTime::EPOCH, &name("x.com"), RecordType::A),
            Some(RecordSet::from(x(&[5])))
        );
        // A larger group is appended, leaving its old range dead.
        cache.insert(SimTime::EPOCH, x(&[6, 7, 8]));
        assert_eq!(cache.store_usage(), (5, 3));
        assert_eq!(
            cache.get(SimTime::EPOCH, &name("x.com"), RecordType::A),
            Some(RecordSet::from(x(&[6, 7, 8])))
        );
    }

    #[test]
    fn the_store_compacts_once_dead_records_outnumber_live_ones() {
        let mut cache = ResolverCache::new();
        cache.insert(SimTime::EPOCH, vec![a("keep.com", 1000, [1, 1, 1, 1])]);
        cache.insert(
            SimTime::EPOCH,
            vec![a("x.com", 10, [2, 2, 2, 2]), a("x.com", 10, [3, 3, 3, 3])],
        );
        assert_eq!(cache.store_usage(), (3, 3));
        // Evicting x.com on access leaves two dead records beside one live
        // one; the store holds them until the next write.
        assert!(cache
            .get(SimTime::from_secs(20), &name("x.com"), RecordType::A)
            .is_none());
        assert_eq!(cache.store_usage(), (3, 1));
        cache.insert_negative(
            SimTime::from_secs(20),
            name("y.com"),
            RecordType::A,
            Rcode::NxDomain,
        );
        assert_eq!(cache.store_usage(), (1, 1));
        assert_eq!(
            cache.get(SimTime::from_secs(20), &name("keep.com"), RecordType::A),
            Some(RecordSet::from([a("keep.com", 1000, [1, 1, 1, 1])]))
        );
        // A negative entry replacing a positive one frees its records too.
        cache.insert_negative(
            SimTime::from_secs(20),
            name("keep.com"),
            RecordType::A,
            Rcode::NoError,
        );
        assert_eq!(cache.store_usage(), (0, 0));
        assert!(cache.has_negative(SimTime::from_secs(20), &name("keep.com"), RecordType::A));
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
            let slot = cache
                .live_slot(now, host, RecordType::A)
                .expect("glue is cached");
            (cache.records(slot).to_vec(), slot.expires)
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
