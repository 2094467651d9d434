//! Zones: sets of records under one origin, with real lookup semantics.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::DnsError;
use crate::name::DomainName;
use crate::record::{RecordSet, RecordType, ResourceRecord};

/// The outcome of looking a name/type up in a [`Zone`].
///
/// Record-carrying variants hold a copy of the zone's [`RecordSet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Records of exactly the queried type exist at the name.
    Records(RecordSet),
    /// The name is an alias; the resolver should chase the CNAME.
    Cname(ResourceRecord),
    /// The name falls under a delegated child zone; NS records of the cut.
    Delegation(RecordSet),
    /// The name exists but has no records of the queried type.
    NoData,
    /// The name does not exist in the zone.
    NxDomain,
}

/// A DNS zone: all records at or under an origin name, plus child zone cuts.
///
/// Lookup follows RFC 1034 semantics in miniature:
/// 1. if the (possibly empty) queried name sits under a child delegation,
///    return [`ZoneAnswer::Delegation`];
/// 2. exact (name, type) match returns [`ZoneAnswer::Records`];
/// 3. a CNAME at the name (for non-CNAME queries) returns
///    [`ZoneAnswer::Cname`];
/// 4. the name existing with other types returns [`ZoneAnswer::NoData`];
/// 5. otherwise [`ZoneAnswer::NxDomain`].
///
/// # Example
///
/// ```
/// use remnant_dns::{DomainName, RecordData, RecordType, ResourceRecord, Ttl, Zone, ZoneAnswer};
///
/// let apex: DomainName = "example.com".parse()?;
/// let mut zone = Zone::new(apex.clone());
/// zone.add(ResourceRecord::new(
///     apex.prepend("www")?,
///     Ttl::secs(300),
///     RecordData::A("203.0.113.7".parse()?),
/// ));
/// match zone.lookup(&apex.prepend("www")?, RecordType::A) {
///     ZoneAnswer::Records(rrs) => assert_eq!(rrs.len(), 1),
///     other => panic!("unexpected {other:?}"),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Zone {
    origin: DomainName,
    /// (owner, type) -> records. BTreeMap keeps iteration deterministic.
    /// Lookups hand out copies of a set; the rare mutations (provider
    /// switches between sweeps) rebuild it.
    records: BTreeMap<(DomainName, RecordType), RecordSet>,
    /// SOA-serial-style generation counter, bumped on every record mutation.
    /// Two equal generations guarantee the record contents are unchanged;
    /// the counter is compared only for equality, never for ordering.
    generation: u64,
}

impl Zone {
    /// Creates an empty zone rooted at `origin`.
    pub fn new(origin: DomainName) -> Self {
        Zone {
            origin,
            records: BTreeMap::new(),
            generation: 0,
        }
    }

    /// The zone's origin name.
    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    /// The zone's generation counter — an SOA-serial analogue that changes
    /// whenever any record is added, removed, or replaced. Delta collection
    /// compares generations between rounds to skip unchanged zones.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Adds a record. The owner must be at or under the origin.
    ///
    /// # Panics
    ///
    /// Panics if the record owner is outside the zone; use [`Zone::try_add`]
    /// for a fallible variant.
    pub fn add(&mut self, record: ResourceRecord) {
        self.try_add(record).expect("record belongs to this zone");
    }

    /// Adds a record, rejecting owners outside the zone.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::OutOfZone`] if the owner is not at/under the
    /// origin.
    pub fn try_add(&mut self, record: ResourceRecord) -> Result<(), DnsError> {
        if !record.name.is_subdomain_of(&self.origin) {
            return Err(DnsError::OutOfZone {
                zone: self.origin.to_string(),
                name: record.name.to_string(),
            });
        }
        let key = (record.name.clone(), record.record_type());
        match self.records.get_mut(&key) {
            // Mutation is cold (provider switches between sweeps); rebuild
            // the set rather than complicating the hot lookup path.
            Some(set) => {
                let mut rrs = set.to_vec();
                rrs.push(record);
                *set = rrs.into();
            }
            None => {
                self.records.insert(key, RecordSet::from([record]));
            }
        }
        self.generation += 1;
        Ok(())
    }

    /// Removes all records of `rtype` at `name`, returning them.
    pub fn remove(&mut self, name: &DomainName, rtype: RecordType) -> Vec<ResourceRecord> {
        match self.records.remove(&(name.clone(), rtype)) {
            Some(set) => {
                self.generation += 1;
                set.to_vec()
            }
            None => Vec::new(),
        }
    }

    /// Removes every record at `name` (all types).
    pub fn remove_name(&mut self, name: &DomainName) -> usize {
        let keys: Vec<_> = self
            .records
            .keys()
            .filter(|(n, _)| n == name)
            .cloned()
            .collect();
        let mut removed = 0;
        for key in keys {
            removed += self.records.remove(&key).map_or(0, |set| set.len());
        }
        if removed > 0 {
            self.generation += 1;
        }
        removed
    }

    /// Replaces all records of `rtype` at `name` with `records`.
    pub fn replace(&mut self, name: &DomainName, rtype: RecordType, records: impl Into<RecordSet>) {
        let records: RecordSet = records.into();
        self.generation += 1;
        if records.is_empty() {
            self.records.remove(&(name.clone(), rtype));
            return;
        }
        debug_assert!(records
            .iter()
            .all(|rr| rr.record_type() == rtype && &rr.name == name));
        self.records.insert((name.clone(), rtype), records);
    }

    /// Direct records of `rtype` at `name` (no CNAME/delegation logic).
    pub fn get(&self, name: &DomainName, rtype: RecordType) -> &[ResourceRecord] {
        self.get_set(name, rtype).map_or(&[], |set| &set[..])
    }

    /// The record set of `rtype` at `name`, if present.
    fn get_set(&self, name: &DomainName, rtype: RecordType) -> Option<&RecordSet> {
        self.records.get(&(name.clone(), rtype))
    }

    /// True if any record exists at `name`.
    pub fn name_exists(&self, name: &DomainName) -> bool {
        RecordType::ALL
            .iter()
            .any(|t| self.records.contains_key(&(name.clone(), *t)))
    }

    /// Full RFC-1034-style lookup (see type docs).
    pub fn lookup(&self, name: &DomainName, rtype: RecordType) -> ZoneAnswer {
        if !name.is_subdomain_of(&self.origin) {
            return ZoneAnswer::NxDomain;
        }
        // 1. Child zone cut: an NS set at a *proper* descendant of the origin
        //    that is an ancestor of (or equal to) the queried name, unless
        //    we're asking the cut point for its own NS set.
        let mut cut = name.clone();
        loop {
            if cut != self.origin {
                let own_ns_query = cut == *name && rtype == RecordType::Ns;
                if !own_ns_query {
                    if let Some(ns) = self.get_set(&cut, RecordType::Ns) {
                        if !ns.is_empty() {
                            return ZoneAnswer::Delegation(RecordSet::clone(ns));
                        }
                    }
                }
            }
            match cut.parent() {
                Some(parent) if parent.is_subdomain_of(&self.origin) && parent != cut => {
                    cut = parent;
                }
                _ => break,
            }
        }
        // 2. Exact match.
        if let Some(exact) = self.get_set(name, rtype) {
            if !exact.is_empty() {
                return ZoneAnswer::Records(RecordSet::clone(exact));
            }
        }
        // 3. CNAME indirection (never for CNAME queries themselves).
        if rtype != RecordType::Cname {
            if let Some(cname) = self.get(name, RecordType::Cname).first() {
                return ZoneAnswer::Cname(cname.clone());
            }
        }
        // 4/5. NODATA vs NXDOMAIN.
        if self.name_exists(name) {
            ZoneAnswer::NoData
        } else {
            ZoneAnswer::NxDomain
        }
    }

    /// Number of records in the zone.
    pub fn len(&self) -> usize {
        self.records.values().map(|set| set.len()).sum()
    }

    /// True if the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates all records in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &ResourceRecord> {
        self.records.values().flat_map(|set| set.iter())
    }
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; zone {}", self.origin)?;
        for rr in self.iter() {
            writeln!(f, "{rr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordData, Ttl};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    fn a(owner: &str, ip: [u8; 4]) -> ResourceRecord {
        ResourceRecord::new(name(owner), Ttl::secs(300), RecordData::A(ip.into()))
    }

    fn zone_with_www() -> Zone {
        let mut z = Zone::new(name("example.com"));
        z.add(a("www.example.com", [203, 0, 113, 7]));
        z.add(ResourceRecord::new(
            name("example.com"),
            Ttl::hours(1),
            RecordData::Mx {
                preference: 10,
                exchange: name("mx.example.com"),
            },
        ));
        z
    }

    #[test]
    fn exact_match() {
        let z = zone_with_www();
        match z.lookup(&name("www.example.com"), RecordType::A) {
            ZoneAnswer::Records(rrs) => {
                assert_eq!(rrs[0].data.as_a(), Some(Ipv4Addr::new(203, 0, 113, 7)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let z = zone_with_www();
        assert_eq!(
            z.lookup(&name("www.example.com"), RecordType::Mx),
            ZoneAnswer::NoData
        );
        assert_eq!(
            z.lookup(&name("nope.example.com"), RecordType::A),
            ZoneAnswer::NxDomain
        );
    }

    #[test]
    fn out_of_zone_name_is_nxdomain() {
        let z = zone_with_www();
        assert_eq!(
            z.lookup(&name("www.other.org"), RecordType::A),
            ZoneAnswer::NxDomain
        );
    }

    #[test]
    fn cname_indirection() {
        let mut z = Zone::new(name("example.com"));
        z.add(ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::Cname(name("x7f3.incapdns.net")),
        ));
        match z.lookup(&name("www.example.com"), RecordType::A) {
            ZoneAnswer::Cname(rr) => {
                assert_eq!(rr.data.as_cname(), Some(&name("x7f3.incapdns.net")));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A CNAME query gets the CNAME as a plain record, not indirection.
        match z.lookup(&name("www.example.com"), RecordType::Cname) {
            ZoneAnswer::Records(rrs) => assert_eq!(rrs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delegation_covers_descendants() {
        let mut z = Zone::new(name("com"));
        z.add(ResourceRecord::new(
            name("example.com"),
            Ttl::days(2),
            RecordData::Ns(name("kate.ns.cloudflare.com")),
        ));
        match z.lookup(&name("www.example.com"), RecordType::A) {
            ZoneAnswer::Delegation(ns) => assert_eq!(ns.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        // Asking the cut itself for NS returns the cut's NS set as a
        // delegation-shaped answer only for names *under* it; the cut name's
        // own NS query yields the records.
        match z.lookup(&name("example.com"), RecordType::Ns) {
            ZoneAnswer::Records(ns) => assert_eq!(ns.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        // A non-NS query at the cut is a delegation too.
        match z.lookup(&name("example.com"), RecordType::A) {
            ZoneAnswer::Delegation(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn apex_ns_is_not_a_delegation() {
        let mut z = Zone::new(name("example.com"));
        z.add(ResourceRecord::new(
            name("example.com"),
            Ttl::days(2),
            RecordData::Ns(name("ns1.example.com")),
        ));
        z.add(a("www.example.com", [1, 2, 3, 4]));
        // The origin's own NS records are authoritative data, not a cut.
        match z.lookup(&name("www.example.com"), RecordType::A) {
            ZoneAnswer::Records(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn try_add_rejects_foreign_records() {
        let mut z = Zone::new(name("example.com"));
        let err = z.try_add(a("www.other.org", [1, 2, 3, 4])).unwrap_err();
        assert!(matches!(err, DnsError::OutOfZone { .. }));
    }

    #[test]
    fn remove_and_replace() {
        let mut z = zone_with_www();
        assert_eq!(z.remove(&name("www.example.com"), RecordType::A).len(), 1);
        assert_eq!(
            z.lookup(&name("www.example.com"), RecordType::A),
            ZoneAnswer::NxDomain
        );
        z.replace(
            &name("www.example.com"),
            RecordType::A,
            vec![a("www.example.com", [9, 9, 9, 9])],
        );
        assert_eq!(z.get(&name("www.example.com"), RecordType::A).len(), 1);
    }

    #[test]
    fn remove_name_clears_all_types() {
        let mut z = Zone::new(name("example.com"));
        z.add(a("x.example.com", [1, 1, 1, 1]));
        z.add(ResourceRecord::new(
            name("x.example.com"),
            Ttl::secs(60),
            RecordData::Mx {
                preference: 10,
                exchange: name("mail.example.com"),
            },
        ));
        assert_eq!(z.remove_name(&name("x.example.com")), 2);
        assert!(z.is_empty());
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut z = Zone::new(name("example.com"));
        assert_eq!(z.generation(), 0);
        z.add(a("www.example.com", [1, 2, 3, 4]));
        assert_eq!(z.generation(), 1);
        z.replace(
            &name("www.example.com"),
            RecordType::A,
            vec![a("www.example.com", [5, 6, 7, 8])],
        );
        assert_eq!(z.generation(), 2);
        z.remove(&name("www.example.com"), RecordType::A);
        assert_eq!(z.generation(), 3);
        // Removing what is not there is not a mutation.
        z.remove(&name("www.example.com"), RecordType::A);
        assert_eq!(z.remove_name(&name("www.example.com")), 0);
        assert_eq!(z.generation(), 3);
        z.add(a("x.example.com", [1, 1, 1, 1]));
        z.add(a("x.example.com", [2, 2, 2, 2]));
        assert_eq!(z.generation(), 5);
        assert_eq!(z.remove_name(&name("x.example.com")), 2);
        assert_eq!(z.generation(), 6);
        // Failed adds leave the generation untouched.
        assert!(z.try_add(a("www.other.org", [1, 2, 3, 4])).is_err());
        assert_eq!(z.generation(), 6);
    }

    #[test]
    fn len_counts_records() {
        let z = zone_with_www();
        assert_eq!(z.len(), 2);
        assert_eq!(z.iter().count(), 2);
    }
}
